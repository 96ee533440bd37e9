(** Deterministic intra-campaign sharding: one fuzzing campaign spread
    over N OCaml 5 domains with a fixed synchronization schedule.

    The sequential {!Campaign} loop feeds every discovery back into the
    very next candidate decision, which is exactly what a parallel run
    cannot reproduce. The sharded runner trades that instant feedback for
    a bounded-staleness schedule built from three pieces:

    - {b a deterministic planner} (coordinator-only): walks the queue in
      cycle order exactly like the sequential scheduler — skip
      probabilities from a dedicated planning RNG stream, afl energy,
      cycle boundaries with full favored recomputation — and emits a list
      of {e work items}, each pinned to (queue entry, private RNG stream,
      energy, exec-counter base). Item RNG streams are keyed by the item's
      position in the global schedule ({!Rng.substream}), never by shard
      or worker id. Planning stops when [sync_interval] executions are
      scheduled (or the budget is exhausted) — the sync schedule is
      measured in executions, independent of wall-clock;

    - {b per-shard step loops} (parallel phase): items are assigned
      round-robin (item [i] to shard [i mod shards]); each shard owns an
      {!Executor.t} on private counters, and evaluates its items against a
      private virgin overlay re-seeded per item from the epoch-start map
      ({!Pathcov.Coverage_map.copy_into}) — so what an item retains
      depends only on the epoch-start state and its own discoveries,
      never on what ran concurrently. Retained candidates and crashes are
      recorded as sparse (index, classified byte) captures; nothing
      shared is written during the phase;

    - {b a merge barrier} (coordinator-only): after the phase completes,
      item results are replayed against the shared virgin/crash-virgin
      maps in global item order — admitting candidates that still add
      coverage, dropping cross-item duplicates, triaging crashes and
      hangs, claiming top-rated slots, aggregating per-shard counter
      blocks into the campaign observer and sampling one snapshot row.

    Because the planner, the item streams and the merge order are all
    functions of the schedule position alone, the merged trajectory —
    queue contents and order, virgin map bytes, crash set, counters — is
    a deterministic function of [(seed, sync_interval)] and {e identical
    for every shard count and worker count}: [shards] only chooses how
    much of each epoch runs concurrently. The differential suite
    enforces byte-identity across shards ∈ {1, 2, 4}; re-runs are
    trivially identical. Observability keeps the zero-perturbation rule:
    shard counter blocks are private until the barrier, and no fuzzing
    decision reads observer state. *)

type config = {
  base : Campaign.config;
  shards : int;  (** parallel width of each epoch (>= 1) *)
  sync_interval : int;  (** executions scheduled between merge barriers *)
}

let default_sync_interval = 2048

let default_config =
  { base = Campaign.default_config; shards = 1; sync_interval = default_sync_interval }

(* ------------------------------------------------------------------ *)
(* Work items and their results *)

(* One planned unit of fuzzing work: calibrate (cmplog) and havoc one
   queue entry with a private RNG stream. [base_exec] anchors the item's
   executions on the campaign's deterministic exec clock. *)
type item = {
  entry_idx : int;  (** queue position of the entry *)
  entry_id : int;
  rng : Rng.t;  (** private stream, keyed by global item counter *)
  calib : bool;
  energy : int;  (** havoc candidates to evaluate *)
  base_exec : int;  (** campaign execs before this item's first one *)
}

(* Sparse captures recorded by shards and replayed at the barrier. *)
type retained_rec = {
  r_data : string;
  r_idxs : int array;  (** classified trace indices, ascending *)
  r_vals : int array;  (** classified trace bytes at [r_idxs] *)
  r_exec_blocks : int;
  r_depth : int;
  r_at_exec : int;
}

type crash_rec = {
  c_crash : Vm.Crash.t;
  c_input : string;
  c_at_exec : int;
  c_idxs : int array;
  c_vals : int array;
}

type item_result = {
  mutable execs : int;
  mutable n_cmps : int;  (** calibration pairs captured (event payload) *)
  mutable retained : retained_rec list;  (** newest first *)
  mutable crashes : crash_rec list;  (** newest first *)
  mutable hangs : int list;  (** at_exec anchors, newest first *)
}

(* ------------------------------------------------------------------ *)
(* Shards *)

(** One shard: an executor on a private counter block, metrics registry
    and trace track [shard index + 1], created once per campaign and
    reused across every epoch. The private blocks are bumped lock-free on
    the shard's own domain and drained into the campaign observer at each
    barrier. *)
type shard = {
  ex : Executor.t;  (** per-shard compiled artifacts and seen-signal set *)
  item_virgin : Pathcov.Coverage_map.t;  (** per-item overlay of the global map *)
  mutable epoch_wall : float;  (** wall of this shard's last epoch slice *)
}

let make_shard ?plans (obs : Obs.Observer.t) (base : Campaign.config) prepared
    ~(track : int) prog : shard =
  {
    ex =
      Executor.make ?plans ~shared:false ~counters:(Obs.Counters.create ())
        ~metrics:(Obs.Metrics.create ()) ~obs ~track base prepared prog;
    item_virgin =
      Pathcov.Coverage_map.create_virgin ~size_log2:base.map_size_log2 ();
    epoch_wall = 0.;
  }

(* Fold a shard's private counter block and registry into the observer's
   and clear them — race-free only while the shard's domain is parked. *)
let drain (obs : Obs.Observer.t) (sh : shard) : unit =
  Obs.Counters.add_into ~into:obs.counters sh.ex.counters;
  Obs.Counters.reset sh.ex.counters;
  Obs.Metrics.add_into ~into:obs.metrics sh.ex.metrics;
  Obs.Metrics.reset sh.ex.metrics

(** The per-shard step loop: evaluate one work item end to end against a
    private virgin overlay, recording retentions/crashes/hangs as sparse
    captures for the merge barrier. Touches only shard-private state
    plus read-only views of the epoch-start corpus and virgin map. *)
let run_item (sh : shard) (view : Corpus.view)
    (global_virgin : Pathcov.Coverage_map.t) (it : item) : item_result =
  let ex = sh.ex in
  let e = Corpus.view_get view it.entry_idx in
  Pathcov.Coverage_map.copy_into ~dst:sh.item_virgin global_virgin;
  let res = { execs = 0; n_cmps = 0; retained = []; crashes = []; hangs = [] } in
  let capture_outcome (out : Vm.Interp.outcome) ~(input : unit -> string)
      ~(depth : int) : unit =
    let tr = ex.feedback.trace in
    match out.status with
    | Vm.Interp.Crashed crash ->
        let idxs = Pathcov.Coverage_map.sorted_indices tr in
        res.crashes <-
          {
            c_crash = crash;
            c_input = input ();
            c_at_exec = it.base_exec + res.execs;
            c_idxs = idxs;
            c_vals = Pathcov.Coverage_map.values_at tr idxs;
          }
          :: res.crashes
    | Vm.Interp.Hung -> res.hangs <- (it.base_exec + res.execs) :: res.hangs
    | Vm.Interp.Finished _ ->
        if
          Pathcov.Coverage_map.merge_into ~virgin:sh.item_virgin tr
          <> Pathcov.Coverage_map.Nothing
        then
          let idxs = Pathcov.Coverage_map.sorted_indices tr in
          res.retained <-
            {
              r_data = input ();
              r_idxs = idxs;
              r_vals = Pathcov.Coverage_map.values_at tr idxs;
              r_exec_blocks = max 1 out.blocks_executed;
              r_depth = depth;
              r_at_exec = it.base_exec + res.execs;
            }
            :: res.retained
  in
  (* calibration run: capture cmplog pairs; its coverage never counts as
     novel (the entry is already in the queue), mirroring the sequential
     calibrate stage — crashes and hangs are captured for triage, but a
     finished run only merges into the overlay *)
  let cmps =
    if it.calib then begin
      Executor.span_begin ex Obs.Trace.Calibrate;
      let out = Executor.exec ex ~signal:false e.Corpus.data in
      res.execs <- res.execs + 1;
      (match out.status with
      | Vm.Interp.Finished _ ->
          ignore
            (Pathcov.Coverage_map.merge_into ~virgin:sh.item_virgin
               ex.feedback.trace)
      | Vm.Interp.Crashed _ | Vm.Interp.Hung ->
          capture_outcome out ~input:(fun () -> e.Corpus.data) ~depth:0);
      ex.counters.calibrations <- ex.counters.calibrations + 1;
      res.n_cmps <- ex.cmp_buf.n_cmps;
      Executor.span_end ex;
      Executor.cmps_of_buf ex.cmp_buf
    end
    else [||]
  in
  (* Batched cohort: the item's whole energy allotment runs back-to-back
     through one [Executor.cohort] call — the splice draw over the
     epoch-start view (so every shard sees the same corpus regardless of
     merge-time growth) and the timed mutation in [gen], the
     per-candidate bookkeeping and capture in [sink]. Replays don't go
     through the batch, so [res.execs] ticks once per candidate. *)
  let depth = e.Corpus.depth + 1 in
  let input () = Executor.scratch_child ex in
  let gen _ =
    Executor.candidate ex it.rng ~cmps
      ?splice_with:
        (Executor.splice_peer it.rng view.varr ~n:view.vsize e)
      e.Corpus.data
  in
  if it.energy > 0 then
    Executor.cohort ex ~n:it.energy ~gen
      ~sink:
        (if not ex.cfg.selective then fun _ out ->
           Executor.post_exec ex out;
           res.execs <- res.execs + 1;
           capture_outcome out ~input ~depth
         else fun _ out ->
           (* Selective step: signal run first, full replay only when the
              trace can matter. The seen set persists across items and
              epochs, so admission is stricter than the sequential rule:
              a signal is promoted only when its trace is wholly
              non-novel against the EPOCH-START global map —
              monotonically non-novel against every later global map and
              every item overlay seeded from one, making the skip
              invisible. A capture that is novel only item-locally (or
              that the barrier later drops, e.g. on a full queue) is not
              promoted and is re-captured identically by later items —
              barrier decisions, dup-drop counts and the final trajectory
              match the always-traced run for every shard count. *)
           Executor.post_exec ex out;
           res.execs <- res.execs + 1;
           match out.status with
           | Vm.Interp.Crashed _ ->
               (* crash triage needs the trace (crash-virgin merge at the
                  barrier); crash signals are never marked seen *)
               let out = Executor.replay_scratch ex in
               capture_outcome out ~input ~depth
           | Vm.Interp.Hung -> res.hangs <- (it.base_exec + res.execs) :: res.hangs
           | Vm.Interp.Finished _ ->
               let s = Tracer.last_signal ex.tracer in
               if not (Tracer.seen_signal ex.tracer s) then begin
                 let out = Executor.replay_scratch ex in
                 capture_outcome out ~input ~depth;
                 if
                   not
                     (Pathcov.Coverage_map.would_merge ~virgin:global_virgin
                        ex.feedback.trace)
                 then Tracer.mark_seen ex.tracer s
               end);
  res.retained <- List.rev res.retained;
  res.crashes <- List.rev res.crashes;
  res.hangs <- List.rev res.hangs;
  res

(* ------------------------------------------------------------------ *)
(* Coordinator *)

type result = {
  campaign : Campaign.result;  (** the familiar campaign-level report *)
  shards : int;
  sync_interval : int;
  epochs : int;  (** sync barriers executed *)
  items : int;  (** work items scheduled over the whole run *)
  dup_dropped : int;
      (** shard-retained candidates another item beat to the barrier *)
  virgin : Pathcov.Coverage_map.t;  (** final merged virgin map *)
  crash_virgin : Pathcov.Coverage_map.t;
}

type t = {
  cfg : config;
  q : Campaign.queue_state;  (** the queue side, as in the sequential loop *)
  plan_rng : Rng.t;  (** skip-probability draws, planning order *)
  mutable items_total : int;  (** global item counter, keys RNG substreams *)
  mutable cycle_len : int;
  mutable next_qi : int;
  mutable epochs : int;
  mutable dup_dropped : int;
  exec_base : int;  (** observer exec counter at campaign start *)
}

(* Plan one epoch: walk the queue in cycle order, exactly like the
   sequential scheduler, until [sync_interval] executions are scheduled
   or the budget is spent. Consumes skip draws from the planning stream
   and mutates times_fuzzed/pending_favored at plan time (the sequential
   loop does so between entries; both orders are deterministic). *)
let plan_epoch (t : t) : item array =
  let base = t.cfg.base in
  let q = t.q in
  let items = ref [] in
  let planned = ref 0 in
  while !planned < t.cfg.sync_interval && q.execs + !planned < base.budget do
    if t.next_qi >= t.cycle_len then begin
      Campaign.start_cycle q ~at_exec:(t.exec_base + q.execs + !planned);
      t.cycle_len <- Corpus.size q.corpus;
      t.next_qi <- 0
    end;
    let e = Corpus.get q.corpus t.next_qi in
    t.next_qi <- t.next_qi + 1;
    if
      not
        (Campaign.entry_skip t.plan_rng
           ~pending_favored:(Corpus.pending_favored q.corpus)
           e)
    then begin
      let calib_cost = if base.cmplog then 1 else 0 in
      let remaining = base.budget - (q.execs + !planned) in
      let energy =
        min (Campaign.entry_energy ~budget:base.budget e)
          (max 0 (remaining - calib_cost))
      in
      items :=
        {
          entry_idx = t.next_qi - 1;
          entry_id = e.Corpus.id;
          rng = Rng.substream ~seed:base.rng_seed (t.items_total + 1);
          calib = base.cmplog;
          energy;
          base_exec = q.execs + !planned;
        }
        :: !items;
      t.items_total <- t.items_total + 1;
      planned := !planned + calib_cost + energy;
      Corpus.mark_fuzzed q.corpus e
    end
  done;
  Array.of_list (List.rev !items)

(* Replay one epoch's item results against the shared state, in global
   item order — the only place shared campaign state is written. This is
   the sharded decide step: captures are re-checked against the merged
   virgin map, then admitted through the sequential loop's own
   bookkeeping. *)
let merge_epoch (t : t) (items : item array) (results : item_result array) :
    int =
  let q = t.q in
  let retained_now = ref 0 in
  Array.iteri
    (fun k (it : item) ->
      let r = results.(k) in
      if it.calib then
        Obs.Observer.event q.obs
          (Obs.Event.Calibration
             {
               at_exec = t.exec_base + it.base_exec + 1;
               entry = it.entry_id;
               cmps = r.n_cmps;
             });
      let triaging = r.crashes <> [] || r.hangs <> [] in
      if triaging then Campaign.co_span_begin q Obs.Trace.Triage;
      List.iter
        (fun (cr : crash_rec) ->
          let coverage_novel =
            Pathcov.Coverage_map.merge_sparse_into ~virgin:q.crash_virgin
              ~idxs:cr.c_idxs ~vals:cr.c_vals
            <> Pathcov.Coverage_map.Nothing
          in
          Triage.record_crash q.triage ~crash:cr.c_crash ~input:cr.c_input
            ~at_exec:cr.c_at_exec ~coverage_novel)
        r.crashes;
      List.iter (fun at -> Triage.record_hang ~at_exec:at q.triage) r.hangs;
      if triaging then Campaign.co_span_end q;
      List.iter
        (fun (rr : retained_rec) ->
          let at_exec = t.exec_base + rr.r_at_exec in
          if not (Campaign.queue_full q ~at_exec) then
            if
              Pathcov.Coverage_map.merge_sparse_into ~virgin:q.virgin
                ~idxs:rr.r_idxs ~vals:rr.r_vals
              <> Pathcov.Coverage_map.Nothing
            then begin
              Campaign.admit q ~data:rr.r_data ~indices:rr.r_idxs
                ~exec_blocks:rr.r_exec_blocks ~depth:rr.r_depth
                ~found_at:rr.r_at_exec ~at_exec;
              incr retained_now
            end
            else t.dup_dropped <- t.dup_dropped + 1)
        r.retained)
    items;
  !retained_now

(* ------------------------------------------------------------------ *)
(* Stall watchdog *)

(** A shard counts as stalled when its epoch slice took more than this
    many times the median shard's wall. *)
let stall_factor = 4.

(** Pure stall verdicts over one epoch's per-shard walls:
    [(shard, wall, median)] for every shard whose wall exceeds
    [factor *.] the median. Empty when fewer than two shards or when the
    median is zero (unclocked or degenerate epochs never stall). *)
let stall_check ~(walls : float array) ~(factor : float) :
    (int * float * float) list =
  let median = Stats.median_float (Array.to_list walls) in
  if Array.length walls < 2 || median <= 0. then []
  else
    List.filter
      (fun (_, w, _) -> w > factor *. median)
      (List.mapi (fun s w -> (s, w, median)) (Array.to_list walls))

(* The planner cursor and the shard-summed clocks. Barriers are the
   only capture points: between them shard-private state is in flight,
   but at a barrier the entire campaign is the queue side plus this
   cursor — and both are pure functions of [(seed, sync_interval)], so
   checkpoints are too, independent of shard and worker count. Per-item
   RNG streams need no capture: they are substreams keyed by
   [items_total]. *)
let progress (t : t) : Checkpoint.progress =
  let c = t.q.obs.counters in
  {
    Checkpoint.execs = t.q.execs;
    blocks = c.blocks;
    havocs = c.havocs;
    rng_state = Rng.state t.plan_rng;
    items_total = t.items_total;
    cycle_len = t.cycle_len;
    next_qi = t.next_qi;
    epochs = t.epochs;
    dup_dropped = t.dup_dropped;
  }

(* Load a barrier snapshot into a freshly built coordinator: the queue
   side, then the planner cursor and its RNG position. *)
let restore_checkpoint (t : t) (ck : Checkpoint.t) : unit =
  Campaign.restore_queue_state t.q ck;
  let p = ck.Checkpoint.progress in
  Rng.set_state t.plan_rng p.rng_state;
  t.items_total <- p.items_total;
  t.cycle_len <- p.cycle_len;
  t.next_qi <- p.next_qi;
  t.epochs <- p.epochs;
  t.dup_dropped <- p.dup_dropped

(** Run one sharded campaign. [workers] caps the domain-pool width (the
    default runs one worker per shard; any value yields byte-identical
    results — it is purely a wall-clock knob, like [--jobs] for trial
    fan-out). [plans] and [obs] behave as in {!Campaign.run}; the
    observer's clock enables the same vm/mutator wall split, accumulated
    per shard and aggregated at each barrier.

    [checkpoint] writes a snapshot at each merge barrier that crosses a
    multiple of [sink.every] executions (mid-budget only); [resume]
    restores one instead of importing [seeds]. Because barriers — and
    therefore checkpoints — are functions of [(seed, sync_interval)]
    alone, a snapshot taken at any shard/worker count resumes at any
    other with a byte-identical remaining trajectory. Both assume the
    campaign owns its observer (the counter block is restored
    wholesale). *)
let run ?plans ?obs ?workers ?(checkpoint : Checkpoint.sink option)
    ?(resume : Checkpoint.t option) (cfg : config) (prog : Minic.Ir.program)
    ~(seeds : string list) : result =
  if cfg.shards < 1 then invalid_arg "Shard.run: shards must be >= 1";
  if cfg.sync_interval < 1 then
    invalid_arg "Shard.run: sync_interval must be >= 1";
  let obs = match obs with Some o -> o | None -> Obs.Observer.null () in
  let base = cfg.base in
  let prepared = Vm.Interp.prepare_cached prog in
  let shards =
    Array.init cfg.shards (fun s ->
        make_shard ?plans obs base prepared ~track:(s + 1) prog)
  in
  (* Emission fails identically for every shard (same cache key), so one
     event stands for the fleet. *)
  Executor.report_fallback obs shards.(0).ex;
  let m = Campaign.mark obs in
  let exec_base = m.at.execs in
  let t =
    {
      cfg;
      q = Campaign.make_queue_state obs base;
      plan_rng = Rng.substream ~seed:base.rng_seed 0;
      items_total = 0;
      cycle_len = 0;
      next_qi = 0;
      epochs = 0;
      dup_dropped = 0;
      exec_base;
    }
  in
  let q = t.q in
  (match resume with
  | Some ck -> restore_checkpoint t ck
  | None ->
      (* seed import on shard 0's executor, before any parallel phase,
         with the sequential verdict: seeds always retained, crashes and
         hangs triaged, coverage merged into the shared virgin map *)
      let ex = shards.(0).ex in
      Campaign.import_seeds q seeds ~add:(fun input ->
          let out = Executor.exec ex ~signal:false input in
          q.execs <- q.execs + 1;
          Campaign.seed_outcome q ex out ~at_exec:(exec_base + q.execs) input);
      (* drain seed-import execution counts out of shard 0's block so the
         observer is current before the first barrier *)
      drain obs shards.(0));
  (* barrier-aligned checkpoints, mid-budget only: resuming the final
     state would be a no-op and the written file should always have
     budget left to replay *)
  let checkpoint =
    Campaign.checkpointer q checkpoint ~sync_interval:cfg.sync_interval
      ~progress:(fun () -> progress t)
  in
  let workers =
    min cfg.shards (match workers with Some w -> max 1 w | None -> cfg.shards)
  in
  let pool = if workers > 1 then Some (Exec.Pool.create ~jobs:workers) else None in
  Fun.protect
    ~finally:(fun () ->
      match pool with Some p -> Exec.Pool.shutdown p | None -> ())
    (fun () ->
      while q.execs < base.budget do
        Campaign.co_span_begin q Obs.Trace.Plan;
        let items = plan_epoch t in
        let n = Array.length items in
        Campaign.co_span_end ~arg:n q;
        let results = Array.make n None in
        let view = Corpus.view q.corpus ~limit:(Corpus.size q.corpus) in
        let slice s ~worker:_ =
          let sh = shards.(s) in
          let clock = sh.ex.clock in
          let t0 = match clock with Some now -> now () | None -> 0. in
          Executor.span_begin sh.ex Obs.Trace.Epoch;
          let mine = ref 0 in
          let k = ref s in
          while !k < n do
            results.(!k) <- Some (run_item sh view q.virgin items.(!k));
            incr mine;
            k := !k + cfg.shards
          done;
          Executor.span_end ~arg:!mine sh.ex;
          sh.epoch_wall <-
            (match clock with Some now -> now () -. t0 | None -> 0.)
        in
        (match pool with
        | Some p -> Exec.Pool.run_phase p cfg.shards slice
        | None ->
            for s = 0 to cfg.shards - 1 do
              slice s ~worker:0
            done);
        let results =
          Array.map
            (function
              | Some r -> r | None -> invalid_arg "Shard.run: missing result")
            results
        in
        (* barrier: the shard domains are parked (run_phase returned), so
           draining their private counter/metric blocks is race-free *)
        Array.iter (drain obs) shards;
        Campaign.co_span_begin q Obs.Trace.Merge;
        let retained_now = merge_epoch t items results in
        Campaign.co_span_end ~arg:retained_now q;
        Array.iter (fun (r : item_result) -> q.execs <- q.execs + r.execs) results;
        t.epochs <- t.epochs + 1;
        (* stall watchdog: epoch walls exist only when the observer
           carries a clock, so verdicts (like every wall) are
           observation-only and never reach a fuzzing decision *)
        (match obs.clock with
        | Some _ when cfg.shards > 1 ->
            let walls = Array.map (fun sh -> sh.epoch_wall) shards in
            let maxw = Array.fold_left max 0. walls in
            let m = obs.metrics in
            Array.iteri
              (fun s sh ->
                Obs.Metrics.add_wall
                  (Obs.Metrics.wall m (Printf.sprintf "shard%d.busy_s" s))
                  sh.epoch_wall;
                Obs.Metrics.add_wall
                  (Obs.Metrics.wall m (Printf.sprintf "shard%d.wait_s" s))
                  (maxw -. sh.epoch_wall))
              shards;
            List.iter
              (fun (s, w, med) ->
                Obs.Metrics.bump (Obs.Metrics.counter m "shard.stalls");
                Obs.Observer.event obs
                  (Obs.Event.Stall
                     {
                       at_exec = exec_base + q.execs;
                       epoch = t.epochs;
                       shard = s;
                       wall_s = w;
                       median_s = med;
                     }))
              (stall_check ~walls ~factor:stall_factor)
        | _ -> ());
        Obs.Observer.event obs
          (Obs.Event.Shard_sync
             {
               at_exec = exec_base + q.execs;
               epoch = t.epochs;
               queue = Corpus.size q.corpus;
               retained = retained_now;
               dup_dropped = t.dup_dropped;
             });
        Campaign.take_snapshot q;
        checkpoint ()
      done);
  let c = obs.counters in
  Executor.harvest_metrics obs.metrics c (Array.map (fun sh -> sh.ex) shards);
  {
    campaign =
      Campaign.result_of q m ~blocks:(c.blocks - m.at.blocks)
        ~havocs:(c.havocs - m.at.havocs);
    shards = cfg.shards;
    sync_interval = cfg.sync_interval;
    epochs = t.epochs;
    items = t.items_total;
    dup_dropped = t.dup_dropped;
    virgin = q.virgin;
    crash_virgin = q.crash_virgin;
  }
