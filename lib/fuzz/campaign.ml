(** The coverage-guided fuzzing loop: an afl-fuzz-shaped campaign over the
    MiniC VM, parameterised by the feedback listener (§IV "Integration").

    A campaign owns a virgin map, a crash-virgin map, the queue, and the
    triage record. Its budget is an execution count — the deterministic
    stand-in for the paper's wall-clock budgets — and all randomness flows
    from one [Rng.t], so a run is a pure function of
    (program, seeds, config).

    Every campaign carries an {!Obs.Observer.t} (a fresh counters-only
    one when the caller passes none): the preallocated counter block is
    bumped inline, snapshot rows are sampled every [budget / 64] execs,
    and structured events flow to the observer's sink from the cold
    paths (retention, crashes, cycle boundaries, calibration). Observers
    obey the zero-perturbation rule — they never consume RNG draws and
    fuzzing decisions never branch on observer state — so observed and
    unobserved campaigns run byte-identical trajectories (test-enforced). *)

type config = Executor.config = {
  mode : Pathcov.Feedback.mode;
  budget : int;  (** total target executions *)
  rng_seed : int;
  fuel : int;  (** VM fuel per execution (the timeout analogue) *)
  max_depth : int;  (** VM call-depth limit per execution *)
  map_size_log2 : int;
  cmplog : bool;  (** enable comparison-operand capture + I2S mutations *)
  max_queue : int;  (** hard safety bound on queue growth *)
  engine : Tracer.engine;  (** execution engine (trajectory-invisible) *)
  selective : bool;  (** signal-first execution with full replay on novelty *)
}

let default_config = Executor.default_config

type result = {
  config : config;
  corpus : Corpus.t;
  triage : Triage.t;
  execs : int;  (** executions actually performed *)
  queue_series : (int * int) list;  (** (execs, queue size) samples *)
  sum_exec_blocks : int;  (** total VM blocks executed, throughput proxy *)
  havocs : int;  (** mutated candidates generated *)
  snapshots : Obs.Snapshot.row list;  (** this run's periodic stats rows *)
  vm_s : float;  (** wall inside the VM (0 unless the observer has a clock) *)
  mut_s : float;  (** wall inside the mutator (0 unless clocked) *)
  mut_minor_words : float;  (** GC minor words allocated by the mutator *)
}

(** Final queue inputs, in discovery order. *)
let queue_inputs (r : result) : string list =
  List.map (fun (e : Corpus.entry) -> e.data) (Corpus.to_list r.corpus)

type cmp_buf = Executor.cmp_buf = {
  ops_a : int array;
  ops_b : int array;
  mutable n_cmps : int;
}

let make_cmp_buf = Executor.make_cmp_buf
let cmps_of_buf = Executor.cmps_of_buf
let make_hooks = Executor.make_hooks

(* ------------------------------------------------------------------ *)
(* Queue-side bookkeeping, shared with the sharded coordinator *)

(** The queue side of a campaign: what the sequential loop and the
    sharded coordinator both own and update the same way. [execs] is the
    campaign-local budget clock; queue entries' [found_at] and triage
    anchors read it. *)
type queue_state = {
  cfg : config;
  corpus : Corpus.t;
  virgin : Pathcov.Coverage_map.t;
  crash_virgin : Pathcov.Coverage_map.t;
  triage : Triage.t;
  obs : Obs.Observer.t;
      (** counters + snapshots + event sink; may be shared across phases *)
  mutable execs : int;
}

let make_queue_state (obs : Obs.Observer.t) (cfg : config) : queue_state =
  {
    cfg;
    corpus = Corpus.create ~size_log2:cfg.map_size_log2 ();
    virgin = Pathcov.Coverage_map.create_virgin ~size_log2:cfg.map_size_log2 ();
    crash_virgin =
      Pathcov.Coverage_map.create_virgin ~size_log2:cfg.map_size_log2 ();
    triage = Triage.create ~obs ();
    obs;
    execs = 0;
  }

(* Coordinator spans on track 0 of the observer's trace. Observation-only
   — never consults RNG or feedback state. *)
let co_span_begin (q : queue_state) (k : Obs.Trace.kind) : unit =
  match q.obs.trace with
  | Some tr -> Obs.Trace.begin_span tr ~track:0 k
  | None -> ()

let co_span_end ?(arg = 0) (q : queue_state) : unit =
  match q.obs.trace with
  | Some tr -> Obs.Trace.end_span ~arg tr ~track:0 ()
  | None -> ()

(* One periodic stats row: the counter block plus the two facts only the
   campaign can see (queue size, virgin residual). The residual scan is
   word-wise over the virgin map — cheap at snapshot cadence. *)
let take_snapshot (q : queue_state) : unit =
  Obs.Observer.snapshot q.obs
    (Obs.Snapshot.of_counters q.obs.counters
       ~queue:(Corpus.size q.corpus)
       ~virgin_residual:(Pathcov.Coverage_map.residual q.virgin))

(* Cycle start: full favored recomputation (afl's cull_queue) and the
   Favored_cycle event. *)
let start_cycle (q : queue_state) ~(at_exec : int) : unit =
  let c = q.obs.counters in
  Corpus.recompute_favored q.corpus;
  c.cycles <- c.cycles + 1;
  let fav = ref 0 in
  Corpus.iter (fun e -> if e.favored then incr fav) q.corpus;
  c.favored <- !fav;
  c.pending_favored <- Corpus.pending_favored q.corpus;
  Obs.Observer.event q.obs
    (Obs.Event.Favored_cycle
       {
         at_exec;
         queue = Corpus.size q.corpus;
         favored = !fav;
         pending = Corpus.pending_favored q.corpus;
       })

(* Queue-capacity bookkeeping for one evaluated finished exec. The
   capacity check precedes the virgin merge (and, under selective
   tracing, precedes marking a signal seen): a full queue must not mark
   coverage as seen without retaining an input reaching it, or that
   coverage becomes unreachable for the whole run. *)
let queue_full (q : queue_state) ~(at_exec : int) : bool =
  Corpus.size q.corpus >= q.cfg.max_queue
  && begin
       (* drop counted per evaluated exec; the event fires once per
          campaign (branching on a counter never feeds back into fuzzing
          decisions) *)
       let c = q.obs.counters in
       c.queue_full_drops <- c.queue_full_drops + 1;
       if c.queue_full_drops = 1 then
         Obs.Observer.event q.obs
           (Obs.Event.Queue_full { at_exec; queue = Corpus.size q.corpus });
       true
     end

(* Retention of an admitted candidate: the queue entry, its incremental
   top-rated claims (afl's update_bitmap_score) and the Retain event. *)
let admit (q : queue_state) ~(data : string) ~(indices : int array)
    ~(exec_blocks : int) ~(depth : int) ~(found_at : int) ~(at_exec : int) :
    unit =
  let e = Corpus.add q.corpus ~data ~indices ~exec_blocks ~depth ~found_at in
  Corpus.claim_top_rated q.corpus e;
  let c = q.obs.counters in
  c.retained <- c.retained + 1;
  Obs.Observer.event q.obs
    (Obs.Event.Retain { at_exec; id = e.id; len = String.length data; depth })

(* Crash/hang bookkeeping over the classified trace [ex] just produced —
   seed import, queue-entry calibration and mutated candidates all triage
   the same way, so no outcome can be dropped on the floor. Counter bumps
   and Crash/Hang events ride on the triage record (see Triage). *)
let triage_outcome (q : queue_state) (ex : Executor.t) (out : Vm.Interp.outcome)
    ~(input : string) : unit =
  match out.status with
  | Vm.Interp.Crashed crash ->
      Executor.span_begin ex Obs.Trace.Triage;
      let coverage_novel =
        Pathcov.Coverage_map.merge_into ~virgin:q.crash_virgin ex.feedback.trace
        <> Pathcov.Coverage_map.Nothing
      in
      Triage.record_crash q.triage ~crash ~input ~at_exec:q.execs ~coverage_novel;
      Executor.span_end ex
  | Vm.Interp.Hung ->
      Executor.span_begin ex Obs.Trace.Triage;
      Triage.record_hang ~at_exec:q.execs q.triage;
      Executor.span_end ex
  | Vm.Interp.Finished _ -> ()

(* Seeds are always retained (afl imports the full seed directory):
   the verdict on one executed seed, merging straight into the virgin
   map. *)
let seed_outcome (q : queue_state) (ex : Executor.t) (out : Vm.Interp.outcome)
    ~(at_exec : int) (input : string) : unit =
  match out.status with
  | Vm.Interp.Crashed _ | Vm.Interp.Hung -> triage_outcome q ex out ~input
  | Vm.Interp.Finished _ ->
      ignore
        (Pathcov.Coverage_map.merge_into ~virgin:q.virgin ex.feedback.trace);
      let c = q.obs.counters in
      c.seeds_imported <- c.seeds_imported + 1;
      Obs.Observer.event q.obs
        (Obs.Event.Seed_import { at_exec; len = String.length input });
      admit q ~data:input
        ~indices:(Pathcov.Coverage_map.sorted_indices ex.feedback.trace)
        ~exec_blocks:(max 1 out.blocks_executed) ~depth:0 ~found_at:q.execs
        ~at_exec

let import_seeds (q : queue_state) ~(add : string -> unit) (seeds : string list)
    : unit =
  List.iter add seeds;
  (* Never start with an empty queue: synthesise a minimal seed. *)
  if Corpus.size q.corpus = 0 then add "A";
  if Corpus.size q.corpus = 0 then
    (* even "A" crashes; fall back to an entry with no coverage *)
    ignore
      (Corpus.add q.corpus ~data:"A" ~indices:[||] ~exec_blocks:1 ~depth:0
         ~found_at:q.execs)

(* A snapshot of the queue side plus the loop's own [progress] cursor,
   under the identity record ([sync_interval = 0] marks the sequential
   loop). *)
let capture (q : queue_state) ~(subject : string) ~(fuzzer : string)
    ~(sync_interval : int) ~(progress : Checkpoint.progress) : Checkpoint.t =
  Checkpoint.capture
    ~id:
      {
        Checkpoint.subject;
        fuzzer;
        mode = Pathcov.Feedback.mode_name q.cfg.mode;
        cmplog = q.cfg.cmplog;
        rng_seed = q.cfg.rng_seed;
        budget = q.cfg.budget;
        fuel = q.cfg.fuel;
        max_depth = q.cfg.max_depth;
        map_size_log2 = q.cfg.map_size_log2;
        max_queue = q.cfg.max_queue;
        sync_interval;
      }
    ~progress ~virgin:q.virgin ~crash_virgin:q.crash_virgin ~corpus:q.corpus
    ~triage:q.triage ~counters:q.obs.counters
    ~snapshots:(Obs.Observer.snapshots q.obs)

(* Boundary checkpointing for either loop: at each boundary (a cycle
   start, or a merge barrier) that crosses the next multiple of
   [sink.every] executions with budget left, write a [capture] through
   the sink inside a Checkpoint span. The schedule is a pure function of
   the exec clock (Checkpoint.next_mark), so straight and resumed runs
   write the same remaining snapshots at the same boundaries. *)
let checkpointer (q : queue_state) (checkpoint : Checkpoint.sink option)
    ~(sync_interval : int) ~(progress : unit -> Checkpoint.progress) :
    unit -> unit =
  match checkpoint with
  | None -> ignore
  | Some sk ->
      let next = ref (Checkpoint.next_mark ~every:sk.every ~execs:q.execs) in
      fun () ->
        if q.execs < q.cfg.budget && q.execs >= !next then begin
          co_span_begin q Obs.Trace.Checkpoint;
          sk.save
            (capture q ~subject:sk.subject ~fuzzer:sk.fuzzer ~sync_interval
               ~progress:(progress ()));
          co_span_end q;
          next := Checkpoint.next_mark ~every:sk.every ~execs:q.execs
        end

(* The queue-side half of a restore: queue, triage, both virgin maps, the
   budget clock, the counter block and the recorded snapshot rows
   (preloaded without sink emission). Config validation is the caller's
   job ({!Checkpoint.check_compat}); only the map size — which would make
   the blit fault — is re-checked here. *)
let restore_queue_state (q : queue_state) (ck : Checkpoint.t) : unit =
  if ck.Checkpoint.id.map_size_log2 <> q.cfg.map_size_log2 then
    invalid_arg "restore_checkpoint: map size disagrees with config";
  Checkpoint.restore_corpus_into ck q.corpus;
  Checkpoint.restore_triage_into ck q.triage;
  Pathcov.Coverage_map.restore_raw q.virgin ck.Checkpoint.virgin;
  Pathcov.Coverage_map.restore_raw q.crash_virgin ck.Checkpoint.crash_virgin;
  q.execs <- ck.Checkpoint.progress.execs;
  Obs.Counters.add_into ~into:q.obs.counters ck.Checkpoint.counters;
  Obs.Observer.preload_snapshots q.obs (Array.to_list ck.Checkpoint.snapshots)

(* The observer's state at a run's entry. A shared observer (culling
   rounds, the opportunistic driver, benches) accumulates globally while
   each run reports its own share as deltas against its mark. *)
type mark = { at : Obs.Counters.t; snap_base : int }

let mark (obs : Obs.Observer.t) : mark =
  let at = Obs.Counters.create () in
  Obs.Counters.add_into ~into:at obs.counters;
  { at; snap_base = obs.n_snapshots }

(* A finished run's report over its own slice of the observer. *)
let result_of (q : queue_state) (m : mark) ~(blocks : int) ~(havocs : int) :
    result =
  let c = q.obs.counters in
  let snapshots = Obs.Observer.snapshots_from q.obs ~from:m.snap_base in
  {
    config = q.cfg;
    corpus = q.corpus;
    triage = q.triage;
    execs = q.execs;
    (* derived view over this run's snapshot rows, in the historical
       (campaign-local execs, queue size) shape *)
    queue_series =
      List.map
        (fun (r : Obs.Snapshot.row) -> (r.at_exec - m.at.execs, r.queue))
        snapshots;
    sum_exec_blocks = blocks;
    havocs;
    snapshots;
    vm_s = c.vm_s -. m.at.vm_s;
    mut_s = c.mut_s -. m.at.mut_s;
    mut_minor_words = c.mut_minor_words -. m.at.mut_minor_words;
  }

(* ------------------------------------------------------------------ *)
(* The sequential loop *)

type state = {
  q : queue_state;
  ex : Executor.t;  (** on the observer's counters, registry and track 0 *)
  rng : Rng.t;
  mutable blocks : int;
  mutable havocs : int;
  mutable sample_every : int;  (** snapshot cadence in executions *)
}

(* The campaign-side half of post-exec: the budget clock and the snapshot
   cadence, after {!Executor.post_exec}. *)
let tick (st : state) (out : Vm.Interp.outcome) : unit =
  st.q.execs <- st.q.execs + 1;
  st.blocks <- st.blocks + out.blocks_executed;
  if st.q.execs mod st.sample_every = 0 then take_snapshot st.q

(* Run one input (under the signal specialisation when [signal]). *)
let exec_input (st : state) ~signal (input : string) : Vm.Interp.outcome =
  let out = Executor.exec st.ex ~signal input in
  tick st out;
  out

let execute st input = exec_input st ~signal:false input

(* Observer-global exec count, the anchor of every event. *)
let at_exec (st : state) : int = st.q.obs.counters.execs

(* Retention on coverage novelty: merge the (replayed) classified trace
   into the virgin map and admit the candidate if it added anything. *)
let retain_if_novel (st : state) ~depth (out : Vm.Interp.outcome)
    ~(input : unit -> string) : unit =
  let trace = st.ex.feedback.trace in
  if
    Pathcov.Coverage_map.merge_into ~virgin:st.q.virgin trace
    <> Pathcov.Coverage_map.Nothing
  then
    admit st.q ~data:(input ())
      ~indices:(Pathcov.Coverage_map.sorted_indices trace)
      ~exec_blocks:(max 1 out.blocks_executed) ~depth ~found_at:st.q.execs
      ~at_exec:(at_exec st)

(* Selective evaluation of one candidate run: the signal-specialised run
   already happened, and a full-instrumentation replay follows only when
   the trace can matter. Decision-identical to [decide] without selective
   tracing (DESIGN §12):
   - a crash always replays — crash triage reads the trace for the
     crash-virgin merge, whose saturation is independent of the virgin
     map, so crash signals are never marked seen;
   - a hang triages directly — the trace is never read;
   - a finished run with a seen signal would replay a trace already
     folded into the virgin map, whose merge verdict is Nothing by
     virgin monotonicity: skipping it is invisible;
   - a first-seen signal replays, merges, retains on novelty, and only
     then enters the seen set. The queue-capacity check fires first and
     suppresses the marking, exactly as it suppresses [decide]'s merge.
   [replay] re-runs the candidate (a string or the scratch); [input]
   materialises it for triage and retention. Both are shared by
   {!process} and the batched cohort loop in [run], whose sinks feed
   them directly. *)
let decide_selective (st : state) ~depth ~(replay : unit -> Vm.Interp.outcome)
    ~(input : unit -> string) (out : Vm.Interp.outcome) : unit =
  match out.status with
  | Vm.Interp.Crashed _ ->
      let out = replay () in
      triage_outcome st.q st.ex out ~input:(input ())
  | Vm.Interp.Hung -> triage_outcome st.q st.ex out ~input:(input ())
  | Vm.Interp.Finished _ ->
      let s = Tracer.last_signal st.ex.tracer in
      if not (Tracer.seen_signal st.ex.tracer s) then
        if not (queue_full st.q ~at_exec:(at_exec st)) then begin
          retain_if_novel st ~depth (replay ()) ~input;
          Tracer.mark_seen st.ex.tracer s
        end

let decide (st : state) ~depth ~(input : unit -> string)
    (out : Vm.Interp.outcome) : unit =
  match out.status with
  | Vm.Interp.Crashed _ | Vm.Interp.Hung ->
      triage_outcome st.q st.ex out ~input:(input ())
  | Vm.Interp.Finished _ ->
      if not (queue_full st.q ~at_exec:(at_exec st)) then
        retain_if_novel st ~depth out ~input

(* Evaluate one candidate input end to end: execute, triage crashes and
   hangs, retain on coverage novelty. *)
let process (st : state) ~depth (input : string) : unit =
  let out = exec_input st ~signal:st.q.cfg.selective input in
  if st.q.cfg.selective then
    decide_selective st ~depth
      ~replay:(fun () -> Executor.replay st.ex input)
      ~input:(fun () -> input)
      out
  else decide st ~depth ~input:(fun () -> input) out

let add_seed (st : state) (input : string) : unit =
  let out = execute st input in
  seed_outcome st.q st.ex out ~at_exec:(at_exec st) input

(** One calibration run of a queue entry, capturing cmplog operand pairs
    for input-to-state mutation (the colorization stage of AFL++). The
    outcome flows through the same triage/novelty path as [process]: a
    crash or hang here — possible for the synthetic fallback entry, whose
    data never executed cleanly — must be recorded, not discarded. *)
let calibrate (st : state) (e : Corpus.entry) : Mutator.cmp_pair array =
  (* Probe self-pruning is enabled for exactly this run: calibration is
     always fully instrumented, and its trace feeds only the virgin
     merge — eliding writes to saturated indices cannot change the merge
     verdict (Nothing either way at those indices) or the virgin bytes.
     Retention and crash triage read [sorted_indices], so the marks come
     off before anything else executes, and a crash under pruning is
     replayed unpruned before its crash-virgin merge. *)
  let ex = st.ex in
  Executor.span_begin ex Obs.Trace.Calibrate;
  let prune =
    Tracer.pruning_available ex.tracer
    &&
    (Tracer.refresh_pruning ex.tracer ~virgin:st.q.virgin;
     Tracer.pruned_fids ex.tracer > 0)
  in
  if prune then Tracer.set_pruning ex.tracer true;
  let out = execute st e.data in
  if prune then Tracer.set_pruning ex.tracer false;
  (match out.status with
  | Vm.Interp.Crashed _ ->
      let out = if prune then Executor.replay ex e.data else out in
      triage_outcome st.q ex out ~input:e.data
  | Vm.Interp.Hung -> triage_outcome st.q ex out ~input:e.data
  | Vm.Interp.Finished _ ->
      ignore
        (Pathcov.Coverage_map.merge_into ~virgin:st.q.virgin ex.feedback.trace));
  let c = ex.counters in
  c.calibrations <- c.calibrations + 1;
  Obs.Observer.event st.q.obs
    (Obs.Event.Calibration
       { at_exec = c.execs; entry = e.id; cmps = ex.cmp_buf.n_cmps });
  Executor.span_end ex;
  Executor.cmps_of_buf ex.cmp_buf

(** afl-fuzz's skip probabilities in fuzz_one, over an explicit RNG and
    queue state — the sequential scheduler draws from the campaign
    stream, the sharded planner from its dedicated planning stream. *)
let entry_skip (rng : Rng.t) ~(pending_favored : int) (e : Corpus.entry) : bool
    =
  if e.favored then false
  else if pending_favored > 0 then Rng.chance rng ~num:99 ~den:100
  else if e.times_fuzzed > 0 then Rng.chance rng ~num:95 ~den:100
  else Rng.chance rng ~num:75 ~den:100

(** Havoc energy for one queue entry (a simplified perf_score) — a pure
    function of the entry and the budget, shared with the shard planner. *)
let entry_energy ~(budget : int) (e : Corpus.entry) : int =
  let base = 48 in
  let base = if e.favored then base * 2 else base in
  let base = if e.times_fuzzed = 0 then base * 2 else base in
  let base = if e.depth > 4 then base * 5 / 4 else base in
  min base (max 8 (budget / 64))

(** Build a fresh campaign state. Exposed (alongside [execute],
    [add_seed], [process] and [calibrate]) so tests can drive individual
    pipeline stages directly. *)
let make_state ?plans ?obs ?(config = default_config) (prog : Minic.Ir.program)
    : state =
  let obs = match obs with Some o -> o | None -> Obs.Observer.null () in
  let ex =
    Executor.make ?plans ~obs ~track:0 config (Vm.Interp.prepare_cached prog)
      prog
  in
  Executor.report_fallback obs ex;
  {
    q = make_queue_state obs config;
    ex;
    rng = Rng.create config.rng_seed;
    blocks = 0;
    havocs = 0;
    sample_every = max 1 (config.budget / 64);
  }

(* The sequential cursor is the exec clock alone: the planner slots of
   [progress] stay zero. *)
let progress (st : state) : Checkpoint.progress =
  {
    Checkpoint.execs = st.q.execs;
    blocks = st.blocks;
    havocs = st.havocs;
    rng_state = Rng.state st.rng;
    items_total = 0;
    cycle_len = 0;
    next_qi = 0;
    epochs = 0;
    dup_dropped = 0;
  }

(** The snapshot of a sequential campaign at a cycle boundary, under the
    identity fields carried by the checkpoint sink ([sync_interval = 0]
    marks the sequential loop). *)
let capture_checkpoint (st : state) ~(subject : string) ~(fuzzer : string) :
    Checkpoint.t =
  capture st.q ~subject ~fuzzer ~sync_interval:0 ~progress:(progress st)

(** Load a cycle-boundary snapshot into freshly built campaign state: the
    queue side ({!restore_queue_state}), the campaign RNG position and the
    block/havoc clocks. *)
let restore_checkpoint (st : state) (ck : Checkpoint.t) : unit =
  restore_queue_state st.q ck;
  Rng.set_state st.rng ck.Checkpoint.progress.rng_state;
  st.blocks <- ck.Checkpoint.progress.blocks;
  st.havocs <- ck.Checkpoint.progress.havocs

(** Run a campaign. [plans] shares a precomputed Ball–Larus artifact;
    [obs] supplies the observer (counters, snapshot log, event sink and
    the optional wall clock that enables the mutation-vs-VM split the
    benches report). Fuzzing behaviour is identical with or without it.

    [checkpoint] writes a snapshot at each cycle boundary that crosses a
    multiple of [sink.every] executions (mid-budget only). [resume]
    restores one such snapshot instead of importing [seeds]; the resumed
    run replays the uninterrupted run's trajectory byte for byte. Both
    assume the campaign owns its observer — a checkpointed counter block
    is restored wholesale, so resuming into a shared observer would
    double-count other phases' work. *)
let run ?plans ?obs ?(config = default_config) ?(checkpoint : Checkpoint.sink option)
    ?(resume : Checkpoint.t option) (prog : Minic.Ir.program)
    ~(seeds : string list) : result =
  let st = make_state ?plans ?obs ~config prog in
  let q = st.q and ex = st.ex in
  let c = q.obs.counters in
  let m = mark q.obs in
  (match resume with
  | Some ck -> restore_checkpoint st ck
  | None -> import_seeds q ~add:(add_seed st) seeds);
  let checkpoint =
    checkpointer q checkpoint ~sync_interval:0 ~progress:(fun () -> progress st)
  in
  (* the scratch candidate's replay and string, shared by every cohort *)
  let replay () = Executor.replay_scratch ex in
  let input () = Executor.scratch_child ex in
  while q.execs < config.budget do
    checkpoint ();
    start_cycle q ~at_exec:c.execs;
    (* index-preserving snapshot: entries are append-only, so the queue
       length bounds this cycle's pass and entries found mid-cycle wait
       for the next one — exactly the semantics of the old list copy *)
    let cycle_len = Corpus.size q.corpus in
    for qi = 0 to cycle_len - 1 do
      let e = Corpus.get q.corpus qi in
      if
        q.execs < config.budget
        && not
             (entry_skip st.rng
                ~pending_favored:(Corpus.pending_favored q.corpus)
                e)
      then begin
        let cmps = if config.cmplog then calibrate st e else [||] in
        let n = entry_energy ~budget:config.budget e in
        (* Batched cohort: the whole energy allotment runs back-to-back
           through one [Tracer.run_*_batch] call. Each candidate ticks
           the budget clock exactly once (replays don't), so the cohort
           size is exactly what the per-candidate loop would have run;
           generation, post-exec accounting and the retain/triage
           decisions are the same code in the same order. *)
        let count = max 0 (min n (config.budget - q.execs)) in
        if count > 0 then begin
          let depth = e.depth + 1 in
          let gen _ =
            st.havocs <- st.havocs + 1;
            Executor.candidate ex st.rng ~cmps
              ?splice_with:
                (Executor.splice_peer st.rng (Corpus.entries q.corpus)
                   ~n:(Corpus.size q.corpus) e)
              e.data
          in
          Executor.cohort ex ~n:count ~gen
            ~sink:
              (if config.selective then fun _ out ->
                 Executor.post_exec ex out;
                 tick st out;
                 decide_selective st ~depth ~replay ~input out
               else fun _ out ->
                 Executor.post_exec ex out;
                 tick st out;
                 decide st ~depth ~input out)
        end;
        Corpus.mark_fuzzed q.corpus e
      end
    done
  done;
  (* final snapshot row: budget exhausted (kept even when it duplicates a
     cadence row, matching the historical queue_series tail sample) *)
  take_snapshot q;
  Executor.harvest_metrics q.obs.metrics c [| ex |];
  result_of q m ~blocks:st.blocks ~havocs:st.havocs
