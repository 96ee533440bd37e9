(* One domain's execution resources and the per-exec code both campaign
   loops run on them; see executor.mli and DESIGN §8. *)

type config = {
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

let default_config =
  {
    mode = Pathcov.Feedback.Edge;
    budget = 20_000;
    rng_seed = 1;
    fuel = Vm.Interp.default_fuel;
    max_depth = Vm.Interp.default_max_depth;
    map_size_log2 = 16;
    cmplog = true;
    max_queue = 500_000;
    engine = Tracer.Interp;
    selective = false;
  }

(** Per-exec comparison-operand capture: a flat, insertion-ordered,
    deduplicated buffer bounded at {!cmp_capacity} pairs. The previous
    [(int * int, unit) Hashtbl.t] allocated a key tuple per probe hit and
    — worse — handed its pairs to the mutator in [Hashtbl.fold] order, an
    implementation detail of the hash function; program order is the
    deterministic contract. *)
type cmp_buf = {
  ops_a : int array;
  ops_b : int array;
  mutable n_cmps : int;
}

let cmp_capacity = 64

let make_cmp_buf () =
  {
    ops_a = Array.make cmp_capacity 0;
    ops_b = Array.make cmp_capacity 0;
    n_cmps = 0;
  }

let cmp_seen (b : cmp_buf) a bv =
  let rec go i =
    i < b.n_cmps
    && ((Array.unsafe_get b.ops_a i = a && Array.unsafe_get b.ops_b i = bv)
       || go (i + 1))
  in
  go 0

(** Both substitution directions per captured pair, in capture order. *)
let cmps_of_buf (b : cmp_buf) : Mutator.cmp_pair array =
  Array.init (2 * b.n_cmps) (fun k ->
      let i = k lsr 1 in
      if k land 1 = 0 then
        { Mutator.observed = b.ops_a.(i); wanted = b.ops_b.(i) }
      else { Mutator.observed = b.ops_b.(i); wanted = b.ops_a.(i) })

(* The instrumentation hook set installed in the context at creation
   time. The cmplog probe (and its per-exec buffer bookkeeping) exists
   only when the config asks for it. *)
let make_hooks (cfg : config) (fb : Pathcov.Feedback.t) (cmp_buf : cmp_buf) :
    Vm.Interp.hooks =
  {
    Vm.Interp.h_call = fb.on_call;
    h_block = fb.on_block;
    h_edge = fb.on_edge;
    h_ret = fb.on_ret;
    h_cmp =
      (if cfg.cmplog then (fun a b ->
         if a <> b && cmp_buf.n_cmps < cmp_capacity && not (cmp_seen cmp_buf a b)
         then begin
           Array.unsafe_set cmp_buf.ops_a cmp_buf.n_cmps a;
           Array.unsafe_set cmp_buf.ops_b cmp_buf.n_cmps b;
           cmp_buf.n_cmps <- cmp_buf.n_cmps + 1
         end)
       else fun _ _ -> ());
  }

type t = {
  cfg : config;
  feedback : Pathcov.Feedback.t;
  cmp_buf : cmp_buf;  (** per-exec comparison pairs, program order *)
  tracer : Tracer.t;  (** engine dispatch + selective-tracing state *)
  ctx : Vm.Interp.exec_ctx;  (** pooled execution context, reused per exec *)
  scratch : Mutator.scratch;  (** pooled mutation buffer, reused per child *)
  counters : Obs.Counters.t;
  metrics : Obs.Metrics.t;
  clock : (unit -> float) option;
  vm_s : (float -> unit) option;  (** batch VM-wall accumulator (clocked only) *)
  trace : Obs.Trace.t option;  (** [None] unless the trace has [track] *)
  track : int;
  h_batch : Obs.Metrics.hist;  (** cohort sizes ([exec.batch_n]) *)
  h_dirty : Obs.Metrics.hist;  (** context dirty-reset widths *)
}

(* Span brackets on this executor's track: plain begin/end on the
   preallocated ring when the observer carries a trace with the track,
   nothing otherwise. Each track is written by one domain at a time. *)
let span_begin (ex : t) (k : Obs.Trace.kind) : unit =
  match ex.trace with
  | Some tr -> Obs.Trace.begin_span tr ~track:ex.track k
  | None -> ()

let span_end ?(arg = 0) (ex : t) : unit =
  match ex.trace with
  | Some tr -> Obs.Trace.end_span ~arg tr ~track:ex.track ()
  | None -> ()

let make ?plans ?(shared = true) ?counters ?metrics ~(obs : Obs.Observer.t)
    ~(track : int) (cfg : config) (prepared : Vm.Interp.prepared)
    (prog : Minic.Ir.program) : t =
  let counters = Option.value counters ~default:obs.counters in
  let metrics = Option.value metrics ~default:obs.metrics in
  let trace =
    match obs.trace with
    | Some tr when track < Obs.Trace.n_tracks tr -> obs.trace
    | _ -> None
  in
  let feedback =
    Pathcov.Feedback.make ~size_log2:cfg.map_size_log2 ?plans cfg.mode prog
  in
  let cmp_buf = make_cmp_buf () in
  let hooks = make_hooks cfg feedback cmp_buf in
  (match trace with
  | Some tr -> Obs.Trace.begin_span tr ~track Obs.Trace.Compile
  | None -> ());
  (* ~shared:false: compiled artifacts carry single-threaded rebindable
     state, so every shard compiles its own *)
  let tracer =
    Tracer.make ?plans ?clock:obs.clock ~shared ~engine:cfg.engine
      ~selective:cfg.selective ~cmplog:cfg.cmplog ~mode:cfg.mode prepared
  in
  (match trace with
  | Some tr -> Obs.Trace.end_span tr ~track ()
  | None -> ());
  Tracer.bind tracer ~trace:feedback.trace ~h_cmp:hooks.Vm.Interp.h_cmp;
  (* registration order shows in every metrics dump (and the golden
     reports): the dirty-reset histogram comes first *)
  let h_dirty = Obs.Metrics.hist metrics "vm.dirty_reset_w" in
  let h_batch = Obs.Metrics.hist metrics "exec.batch_n" in
  {
    cfg;
    feedback;
    cmp_buf;
    tracer;
    ctx = Vm.Interp.create_ctx ~hooks prepared;
    scratch = Mutator.create_scratch ();
    counters;
    metrics;
    clock = obs.clock;
    vm_s =
      (match obs.clock with
      | None -> None
      | Some _ -> Some (fun dt -> counters.vm_s <- counters.vm_s +. dt));
    trace;
    track;
    h_batch;
    h_dirty;
  }

(* An [Emit_fallback] event when a native tracer degraded to fused. *)
let report_fallback (obs : Obs.Observer.t) (ex : t) : unit =
  match Tracer.emit_fallback ex.tracer with
  | Some reason -> Obs.Observer.event obs (Obs.Event.Emit_fallback { reason })
  | None -> ()

(* Pre/post brackets around one counted VM run. The trace map is left
   classified for novelty checks. *)
let pre_exec (ex : t) : unit =
  ex.feedback.reset ();
  Pathcov.Coverage_map.clear ex.feedback.trace;
  if ex.cfg.cmplog then ex.cmp_buf.n_cmps <- 0

let post_exec (ex : t) (out : Vm.Interp.outcome) : unit =
  let c = ex.counters in
  c.execs <- c.execs + 1;
  c.blocks <- c.blocks + out.blocks_executed;
  Obs.Metrics.observe ex.h_dirty ex.ctx.last_reset_width;
  Pathcov.Coverage_map.classify ex.feedback.trace

(* One VM run over [buf[0, len)] — the scratch, or a string input viewed
   as bytes (the VM never writes its input). *)
let engine_run (ex : t) ~(signal : bool) (buf : Bytes.t) (len : int) :
    Vm.Interp.outcome =
  let fuel = ex.cfg.fuel and max_depth = ex.cfg.max_depth in
  if signal then Tracer.run_signal_sub ex.tracer ex.ctx ~fuel ~max_depth ~buf ~len
  else Tracer.run_full_sub ex.tracer ex.ctx ~fuel ~max_depth ~buf ~len

(* [engine_run], timed into [vm_s] when the observer carries a clock. *)
let timed_run (ex : t) ~signal (buf : Bytes.t) (len : int) : Vm.Interp.outcome
    =
  match ex.clock with
  | None -> engine_run ex ~signal buf len
  | Some now ->
      let t0 = now () in
      let out = engine_run ex ~signal buf len in
      let c = ex.counters in
      c.vm_s <- c.vm_s +. (now () -. t0);
      out

(* Under selective tracing ([signal]) the exec/block clocks advance
   exactly as for a fully-traced run — outcomes (and [blocks_executed])
   are engine- and spec-invariant — so budget accounting, snapshot
   cadence and checkpoint marks are untouched by selective mode. The
   trace map stays cleared and classify over an empty journal is a
   no-op. *)
let exec (ex : t) ~(signal : bool) (input : string) : Vm.Interp.outcome =
  pre_exec ex;
  let out =
    timed_run ex ~signal (Bytes.unsafe_of_string input) (String.length input)
  in
  post_exec ex out;
  out

(* Full-instrumentation replay after a signal run (or after a pruned
   calibration crash): rebuilds the classified trace for merge/triage.
   Counted as a replay, not an execution — the budget clock already
   ticked for the first run of the same candidate. *)
let replay_buf (ex : t) (buf : Bytes.t) (len : int) : Vm.Interp.outcome =
  span_begin ex Obs.Trace.Replay;
  ex.feedback.reset ();
  Pathcov.Coverage_map.clear ex.feedback.trace;
  let out = timed_run ex ~signal:false buf len in
  Pathcov.Coverage_map.classify ex.feedback.trace;
  let c = ex.counters in
  c.replays <- c.replays + 1;
  span_end ex;
  out

let replay (ex : t) (input : string) : Vm.Interp.outcome =
  replay_buf ex (Bytes.unsafe_of_string input) (String.length input)

let replay_scratch (ex : t) : Vm.Interp.outcome =
  replay_buf ex ex.scratch.buf ex.scratch.len

(* The scratch candidate as a string, materialised only when triage or
   retention actually needs one — the common (boring) candidate
   allocates nothing beyond the VM's own requests. *)
let scratch_child (ex : t) : string =
  Bytes.sub_string ex.scratch.buf 0 ex.scratch.len

(* One havoc-mutated candidate built into the scratch, counted and (when
   the observer carries a clock) timed, then the pre-exec reset — the
   [gen] step of a cohort, returning the scratch view to run. *)
let candidate (ex : t) (rng : Rng.t) ~cmps ?splice_with (data : string) :
    Bytes.t * int =
  let c = ex.counters in
  c.havocs <- c.havocs + 1;
  (match splice_with with Some _ -> c.splices <- c.splices + 1 | None -> ());
  if Array.length cmps > 0 then c.i2s_cands <- c.i2s_cands + 1;
  span_begin ex Obs.Trace.Mutate;
  (match ex.clock with
  | None -> Mutator.havoc_in_place ex.scratch ~cmps ?splice_with rng data
  | Some now ->
      let w0 = Gc.minor_words () in
      let t0 = now () in
      Mutator.havoc_in_place ex.scratch ~cmps ?splice_with rng data;
      c.mut_s <- c.mut_s +. (now () -. t0);
      c.mut_minor_words <- c.mut_minor_words +. (Gc.minor_words () -. w0));
  span_end ex;
  pre_exec ex;
  (ex.scratch.buf, ex.scratch.len)

(* O(1) random splice peer among the first [n] entries of [arr]. The RNG
   draw is mapped to the same entry the List.nth-over-newest-first walk
   used to select (draw [k] is the [k]-th newest), so campaign
   trajectories are unchanged. *)
let splice_peer (rng : Rng.t) (arr : Corpus.entry array) ~(n : int)
    (e : Corpus.entry) : string option =
  if n <= 1 then None
  else
    let pick = arr.(n - 1 - Rng.int rng n) in
    if pick.id = e.id then None else Some pick.data

(* Batched cohort: [n] candidates run back-to-back through one
   [Tracer.run_*_batch] call inside an [Exec] span — the signal batch
   under selective tracing. [gen] builds each candidate (normally via
   {!candidate}); [sink] receives its outcome before the next one is
   built, and runs [post_exec] itself. *)
let cohort (ex : t) ~(n : int) ~(gen : int -> Bytes.t * int)
    ~(sink : int -> Vm.Interp.outcome -> unit) : unit =
  Obs.Metrics.observe ex.h_batch n;
  span_begin ex Obs.Trace.Exec;
  let fuel = ex.cfg.fuel and max_depth = ex.cfg.max_depth in
  if ex.cfg.selective then
    Tracer.run_signal_batch ?clock:ex.clock ?vm_s:ex.vm_s ex.tracer ex.ctx ~fuel
      ~max_depth ~n ~gen ~sink
  else
    Tracer.run_full_batch ?clock:ex.clock ?vm_s:ex.vm_s ex.tracer ex.ctx ~fuel
      ~max_depth ~n ~gen ~sink;
  span_end ~arg:n ex

(* Drain the engine-level tallies of one campaign's executors into a
   metrics registry. Runs once per campaign at budget exhaustion — a
   deterministic point — so registration order (and hence every dump) is
   reproducible. Gauges use set semantics: the sources are cumulative
   (per artifact / per domain), so the latest reading is the total.
   Per-executor tallies are summed; the fusion shape is per-artifact and
   identical across executors, so the first one's stands for all. *)
let harvest_metrics (m : Obs.Metrics.t) (c : Obs.Counters.t) (exs : t array) :
    unit =
  let gauges =
    List.iter (fun (name, v) -> Obs.Metrics.set (Obs.Metrics.gauge m name) v)
  in
  let sum f = Array.fold_left (fun a ex -> a + f ex.tracer) 0 exs in
  Obs.Metrics.set_wall (Obs.Metrics.wall m "campaign.vm_s") c.vm_s;
  Obs.Metrics.set_wall (Obs.Metrics.wall m "campaign.mut_s") c.mut_s;
  Obs.Metrics.add_wall
    (Obs.Metrics.wall m "engine.compile_s")
    (Array.fold_left (fun a ex -> a +. Tracer.compile_seconds ex.tracer) 0. exs);
  let hits, misses = Vm.Compile.cache_stats () in
  gauges
    [
      ("engine.cache_hits", hits);
      ("engine.cache_misses", misses);
      ("engine.seen_signals", sum Tracer.seen_signals);
    ];
  (* Emitter tallies only exist on native campaigns — process-global
     cumulative sources, so set semantics; gated to keep every other
     engine's metric dump (and the golden reports) untouched. *)
  (match exs.(0).cfg.engine with
  | Tracer.Native ->
      let e = Vm.Emit.stats () in
      Obs.Metrics.set_wall (Obs.Metrics.wall m "emit.compile_s") e.compile_s;
      gauges
        [
          ("emit.cache_hits", e.cache_hits);
          ("emit.cache_misses", e.cache_misses);
          ("emit.fallbacks", e.fallbacks);
        ]
  | Tracer.Interp | Tracer.Compiled | Tracer.Fused -> ());
  match Tracer.artifact_stats exs.(0).tracer with
  | None -> ()
  | Some (_, s) ->
      let runtime f =
        sum (fun tr ->
            match Tracer.artifact_stats tr with Some (r, _) -> f r | None -> 0)
      in
      gauges
        [
          ("engine.rollbacks", runtime (fun r -> r.Vm.Compile.rollbacks));
          ("engine.careful_units", runtime (fun r -> r.Vm.Compile.careful_units));
          ("fusion.chains", s.Vm.Compile.chains);
          ("fusion.chain_blocks", s.chain_blocks);
          ("fusion.chain_max", s.chain_max);
          ("fusion.dup_instrs", s.dup_instrs);
        ]
