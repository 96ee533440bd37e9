(** One domain's execution resources and the per-exec code both campaign
    loops run on them: the feedback listener, the cmplog buffer and
    hooks, the tracer and its pooled {!Vm.Interp.exec_ctx}, the mutation
    scratch, a counter block and metrics registry, the clock and a trace
    track.

    {!Campaign} holds one executor on the observer's own counters,
    registry and track 0; each {!Shard} holds one on private blocks and
    track [shard + 1], drained at every merge barrier. How a candidate is
    built, run, replayed, timed and counted is written once, here; what a
    loop decides from the outcome stays with the loop (DESIGN.md §8).
    Executors never draw from an RNG they were not handed and never
    branch on observer state, so observation stays trajectory-invisible
    (DESIGN.md §7). *)

type config = {
  mode : Pathcov.Feedback.mode;
  budget : int;  (** total target executions *)
  rng_seed : int;
  fuel : int;  (** VM fuel per execution (the timeout analogue) *)
  max_depth : int;  (** VM call-depth limit per execution *)
  map_size_log2 : int;
  cmplog : bool;  (** comparison-operand capture + I2S mutations *)
  max_queue : int;  (** hard safety bound on queue growth *)
  engine : Tracer.engine;
      (** execution engine — interpreter or staged compilation; the
          trajectory is engine-invariant (test-enforced differentially) *)
  selective : bool;
      (** selective tracing: bulk executions run a near-null novelty-
          signal specialisation and re-execute fully only on first-seen
          signals; decisions are byte-identical to always-on tracing
          (DESIGN §12) *)
}

val default_config : config

(** Per-exec comparison-operand capture: flat, insertion-ordered,
    deduplicated, bounded — pairs reach the mutator in program order
    rather than [Hashtbl.fold] order. *)
type cmp_buf = {
  ops_a : int array;
  ops_b : int array;
  mutable n_cmps : int;
}

val make_cmp_buf : unit -> cmp_buf

(** Both substitution directions per pair, in capture order. *)
val cmps_of_buf : cmp_buf -> Mutator.cmp_pair array

(** The hook set an executor installs (cmplog probe only if enabled). *)
val make_hooks : config -> Pathcov.Feedback.t -> cmp_buf -> Vm.Interp.hooks

(** Fields are read-only outside this module. *)
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
  h_dirty : Obs.Metrics.hist;  (** context dirty-reset widths ([vm.dirty_reset_w]) *)
}

(** Hooks, then [Tracer.make] inside a [Compile] span on [track], then
    [bind] and the pooled context. [counters]/[metrics] default to the
    observer's own; sharded executors pass private ones and
    [~shared:false] ({!Tracer.make}). *)
val make :
  ?plans:Pathcov.Ball_larus.program_plans ->
  ?shared:bool ->
  ?counters:Obs.Counters.t ->
  ?metrics:Obs.Metrics.t ->
  obs:Obs.Observer.t ->
  track:int ->
  config ->
  Vm.Interp.prepared ->
  Minic.Ir.program ->
  t

(** Emit [Emit_fallback] if the native tracer degraded to fused. *)
val report_fallback : Obs.Observer.t -> t -> unit

(** Span brackets on the executor's track (no-ops without a trace). *)
val span_begin : t -> Obs.Trace.kind -> unit

val span_end : ?arg:int -> t -> unit

(** Counters, dirty-reset histogram and trace classification after one
    counted run; cohort sinks call it first. *)
val post_exec : t -> Vm.Interp.outcome -> unit

(** One counted run of an input, clock-timed into [vm_s]; [signal] runs
    the selective specialisation and leaves the trace map empty. *)
val exec : t -> signal:bool -> string -> Vm.Interp.outcome

(** Full-instrumentation replay in a [Replay] span: rebuilds the
    classified trace, counted as a replay, not an execution. *)
val replay : t -> string -> Vm.Interp.outcome

(** {!replay} of the candidate sitting in the mutation scratch. *)
val replay_scratch : t -> Vm.Interp.outcome

(** The scratch candidate as a string (retention and triage only). *)
val scratch_child : t -> string

(** A cohort's [gen] step: one havoc-mutated candidate of [data] built
    into the scratch (counted, timed, in a [Mutate] span), then reset
    for execution. *)
val candidate :
  t ->
  Rng.t ->
  cmps:Mutator.cmp_pair array ->
  ?splice_with:string ->
  string ->
  Bytes.t * int

(** O(1) random splice peer for [e] among the first [n] queue entries. *)
val splice_peer :
  Rng.t -> Corpus.entry array -> n:int -> Corpus.entry -> string option

(** [n] candidates through one [Tracer.run_*_batch] call (signal batch
    under selective tracing) in an [Exec] span. [sink] must call
    {!post_exec} before deciding. *)
val cohort :
  t ->
  n:int ->
  gen:(int -> Bytes.t * int) ->
  sink:(int -> Vm.Interp.outcome -> unit) ->
  unit

(** End-of-run drain of the counters' walls and the executors' engine
    tallies (summed; fusion shape from the first) into a registry. *)
val harvest_metrics : Obs.Metrics.t -> Obs.Counters.t -> t array -> unit
