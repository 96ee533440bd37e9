(** The coverage-guided fuzzing loop: an afl-fuzz-shaped campaign over the
    MiniC VM, parameterised by the feedback listener (§IV "Integration").
    Budgets are execution counts — the deterministic stand-in for the
    paper's wall-clock budgets — and all randomness flows from one
    {!Rng.t}, so a run is a pure function of (program, seeds, config).

    Campaigns are observable: pass an {!Obs.Observer.t} to collect the
    counter block, periodic snapshot rows and structured events. The
    observer obeys the zero-perturbation rule (no RNG draws, no fuzzing
    decision reads observer state), so observed and unobserved runs are
    byte-identical — see DESIGN.md §7. *)

(** Campaign configuration; the fields are documented at
    {!Executor.config}. *)
type config = Executor.config = {
  mode : Pathcov.Feedback.mode;
  budget : int;
  rng_seed : int;
  fuel : int;
  max_depth : int;
  map_size_log2 : int;
  cmplog : bool;
  max_queue : int;
  engine : Tracer.engine;
  selective : bool;
}

val default_config : config

type result = {
  config : config;
  corpus : Corpus.t;
  triage : Triage.t;
  execs : int;  (** executions actually performed *)
  queue_series : (int * int) list;
      (** (execs, queue size) samples — a derived view over [snapshots] *)
  sum_exec_blocks : int;  (** total VM blocks executed, throughput proxy *)
  havocs : int;  (** mutated candidates generated *)
  snapshots : Obs.Snapshot.row list;
      (** this run's periodic stats rows (the [plot_data] analogue) *)
  vm_s : float;  (** wall inside the VM (0 unless the observer has a clock) *)
  mut_s : float;  (** wall inside the mutator (0 unless clocked) *)
  mut_minor_words : float;  (** GC minor words allocated by the mutator *)
}

(** Final queue inputs, in discovery order. *)
val queue_inputs : result -> string list

(** Run a campaign. [plans] shares a precomputed Ball–Larus artifact
    across campaigns on the same program. [obs] supplies the observer —
    counters, snapshot log, event sink, and the optional wall clock that
    enables the mutation-vs-VM split [pathfuzz bench-campaign] reports.
    A shared observer accumulates across runs (multi-phase strategies,
    benches); each run's [result] reports its own deltas. Fuzzing
    behaviour is identical with or without an observer.

    [checkpoint] writes a {!Checkpoint.t} through the sink at each cycle
    boundary crossing a multiple of [sink.every] executions (mid-budget
    only). [resume] restores one such snapshot instead of importing
    [seeds]: the resumed run replays the uninterrupted run's remaining
    trajectory byte for byte (test-enforced differentially). Both
    require the campaign to own its observer — the checkpointed counter
    block is restored wholesale. *)
val run :
  ?plans:Pathcov.Ball_larus.program_plans ->
  ?obs:Obs.Observer.t ->
  ?config:config ->
  ?checkpoint:Checkpoint.sink ->
  ?resume:Checkpoint.t ->
  Minic.Ir.program ->
  seeds:string list ->
  result

(** {2 Pipeline stages}

    The individual stages of the loop are exposed so tests can drive them
    directly (e.g. triaging a calibration crash on an entry that was
    parked in the queue without a clean execution). *)

(** Per-exec comparison-operand capture ({!Executor.cmp_buf}). *)
type cmp_buf = Executor.cmp_buf = {
  ops_a : int array;
  ops_b : int array;
  mutable n_cmps : int;
}

val make_cmp_buf : unit -> cmp_buf

(** Both substitution directions per captured pair, in capture order. *)
val cmps_of_buf : cmp_buf -> Mutator.cmp_pair array

(** The instrumentation hook set a campaign installs in its execution
    context (the cmplog probe exists only when the config asks for it) —
    sharded campaigns build one per shard. *)
val make_hooks : config -> Pathcov.Feedback.t -> cmp_buf -> Vm.Interp.hooks

(** afl-fuzz's fuzz_one skip probabilities over an explicit RNG and
    queue state (the sharded planner draws from its own stream). *)
val entry_skip : Rng.t -> pending_favored:int -> Corpus.entry -> bool

(** Havoc energy for one queue entry (simplified perf_score): a pure
    function of the entry and the budget. *)
val entry_energy : budget:int -> Corpus.entry -> int

(** {2 Queue-side bookkeeping}

    The queue side of a campaign is owned and updated the same way by the
    sequential loop and the sharded coordinator ({!Shard}); these are its
    only writers. Event anchors ([at_exec]) are passed in: the sequential
    loop reads the observer's exec counter, the coordinator its own
    schedule position. *)

type queue_state = {
  cfg : config;
  corpus : Corpus.t;
  virgin : Pathcov.Coverage_map.t;
  crash_virgin : Pathcov.Coverage_map.t;
  triage : Triage.t;
  obs : Obs.Observer.t;
      (** counters + snapshots + event sink; may be shared across phases *)
  mutable execs : int;
      (** campaign-local exec clock (the budget); entries' [found_at] and
          triage anchors read it *)
}

val make_queue_state : Obs.Observer.t -> config -> queue_state

(** Span brackets on track 0, the coordinator's track. *)
val co_span_begin : queue_state -> Obs.Trace.kind -> unit

val co_span_end : ?arg:int -> queue_state -> unit

(** Append one stats row (counters, queue size, virgin residual). *)
val take_snapshot : queue_state -> unit

(** Cycle start: favored recomputation, counters, [Favored_cycle]. *)
val start_cycle : queue_state -> at_exec:int -> unit

(** [true] when the queue is at capacity, counting the drop (and emitting
    [Queue_full] on the first). Checked before any virgin merge. *)
val queue_full : queue_state -> at_exec:int -> bool

(** Retain an admitted candidate: entry, top-rated claims, [Retain]. *)
val admit :
  queue_state ->
  data:string ->
  indices:int array ->
  exec_blocks:int ->
  depth:int ->
  found_at:int ->
  at_exec:int ->
  unit

(** The verdict on one seed just run on the executor: crashes and hangs
    triaged, anything else merged and retained unconditionally. *)
val seed_outcome :
  queue_state -> Executor.t -> Vm.Interp.outcome -> at_exec:int -> string -> unit

(** Import seeds through [add], then never leave the queue empty. *)
val import_seeds : queue_state -> add:(string -> unit) -> string list -> unit

(** The boundary hook of a checkpointed run: writes a snapshot (queue
    side plus [progress ()]) whenever a boundary crosses the sink's
    schedule with budget left; a no-op without a sink. Build it after
    seed import or restore. *)
val checkpointer :
  queue_state ->
  Checkpoint.sink option ->
  sync_interval:int ->
  progress:(unit -> Checkpoint.progress) ->
  unit ->
  unit

(** The queue-side half of a restore (queue, triage, virgin maps, budget
    clock, counters, snapshot rows); only the map size is re-checked. *)
val restore_queue_state : queue_state -> Checkpoint.t -> unit

(** The observer's state at a run's entry; a run reports deltas. *)
type mark = { at : Obs.Counters.t; snap_base : int }

val mark : Obs.Observer.t -> mark

(** A finished run's report over its slice of the observer. *)
val result_of : queue_state -> mark -> blocks:int -> havocs:int -> result

(** Live campaign state. Fields are exposed read-mostly for tests and
    diagnostics; mutate only through the stage functions below. The
    executor owns a pooled {!Vm.Interp.exec_ctx} with the
    instrumentation hooks preinstalled, so every stage executes
    allocation-free. *)
type state = {
  q : queue_state;
  ex : Executor.t;  (** on the observer's counters, registry and track 0 *)
  rng : Rng.t;
  mutable blocks : int;
  mutable havocs : int;
  mutable sample_every : int;  (** snapshot cadence in executions *)
}

(** Build a fresh campaign state. *)
val make_state :
  ?plans:Pathcov.Ball_larus.program_plans ->
  ?obs:Obs.Observer.t ->
  ?config:config ->
  Minic.Ir.program ->
  state

(** Run one input; the trace map is left classified for novelty checks. *)
val execute : state -> string -> Vm.Interp.outcome

(** Execute a seed and retain it unconditionally (afl imports the full
    seed directory); crashes and hangs are triaged. *)
val add_seed : state -> string -> unit

(** Evaluate one candidate end to end: execute, triage crashes/hangs,
    retain on coverage novelty if the queue has capacity. *)
val process : state -> depth:int -> string -> unit

(** One calibration run of a queue entry, capturing cmplog operand pairs;
    the outcome is triaged exactly like {!process}'s. *)
val calibrate : state -> Corpus.entry -> Mutator.cmp_pair array

(** {2 Checkpoint/resume}

    Exposed so tests can capture and restore mid-campaign state without
    going through {!run}'s sink plumbing. *)

(** Snapshot the campaign at a cycle boundary ([sync_interval = 0] in the
    recorded identity). *)
val capture_checkpoint :
  state -> subject:string -> fuzzer:string -> Checkpoint.t

(** Load a snapshot into freshly built state (queue, triage, virgin maps,
    RNG position, clocks, counters, snapshot rows). Config validation is
    the caller's job ({!Checkpoint.check_compat}); only the map size is
    re-checked. *)
val restore_checkpoint : state -> Checkpoint.t -> unit
