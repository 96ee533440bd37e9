(** The probe description: what each feedback mode — and the
    selective-tracing signal — records, written once as at most one
    small op per instrumentation site (function call, block entry, CFG
    edge, return). Three interpreters read it: the hook listener
    ({!Feedback}), the closure compiler ([Vm.Compile]) and the OCaml
    source emitter ([Vm.Emit]). This module is also the one home of the
    formulas the ops are built from and of the ops' semantics: closures
    for the two in-process interpreters, source-text twins for the
    emitter. *)

(** {2 Feedback modes} *)

(** The sensitivity ladder studied by the paper:
    - [Block]: basic-block coverage (n-gram with n = 0);
    - [Edge]: AFL/pcguard-style edge coverage, the paper's baseline;
    - [Ngram n]: last-n-blocks history hashing (§VII related work),
      [n >= 2];
    - [Path]: the paper's contribution — Ball–Larus intra-procedural
      acyclic-path IDs committed at back edges and returns, indexed as
      [(path_id xor function_salt) mod map_size] (§IV);
    - [Pathafl]: a PathAFL-like sketch — edge coverage plus a rolling
      hash over key edges (function entries and branch edges),
      approximating partial whole-program paths (Appendix C). *)
type mode = Block | Edge | Ngram of int | Path | Pathafl

val mode_name : mode -> string

(** Inverse of {!mode_name}; [None] for anything else, including
    [ngram<n>] with [n < 2]. *)
val mode_of_name : string -> mode option

(** Raises [Invalid_argument] for a mode no engine can run ([Ngram n]
    with [n < 2]); {!of_mode}, and so every engine, checks first. *)
val check : mode -> unit

(** {2 Formulas} *)

(** Stable per-(function, block) location key, spread over the map. *)
val block_key : int -> int -> int

(** The per-function salt XOR-folded into every Ball–Larus commit key. *)
val path_salt : Minic.Ir.func -> int

(** [commit_key v salt]: the map key of a committed path register [v]. *)
val commit_key : int -> int -> int

(** [roll h k]: one step of pathafl's rolling whole-program hash. *)
val roll : int -> int -> int

(** The n-gram key of a history ring. *)
val ngram_mix : int array -> int

(** [sig_mix h tag]: the selective-tracing mixer, xor-then-multiply by
    an odd constant, a bijection of [h] per step (a rotate-xor mixer is
    linear over GF(2) and collides on loop patterns; DESIGN §12). *)
val sig_mix : int -> int -> int

(** The signal's call, block-entry and return tags. *)
val sig_call_tag : int -> int

val sig_block_tag : int -> int -> int
val sig_ret_tag : int -> int -> int

(** The same formulas as OCaml source over operand texts. Emitted units
    are cached by [Vm.Emit.emitter_version]: changing a text here
    requires bumping it. [ngram_mix_src hist n] is a [let h = ... in]
    prefix leaving the key in [!h]. *)
val commit_key_src : string -> string -> string

val roll_src : string -> string -> string
val sig_mix_src : string -> string -> string
val ngram_mix_src : string -> int -> string

(** {2 Descriptions} *)

(** One site's instrumentation. Register ops act on the top of a stack
    of Ball–Larus path registers (one per live activation) and do
    nothing when it is empty. *)
type op =
  | Hit of int  (** bump the map at a key *)
  | Hit_prev of int  (** bump at [key lxor prev]; [prev <- key lsr 1] *)
  | Ngram_push of int  (** push onto the n-gram ring; bump at the mix *)
  | Roll of int  (** [rolling <- roll rolling k]; bump at [rolling] *)
  | Bl_push  (** push a zeroed path register *)
  | Add of int  (** [r <- r + k] *)
  | Commit_back of { add : int; salt : int; reset : int }
      (** bump at [commit_key (r + add) salt]; [r <- reset] *)
  | Pop_commit of { add : int; salt : int }
      (** bump at [commit_key (r + add) salt]; pop the register *)
  | Mix of int  (** [signal <- sig_mix signal tag] *)

(** A description: each site's op, or [None] where it carries none.
    Interpreters query every site once, at construction. *)
type t = {
  ngram : int;  (** n-gram ring length; [0] when no site pushes *)
  cmp : bool;  (** does the mode tap comparisons (cmplog)? *)
  call : int -> op option;  (** [fid] *)
  block : int -> int -> op option;  (** [fid block] *)
  edge : int -> int -> int -> op option;  (** [fid src dst] *)
  ret : int -> int -> op option;  (** [fid block] (return) *)
}

(** No instrumentation at all. *)
val none : t

(** The selective-tracing novelty signal: every call, block entry and
    return mixes its tag into one 62-bit hash, so the per-activation
    block sequences — and every index of every mode — are a function of
    the stream. *)
val signal : t

(** A feedback mode over a program. [plans] shares a precomputed
    Ball–Larus artifact ([Path] only; defaults to
    [Ball_larus.of_program]). Raises as {!check}. *)
val of_mode : ?plans:Ball_larus.program_plans -> mode -> Minic.Ir.program -> t

(** {2 Op semantics} *)

(** What the ops' closures ({!closure}) read and write. *)
type state = {
  mutable map : Coverage_map.t;  (** where hits land *)
  mutable prev : int;  (** [Hit_prev]'s previous-block register *)
  hist : int array;  (** the n-gram ring *)
  mutable pos : int;  (** pushes into [hist] so far *)
  mutable regs : int array;  (** the Ball–Larus register stack *)
  mutable top : int;  (** its depth *)
  mutable rolling : int;  (** pathafl's rolling hash *)
  signal : int ref;  (** the selective-tracing signal *)
  mutable pruned : Bytes.t;
      (** per-function commit gate: a nonzero byte elides the map write
          of that function's commits (only [Vm.Compile] sets one) *)
}

(** Fresh state for a description over a program, hitting [map].
    [signal] defaults to a fresh cell. *)
val state :
  ?signal:int ref -> t -> Minic.Ir.program -> Coverage_map.t -> state

(** Clear everything but [map] and [pruned] before an execution. *)
val reset : state -> unit

(** [closure st fid op]: [op] at a site of function [fid], as the hook
    listener ({!Feedback.hooks}) runs it and the closure compiler bakes
    it in. *)
val closure : state -> int -> op -> unit -> unit

(** The fusion query over an edge's op: [Some k] when its whole effect
    is [r <- r + k] ([k = 0] for no op), so consecutive edges may fold
    into one add; [None] when it must fire in place. *)
val fold_add : op option -> int option
