(** Coverage feedback listeners: the hook interpreter of {!Probe}
    descriptions. A listener dispatches VM events to its sites'
    {!Probe.closure}s and fills a trace {!Coverage_map.t}, which the
    fuzzer classifies and merges into the virgin map. *)

(** The feedback modes, described in {!Probe.mode}. *)
type mode = Probe.mode = Block | Edge | Ngram of int | Path | Pathafl

val mode_name : mode -> string

(** Inverse of {!mode_name} — the CLI/stats surface parses mode names
    with this so the two can never drift apart. *)
val mode_of_name : string -> mode option

type t = {
  mode : mode;
  trace : Coverage_map.t;
  reset : unit -> unit;  (** call before each execution *)
  on_call : int -> unit;  (** [fid]: a function activation begins *)
  on_block : int -> int -> unit;  (** [fid block]: control enters block *)
  on_edge : int -> int -> int -> unit;  (** [fid src dst]: CFG transition *)
  on_ret : int -> int -> unit;  (** [fid block]: return executes in block *)
}

(** Instantiate a feedback listener for a program: the hook dispatch
    over [Probe.of_mode ?plans mode prog]. [plans] may be supplied to
    share a precomputed Ball–Larus artifact across campaigns (consulted
    only in [Path] mode). Raises [Invalid_argument] as {!Probe.check}. *)
val make :
  ?size_log2:int ->
  ?plans:Ball_larus.program_plans ->
  mode ->
  Minic.Ir.program ->
  t

(** The hook dispatch over a description: [(on_call, on_block, on_edge,
    on_ret)] handlers running each site's {!Probe.closure}, as {!make}
    wires them. The interp engine's selective-tracing listener is this over
    {!Probe.signal}. *)
val hooks :
  Probe.state ->
  Probe.t ->
  Minic.Ir.program ->
  (int -> unit) * (int -> int -> unit) * (int -> int -> int -> unit)
  * (int -> int -> unit)
