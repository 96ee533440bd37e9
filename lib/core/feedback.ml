(** Coverage feedback listeners: the hook interpreter of {!Probe}
    descriptions, filling a trace [Coverage_map.t] that the fuzzer then
    classifies and merges into the virgin map. Listeners sit on the
    execution hot path, so every site's {!Probe.closure} is tabulated
    once: an event is a few array loads and one closure call, never an
    allocation, and an event kind no site instruments gets a no-op
    handler. *)

type mode = Probe.mode = Block | Edge | Ngram of int | Path | Pathafl

let mode_name = Probe.mode_name
let mode_of_name = Probe.mode_of_name

type t = {
  mode : mode;
  trace : Coverage_map.t;
  reset : unit -> unit;  (** called before each execution *)
  on_call : int -> unit;  (** [fid]: a function activation begins *)
  on_block : int -> int -> unit;  (** [fid block]: control enters block *)
  on_edge : int -> int -> int -> unit;  (** [fid src dst]: CFG transition *)
  on_ret : int -> int -> unit;  (** [fid block]: return executes in block *)
}

(* The hook dispatch: every site's closure tabulated once. *)
let hooks (st : Probe.state) (d : Probe.t) (prog : Minic.Ir.program) =
  let funcs = prog.funcs in
  let noop () = () in
  let site fid = function None -> noop | Some op -> Probe.closure st fid op in
  (* Sites per function, [width] per block: call, block and return
     sites at [b]; edge sites at [2 * src + slot], [slot] the
     successor's position in [Ir.successors] — a block has at most two,
     so [first.(fid).(src)] alone tells an edge event's slot. *)
  let table width f =
    Array.mapi
      (fun fid (fn : Minic.Ir.func) ->
        Array.init (width * Array.length fn.blocks) (f fid))
      funcs
  in
  let calls = Array.init (Array.length funcs) (fun fid -> site fid (d.call fid)) in
  let blocks = table 1 (fun fid b -> site fid (d.block fid b)) in
  let rets = table 1 (fun fid b -> site fid (d.ret fid b)) in
  let succs fid b = Minic.Ir.successors funcs.(fid).blocks.(b).term in
  let first = table 1 (fun fid b -> match succs fid b with s :: _ -> s | [] -> -1) in
  let edges =
    table 2 (fun fid i ->
        match List.nth_opt (succs fid (i / 2)) (i mod 2) with
        | Some dst -> site fid (d.edge fid (i / 2) dst)
        | None -> noop)
  in
  let quiet tbl = Array.for_all (Array.for_all (fun c -> c == noop)) tbl in
  ( (if quiet [| calls |] then fun _ -> ()
     else fun fid -> (Array.unsafe_get calls fid) ()),
    (if quiet blocks then fun _ _ -> ()
     else fun fid b -> (Array.unsafe_get (Array.unsafe_get blocks fid) b) ()),
    (if quiet edges then fun _ _ _ -> ()
     else fun fid src dst ->
       let slot =
         if Array.unsafe_get (Array.unsafe_get first fid) src = dst then 2 * src
         else (2 * src) + 1
       in
       let c = Array.unsafe_get (Array.unsafe_get edges fid) slot in
       if c != noop then c ()),
    if quiet rets then fun _ _ -> ()
    else fun fid b -> (Array.unsafe_get (Array.unsafe_get rets fid) b) () )

(** Instantiate a feedback listener for [prog]. [plans] may be supplied to
    share a precomputed Ball–Larus artifact across campaigns (it is only
    consulted for [Path] mode). *)
let make ?size_log2 ?plans mode (prog : Minic.Ir.program) : t =
  let d = Probe.of_mode ?plans mode prog in
  let st = Probe.state d prog (Coverage_map.create ?size_log2 ()) in
  let on_call, on_block, on_edge, on_ret = hooks st d prog in
  let reset () = Probe.reset st in
  { mode; trace = st.map; reset; on_call; on_block; on_edge; on_ret }
