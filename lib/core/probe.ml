(* The probe description: per-site ops for every feedback mode and for
   the selective-tracing signal, the formulas they are built from, and
   the ops' semantics. [Feedback], [Vm.Compile] and [Vm.Emit] interpret
   these descriptions; none of them restates a formula. *)

type mode = Block | Edge | Ngram of int | Path | Pathafl

let mode_name = function
  | Block -> "block"
  | Edge -> "edge"
  | Ngram n -> Printf.sprintf "ngram%d" n
  | Path -> "path"
  | Pathafl -> "pathafl"

let ngram_ok n = n >= 2

let check = function
  | Ngram n when not (ngram_ok n) ->
      invalid_arg (Printf.sprintf "Probe: ngram%d needs n >= 2" n)
  | _ -> ()

let mode_of_name = function
  | "block" -> Some Block
  | "edge" -> Some Edge
  | "path" -> Some Path
  | "pathafl" -> Some Pathafl
  | s when String.length s > 5 && String.sub s 0 5 = "ngram" -> (
      match int_of_string_opt (String.sub s 5 (String.length s - 5)) with
      | Some n when ngram_ok n -> Some (Ngram n)
      | _ -> None)
  | _ -> None

(* ------------------------------------------------------------------ *)
(* Formulas *)

let block_key fid block = ((fid * 0x9e3779b1) + (block * 0x85ebca6b)) land max_int
let path_salt (f : Minic.Ir.func) = Hashtbl.hash f.Minic.Ir.name * 0x9e3779b1
let commit_key v salt = (v lxor salt) land max_int
let roll h k = (((h lsl 13) lor (h lsr 49)) lxor k) land max_int

let ngram_mix hist =
  let h = ref 0 in
  for i = 0 to Array.length hist - 1 do
    h := !h lxor (Array.unsafe_get hist i lsr (i land 15))
  done;
  !h

let sig_mix h k = ((h lxor k) * 0x2545F4914F6CDD1D) land max_int
let sig_call_tag fid = block_key fid 0 + 0x1351
let sig_block_tag fid b = block_key fid b
let sig_ret_tag fid b = block_key fid b lxor 0x6b43

let commit_key_src v salt = Printf.sprintf "(%s lxor %s) land max_int" v salt

let roll_src h k =
  Printf.sprintf "(((%s lsl 13) lor (%s lsr 49)) lxor %s) land max_int" h h k

let sig_mix_src h k =
  Printf.sprintf "((%s lxor %s) * 0x2545F4914F6CDD1D) land max_int" h k

let ngram_mix_src hist n =
  Printf.sprintf
    "let h = ref 0 in for i = 0 to %d do h := !h lxor (Array.unsafe_get %s \
     i lsr (i land 15)) done"
    (n - 1) hist

(* ------------------------------------------------------------------ *)
(* Descriptions *)

type op =
  | Hit of int
  | Hit_prev of int
  | Ngram_push of int
  | Roll of int
  | Bl_push
  | Add of int
  | Commit_back of { add : int; salt : int; reset : int }
  | Pop_commit of { add : int; salt : int }
  | Mix of int

type t = {
  ngram : int;
  cmp : bool;
  call : int -> op option;
  block : int -> int -> op option;
  edge : int -> int -> int -> op option;
  ret : int -> int -> op option;
}

let none =
  {
    ngram = 0;
    cmp = false;
    call = (fun _ -> None);
    block = (fun _ _ -> None);
    edge = (fun _ _ _ -> None);
    ret = (fun _ _ -> None);
  }

let signal =
  {
    none with
    call = (fun fid -> Some (Mix (sig_call_tag fid)));
    block = (fun fid b -> Some (Mix (sig_block_tag fid b)));
    ret = (fun fid b -> Some (Mix (sig_ret_tag fid b)));
  }

let of_mode ?plans mode (prog : Minic.Ir.program) =
  check mode;
  let full = { none with cmp = true } in
  let hit_prev fid b = Some (Hit_prev (block_key fid b)) in
  match mode with
  | Block -> { full with block = (fun fid b -> Some (Hit (block_key fid b))) }
  | Edge -> { full with block = hit_prev }
  | Ngram n ->
      let push fid b = Some (Ngram_push (block_key fid b)) in
      { full with ngram = n; block = push }
  | Path ->
      let plans =
        match plans with Some p -> p | None -> Ball_larus.of_program prog
      in
      let plan fid = plans.Ball_larus.plans.(fid) in
      let salts = Array.map path_salt prog.funcs in
      {
        full with
        call = (fun _ -> Some Bl_push);
        edge =
          (fun fid src dst ->
            match Ball_larus.on_edge (plan fid) ~src ~dst with
            | None -> None
            | Some (Ball_larus.Add k) -> Some (Add k)
            | Some (Ball_larus.Commit_back { add; reset }) ->
                Some (Commit_back { add; salt = salts.(fid); reset }));
        ret =
          (fun fid block ->
            let add = Ball_larus.on_ret (plan fid) ~block in
            Some (Pop_commit { add; salt = salts.(fid) }));
      }
  | Pathafl ->
      let fan_out fid src =
        List.length (Minic.Ir.successors prog.funcs.(fid).blocks.(src).term) >= 2
      in
      {
        full with
        call = (fun fid -> Some (Roll (block_key fid 0 + 1)));
        block = hit_prev;
        edge =
          (fun fid src dst ->
            if fan_out fid src then Some (Roll (block_key fid src lxor (dst * 31)))
            else None);
      }

(* ------------------------------------------------------------------ *)
(* The ops' semantics, beside the formulas so that ocamlopt inlines
   those into each closure. *)

type state = {
  mutable map : Coverage_map.t;
  mutable prev : int;
  hist : int array;
  mutable pos : int;
  mutable regs : int array;
  mutable top : int;
  mutable rolling : int;
  signal : int ref;
  mutable pruned : Bytes.t;
}

let state ?(signal = ref 0) (d : t) (prog : Minic.Ir.program) map =
  {
    map;
    prev = 0;
    hist = Array.make d.ngram 0;
    pos = 0;
    regs = Array.make 64 0;
    top = 0;
    rolling = 0;
    signal;
    pruned = Bytes.make (max 1 (Array.length prog.funcs)) '\000';
  }

let reset (st : state) =
  st.prev <- 0;
  Array.fill st.hist 0 (Array.length st.hist) 0;
  st.pos <- 0;
  st.top <- 0;
  st.rolling <- 0;
  st.signal := 0

let closure (st : state) (fid : int) : op -> unit -> unit = function
  | Hit key -> fun () -> Coverage_map.hit st.map key
  | Hit_prev cur ->
      fun () ->
        Coverage_map.hit st.map (cur lxor st.prev);
        st.prev <- cur lsr 1
  | Ngram_push key ->
      let n = Array.length st.hist in
      fun () ->
        Array.unsafe_set st.hist (st.pos mod n) key;
        st.pos <- st.pos + 1;
        Coverage_map.hit st.map (ngram_mix st.hist)
  | Roll k ->
      fun () ->
        st.rolling <- roll st.rolling k;
        Coverage_map.hit st.map st.rolling
  | Bl_push ->
      fun () ->
        if st.top = Array.length st.regs then begin
          let bigger = Array.make (2 * st.top) 0 in
          Array.blit st.regs 0 bigger 0 st.top;
          st.regs <- bigger
        end;
        Array.unsafe_set st.regs st.top 0;
        st.top <- st.top + 1
  | Add k ->
      fun () ->
        if st.top > 0 then begin
          let r = st.regs in
          let i = st.top - 1 in
          Array.unsafe_set r i (Array.unsafe_get r i + k)
        end
  | Commit_back { add; salt; reset } ->
      fun () ->
        if st.top > 0 then begin
          let r = st.regs in
          let i = st.top - 1 in
          if Bytes.unsafe_get st.pruned fid = '\000' then
            Coverage_map.hit st.map
              (commit_key (Array.unsafe_get r i + add) salt);
          Array.unsafe_set r i reset
        end
  | Pop_commit { add; salt } ->
      fun () ->
        if st.top > 0 then begin
          let i = st.top - 1 in
          if Bytes.unsafe_get st.pruned fid = '\000' then
            Coverage_map.hit st.map
              (commit_key (Array.unsafe_get st.regs i + add) salt);
          st.top <- i
        end
  | Mix k ->
      let h = st.signal in
      fun () -> h := sig_mix !h k

let fold_add = function
  | None -> Some 0
  | Some (Add k) -> Some k
  | Some _ -> None
