(* Reference favored-corpus bookkeeping: the historical [Hashtbl]-keyed
   top-rated table, kept as the model the flat map-sized table in
   [Fuzz.Corpus] is checked against (see the corpus model test in
   [Test_fuzz]). Only the favored machinery is modelled: entries carry
   their id, cached fav_factor, indices and the two mutable fields.
   Do not "improve" this file. *)

type entry = {
  id : int;
  indices : int array;
  fav : int;
  mutable favored : bool;
  mutable times_fuzzed : int;
}

type t = {
  mutable entries : entry list;  (** newest first *)
  mutable next_id : int;
  top_rated : (int, entry) Hashtbl.t;
  mutable pending_favored : int;
}

let create () =
  { entries = []; next_id = 0; top_rated = Hashtbl.create 64; pending_favored = 0 }

let iter f t = List.iter f (List.rev t.entries)
let get t i = List.find (fun e -> e.id = i) t.entries

let add t ~data ~indices ~exec_blocks =
  let e =
    {
      id = t.next_id;
      indices;
      fav = exec_blocks * (String.length data + 16);
      favored = false;
      times_fuzzed = 0;
    }
  in
  t.next_id <- t.next_id + 1;
  t.entries <- e :: t.entries;
  e

let recompute_favored t =
  Hashtbl.reset t.top_rated;
  iter
    (fun e ->
      Array.iter
        (fun idx ->
          match Hashtbl.find_opt t.top_rated idx with
          | Some best when best.fav <= e.fav -> ()
          | _ -> Hashtbl.replace t.top_rated idx e)
        e.indices)
    t;
  iter (fun e -> e.favored <- false) t;
  Hashtbl.iter (fun _ e -> e.favored <- true) t.top_rated;
  t.pending_favored <- 0;
  iter
    (fun e ->
      if e.favored && e.times_fuzzed = 0 then
        t.pending_favored <- t.pending_favored + 1)
    t

let claim_top_rated t e =
  Array.iter
    (fun idx ->
      match Hashtbl.find_opt t.top_rated idx with
      | Some best when best.fav <= e.fav -> ()
      | _ ->
          Hashtbl.replace t.top_rated idx e;
          if not e.favored then begin
            e.favored <- true;
            if e.times_fuzzed = 0 then t.pending_favored <- t.pending_favored + 1
          end)
    e.indices

let mark_fuzzed t e =
  e.times_fuzzed <- e.times_fuzzed + 1;
  if e.favored && e.times_fuzzed = 1 then
    t.pending_favored <- max 0 (t.pending_favored - 1)

(* (map index, entry id), ascending — the checkpoint's view of the table *)
let top_rated_pairs t =
  Hashtbl.fold (fun idx e acc -> (idx, e.id) :: acc) t.top_rated []
  |> List.sort compare |> Array.of_list
