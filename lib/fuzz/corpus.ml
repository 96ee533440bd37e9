(** The fuzzer queue and AFL's favored-corpus machinery.

    Each interesting test case is retained as an [entry] with the sparse
    set of coverage-map indices it touches. [recompute_favored] implements
    afl-fuzz's [update_bitmap_score]/[cull_queue] greedy set-cover
    approximation: for every map index, the cheapest entry covering it is
    top-rated, and an entry is *favored* if it is top-rated for at least
    one index. The paper's culling strategy (§III-B1) and the opportunistic
    queue trim (§III-B2) both reuse exactly this machinery, as does the
    scheduler's favored-skip logic.

    The queue is a growable array in discovery order rather than a list:
    entries are never removed, so an index is a stable identity, random
    peers are O(1) lookups instead of [List.nth] walks (quadratic over a
    campaign as the queue grows), and the cycle scheduler snapshots the
    queue by remembering its length. [fav_factor] is cached per entry at
    admission — data and cost never change — so the greedy set-cover pass
    stops recomputing it per covered index. *)

type entry = {
  id : int;
  data : string;
  indices : int array;  (** classified trace indices hit, ascending *)
  exec_blocks : int;  (** work proxy standing in for execution time *)
  depth : int;  (** mutation chain length from the seed *)
  found_at : int;  (** global execution counter at discovery *)
  fav : int;  (** cached fav_factor: exec_blocks x (length + 16) *)
  mutable favored : bool;
  mutable times_fuzzed : int;
}

type t = {
  mutable arr : entry array;  (** slots [0, size), discovery order *)
  mutable size : int;
  mutable next_id : int;
  top_rated : (int, entry) Hashtbl.t;  (** map index -> cheapest entry *)
  mutable pending_favored : int;
}

let create () =
  {
    arr = [||];
    size = 0;
    next_id = 0;
    top_rated = Hashtbl.create 1024;
    pending_favored = 0;
  }

(* afl's fav_factor: exec time * input length (cached at admission). *)
let fav_factor e = e.fav

let size t = t.size

(** The [i]-th entry in discovery order, O(1). *)
let get t i =
  if i < 0 || i >= t.size then invalid_arg "Corpus.get";
  Array.unsafe_get t.arr i

(** Iterate entries in discovery order. *)
let iter f t =
  for i = 0 to t.size - 1 do
    f (Array.unsafe_get t.arr i)
  done

let recompute_favored (t : t) : unit =
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

let add (t : t) ~data ~indices ~exec_blocks ~depth ~found_at : entry =
  let e =
    {
      id = t.next_id;
      data;
      indices;
      exec_blocks;
      depth;
      found_at;
      fav = exec_blocks * (String.length data + 16);
      favored = false;
      times_fuzzed = 0;
    }
  in
  t.next_id <- t.next_id + 1;
  if t.size = Array.length t.arr then begin
    let bigger = Array.make (max 16 (2 * t.size)) e in
    Array.blit t.arr 0 bigger 0 t.size;
    t.arr <- bigger
  end;
  t.arr.(t.size) <- e;
  t.size <- t.size + 1;
  e

let to_list t =
  let rec go i acc = if i < 0 then acc else go (i - 1) (t.arr.(i) :: acc) in
  go (t.size - 1) []

(** Incremental update_bitmap_score (afl's on-retention half of the
    favored machinery): the new entry claims every top_rated slot it
    covers more cheaply; favored flags are refreshed in full at cycle
    boundaries by {!recompute_favored}. Newly-favored never-fuzzed
    entries bump [pending_favored], exactly as the cycle recompute
    would. *)
let claim_top_rated (t : t) (e : entry) : unit =
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

(** One more fuzzing pass over [e]; a favored entry's first pass clears
    it from [pending_favored]. *)
let mark_fuzzed (t : t) (e : entry) : unit =
  e.times_fuzzed <- e.times_fuzzed + 1;
  if e.favored && e.times_fuzzed = 1 then
    t.pending_favored <- max 0 (t.pending_favored - 1)

(* ------------------------------------------------------------------ *)
(* Shard views *)

(** A fixed-length prefix snapshot of the queue, safe to read from worker
    domains while the coordinator is quiescent: the backing array is
    captured at creation, so growth (and array reallocation) on the
    coordinator side between epochs never moves a live view. Entries are
    shared, not copied — shards treat them as read-only. *)
type view = { varr : entry array; vsize : int }

(** Snapshot the first [limit] entries (clamped to the current size). *)
let view (t : t) ~(limit : int) : view =
  { varr = t.arr; vsize = min (max 0 limit) t.size }

let view_get (v : view) i =
  if i < 0 || i >= v.vsize then invalid_arg "Corpus.view_get";
  Array.unsafe_get v.varr i

(** Entries whose union of indices equals the whole queue's union, chosen
    greedily by fav_factor — the "minimal coverage-preserving queue" the
    culling strategy retains. *)
let favored_subset (t : t) : entry list =
  recompute_favored t;
  List.filter (fun e -> e.favored) (to_list t)

(** Union of all covered indices across the queue, ascending. *)
let covered_indices_arr (t : t) : int array =
  let tbl = Hashtbl.create 1024 in
  iter (fun e -> Array.iter (fun i -> Hashtbl.replace tbl i ()) e.indices) t;
  let out = Array.make (Hashtbl.length tbl) 0 in
  let k = ref 0 in
  Hashtbl.iter
    (fun i () ->
      out.(!k) <- i;
      incr k)
    tbl;
  Array.sort Int.compare out;
  out

(** List wrapper over {!covered_indices_arr} (renderer convenience). *)
let covered_indices (t : t) : int list = Array.to_list (covered_indices_arr t)
