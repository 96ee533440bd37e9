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
    entries are never removed, so an entry's [id] {e is} its queue
    position — a stable identity, random peers are O(1) lookups instead
    of [List.nth] walks (quadratic over a campaign as the queue grows),
    and the cycle scheduler snapshots the queue by remembering its
    length. [fav_factor] is cached per entry at admission — data and
    cost never change — so the greedy set-cover pass stops recomputing
    it per covered index.

    The top-rated table is afl's [top_rated[MAP_SIZE]]: a flat [Bytes]
    of one int32 slot per map index (4 B per slot, 256 KB at the default
    2^16 map) naming the cheapest entry by position. A claim is one slot
    read and one [fav] compare per covered index, with no hashing and no
    allocation. *)

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
  top_rated : Bytes.t;
      (** afl's top_rated[MAP_SIZE]: one native-endian int32 slot per map
          index holding 1 + the queue position of the cheapest entry
          covering it, 0 while unclaimed *)
  mutable pending_favored : int;
}

let create ?(size_log2 = Pathcov.Coverage_map.default_size_log2) () =
  if size_log2 < 4 || size_log2 > 24 then invalid_arg "Corpus.create";
  {
    arr = [||];
    size = 0;
    top_rated = Bytes.make (4 lsl size_log2) '\000';
    pending_favored = 0;
  }

(* afl's fav_factor: exec time * input length (cached at admission). *)
let fav_factor e = e.fav

let size t = t.size
let pending_favored t = t.pending_favored
let entries t = t.arr

(** The [i]-th entry in discovery order, O(1). *)
let get t i =
  if i < 0 || i >= t.size then invalid_arg "Corpus.get";
  Array.unsafe_get t.arr i

(** Iterate entries in discovery order. *)
let iter f t =
  for i = 0 to t.size - 1 do
    f (Array.unsafe_get t.arr i)
  done

(* Slot access, bounds-checked: an index outside the map raises
   [Invalid_argument] instead of touching a neighbouring slot. The
   primitives work on unboxed int32s, so a slot read or write allocates
   nothing. *)
external get32 : Bytes.t -> int -> int32 = "%caml_bytes_get32"
external set32 : Bytes.t -> int -> int32 -> unit = "%caml_bytes_set32"

let slot t idx = Int32.to_int (get32 t.top_rated (idx lsl 2))
let set_slot t idx v = set32 t.top_rated (idx lsl 2) (Int32.of_int v)
let slots t = Bytes.length t.top_rated lsr 2

(* update_bitmap_score's test for one index whose slot reads [s]: [e]
   takes it when it is unclaimed or held by a strictly costlier entry —
   ties keep the earlier entry. *)
let beats t s (e : entry) =
  s = 0 || (Array.unsafe_get t.arr (s - 1)).fav > e.fav

(* Clear the table, then one claim pass over every entry's indices that
   counts the slots each entry holds: an entry is favored when it still
   holds one at the end. Cost is the clear plus the indices, with no
   scan of the map-sized table. *)
let recompute_favored (t : t) : unit =
  Bytes.fill t.top_rated 0 (Bytes.length t.top_rated) '\000';
  let held = Array.make t.size 0 in
  for pos = 0 to t.size - 1 do
    let e = Array.unsafe_get t.arr pos in
    let ix = e.indices in
    for k = 0 to Array.length ix - 1 do
      let idx = Array.unsafe_get ix k in
      let s = slot t idx in
      if beats t s e then begin
        if s <> 0 then held.(s - 1) <- held.(s - 1) - 1;
        held.(pos) <- held.(pos) + 1;
        set_slot t idx (pos + 1)
      end
    done
  done;
  t.pending_favored <- 0;
  for pos = 0 to t.size - 1 do
    let e = Array.unsafe_get t.arr pos in
    e.favored <- held.(pos) > 0;
    if e.favored && e.times_fuzzed = 0 then
      t.pending_favored <- t.pending_favored + 1
  done

(** Append an entry. Its [id] is its queue position: entries are never
    removed, so the two stay equal for the corpus's lifetime, and the
    top-rated table and checkpoints name entries by it. *)
let add (t : t) ~data ~indices ~exec_blocks ~depth ~found_at : entry =
  let e =
    {
      id = t.size;
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
    would. O(indices), allocation-free. *)
let claim_top_rated (t : t) (e : entry) : unit =
  if e.id >= t.size || Array.unsafe_get t.arr e.id != e then
    invalid_arg "Corpus.claim_top_rated: entry not in this corpus";
  let ix = e.indices in
  for k = 0 to Array.length ix - 1 do
    let idx = Array.unsafe_get ix k in
    if beats t (slot t idx) e then begin
      set_slot t idx (e.id + 1);
      if not e.favored then begin
        e.favored <- true;
        if e.times_fuzzed = 0 then t.pending_favored <- t.pending_favored + 1
      end
    end
  done

(** The top-rated table as [(map index, entry id)] pairs, ascending by
    index — the checkpoint's view of the table. *)
let top_rated_pairs (t : t) : (int * int) array =
  let acc = ref [] in
  for idx = slots t - 1 downto 0 do
    let s = slot t idx in
    if s <> 0 then acc := (idx, s - 1) :: !acc
  done;
  Array.of_list !acc

(** Overwrite the favored bookkeeping with a captured image: the table
    from {!top_rated_pairs} output and the pending-favored count. Every
    index must lie in the map and every id name an entry already added. *)
let restore_top_rated (t : t) ~(pending_favored : int)
    (pairs : (int * int) array) : unit =
  Bytes.fill t.top_rated 0 (Bytes.length t.top_rated) '\000';
  Array.iter
    (fun (idx, id) ->
      if idx < 0 || idx >= slots t || id < 0 || id >= t.size then
        invalid_arg "Corpus.restore_top_rated";
      set_slot t idx (id + 1))
    pairs;
  t.pending_favored <- pending_favored

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

(** Union of all covered indices across the queue, ascending: one mark
    byte per map index, then one scan — no hashing, no sort. *)
let covered_indices_arr (t : t) : int array =
  let seen = Bytes.make (slots t) '\000' in
  let n = ref 0 in
  iter
    (fun e ->
      Array.iter
        (fun i ->
          if Bytes.get seen i = '\000' then begin
            Bytes.unsafe_set seen i '\001';
            incr n
          end)
        e.indices)
    t;
  let out = Array.make !n 0 in
  let k = ref 0 in
  Bytes.iteri
    (fun i c ->
      if c <> '\000' then begin
        out.(!k) <- i;
        incr k
      end)
    seen;
  out

(** List wrapper over {!covered_indices_arr} (renderer convenience). *)
let covered_indices (t : t) : int list = Array.to_list (covered_indices_arr t)
