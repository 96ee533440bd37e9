(** The fuzzer queue and AFL's favored-corpus machinery
    ([update_bitmap_score]/[cull_queue]): for every coverage-map index the
    cheapest entry covering it is top-rated, and an entry is *favored* if
    it is top-rated somewhere. The paper's culling strategy (§III-B1) and
    opportunistic queue trim (§III-B2) reuse this machinery, as does the
    scheduler's favored-skip logic.

    The queue is a growable array in discovery order: entries are never
    removed, so an entry's [id] is its queue position for the corpus's
    lifetime and {!get} is O(1) — the scheduler snapshots a cycle by
    remembering the queue length and the splice stage picks random peers
    without list walks. The top-rated table is a flat map-sized array
    (afl's [top_rated[MAP_SIZE]], 4 B per map slot) holding positions,
    so claims are O(indices) and allocation-free. *)

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

(** The queue plus its favored bookkeeping (top-rated table and
    pending-favored count). *)
type t

(** An empty queue whose top-rated table spans a [2^size_log2]-index
    coverage map (default {!Pathcov.Coverage_map.default_size_log2};
    4 ≤ n ≤ 24). Every index an entry covers must lie in that map. *)
val create : ?size_log2:int -> unit -> t

(** afl's fav_factor: execution work x input length (cached per entry). *)
val fav_factor : entry -> int

(** Full favored recomputation (afl's cull_queue, run at cycle starts):
    clear the table, then one claim pass over every entry's indices that
    counts the slots each entry holds; favored = holds at least one. *)
val recompute_favored : t -> unit

(** Append an entry; its [id] is its queue position. *)
val add :
  t ->
  data:string ->
  indices:int array ->
  exec_blocks:int ->
  depth:int ->
  found_at:int ->
  entry

(** The [i]-th entry in discovery order, O(1); raises on out-of-range. *)
val get : t -> int -> entry

(** Iterate entries in discovery order. *)
val iter : (entry -> unit) -> t -> unit

(** Entries in discovery order. *)
val to_list : t -> entry list

val size : t -> int

(** Favored entries not yet fuzzed — the scheduler's skip input. *)
val pending_favored : t -> int

(** The backing array: slots [0, {!size}) hold the entries in discovery
    order, the rest is padding. Read-only; growth may replace it, so
    read it afresh after an {!add}. *)
val entries : t -> entry array

(** Incremental update_bitmap_score: the (just-retained) entry claims
    every top_rated slot it covers more cheaply, bumping
    [pending_favored] for newly-favored never-fuzzed entries. Full
    favored refresh stays with {!recompute_favored} at cycle starts.
    O(indices) and allocation-free; raises [Invalid_argument] for an
    entry of another corpus. *)
val claim_top_rated : t -> entry -> unit

(** The top-rated table as [(map index, entry id)] pairs, ascending by
    index (checkpoint capture). *)
val top_rated_pairs : t -> (int * int) array

(** Overwrite the top-rated table and the pending-favored count with a
    captured image (checkpoint restore, after re-adding the entries).
    Raises [Invalid_argument] on an index outside the map or an id that
    names no entry. *)
val restore_top_rated : t -> pending_favored:int -> (int * int) array -> unit

(** One more fuzzing pass over an entry (both loops' scheduler step): a
    favored entry's first pass clears it from [pending_favored]. *)
val mark_fuzzed : t -> entry -> unit

(** {2 Shard views}

    Fixed-length prefix snapshots of the queue, safe to read from worker
    domains while the coordinator is quiescent: the backing array is
    captured at creation so coordinator-side growth between sync epochs
    never moves a live view. Entries are shared, not copied — shards
    must treat them as read-only. *)

type view = private { varr : entry array; vsize : int }

(** Snapshot the first [limit] entries (clamped to the current size). *)
val view : t -> limit:int -> view

(** The [i]-th entry of the snapshot, O(1); raises on out-of-range. *)
val view_get : view -> int -> entry

(** Entries whose union of indices equals the whole queue's union, chosen
    greedily by {!fav_factor} — the "minimal coverage-preserving queue"
    the culling strategy retains. *)
val favored_subset : t -> entry list

(** Union of all covered indices across the queue, ascending. *)
val covered_indices_arr : t -> int array

(** List wrapper over {!covered_indices_arr} (renderer convenience). *)
val covered_indices : t -> int list
