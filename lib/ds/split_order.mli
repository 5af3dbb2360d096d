(** Split-ordering arithmetic and the never-moving bucket directory
    shared by {!Split_map} and {!Orc_split_map} (Shalev & Shavit,
    "Split-ordered lists: lock-free extensible hash tables").

    The whole map is {e one} lock-free list sorted by bit-reversed
    hash; buckets are dummy nodes spliced into that list, and the
    table "grows" by doubling a bucket count — no node ever moves, no
    node is retired by a resize, which is exactly the property that
    keeps reclamation traffic (manual retires or orc count flips)
    proportional to real insert/delete work. *)

val hash_bits : int
(** 60 — hashes use 60 bits so an so-key (reversed hash + regular
    bit) stays a tagged immediate below [max_int], leaving [max_int]
    free for the tail sentinel. *)

val max_key : int
(** Largest admissible key, [2^60 - 1].  Keys must lie in
    [[0, max_key]]. *)

val hash : int -> int
(** Fibonacci multiplicative hash onto the 60-bit domain.  The odd
    multiplier makes it a bijection: distinct keys have distinct
    hashes, hence distinct so-keys — traversals compare so-keys
    only. *)

val rev60 : int -> int
(** Bit-reversal of the 60-bit domain (an involution; bit [k] maps to
    bit [59-k]). *)

val regular : int -> int
(** [regular h] is the so-key of a real key with hash [h]:
    [rev60 h] shifted left one with the regular bit set. *)

val key_of_regular : int -> int
(** The key whose so-key is the given regular so-key: the inverse of
    [regular (hash key)] on [[0, max_key]]. *)

val dummy : int -> int
(** [dummy b] is the so-key of bucket [b]'s dummy node (regular bit
    clear).  For every table size it sorts before all keys bucket [b]
    holds and after all keys of the preceding bucket. *)

val is_dummy : int -> bool

val bucket_of : hash:int -> size:int -> int
(** The bucket of [hash] in a table of [size] buckets ([size] a power
    of two): the low [log2 size] bits. *)

val parent : int -> int
(** [parent b] (for [b > 0]): [b] with its most significant set bit
    cleared — the bucket whose dummy provably precedes [b]'s position
    in split order, used as the anchor for recursive bucket
    initialization. *)

(** {2 Bucket directory}

    A fixed table of lazily materialized segments of bucket-entry
    links, mirroring the {!Atomicx.Link} slot table: published
    segments never move, so doubling the bucket count is one atomic
    store and costs no copying, no rehash and no retires. *)

val seg_bits : int
val seg_size : int

val max_buckets : int
(** 2^20 — the directory's capacity (1M buckets; at the default load
    factor of 4 that serves 4M keys at ~4 nodes per chain). *)

type 'a dir

val dir_create : unit -> 'a dir

val dir_entry :
  'a dir -> mk_null:('x -> 'a Atomicx.Link.t) -> 'x -> int -> 'a Atomicx.Link.t
(** [dir_entry d ~mk_null x b] is bucket [b]'s entry link, materializing
    its segment on first touch ([mk_null x] builds each of the segment's
    fresh null links; a raced materialization drops the loser's all-null
    segment, which holds no counts).  With a closed [mk_null], a lookup
    of a materialized segment allocates nothing. *)

val dir_iter : 'a dir -> ('a Atomicx.Link.t -> unit) -> unit
(** Visit every entry link of every materialized segment (quiesced
    helpers: destroy, invariant checks). *)
