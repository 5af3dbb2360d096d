(** Free-slot index allocator over an int bitmask.

    The OrcGC hazard-index allocator (Algorithm 6 lines 119–132) needs
    "lowest free index ≥ start" on every pointer-handle creation; a
    linear scan of a used-count array makes that O(capacity) on the hot
    path.  Here a set bit means "in use" and the lowest clear bit is
    found arithmetically ([lnot] + [land] of the carry through the
    trailing ones), so acquire and release are O(1) in the word count —
    one or two words for any realistic hazard-array size.

    Not thread-safe: each instance belongs to one owner thread, exactly
    like the per-thread [used_haz] share counts it indexes for. *)

type t

val create : int -> t
(** [create capacity] — all indexes in [\[0, capacity)] initially free.
    Raises [Invalid_argument] if [capacity < 1]. *)

val capacity : t -> int

val reset : t -> unit
(** Mark every index free again, as if freshly created.  Used by the
    registry quarantine pass so a recycled tid starts from an empty
    hazard-index mask. *)

val acquire : t -> from:int -> int
(** [acquire t ~from]: mark and return the lowest free index [>= from],
    or [-1] if every index in [\[from, capacity)] is taken.  Negative
    [from] is treated as 0.  Allocates nothing. *)

val release : t -> int -> unit
(** Mark an index free again.  Raises [Invalid_argument] out of range. *)

val mem : t -> int -> bool
(** Is this index currently taken? *)

val count : t -> int
(** Number of taken indexes (O(capacity); diagnostics and tests). *)
