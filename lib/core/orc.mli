(** OrcGC — automatic lock-free memory reclamation (paper §4).

    OrcGC combines per-object reference counting of *hard links* (links
    stored in other objects or roots) with a pointer-based scheme that
    protects *local references*.  Deploying it on a data structure
    follows the paper's methodology (§4.1.1) verbatim, modulo OCaml
    syntax:

    + give every node an embedded {!Memdom.Hdr.t} and list its link
      fields in {!NODE.iter_links};
    + allocate nodes with {!S.alloc_node} / {!S.alloc_node_into} (the
      [make_orc] of the paper);
    + mutate shared links only through {!S.store_v}, {!S.cas_v} and
      {!S.unlink_v} (the [orc_atomic] operations), building them with
      {!S.new_link_v} over the instance's {!S.arena};
    + hold local references in {!S.Ptr} handles owned by a
      {!S.with_guard} scope (the RAII [orc_ptr]s), reading with
      {!S.load}, copying with {!S.assign} and stepping a traversal
      window with {!S.advance}.

    No retire or free call appears anywhere in the data structure: an
    object is reclaimed automatically at the first moment its hard-link
    count is zero and no thread protects it (Lemma 1 of the paper).

    The automatic layer — counts, guards, handles — is one
    implementation.  What happens to an object whose count reached zero
    is decided by a backend, chosen by the functor applied (paper §4:
    "most of the existing pointer-based reclamation schemes can be used
    by OrcGC to protect the local references"):
    - {!Make} ("orc") uses pass-the-pointer: the object is handed over
      to a thread that protects it, or deleted at once — at most O(Ht)
      objects are unreclaimed (Table 1).  [create]'s [?max_hps] is
      ignored: the hazard array is self-sizing;
    - {!Make_hp} ("orc-hp") uses hazard pointers: the object waits on a
      thread-local retired list until the list crosses the scan
      threshold R = 2·H·t, or stops growing for R guards — O(Ht²)
      unreclaimed.  [create]'s [?max_hps]
      is that H (default 8); the hazard array is still self-sizing.

    Deviations from the paper's listing (DESIGN.md §6.3): (1) releasing
    a hazard index runs the PTP backend's slot-release hook, which
    drains the slot's handover (as PTP's clear does); (2) [decrementOrc]
    clears the scratch hazard slot 0 before invoking retire, so a
    retiring thread never finds the object protected by itself; (3) a
    handle's old target gets its zero-count check while the handle's
    slot still publishes it. *)

(** {2 The _orc word (Algorithm 3)} *)

val seq_unit : int
(** Increment that bumps the sequence field (bit 24 upward). *)

val bretired : int
(** The BRETIRED ownership bit (bit 23). *)

val orc_zero : int
(** Bias representing a zero hard-link count (bit 22), allowing the
    transient negative counts that CAS-after-increment ordering needs. *)

val ocnt : int -> int
(** Count-plus-BRETIRED portion of an [_orc] word (sequence stripped). *)

val max_haz : int
(** Capacity of each thread's hazard-pointer array. *)

exception Out_of_hazard_indexes
(** Raised when one operation holds more than {!max_haz} live pointer
    handles — a bug in the data structure, not a runtime condition. *)

(** What OrcGC needs to know about a tracked object type. *)
module type NODE = sig
  type t

  val hdr : t -> Memdom.Hdr.t
  (** The header embedded in the node. *)

  val iter_links : t -> (t Atomicx.Link.t -> unit) -> unit
  (** Visit every [orc_atomic] field of the node; the destructor uses it
      to drop the node's outgoing hard links (cascading reclamation
      through the recursive list, §4.1). *)
end

module type S = Orc_intf.S
(** One OrcGC instance, whichever the backend. *)

module Make (N : NODE) : S with type node = N.t
(** OrcGC over the pass-the-pointer backend (Algorithms 5–6), scheme
    name ["orc"]. *)

module Make_hp (N : NODE) : sig
  include S with type node = N.t

  val scan : t -> tid:int -> unit
  (** Scan [tid]'s retired list now (plus any orphaned lists), as a
      threshold crossing would: [tid] must be the caller's. *)
end
(** OrcGC over the hazard-pointer backend, scheme name ["orc-hp"]: a
    claimed object waits on a thread-local retired list until a scan
    finds it unprotected. *)
