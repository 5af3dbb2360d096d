(** Michael's lock-free list, written once against {!Intf.CORE}; see
    the implementation header.  {!Make} runs it under OrcGC, where
    unlinking drops the node's last hard link and OrcGC reclaims it
    once unprotected; {!Michael_list.Make} runs {!Impl} over a manual
    scheme.  {!Window} is its find/insert/delete, shared with
    {!Orc_hs_list} and {!Orc_split_map}. *)

(** The node of every list-based set, sorted by [ord]: the key in the
    two lists, the so-key in the split-ordered map (which decodes the
    key from it, {!Split_order.key_of_regular}).  The node is its own
    [next] link ({!Atomicx.Link.embedded}): [word] and [arena] are the
    link's two fields, so a node and its link are one block.  Nodes are
    built by {!make_node} and, in Pool mode, re-initialised in place by
    {!renew_node} (the pair [Intf.CORE.alloc_node_into] takes); the
    first target goes in through a store, and [word] is otherwise read
    and written only through {!next_link}. *)
type node = {
  mutable word : int;
  arena : node Atomicx.Link.arena;
  mutable ord : int;
  mutable hdr : Memdom.Hdr.t;
}

module N : Orc_core.Orc.NODE with type t = node

val next_link : node -> node Atomicx.Link.t
(** The node viewed as its [next] link; no check. *)

val make_node : node Atomicx.Link.arena -> Memdom.Hdr.t -> int -> node
(** [make_node arena hdr ord]: a new node, its link [Null] at stamp 0. *)

val renew_node : node -> Memdom.Hdr.t -> int -> node
(** [renew_node n hdr ord]: the freed record [n] re-initialised in
    place as a new node; its link is written back to [Null] under the
    next stamp, so no view of an earlier life matches it.  Returns
    [n]. *)

val ord_of : node -> int
(** [n.ord], after checking [n] is not freed. *)

val next_of : node -> node Atomicx.Link.t
(** {!next_link}, after checking [n] is not freed. *)

(** Michael's window over a list sorted by [ord], anchored at a link
    whose owner is never retired while the structure lives (a
    sentinel's or a bucket dummy's [next]).  Each operation
    takes the guard's [prev]/[curr]/[next] handles and counts its
    restarts in the given counter: a find restart, a lost insert CAS,
    a marked successor in [delete] and a lost mark CAS. *)
module Window (O : Intf.CORE with type node = node) : sig
  val find :
    int Atomic.t ->
    O.guard ->
    node Atomicx.Link.t ->
    int ->
    prev:O.Ptr.t ->
    curr:O.Ptr.t ->
    next:O.Ptr.t ->
    node Atomicx.Link.t
  (** [find restarts g anchor ord] validates each hop, unlinks (and
      retires) the marked nodes it meets and stops at the first node
      with [ord_of >= ord], held in [curr].  Returns the predecessor
      link, whose content is [Ptr.view curr]; {!found} tells whether
      [curr] carries [ord].  The stop node's successor is read for its
      mark but not protected, so [next] holds nothing usable on
      return.  Allocates nothing. *)

  val found : O.Ptr.t -> int -> bool
  (** [found curr ord]: after a {!find}, does [curr] carry [ord]? *)

  val insert :
    int Atomic.t ->
    O.t ->
    O.guard ->
    node Atomicx.Link.t ->
    int ->
    prev:O.Ptr.t ->
    curr:O.Ptr.t ->
    next:O.Ptr.t ->
    into:O.Ptr.t ->
    bool
  (** [insert restarts core g anchor ord] inserts if absent: [true]
      iff a fresh node carrying [ord] was linked, and [into] then
      holds it; on [false], [curr] holds the node already carrying
      [ord].  The fresh node is allocated once, reused across lost
      CASes and discarded if [ord] appears. *)

  val delete :
    int Atomic.t ->
    O.guard ->
    node Atomicx.Link.t ->
    int ->
    prev:O.Ptr.t ->
    curr:O.Ptr.t ->
    next:O.Ptr.t ->
    bool
  (** Mark-then-unlink: [true] iff this call marked the node carrying
      [ord].  The unlink is [O.unlink_v], which retires it; if that CAS
      loses, a [find] unlinks it instead. *)
end

module type S = sig
  include Intf.SET

  val restarts : t -> int
  (** Traversal restarts (window-validation failures and lost CAS races)
      since [create] — whitebox visibility into contention for tests and
      the pack benchmark. *)
end

module Impl (O : Intf.CORE with type node = node) : sig
  include S

  val core : t -> O.t

  val anchor : t -> node Atomicx.Link.t
  (** The head sentinel's [next], where the window starts. *)

  val check_key : int -> unit
  (** Raises [Invalid_argument] on a sentinel key. *)
end

module Make () : S
