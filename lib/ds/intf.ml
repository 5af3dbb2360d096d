(** Common signatures of the benchable data structures.

    Every queue and every ordered set in this library exposes the same
    surface, so the scheme × structure combinations can be iterated
    uniformly.  {!Catalog} is the one matrix of those combinations: it
    applies each algorithm to each scheme it runs under, once, and the
    figures, the soak, the split-map chaos battery and the bench take
    their structures from it by name.  The memory
    accounting entry points ([alloc], [unreclaimed], [flush]) are part of
    the interface on purpose: the paper's claims are as much about
    *unreclaimed objects* as about throughput, and every structure must
    be able to prove leak-freedom after [destroy]. *)

module type QUEUE = sig
  type t

  type item
  (** Payload type (the functor argument [V.t]). *)

  val scheme_name : string
  (** Reclamation scheme label used in benchmark tables ("hp", "orc", ...). *)

  val create : ?mode:Memdom.Alloc.mode -> unit -> t
  (** Fresh queue with its own allocator context (default
      [Memdom.Alloc.System]: access after free raises). *)

  val enqueue : t -> item -> unit
  val dequeue : t -> item option

  val destroy : t -> unit
  (** Quiesced teardown: release every node the structure still owns.
      After [destroy] (plus {!flush} for manual schemes),
      [Memdom.Alloc.live (alloc t) = 0]. *)

  val unreclaimed : t -> int
  (** Nodes retired but not yet freed — the paper's bounded quantity. *)

  val flush : t -> unit
  (** Quiesced drain of the underlying scheme (tests/shutdown only). *)

  val alloc : t -> Memdom.Alloc.t
end

module type SET = sig
  type t

  val scheme_name : string
  val create : ?mode:Memdom.Alloc.mode -> unit -> t

  val add : t -> int -> bool
  (** [true] iff the key was absent.  Keys must avoid the sentinel values
      (structure-specific, always including [min_int]/[max_int]). *)

  val remove : t -> int -> bool
  (** [true] iff this call logically deleted the key. *)

  val contains : t -> int -> bool

  val to_list : t -> int list
  (** Quiesced: the current keys in ascending order. *)

  val size : t -> int

  val destroy : t -> unit
  val unreclaimed : t -> int
  val flush : t -> unit
  val alloc : t -> Memdom.Alloc.t
end

(** The reclamation interface every lib/ds algorithm is written
    against: the paper's §4.1.1 methodology as a signature.  An OrcGC
    structure and its manual-reclamation version differ only in the
    calls below, so each algorithm is written once as a functor over
    [CORE].

    Three families satisfy it: [Orc_core.Orc.Make] (scheme "orc"),
    [Orc_core.Orc.Make_hp] ("orc-hp") and {!Manual_core.Make} over any
    manual scheme.  The Michael list, the split-ordered map, the MS
    queue, the LCRQ and the NM tree run over all three.  The HS,
    Harris and TBKP lists, the KP and turn queues and the HS and CRF
    skip lists need an automatic core (orc or orc-hp): they walk
    through marked nodes or hold a node from several places at once,
    so no manual retire point exists (the paper's obstacles 1–3; each
    says which in its interface).

    Handles ([Ptr.t]) are guard-scoped local references, each owning
    one hazard index; [load] protects a link's target in the handle,
    [advance] steps a prev/curr/next window by permuting the three
    handles (no publish), and the mutators take the word views the
    handles hold. *)
module type CORE = sig
  type node
  type t
  type guard

  module Ptr : sig
    type t

    val view : t -> node Atomicx.Link.view
    val node_exn : t -> node
    val is_marked : t -> bool
    val retag_v : t -> node Atomicx.Link.view -> unit
  end

  val name : string
  val create : ?max_hps:int -> ?sink:Obs.Sink.t -> Memdom.Alloc.t -> t

  val with_guard : t -> (guard -> 'a) -> 'a
  (** One operation; every handle's protection ends on exit, normal or
      exceptional.  Guards nest: an inner guard on the same tid ends
      only the protections of its own handles. *)

  val with_guard2 : t -> (guard -> 'a -> 'b -> 'r) -> 'a -> 'b -> 'r
  (** [with_guard2 t f a b] is [with_guard t (fun g -> f g a b)] without
      building the closure: the form an allocation-free operation
      uses. *)

  val ptr : guard -> Ptr.t
  val load : guard -> node Atomicx.Link.t -> Ptr.t -> unit
  val assign : guard -> Ptr.t -> Ptr.t -> unit
  val advance : guard -> Ptr.t -> Ptr.t -> Ptr.t -> unit
  val alloc_node_into : guard -> Ptr.t -> (Memdom.Hdr.t -> node) -> node
  val new_link_v : guard -> node Atomicx.Link.view -> node Atomicx.Link.t
  val store_v : guard -> node Atomicx.Link.t -> node Atomicx.Link.view -> unit

  val cas_v :
    guard ->
    node Atomicx.Link.t ->
    expected:node Atomicx.Link.view ->
    desired:node Atomicx.Link.view ->
    bool

  val unlink_v :
    guard ->
    node Atomicx.Link.t ->
    Ptr.t ->
    desired:node Atomicx.Link.view ->
    bool
  (** The CAS that physically unlinks the handle's target, which is
      retired on success (orc: its protection ends, and the count drop
      frees it). *)

  val retire : guard -> Ptr.t -> unit
  (** The handle's target was just unlinked by a successful [cas_v]:
      hand it to the scheme.  A no-op under orc, where the count drop
      does the work. *)

  val retire_region : guard -> Ptr.t -> keep:node Atomicx.Link.view -> unit
  (** [retire_region g root ~keep]: the region under the handle's
      target was just excised by one CAS that installed [keep]'s target
      in its place.  A manual scheme collects every node reachable from
      [root] except through [keep] (recognised by slot, never
      dereferenced), poisons every link of the region, so a traversal
      still inside it restarts, and only then retires each node.  A
      no-op under orc, where the count drop cascades through the
      region. *)

  val discard : guard -> node -> unit
  (** Free a node that was allocated but never published.  A no-op
      under orc, where the handle that holds it frees it. *)

  val release_roots : t -> node Atomicx.Link.t list -> unit
  (** Quiesced teardown: free everything reachable from [roots] and null
      them.  Orc stores null into each root and lets the counts
      cascade; a manual scheme frees each reachable node once.  Both
      then flush, so nothing is left retired. *)

  val v_ptr : t -> node -> node Atomicx.Link.view

  val arena : t -> node Atomicx.Link.arena
  (** The instance's handle table, which every link of the structure
      indexes.  A node that embeds its own link
      ({!Atomicx.Link.embedded}) stores it in its literal; the embedded
      word starts [Null] and takes its first target through
      [store_v]. *)

  val unreclaimed : t -> int
  val flush : t -> unit
end
