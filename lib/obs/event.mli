(** Typed reclamation lifecycle events.

    One constructor per moment the paper's algorithms reason about: an
    object is allocated, retired (enters the unreclaimed population the
    Table-1 bounds constrain), possibly handed over or cascaded, and
    finally freed; protection scopes open and close; retiring threads
    scan the published hazards.  Events are recorded into per-thread
    {!Ring}s by a {!Sink} and merged into Chrome-trace JSON by
    {!Trace}. *)

type kind =
  | Alloc  (** header handed out by the allocator *)
  | Retire  (** object entered the retired/unreclaimed state *)
  | Handover  (** retiring thread passed the object to a protector *)
  | Cascade  (** destructor-triggered recursive retire *)
  | Free  (** memory returned to the allocator *)
  | Scan  (** hazard scan; [arg] = slots visited *)
  | Guard_begin  (** protection scope opened *)
  | Guard_end  (** protection scope closed *)
  | Orphan
      (** departing thread published its retire list; [arg] = batch size *)
  | Adopt  (** surviving thread adopted an orphan batch; [arg] = size *)
  | Recycle
      (** pool allocator handed out a recycled header instead of building
          a fresh one ([Alloc] is {e not} also emitted); [arg] = the
          header's new generation *)
  | Refill
      (** pool owner drained a batch from its remote-free transfer stack
          (or adopted an orphaned free-list) into the local LIFO;
          [arg] = batch size *)
  | Snapshot
      (** batching scan built a scan-set snapshot of the live protection
          rows ([Reclaim.Scan_set]); [arg] = entries captured *)
  | Elide
      (** a protection publish was skipped because the slot already held
          the target (read-side fast path) *)
  | Stall
      (** the {!Watchdog} flagged a non-progressing guard: [uid] = the
          stalled registry slot, [arg] = its age in watchdog ticks *)
  | Neutralize
      (** a validated stalled guard was expired by a registry generation
          bump: [uid] = the neutralized slot, [arg] = its age in
          watchdog ticks at neutralization *)

val to_int : kind -> int
(** Dense encoding in [0, 15] — what the rings store. *)

val of_int : int -> kind
(** Inverse of {!to_int}; raises [Invalid_argument] out of range. *)

val name : kind -> string

(** A decoded event, as returned by ring snapshots. *)
type t = {
  seq : int;  (** per-thread emission index, contiguous within a ring *)
  ts : int;  (** nanoseconds, monotone non-decreasing per thread *)
  tid : int;
  kind : kind;
  uid : int;  (** object uid, or 0 when the event has no subject *)
  arg : int;  (** kind-specific payload (e.g. slots visited by a scan) *)
}

val pp : Format.formatter -> t -> unit
