(** Hazard pointers (Michael [19]) — manual baseline scheme.

    Protection publishes the node's uid (one unboxed word) in a
    per-thread hazard slot and re-validates
    against the source link.  Retiring pushes the node onto
    a thread-local retired list; once the list exceeds a scan threshold
    the thread scans all published hazards and frees every retired node
    not currently protected.  Memory bound: each thread can hold a
    retired list proportional to [H*t], hence O(Ht²) unreclaimed overall
    — the quadratic bound the paper's PTP improves on (Table 1). *)

module Make (N : Scheme_intf.NODE) : sig
  include Scheme_intf.S with type node = N.t

  (** {2 Extended surface for the {!Switchable} wrapper}

      Beyond {!Scheme_intf.S}: the adaptive scheme wrapper embeds an hp
      instance as its robust policy and needs to drain a thread's own
      retired list to fixpoint after relaxing back to the fast policy. *)

  val pending : t -> tid:int -> int
  (** Length of [tid]'s local retired list (owner-read only). *)

  val stall_age_max : t -> int
  (** Oldest in-flight guard age in watchdog ticks (0 when none). *)

  val scan : t -> tid:int -> unit
  (** One hazard scan of [tid]'s retired list.  Safe concurrently with
      other threads' operations — it reads the shared hazard rows and
      touches only [tid]-local plain state — but only [tid] (or a
      thread that provably owns the slot) may call it. *)
end
