(** Epoch-based reclamation (Fraser [10], Hart et al. [13]) — the
    quiescence baseline.

    Threads announce the global epoch on [begin_op] and go quiescent on
    [end_op]; a node retired in epoch [e] is freed once every active
    thread has moved past it.  Protection is nearly free, but a single
    stalled reader blocks all reclamation: blocking retire, unbounded
    memory (Table 1).  Included as the performance ceiling the lock-free
    schemes are measured against. *)

module Make (N : Scheme_intf.NODE) : Scheme_intf.S with type node = N.t
