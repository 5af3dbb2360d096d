(** Hazard pointers (Michael [19]) — manual baseline scheme.

    Protection publishes the node's uid (one unboxed word) in a
    per-thread hazard slot and re-validates
    against the source link.  Retiring pushes the node onto
    a thread-local retired list; once the list exceeds a scan threshold
    the thread scans all published hazards and frees every retired node
    not currently protected.  Memory bound: each thread can hold a
    retired list proportional to [H*t], hence O(Ht²) unreclaimed overall
    — the quadratic bound the paper's PTP improves on (Table 1). *)

module Make (N : Scheme_intf.NODE) : Scheme_intf.S with type node = N.t
