(** Pass-the-buck (Herlihy, Luchangco & Moir [14]) — manual baseline.

    Guards are hazard slots; [liberate] hands a trapped value to its
    guard through the guard's {!Handover} slot (the paper's versioned
    DWCAS becomes one exchange, which already drains each value once).
    The liberating thread
    still gathers a list proportional to the trapped population, keeping
    the O(Ht²) bound (Table 1); PTP sharpens the same handover idea into
    a linear bound by pushing pointers forward instead of gathering. *)

module Make (N : Scheme_intf.NODE) : Scheme_intf.S with type node = N.t
