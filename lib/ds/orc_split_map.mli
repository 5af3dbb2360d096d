(** Split-ordered resizable hash map, written once against
    {!Intf.CORE} — see the implementation header.  {!Make} runs on the
    paper's pass-the-pointer backend ("orc"), {!Make_hp} on the
    hazard-pointer backend ablation ("orc-hp"), and {!Split_map.Make}
    runs {!Impl} over a manual scheme; all satisfy {!MAP}. *)

val initial_buckets : int

module type MAP = sig
  include Intf.SET

  val restarts : t -> int
  (** Traversal restarts (validation failures + lost CAS races). *)

  val buckets : t -> int
  (** Current bucket count (power of two). *)

  val grows : t -> int
  (** Directory doublings performed since creation. *)

  val invariant : t -> bool
  (** Quiesced structural check: so-keys strictly increase along the
      list, the walk reaches the tail, every dummy is unmarked, and
      every set directory cell is physically the dummy carrying its
      bucket's so-key. *)
end

(** The map over any reclamation core; [core] exposes the instance
    (for the scheme's own counters). *)
module Impl (O : Intf.CORE with type node = Orc_michael_list.node) : sig
  include MAP

  val core : t -> O.t

  val directory : t -> Orc_michael_list.node Split_order.dir
  (** The bucket directory (whitebox tests): bucket [b]'s cell is [b]'s
      dummy, which is its own [next] link, or the directory's unset
      value. *)
end

module Make () : MAP
module Make_hp () : MAP
