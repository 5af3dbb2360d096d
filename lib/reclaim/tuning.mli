(** The reclamation constants every scheme derives its thresholds
    from: the hp/ptb/he/ibr/ebr retire-batch threshold R and the
    split maps' load factor.  They are constants: a stalled reader is
    handled by neutralization ({!Reclaimer.start}'s [neutralize]), not
    by retuning these per deployment. *)

val load_factor : int
(** 4 — target keys-per-bucket before a resizable map doubles its
    bucket directory. *)

val threshold : hps:int -> int
(** The retire-batch threshold
    [max 2 (2·hps·max 1 (Registry.active ()))] — the paper's
    R = 2·H·t over the live thread count, floored at 2 (a zero
    threshold would scan on every retire).  O(registered): call on
    crossing / quarantine / neutralization and cache, not per
    retire. *)
