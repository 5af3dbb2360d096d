type kind =
  | Alloc
  | Retire
  | Handover
  | Cascade
  | Free
  | Scan
  | Guard_begin
  | Guard_end
  | Orphan
  | Adopt
  | Recycle
  | Refill
  | Snapshot
  | Elide
  | Stall
  | Neutralize

let to_int = function
  | Alloc -> 0
  | Retire -> 1
  | Handover -> 2
  | Cascade -> 3
  | Free -> 4
  | Scan -> 5
  | Guard_begin -> 6
  | Guard_end -> 7
  | Orphan -> 8
  | Adopt -> 9
  | Recycle -> 10
  | Refill -> 11
  | Snapshot -> 12
  | Elide -> 13
  | Stall -> 14
  | Neutralize -> 15

let of_int = function
  | 0 -> Alloc
  | 1 -> Retire
  | 2 -> Handover
  | 3 -> Cascade
  | 4 -> Free
  | 5 -> Scan
  | 6 -> Guard_begin
  | 7 -> Guard_end
  | 8 -> Orphan
  | 9 -> Adopt
  | 10 -> Recycle
  | 11 -> Refill
  | 12 -> Snapshot
  | 13 -> Elide
  | 14 -> Stall
  | 15 -> Neutralize
  | n -> invalid_arg (Printf.sprintf "Obs.Event.of_int: %d" n)

let name = function
  | Alloc -> "alloc"
  | Retire -> "retire"
  | Handover -> "handover"
  | Cascade -> "cascade"
  | Free -> "free"
  | Scan -> "scan"
  | Guard_begin -> "guard_begin"
  | Guard_end -> "guard_end"
  | Orphan -> "orphan"
  | Adopt -> "adopt"
  | Recycle -> "recycle"
  | Refill -> "refill"
  | Snapshot -> "snapshot"
  | Elide -> "elide"
  | Stall -> "stall"
  | Neutralize -> "neutralize"

type t = {
  seq : int;  (** per-thread emission index, contiguous within a ring *)
  ts : int;  (** nanoseconds, monotone non-decreasing per thread *)
  tid : int;
  kind : kind;
  uid : int;  (** object uid, or 0 when the event has no subject *)
  arg : int;  (** kind-specific payload (e.g. slots visited by a scan) *)
}

let pp fmt e =
  Format.fprintf fmt "[%d.%d @%dns %s uid=%d arg=%d]" e.tid e.seq e.ts
    (name e.kind) e.uid e.arg
