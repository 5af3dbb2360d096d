(** Bench-harness view of the JSON module.

    The type and serializer live in {!Obs.Json} (the observability layer
    sits below the harness and needs them for Chrome-trace export); this
    re-export adds only the harness-specific {!of_series}. *)

include module type of struct
  include Obs.Json
end

val of_series : Report.series list -> t
(** A result table as
    [[{"label": .., "points": [{"threads": .., "value": ..}]}]]. *)

val meta : unit -> t
(** Provenance object: git commit (or ["unknown"] outside a checkout),
    OCaml version, hostname, wall-clock time, header-packing mode and
    word size.  Stamped into benchmark artifacts by {!write_merged}. *)

val write_merged : string -> (string * t) list -> unit
(** Merge [sections] into the top-level object already stored at the
    path (a missing or unparseable file starts empty), replacing
    sections with the same name, refreshing the ["meta"] block, and
    writing the result back.  This is how successive
    [bench/main.exe --json] runs (say [--smoke], then some section flags)
    compose into one [BENCH_orc.json] instead of clobbering it. *)
