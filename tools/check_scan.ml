(* Guard the scan invariants in a BENCH_orc.json produced by
   `bench/main.exe --scan --json` (or `--smoke --json`): for every
   batching scheme the section must show

   - a snapshot built per batching scan (snapshot_builds = scans > 0),
   - at most one visit per published slot per scan:
     scan_slots <= scans x slots_per_row x rows, where rows is the
     registered row count the scans walk and slots_per_row is H for the
     pointer and era schemes and 1 for IBR's single interval,
   - read-side elision actually firing (elided > 0) for the schemes
     that implement it (hp and the era schemes; PTB's get_protected_v
     keeps the unconditional publish).

     dune exec tools/check_scan.exe -- BENCH_orc.json

   Exits 0 when every scheme passes, 1 otherwise. *)

open Tool_support

let elision_schemes = [ "hp"; "he"; "ibr" ]

let () =
  let path = usage_path ~tool:"check_scan" ~arg:"BENCH_orc.json" in
  let doc = load path in
  let rows = list_section doc ~path "scan_overhaul" in
  if rows = [] then fail "%s: scan_overhaul section is empty" path;
  List.iter
    (fun row ->
      let scheme = Option.value (str_field row "scheme") ~default:"?" in
      let scans = field row "scans"
      and builds = field row "snapshot_builds"
      and slots = field row "scan_slots"
      and ceiling =
        field row "scans" *. field row "slots_per_row" *. field row "rows"
      and elided = field row "elided" in
      if not (builds > 0. && builds = scans) then
        problem "%s: snapshot_builds=%.0f but scans=%.0f" scheme builds scans;
      if not (slots <= ceiling) then
        problem "%s: scan_slots %.0f above one visit per slot per scan (%.0f)"
          scheme slots ceiling
      else
        Printf.printf "  ok   %-4s scan_slots %.0f <= %.0f%s\n" scheme slots
          ceiling
          (if elided > 0. then Printf.sprintf ", %.0f elided publishes" elided
           else "");
      if List.mem scheme elision_schemes && not (elided > 0.) then
        problem "%s: read-side elision never fired" scheme)
    rows;
  finish path ~what:"scan"
    ~ok:(Printf.sprintf "scan OK (%d schemes)" (List.length rows))
