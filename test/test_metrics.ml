(* Live metrics plane tests: registry semantics (dedup, weak probes,
   aggregation, ring retention), gauge high-water marks, Prometheus and
   JSON exposition, the watchdog stamp/validate/clear lifecycle, and
   the stall reports the chaos battery reads off them.  The background
   domain that drives them is tested in test_background. *)

open Util
open Atomicx

let find_serie reg name =
  List.find_opt
    (fun (s : Obs.Metrics.series) -> s.Obs.Metrics.name = name)
    (Obs.Metrics.series reg)

let get_serie reg name =
  match find_serie reg name with
  | Some s -> s
  | None -> Alcotest.failf "series %s missing" name

(* ------------------------------------------------------------------ *)
(* Registry *)

let test_counter_gauge_sample () =
  (* Shard.get sums the registered slots, so the explicit ~tid writes
     below need the high-water mark raised over them *)
  Registry.reserve 2;
  let reg = Obs.Metrics.create () in
  let c = Obs.Metrics.counter reg "reqs_total" in
  let g = Obs.Metrics.gauge reg "depth" in
  Shard.add c ~tid:0 5;
  Shard.incr c ~tid:1;
  Obs.Metrics.set g 42;
  Obs.Metrics.sample reg ~tick:1;
  let sc = get_serie reg "reqs_total" in
  check_int "counter sum across shards" 6 sc.Obs.Metrics.last;
  check_bool "counter kind" true sc.Obs.Metrics.is_counter;
  let sg = get_serie reg "depth" in
  check_int "gauge value" 42 sg.Obs.Metrics.last;
  check_bool "gauge kind" false sg.Obs.Metrics.is_counter;
  (* dedup: same identity hands back the same underlying source *)
  let c' = Obs.Metrics.counter reg "reqs_total" in
  Shard.incr c' ~tid:0;
  Obs.Metrics.sample reg ~tick:2;
  check_int "second handle fed the same series" 7
    (get_serie reg "reqs_total").Obs.Metrics.last

let test_gauge_hwm_survives_sampling_gap () =
  let reg = Obs.Metrics.create () in
  let g = Obs.Metrics.gauge reg "spiky" in
  (* the spike happens entirely between two samples: the set-time CAS-max
     must surface it in the series hwm anyway *)
  Obs.Metrics.set g 1_000;
  Obs.Metrics.set g 3;
  Obs.Metrics.sample reg ~tick:1;
  let s = get_serie reg "spiky" in
  check_int "last is the settled value" 3 s.Obs.Metrics.last;
  check_int "hwm caught the spike" 1_000 s.Obs.Metrics.hwm

let test_probe_aggregation_and_weakness () =
  let reg = Obs.Metrics.create () in
  let a = ref 10 and b = ref 32 in
  let fb () = !b in
  (* the transient probe's closure never escapes this scope, so after
     the call returns only the registry's weak cell points at it *)
  let register_transient () =
    let fa () = !a in
    Obs.Metrics.probe reg "live" fa
  in
  register_transient ();
  Obs.Metrics.probe reg "live" fb;
  Obs.Metrics.sample reg ~tick:1;
  check_int "two sources summed" 42 (get_serie reg "live").Obs.Metrics.last;
  Gc.full_major ();
  Gc.full_major ();
  Obs.Metrics.sample reg ~tick:2;
  let s = get_serie reg "live" in
  check_int "collected probe dropped from the sum" 32 s.Obs.Metrics.last;
  ignore (Sys.opaque_identity (fb ()))

let test_ring_retention () =
  let reg = Obs.Metrics.create ~history:4 () in
  let g = Obs.Metrics.gauge reg "r" in
  for t = 1 to 10 do
    Obs.Metrics.set g (100 + t);
    Obs.Metrics.sample reg ~tick:t
  done;
  let s = get_serie reg "r" in
  check_int "ring keeps history points" 4 (Array.length s.Obs.Metrics.points);
  Array.iteri
    (fun i (tick, v) ->
      check_int "oldest-first ticks" (7 + i) tick;
      check_int "values follow ticks" (107 + i) v)
    s.Obs.Metrics.points;
  check_int "hwm spans evicted points" 110 s.Obs.Metrics.hwm

let test_exposition () =
  let reg = Obs.Metrics.create () in
  let c = Obs.Metrics.counter reg ~labels:[ ("scheme", "hp") ] "ops_total" in
  Shard.add c ~tid:0 9;
  Obs.Metrics.sample reg ~tick:1;
  let prom = Obs.Metrics.to_prometheus reg in
  let contains needle =
    let nl = String.length needle and hl = String.length prom in
    let rec go i = i + nl <= hl && (String.sub prom i nl = needle || go (i + 1)) in
    go 0
  in
  check_bool "TYPE line" true (contains "# TYPE ops_total counter");
  check_bool "sample line" true (contains "ops_total{scheme=\"hp\"} 9");
  check_bool "hwm companion" true (contains "ops_total_hwm{scheme=\"hp\"} 9");
  match Obs.Metrics.to_json reg with
  | Obs.Json.List (_ :: _) -> ()
  | _ -> Alcotest.fail "to_json should be a non-empty list"

(* An allocator's recycle rate: a Pool allocator registers
   [orcgc_node_reuses_total] beside [orcgc_pool_hits_total], and each
   life after the first re-uses the one record; a System allocator
   registers neither. *)
let test_node_reuses_counter () =
  let module Ml = Ds.Orc_michael_list in
  let module O = Orc_core.Orc.Make (Ml.N) in
  let name = "metrics-node-reuse" in
  let lives mode name =
    let a = Memdom.Alloc.create ~mode name in
    let o = O.create a in
    for life = 1 to 5 do
      (* never linked: the handle frees the node at guard exit *)
      O.with_guard o (fun g ->
          ignore
            (O.alloc_node_into g (O.ptr g) Ml.make_node Ml.renew_node life))
    done;
    a
  in
  let a = lives Memdom.Alloc.Pool name in
  let sys = lives Memdom.Alloc.System (name ^ "-sys") in
  check_int "four lives re-used the first record" 4
    (Memdom.Alloc.node_reuses a);
  check_int "System never re-uses a record" 0 (Memdom.Alloc.node_reuses sys);
  let reg = Obs.Metrics.default in
  Obs.Metrics.sample reg ~tick:1;
  let value metric alloc =
    List.find_map
      (fun (s : Obs.Metrics.series) ->
        if s.Obs.Metrics.name = metric && s.labels = [ ("alloc", alloc) ]
        then Some s.Obs.Metrics.last
        else None)
      (Obs.Metrics.series reg)
  in
  check_bool "reuses exported" true
    (value "orcgc_node_reuses_total" name = Some 4);
  check_bool "beside the pool hits" true
    (value "orcgc_pool_hits_total" name = Some 4);
  check_bool "System: no reuse series" true
    (value "orcgc_node_reuses_total" (name ^ "-sys") = None);
  let prom = Obs.Metrics.to_prometheus reg in
  let line = "orcgc_node_reuses_total{alloc=\"metrics-node-reuse\"} 4" in
  let n = String.length line in
  let rec contains i =
    i + n <= String.length prom
    && (String.sub prom i n = line || contains (i + 1))
  in
  check_bool "Prometheus line" true (contains 0);
  ignore (Sys.opaque_identity (a, sys))

(* ------------------------------------------------------------------ *)
(* Watchdog *)

let test_watchdog_lifecycle () =
  let wd = Obs.Watchdog.create () in
  (* row validation needs an Active slot with a stable generation *)
  Registry.with_tid @@ fun tid ->
  let base = Obs.Watchdog.advance () in
  Obs.Watchdog.enter wd ~tid;
  (* age the guard past the threshold *)
  ignore (Obs.Watchdog.advance ());
  ignore (Obs.Watchdog.advance ());
  ignore (Obs.Watchdog.advance ());
  let flagged = Obs.Watchdog.check ~max_age:3 () in
  check_bool "stalled guard flagged" true (List.mem_assoc tid flagged);
  check_bool "age counts ticks since enter" true
    (List.assoc tid flagged >= 3);
  check_bool "per-table max sees it" true
    (Obs.Watchdog.stall_age_max wd >= 3);
  (* nesting: an inner enter/leave must not clear the outer stamp *)
  Obs.Watchdog.enter wd ~tid;
  Obs.Watchdog.leave wd ~tid;
  check_bool "still flagged while outer guard open" true
    (List.mem_assoc tid (Obs.Watchdog.check ~max_age:3 ()));
  Obs.Watchdog.leave wd ~tid;
  check_bool "cleared on outermost leave" false
    (List.mem_assoc tid (Obs.Watchdog.check ~max_age:1 ()));
  ignore base

let test_watchdog_quarantine_clears () =
  let wd = Obs.Watchdog.create () in
  ignore (Obs.Watchdog.advance ());
  let stalled_tid = ref (-1) in
  (* the domain dies inside the guard; its slot quarantine must clear
     the row rather than leaving a forever-stall *)
  run_domains_exn 1 (fun ~i:_ ~tid ->
      stalled_tid := tid;
      Obs.Watchdog.enter wd ~tid);
  ignore (Obs.Watchdog.advance ());
  ignore (Obs.Watchdog.advance ());
  ignore (Obs.Watchdog.advance ());
  ignore (Obs.Watchdog.advance ());
  check_bool "quarantined slot not flagged" false
    (List.mem_assoc !stalled_tid (Obs.Watchdog.check ~max_age:3 ()));
  ignore (Sys.opaque_identity wd)

(* A pause returns the tick to 0 and clears every row, so guards stop
   stamping and a guard stamped before it is not blamed after; the
   next advance resumes past the last tick. *)
let test_watchdog_pause () =
  let wd = Obs.Watchdog.create () in
  Registry.with_tid @@ fun tid ->
  let before = Obs.Watchdog.advance () in
  Obs.Watchdog.enter wd ~tid;
  Obs.Watchdog.pause ();
  check_int "tick back to 0" 0 (Obs.Watchdog.tick ());
  check_bool "nothing flagged while paused" true (Obs.Watchdog.check () = []);
  Obs.Watchdog.leave wd ~tid;
  Obs.Watchdog.enter wd ~tid;
  let resumed = Obs.Watchdog.advance () in
  check_int "resumes after the last tick" (before + 1) resumed;
  for _ = 1 to 4 do
    ignore (Obs.Watchdog.advance ())
  done;
  check_bool "neither guard stamped across the pause" false
    (List.mem_assoc tid (Obs.Watchdog.check ~max_age:3 ()));
  Obs.Watchdog.leave wd ~tid

(* ------------------------------------------------------------------ *)
(* Stall injection battery: the reporting half of the background
   battery, the validated stall reports and the age they reached. *)

let test_stall_battery () =
  let r = Chaos.run_stall () in
  if not (Chaos.stall_ok r) then
    Alcotest.failf "stall battery failed: %s"
      (Format.asprintf "%a" Chaos.pp_stall_report r);
  check_bool "at least one validated stall report" true (r.Chaos.st_stalls >= 1);
  check_bool "age reached the threshold" true (r.Chaos.st_age_max >= 3)

let suite =
  [
    ( "metrics",
      [
        Alcotest.test_case "counter/gauge sample" `Quick
          test_counter_gauge_sample;
        Alcotest.test_case "gauge hwm survives sampling gap" `Quick
          test_gauge_hwm_survives_sampling_gap;
        Alcotest.test_case "probe aggregation and weakness" `Quick
          test_probe_aggregation_and_weakness;
        Alcotest.test_case "ring retention" `Quick test_ring_retention;
        Alcotest.test_case "prometheus/json exposition" `Quick
          test_exposition;
        Alcotest.test_case "node reuses beside pool hits" `Quick
          test_node_reuses_counter;
        Alcotest.test_case "watchdog lifecycle" `Quick test_watchdog_lifecycle;
        Alcotest.test_case "watchdog quarantine clears" `Quick
          test_watchdog_quarantine_clears;
        Alcotest.test_case "watchdog pause" `Quick test_watchdog_pause;
        Alcotest.test_case "stall injection battery" `Quick
          test_stall_battery;
      ] );
  ]
