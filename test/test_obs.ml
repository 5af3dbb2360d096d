(* Observability subsystem tests: ring wraparound and concurrent
   snapshot soundness, null-sink zero-cost, histogram quantiles, JSON
   parsing, Chrome-trace export/validation, and the unified scheme
   stats counters. *)

open Util
open Atomicx

(* ------------------------------------------------------------------ *)
(* Ring *)

let test_ring_wraparound () =
  let r = Obs.Ring.create ~capacity:8 () in
  let tid = Registry.tid () in
  for i = 0 to 19 do
    Obs.Ring.emit r ~tid ~ts:i ~kind:Obs.Event.Alloc ~uid:i ~arg:(2 * i)
  done;
  check_int "emitted counts every event" 20 (Obs.Ring.emitted r ~tid);
  let snap = Obs.Ring.snapshot r ~tid in
  (* a wrapped snapshot yields capacity - 1 entries: the slot aliasing
     the writer's possible in-flight emit is conservatively dropped *)
  check_int "snapshot capped at capacity" 7 (Array.length snap);
  Array.iteri
    (fun k (e : Obs.Event.t) ->
      check_int "seq is the suffix" (13 + k) e.seq;
      check_int "uid survived the wrap" e.seq e.uid;
      check_int "ts survived the wrap" e.seq e.ts;
      check_int "arg survived the wrap" (2 * e.seq) e.arg)
    snap

let test_ring_capacity_validation () =
  Alcotest.check_raises "capacity must be a power of two"
    (Invalid_argument "Obs.Ring.create: capacity must be a positive power of two")
    (fun () -> ignore (Obs.Ring.create ~capacity:3 ()))

(* One writer emits [ts = uid = seq] as fast as it can; a concurrent
   reader snapshots throughout.  Every snapshot must be an untorn,
   gap-free, monotonically-timestamped suffix: contiguous seqs with
   [uid = ts = seq] (a torn entry would mix fields of two seqs). *)
let test_ring_concurrent_snapshot () =
  let r = Obs.Ring.create ~capacity:64 () in
  let writer_tid = Atomic.make (-1) in
  let done_ = Atomic.make false in
  let n = 50_000 in
  let check_snapshot snap =
    Array.iteri
      (fun k (e : Obs.Event.t) ->
        if e.uid <> e.seq || e.ts <> e.seq then
          Alcotest.failf "torn entry: seq=%d uid=%d ts=%d" e.seq e.uid e.ts;
        if k > 0 && e.seq <> snap.(k - 1).Obs.Event.seq + 1 then
          Alcotest.failf "gap: seq %d after %d" e.seq snap.(k - 1).Obs.Event.seq)
      snap
  in
  run_domains_exn 2 (fun ~i ~tid ->
      if i = 0 then begin
        Atomic.set writer_tid tid;
        for s = 0 to n - 1 do
          Obs.Ring.emit r ~tid ~ts:s ~kind:Obs.Event.Retire ~uid:s ~arg:0
        done;
        Atomic.set done_ true
      end
      else begin
        let wtid = ref (Atomic.get writer_tid) in
        while !wtid < 0 do
          Domain.cpu_relax ();
          wtid := Atomic.get writer_tid
        done;
        while not (Atomic.get done_) do
          check_snapshot (Obs.Ring.snapshot r ~tid:!wtid)
        done;
        let final = Obs.Ring.snapshot r ~tid:!wtid in
        check_snapshot final;
        check_int "final snapshot is full" 63 (Array.length final);
        check_int "final snapshot ends at the last event" (n - 1)
          final.(Array.length final - 1).Obs.Event.seq
      end)

(* ------------------------------------------------------------------ *)
(* Null sink: compiled-in hooks must cost one branch — no events, no
   allocation. *)

let test_null_sink_zero_cost () =
  let s = Obs.Sink.null in
  let tid = Registry.tid () in
  check_bool "is_null" true (Obs.Sink.is_null s);
  let spin () =
    for i = 1 to 1_000 do
      Obs.Sink.on_alloc s ~tid ~uid:i;
      let ts = Obs.Sink.on_retire s ~tid ~uid:i in
      Obs.Sink.on_free s ~tid ~uid:i ~retired_ns:ts;
      Obs.Sink.on_handover s ~tid ~uid:i;
      Obs.Sink.on_cascade s ~tid ~uid:i;
      Obs.Sink.on_recycle s ~tid ~uid:i ~gen:i;
      Obs.Sink.on_refill s ~tid ~count:i;
      Obs.Sink.guard_begin s ~tid;
      Obs.Sink.guard_end s ~tid;
      let began = Obs.Sink.scan_begin s in
      Obs.Sink.scan_end s ~tid ~slots:3 ~began
    done
  in
  spin () (* warm up: promote any one-time allocation out of the meter *);
  let before = Gc.minor_words () in
  spin ();
  let after = Gc.minor_words () in
  check_bool
    (Printf.sprintf "null hooks allocate nothing (%.0f words)"
       (after -. before))
    true
    (after -. before = 0.);
  check_bool "no events" true (Obs.Sink.events s = []);
  check_bool "no hists" true (Obs.Sink.hists s = [])

(* ------------------------------------------------------------------ *)
(* Histograms *)

let test_hist_buckets () =
  check_int "bucket_of 0" 0 (Obs.Hist.bucket_of 0);
  check_int "bucket_of 1" 1 (Obs.Hist.bucket_of 1);
  check_int "bucket_of 2" 2 (Obs.Hist.bucket_of 2);
  check_int "bucket_of 15" 15 (Obs.Hist.bucket_of 15);
  check_int "bucket_of 16" 16 (Obs.Hist.bucket_of 16);
  check_int "bucket_of 17" 16 (Obs.Hist.bucket_of 17);
  (* 1000 = 0b1111101000: octave 2^9, sub-bucket 7 of width 64 *)
  check_int "bucket_of 1000" 63 (Obs.Hist.bucket_of 1000);
  check_int "bucket_floor 0" 0 (Obs.Hist.bucket_floor 0);
  check_int "bucket_floor 63" 960 (Obs.Hist.bucket_floor 63);
  check_int "bucket_of max_int" 479 (Obs.Hist.bucket_of max_int)

(* Every value lies in [floor b, floor (b + 1)) of its bucket b, and
   the floor is within 1/8 below it: the sub-octave resolution. *)
let prop_hist_edges =
  qtest "hist: floor <= v < next floor, within 12.5%"
    QCheck2.Gen.(
      oneof [ int_range 0 4096; int_range 0 (1 lsl 40); int_range 0 max_int ])
    (fun v ->
      let b = Obs.Hist.bucket_of v in
      let lo = Obs.Hist.bucket_floor b in
      lo <= v
      && (b = Obs.Hist.bucket_of max_int || v < Obs.Hist.bucket_floor (b + 1))
      && v - lo <= lo / 8)

let test_hist_quantiles () =
  let h = Obs.Hist.create () in
  let tid = Registry.tid () in
  for _ = 1 to 100 do
    Obs.Hist.record h ~tid 1_000
  done;
  Obs.Hist.record h ~tid 1_000_000;
  let r = Obs.Hist.report h in
  check_int "count" 101 r.Obs.Hist.count;
  check_int "p50 is the common bucket's floor" 960 r.Obs.Hist.p50;
  check_int "p99 still inside the common bucket" 960 r.Obs.Hist.p99;
  check_int "max is exact" 1_000_000 r.Obs.Hist.max;
  check_bool "mean between the modes" true
    (r.Obs.Hist.mean > 1_000. && r.Obs.Hist.mean < 1_000_000.)

let test_hist_merges_shards () =
  let h = Obs.Hist.create () in
  run_domains_exn 4 (fun ~i:_ ~tid ->
      for _ = 1 to 1_000 do
        Obs.Hist.record h ~tid 64
      done);
  check_int "all shards merged" 4_000 (Obs.Hist.count h)

let test_hist_empty_report () =
  let h = Obs.Hist.create () in
  let r = Obs.Hist.report h in
  check_int "count" 0 r.Obs.Hist.count;
  check_int "p50" 0 r.Obs.Hist.p50;
  check_int "p99" 0 r.Obs.Hist.p99;
  check_int "p999" 0 r.Obs.Hist.p999;
  check_int "max" 0 r.Obs.Hist.max;
  check_bool "mean" true (r.Obs.Hist.mean = 0.);
  check_bool "no buckets" true (r.Obs.Hist.by_bucket = [])

let test_hist_single_sample () =
  let h = Obs.Hist.create () in
  Obs.Hist.record h ~tid:(Registry.tid ()) 777;
  let r = Obs.Hist.report h in
  (* the one sample occupies the top bucket, so every quantile
     interpolates all the way to the exact recorded value *)
  check_int "count" 1 r.Obs.Hist.count;
  check_int "p50 is exact" 777 r.Obs.Hist.p50;
  check_int "p99 is exact" 777 r.Obs.Hist.p99;
  check_int "p999 is exact" 777 r.Obs.Hist.p999;
  check_int "max" 777 r.Obs.Hist.max

let test_hist_negative_clamp () =
  let h = Obs.Hist.create () in
  let tid = Registry.tid () in
  Obs.Hist.record h ~tid (-5);
  Obs.Hist.record h ~tid min_int;
  let r = Obs.Hist.report h in
  check_int "count" 2 r.Obs.Hist.count;
  check_int "clamped to 0" 0 r.Obs.Hist.max;
  check_int "p50 0" 0 r.Obs.Hist.p50;
  check_bool "one bucket at floor 0" true (r.Obs.Hist.by_bucket = [ (0, 2) ])

(* The saturation fix: a distribution living entirely in its top bucket
   must not pin every upper quantile at the bucket floor (2^20 here). *)
let test_hist_top_bucket_quantiles () =
  let h = Obs.Hist.create () in
  let tid = Registry.tid () in
  for _ = 1 to 1_000 do
    Obs.Hist.record h ~tid 1_500_000
  done;
  let r = Obs.Hist.report h in
  let floor = 1 lsl 20 in
  check_bool "p50 above the bucket floor" true (r.Obs.Hist.p50 > floor);
  check_bool "p99 above p50" true (r.Obs.Hist.p99 >= r.Obs.Hist.p50);
  check_bool "p999 above p99" true (r.Obs.Hist.p999 >= r.Obs.Hist.p99);
  check_bool "p999 within the recorded max" true
    (r.Obs.Hist.p999 <= r.Obs.Hist.max);
  check_int "max exact" 1_500_000 r.Obs.Hist.max;
  (* interpolation endpoints: rank 1000 of 1000 lands on the max *)
  check_bool "p999 close to max" true
    (r.Obs.Hist.max - r.Obs.Hist.p999 < (r.Obs.Hist.max - floor) / 100)

let test_hist_concurrent_record_report () =
  let h = Obs.Hist.create () in
  let per_domain = 20_000 in
  run_domains_exn 3 (fun ~i ~tid ->
      if i = 0 then
        (* reader: reports must never tear (count monotone, quantiles
           within the recorded range) while writers are mid-flight *)
        let last = ref 0 in
        for _ = 1 to 200 do
          let r = Obs.Hist.report h in
          if r.Obs.Hist.count < !last then
            Alcotest.failf "count went backwards: %d after %d"
              r.Obs.Hist.count !last;
          last := r.Obs.Hist.count;
          if r.Obs.Hist.count > 0 then begin
            if r.Obs.Hist.p999 > r.Obs.Hist.max then
              Alcotest.failf "p999 %d above max %d" r.Obs.Hist.p999
                r.Obs.Hist.max;
            if r.Obs.Hist.p50 > r.Obs.Hist.p999 then
              Alcotest.failf "p50 %d above p999 %d" r.Obs.Hist.p50
                r.Obs.Hist.p999
          end
        done
      else
        for k = 1 to per_domain do
          Obs.Hist.record h ~tid (k land 4095)
        done);
  check_int "all writer samples merged" (2 * per_domain) (Obs.Hist.count h)

(* ------------------------------------------------------------------ *)
(* JSON parser *)

let test_json_roundtrip () =
  let j =
    Obs.Json.Obj
      [
        ("a", Obs.Json.Int 42);
        ("b", Obs.Json.List [ Obs.Json.Null; Obs.Json.Bool true ]);
        ("c", Obs.Json.Str "quote\"back\\slash\nnl");
        ("d", Obs.Json.Float 2.5);
      ]
  in
  let j' = Obs.Json.of_string (Obs.Json.to_string j) in
  check_bool "roundtrip" true
    (Obs.Json.to_string j = Obs.Json.to_string j');
  (match Obs.Json.member "a" j' with
  | Some (Obs.Json.Int 42) -> ()
  | _ -> Alcotest.fail "member lookup");
  check_bool "missing member" true (Obs.Json.member "zz" j' = None);
  match Obs.Json.of_string "{\"unterminated\": tru" with
  | exception Obs.Json.Parse_error _ -> ()
  | _ -> Alcotest.fail "expected Parse_error"

(* ------------------------------------------------------------------ *)
(* Trace export *)

(* A deterministic active sink driven through the public hooks. *)
let fake_clock () =
  let t = ref 0 in
  fun () ->
    incr t;
    !t * 100

let test_trace_export_validates () =
  let s = Obs.Sink.make ~capacity:64 ~clock:(fake_clock ()) () in
  let tid = Registry.tid () in
  Obs.Sink.guard_begin s ~tid;
  Obs.Sink.on_alloc s ~tid ~uid:1;
  let ts = Obs.Sink.on_retire s ~tid ~uid:1 in
  check_bool "retire returns a timestamp" true (ts > 0);
  let began = Obs.Sink.scan_begin s in
  Obs.Sink.scan_end s ~tid ~slots:5 ~began;
  Obs.Sink.on_free s ~tid ~uid:1 ~retired_ns:ts;
  Obs.Sink.guard_end s ~tid;
  (* an unterminated guard: the exporter must close it *)
  Obs.Sink.guard_begin s ~tid;
  let doc = Obs.Trace.to_json ~process_name:"test" s in
  (match Obs.Trace.validate doc with
  | Ok () -> ()
  | Error e -> Alcotest.failf "export should validate: %s" e);
  (* and it round-trips through the parser *)
  match Obs.Trace.validate (Obs.Json.of_string (Obs.Json.to_string doc)) with
  | Ok () -> ()
  | Error e -> Alcotest.failf "reparsed export should validate: %s" e

let test_trace_validate_rejects () =
  let ev ph =
    Obs.Json.Obj
      [
        ("name", Obs.Json.Str "guard");
        ("ph", Obs.Json.Str ph);
        ("ts", Obs.Json.Float 1.0);
        ("pid", Obs.Json.Int 1);
        ("tid", Obs.Json.Int 0);
      ]
  in
  (match Obs.Trace.validate (Obs.Trace.wrap [ ev "E" ]) with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "E without B must be rejected");
  (match Obs.Trace.validate (Obs.Trace.wrap [ ev "B" ]) with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "unterminated B must be rejected");
  match Obs.Trace.validate (Obs.Json.Obj []) with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "missing traceEvents must be rejected"

(* ------------------------------------------------------------------ *)
(* Unified scheme stats + sink plumbing through a real scheme. *)

type tnode = { hdr : Memdom.Hdr.t }

let tn_arena = Memdom.Handle.arena ~hdr:(fun (n : tnode) -> n.hdr) ()

module TN = struct
  type t = tnode

  let hdr n = n.hdr
end

module Hp = Reclaim.Hp.Make (TN)
module Ptp = Orc_core.Ptp.Make (TN)

let churn (type t) (module S : Reclaim.Scheme_intf.S
            with type node = tnode
             and type t = t) (s : t) alloc ~n =
  let tid = Registry.tid () in
  for _ = 1 to n do
    S.begin_op s ~tid;
    let node = { hdr = Memdom.Alloc.hdr alloc () } in
    let link = Link.make_in tn_arena (Link.Ptr node) in
    ignore (S.get_protected_v s ~tid ~idx:0 link);
    Link.set link Link.Null;
    S.end_op s ~tid;
    S.retire s ~tid node
  done;
  S.flush s

let test_scheme_stats_hp () =
  let alloc = Memdom.Alloc.create "obs-stats-hp" in
  let s = Hp.create ~max_hps:4 alloc in
  churn (module Hp) s alloc ~n:2_000;
  let st = Hp.stats s in
  check_int "retires counted" 2_000 st.Reclaim.Scheme_intf.retires;
  check_int "frees counted" 2_000 st.Reclaim.Scheme_intf.frees;
  check_bool "scans happened" true (st.Reclaim.Scheme_intf.scans > 0);
  check_bool "scans visited slots" true
    (st.Reclaim.Scheme_intf.scan_slots >= st.Reclaim.Scheme_intf.scans);
  check_int "unreclaimed derives from the counters" 0 (Hp.unreclaimed s);
  let out = Format.asprintf "%a" Hp.pp_stats s in
  let contains ~affix s =
    let n = String.length affix and m = String.length s in
    let rec go i = i + n <= m && (String.sub s i n = affix || go (i + 1)) in
    go 0
  in
  check_bool "pp_stats mentions retires" true (contains ~affix:"retires=2000" out)

(* The sink threaded through [create ?sink] sees retires, frees with
   latency samples, scans and guards from a real scheme run. *)
let test_scheme_sink_events () =
  let clock = fake_clock () in
  let sink = Obs.Sink.make ~capacity:(1 lsl 12) ~clock () in
  let alloc = Memdom.Alloc.create ~sink "obs-sink-ptp" in
  let s = Ptp.create ~max_hps:4 alloc in
  churn (module Ptp) s alloc ~n:500;
  let kinds = Hashtbl.create 8 in
  List.iter
    (Array.iter (fun (e : Obs.Event.t) ->
         Hashtbl.replace kinds e.kind
           (1 + Option.value ~default:0 (Hashtbl.find_opt kinds e.kind))))
    (Obs.Sink.events sink);
  let count k = Option.value ~default:0 (Hashtbl.find_opt kinds k) in
  check_bool "alloc events" true (count Obs.Event.Alloc > 0);
  check_bool "retire events" true (count Obs.Event.Retire > 0);
  check_bool "free events" true (count Obs.Event.Free > 0);
  check_bool "scan events" true (count Obs.Event.Scan > 0);
  check_bool "guard events" true (count Obs.Event.Guard_begin > 0);
  (match Obs.Sink.retire_free_hist sink with
  | Some h -> check_bool "retire->free latencies recorded" true
                (Obs.Hist.count h > 0)
  | None -> Alcotest.fail "active sink has hists");
  match Obs.Trace.validate (Obs.Trace.to_json sink) with
  | Ok () -> ()
  | Error e -> Alcotest.failf "scheme-driven trace should validate: %s" e

(* Pool allocators report recycled hand-outs as Recycle instead of
   Alloc, so trace tallies can compute the hit rate as
   recycle / (alloc + recycle). *)
let test_pool_sink_events () =
  let sink = Obs.Sink.make () in
  let alloc = Memdom.Alloc.create ~mode:Memdom.Alloc.Pool ~sink "obs-pool" in
  let h = Memdom.Alloc.hdr alloc () in
  Memdom.Alloc.free alloc h;
  let h2 = Memdom.Alloc.hdr alloc () in
  let kinds = Hashtbl.create 8 in
  List.iter
    (Array.iter (fun (e : Obs.Event.t) ->
         Hashtbl.replace kinds e.kind
           (1 + Option.value ~default:0 (Hashtbl.find_opt kinds e.kind))))
    (Obs.Sink.events sink);
  let count k = Option.value ~default:0 (Hashtbl.find_opt kinds k) in
  check_int "one fresh alloc event" 1 (count Obs.Event.Alloc);
  check_int "one recycle event instead of a second alloc" 1
    (count Obs.Event.Recycle);
  check_int "one free event" 1 (count Obs.Event.Free);
  let recycle_ev =
    List.concat_map Array.to_list (Obs.Sink.events sink)
    |> List.find (fun (e : Obs.Event.t) -> e.kind = Obs.Event.Recycle)
  in
  check_int "recycle carries the new uid" h2.Memdom.Hdr.uid recycle_ev.uid;
  check_int "recycle arg is the bumped generation"
    (Memdom.Hdr.generation h2) recycle_ev.arg

let suite =
  [
    ( "obs",
      [
        Alcotest.test_case "ring wraparound" `Quick test_ring_wraparound;
        Alcotest.test_case "ring capacity validation" `Quick
          test_ring_capacity_validation;
        Alcotest.test_case "ring concurrent snapshot" `Quick
          test_ring_concurrent_snapshot;
        Alcotest.test_case "null sink costs nothing" `Quick
          test_null_sink_zero_cost;
        Alcotest.test_case "hist buckets" `Quick test_hist_buckets;
        prop_hist_edges;
        Alcotest.test_case "hist quantiles" `Quick test_hist_quantiles;
        Alcotest.test_case "hist merges shards" `Quick test_hist_merges_shards;
        Alcotest.test_case "hist empty report" `Quick test_hist_empty_report;
        Alcotest.test_case "hist single sample" `Quick test_hist_single_sample;
        Alcotest.test_case "hist negative clamp" `Quick
          test_hist_negative_clamp;
        Alcotest.test_case "hist top-bucket quantiles" `Quick
          test_hist_top_bucket_quantiles;
        Alcotest.test_case "hist concurrent record/report" `Quick
          test_hist_concurrent_record_report;
        Alcotest.test_case "json roundtrip" `Quick test_json_roundtrip;
        Alcotest.test_case "trace export validates" `Quick
          test_trace_export_validates;
        Alcotest.test_case "trace validate rejects" `Quick
          test_trace_validate_rejects;
        Alcotest.test_case "scheme stats (hp)" `Quick test_scheme_stats_hp;
        Alcotest.test_case "scheme sink events (ptp)" `Quick
          test_scheme_sink_events;
        Alcotest.test_case "pool recycle/refill events" `Quick
          test_pool_sink_events;
      ] );
  ]
