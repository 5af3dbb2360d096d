(* kv_index: a concurrent KV index three ways — the paper's CRF skip
   list against the classic HS skip list it improves on, then the
   resizable split-ordered hash map serving skewed point lookups.

     dune exec examples/kv_index.exe

   Scenario from the paper's §5: a long-running service whose index sees
   continuous insert/delete churn while readers scan.  With HS-skip a
   single slow reader can pin an arbitrarily long chain of removed nodes
   (the authors measured 19 GB); CRF-skip isolates removed nodes, so the
   same slow reader pins O(1) memory.

   The split-ordered map is the point-lookup counterpart: zipfian
   YCSB-B traffic hammers a few hot keys while the long tail of inserts
   drives directory doublings, all observable live through the
   orcgc_map_* gauges the map registers with [Obs.Metrics.default]. *)

open Atomicx

module Hs = Ds.Orc_hs_skiplist.Make ()
module Crf = Ds.Orc_crf_skiplist.Make ()
module Smap = Ds.Orc_split_map.Make ()

let run_service name ~add ~remove ~contains ~live ~flush ~destroy =
  (* populate the index *)
  let n = 4_000 in
  let rng = Rng.create 7 in
  for _ = 1 to n do
    ignore (add (1 + Rng.int rng 100_000))
  done;

  (* mixed service traffic: 2 writers, 2 readers *)
  let stop = Atomic.make false in
  let domains =
    List.init 4 (fun i ->
        Domain.spawn (fun () ->
            Registry.with_tid (fun _ ->
                let rng = Rng.create ((i + 1) * 39916801) in
                let ops = ref 0 in
                while not (Atomic.get stop) do
                  let k = 1 + Rng.int rng 100_000 in
                  if i < 2 then
                    if Rng.bool rng then ignore (add k) else ignore (remove k)
                  else ignore (contains k);
                  incr ops
                done;
                !ops)))
  in
  Thread.delay 0.3;
  Atomic.set stop true;
  let total = List.fold_left (fun acc d -> acc + Domain.join d) 0 domains in
  flush ();
  Printf.printf "  %-8s %7d ops, %6d objects live after churn\n" name total
    (live ());
  destroy ();
  flush ()

let () =
  print_endline "ordered index under mixed service traffic:";
  let hs = Hs.create () in
  run_service "hs-skip" ~add:(Hs.add hs) ~remove:(Hs.remove hs)
    ~contains:(Hs.contains hs)
    ~live:(fun () -> Memdom.Alloc.live (Hs.alloc hs))
    ~flush:(fun () -> Hs.flush hs)
    ~destroy:(fun () -> Hs.destroy hs);
  let crf = Crf.create () in
  run_service "crf-skip" ~add:(Crf.add crf) ~remove:(Crf.remove crf)
    ~contains:(Crf.contains crf)
    ~live:(fun () -> Memdom.Alloc.live (Crf.alloc crf))
    ~flush:(fun () -> Crf.flush crf)
    ~destroy:(fun () -> Crf.destroy crf);

  (* The same service over the resizable split-ordered map: point
     lookups instead of ordered scans, zipfian instead of uniform, and
     the map's registered gauges polled live mid-traffic. *)
  print_endline
    "\nsplit-ordered map under zipfian YCSB-B (95% read) traffic:";
  let sm = Smap.create () in
  let keyspace = 100_000 in
  let stop = Atomic.make false in
  let domains =
    List.init 4 (fun i ->
        Domain.spawn (fun () ->
            Registry.with_tid (fun _ ->
                let kg =
                  Harness.Keygen.create
                    (Harness.Keygen.Zipfian
                       { theta = Harness.Keygen.default_theta })
                    ~n:keyspace
                    ~seed:((i + 1) * 39916801)
                in
                let coin = Rng.create ((i + 1) * 7919) in
                let ops = ref 0 in
                while not (Atomic.get stop) do
                  let k = 1 + Harness.Keygen.next kg in
                  (match Harness.Keygen.next_op kg Harness.Keygen.mix_b with
                  | Harness.Keygen.Read -> ignore (Smap.contains sm k)
                  | Harness.Keygen.Update ->
                      if Rng.bool coin then ignore (Smap.add sm k)
                      else ignore (Smap.remove sm k));
                  incr ops
                done;
                !ops)))
  in
  Thread.delay 0.3;
  Atomic.set stop true;
  let total = List.fold_left (fun acc d -> acc + Domain.join d) 0 domains in
  Smap.flush sm;
  Printf.printf "  %-10s %7d ops, %d directory doublings -> %d buckets\n"
    "split-orc" total (Smap.grows sm) (Smap.buckets sm);
  (* the gauges the map registered at create, as any scraper sees them;
     probes only land in the exported series at a sampling pass, so take
     one by hand — a live deployment's background domain
     (Reclaim.Reclaimer) does this on a timer *)
  Obs.Metrics.sample Obs.Metrics.default ~tick:1;
  print_endline "  live orcgc_map_* gauges (prometheus exposition):";
  String.split_on_char '\n' (Obs.Metrics.to_prometheus Obs.Metrics.default)
  |> List.iter (fun line ->
         let has_sub sub =
           let n = String.length line and m = String.length sub in
           let rec go i = i + m <= n && (String.sub line i m = sub || go (i + 1)) in
           go 0
         in
         if has_sub "orcgc_map" && not (String.starts_with ~prefix:"#" line)
         then Printf.printf "    %s\n" line);
  Smap.destroy sm;
  Smap.flush sm;

  (* The stalled-reader scenario, deterministically (cf. bench "mem"). *)
  print_endline "\nstalled reader pinning the head of a removed chain:";
  let rows = Harness.Experiments.mem_footprint
      { Harness.Experiments.default with big_keys = 4_000; duration = 0.05 }
  in
  List.iter
    (fun m ->
      Printf.printf "  %-8s pinned-chain live=%-6d after-unpin=%d\n"
        m.Harness.Experiments.m_structure m.m_pinned_live m.m_pinned_after)
    rows
