(* Shared helpers for the test suites. *)

open Atomicx

(* Run [f ~i ~tid] on [n] domains, all released from a barrier at the
   same instant, and return their results in spawn order. *)
let run_domains n f =
  let barrier = Barrier.create n in
  let doms =
    List.init n (fun i ->
        Domain.spawn (fun () ->
            Registry.with_tid (fun tid ->
                Barrier.wait barrier;
                f ~i ~tid)))
  in
  List.map Domain.join doms

(* Same, but ignore results and re-raise the first worker exception. *)
let run_domains_exn n f =
  let results =
    run_domains n (fun ~i ~tid ->
        match f ~i ~tid with
        | () -> Ok ()
        | exception e -> Error e)
  in
  List.iter (function Ok () -> () | Error e -> raise e) results

(* Minor words allocated by [f], with the boxed-float overhead of
   [Gc.minor_words] itself calibrated out. *)
let minor_delta f =
  let a = Gc.minor_words () in
  let b = Gc.minor_words () in
  let overhead = b -. a in
  let w0 = Gc.minor_words () in
  f ();
  let w1 = Gc.minor_words () in
  w1 -. w0 -. overhead

let check_zero name f =
  f () (* warmup: lazy one-time costs land outside the window *);
  let d = minor_delta f in
  if d <> 0. then Alcotest.failf "%s allocated %.0f minor words" name d

(* Words promoted to the major heap by the minor collections while [f]
   runs plus one forced collection after it: what [f] left reachable
   from old data.  The measurement's own survivors (the boxed floats it
   keeps across a collection) are calibrated out the way [minor_delta]
   does. *)
let promoted_delta f =
  let promoted () =
    Gc.minor ();
    (Gc.quick_stat ()).Gc.promoted_words
  in
  let a = promoted () in
  let b = promoted () in
  let overhead = b -. a in
  let p0 = promoted () in
  f ();
  let p1 = promoted () in
  p1 -. p0 -. overhead

let check_no_promotion name f =
  f () (* warmup *);
  let d = promoted_delta f in
  if d <> 0. then Alcotest.failf "%s promoted %.0f words" name d

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* Trace-assisted retry for the steady-state memory-bound tests.  A
   scheduler stall of the reclaiming thread on an oversubscribed host
   can pin a quantum's worth of churn without the scheme being at
   fault, so a blown bound gets one clean retry — but blind retries
   hide real regressions, so the retry reruns under an active [Obs]
   sink and, if the bound blows again, dumps the retire→free latency
   histogram and the sampled live-object series before the caller
   fails: enough to tell "reclamation stalled" from "nothing was ever
   freed".  [run] must build its structures inside the callback so they
   pick up the ambient sink; it returns (peak, live series). *)
let trace_retry ~name ~bound ~first run =
  if first < bound then first
  else begin
    Printf.eprintf
      "%s: peak live %d blew the bound %d; retrying under an active trace \
       sink\n\
       %!"
      name first bound;
    let sink = Obs.Sink.make () in
    let peak, series = Obs.Sink.with_default sink run in
    if peak >= bound then begin
      (match Obs.Sink.retire_free_hist sink with
      | Some h when Obs.Hist.count h > 0 ->
          Format.eprintf "%s: retire->free latency on the failing run:@.%a@."
            name
            (Obs.Hist.pp ~unit_label:"ns")
            h
      | _ ->
          Format.eprintf
            "%s: no retire->free samples on the failing run (nothing was \
             freed)@."
            name);
      Format.eprintf "%s: live-object series (sampled): %s@." name
        (String.concat " " (List.map string_of_int series));
      (* the event-ring tail is the play-by-play right before the
         bound blew — orphan publishes with no matching adopts, scans
         that stopped visiting slots, and so on *)
      match Obs.Sink.ring sink with
      | None -> ()
      | Some ring ->
          let tail =
            List.concat_map Array.to_list (Obs.Ring.snapshot_all ring)
            |> List.sort (fun (a : Obs.Event.t) b -> compare a.ts b.ts)
          in
          let n = List.length tail in
          let skip = max 0 (n - 64) in
          Format.eprintf "%s: last %d of %d ring events:@." name (n - skip) n;
          List.iteri
            (fun i e -> if i >= skip then Format.eprintf "  %a@." Obs.Event.pp e)
            tail
    end;
    peak
  end

let qtest ?(count = 200) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

(* Scheme tests model a structure as a table of root links over one
   arena per node type; [swap] is their atomic state-level exchange. *)
let swap arena l st =
  Link.v_state_in arena (Link.exchange_v l (Link.v_of_state_in arena st))

(* The Michael-list node, whose record Pool mode re-initialises in
   place, with a [hdr] that runs a one-shot hook: a stand-in for another
   thread acting between a loader's deref of a node and its publish (the
   protect loops read the node's uid through [hdr]).  Armed and run on
   the main domain only. *)
let hdr_hook : (unit -> unit) option ref = ref None

module Hooked = struct
  type t = Ds.Orc_michael_list.node

  let hdr (n : t) =
    (match !hdr_hook with
    | Some f ->
        hdr_hook := None;
        f ()
    | None -> ());
    n.Ds.Orc_michael_list.hdr

  let iter_links = Ds.Orc_michael_list.N.iter_links
end
