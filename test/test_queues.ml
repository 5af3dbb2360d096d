(* Queue tests, generic over reclamation scheme: the same battery runs on
   the Michael-Scott queue and the LCRQ under manual schemes and under
   OrcGC over both of its backends — one source per queue, which has no
   retire calls at all under orc. *)

open Util

module Int_item = struct
  type t = int
end

module Q_hp = Ds.Ms_queue.Make (Int_item) (Reclaim.Hp.Make)
module Q_ptb = Ds.Ms_queue.Make (Int_item) (Reclaim.Ptb.Make)
module Q_ebr = Ds.Ms_queue.Make (Int_item) (Reclaim.Ebr.Make)
module Q_he = Ds.Ms_queue.Make (Int_item) (Reclaim.He.Make)
module Q_ibr = Ds.Ms_queue.Make (Int_item) (Reclaim.Ibr.Make)
module Q_ptp = Ds.Ms_queue.Make (Int_item) (Orc_core.Ptp.Make)
module Q_leak = Ds.Ms_queue.Make (Int_item) (Reclaim.None_scheme.Leak)
module Q_orc = Ds.Orc_ms_queue.Make (Int_item)
module Q_kp = Ds.Orc_kp_queue.Make (Int_item)
module Q_lcrq_hp = Ds.Lcrq.Make (Int_item) (Reclaim.Hp.Make)
module Q_lcrq_ptp = Ds.Lcrq.Make (Int_item) (Orc_core.Ptp.Make)
module Q_lcrq_ebr = Ds.Lcrq.Make (Int_item) (Reclaim.Ebr.Make)
module Q_lcrq_orc = Ds.Orc_lcrq.Make (Int_item)

(* OrcGC over its hazard-pointer backend, through each queue's [Impl] *)
module Q_orc_hp =
  Ds.Orc_ms_queue.Impl
    (Int_item)
    (Orc_core.Orc.Make_hp (Ds.Orc_ms_queue.Node (Int_item)))

module Q_lcrq_orc_hp =
  Ds.Orc_lcrq.Impl
    (Int_item)
    (Orc_core.Orc.Make_hp (Ds.Orc_lcrq.Node (Int_item)))

module Q_turn = Ds.Orc_turn_queue.Make (Int_item)

module Q_kp_orc_hp =
  Ds.Orc_kp_queue.Impl
    (Int_item)
    (Orc_core.Orc.Make_hp (Ds.Orc_kp_queue.Node (Int_item)))

module Q_turn_orc_hp =
  Ds.Orc_turn_queue.Impl
    (Int_item)
    (Orc_core.Orc.Make_hp (Ds.Orc_turn_queue.Node (Int_item)))

module Battery (Q : Ds.Intf.QUEUE with type item = int) = struct
  let test_fifo_sequential () =
    let q = Q.create () in
    check_bool "empty at start" true (Q.dequeue q = None);
    for i = 1 to 100 do
      Q.enqueue q i
    done;
    for i = 1 to 100 do
      check_bool "fifo order" true (Q.dequeue q = Some i)
    done;
    check_bool "empty at end" true (Q.dequeue q = None);
    Q.destroy q;
    check_int "no leak" 0 (Memdom.Alloc.live (Q.alloc q))

  let prop_matches_model =
    qtest ~count:60
      (Q.scheme_name ^ " queue matches FIFO model")
      QCheck2.Gen.(list_size (int_range 1 200) (int_range (-10) 100))
      (fun ops ->
        let q = Q.create () in
        let model = Queue.create () in
        let ok =
          List.for_all
            (fun op ->
              if op >= 0 then begin
                Q.enqueue q op;
                Queue.add op model;
                true
              end
              else
                let expected = Queue.take_opt model in
                Q.dequeue q = expected)
            ops
        in
        Q.destroy q;
        ok && Memdom.Alloc.live (Q.alloc q) = 0)

  let test_spsc_order () =
    let q = Q.create () in
    let n = 5_000 in
    run_domains_exn 2 (fun ~i ~tid:_ ->
        if i = 0 then
          for k = 1 to n do
            Q.enqueue q k
          done
        else begin
          let expected = ref 1 in
          while !expected <= n do
            match Q.dequeue q with
            | Some v ->
                if v <> !expected then
                  Alcotest.failf "out of order: got %d expected %d" v !expected;
                incr expected
            | None -> Domain.cpu_relax ()
          done
        end);
    Q.destroy q;
    check_int "no leak" 0 (Memdom.Alloc.live (Q.alloc q))

  let test_mpmc_conservation () =
    let q = Q.create () in
    let producers = 3 and consumers = 3 in
    let per_producer = 2_000 in
    let total = producers * per_producer in
    let received = Atomic.make 0 in
    let results =
      run_domains (producers + consumers) (fun ~i ~tid:_ ->
          if i < producers then begin
            for k = 0 to per_producer - 1 do
              Q.enqueue q ((i * per_producer) + k)
            done;
            []
          end
          else begin
            let mine = ref [] in
            while Atomic.get received < total do
              match Q.dequeue q with
              | Some v ->
                  ignore (Atomic.fetch_and_add received 1);
                  mine := v :: !mine
              | None -> Domain.cpu_relax ()
            done;
            !mine
          end)
    in
    let all = List.concat results |> List.sort_uniq compare in
    check_int "every item exactly once" total (List.length all);
    check_bool "drained" true (Q.dequeue q = None);
    Q.destroy q;
    check_int "no leak" 0 (Memdom.Alloc.live (Q.alloc q))

  (* Teardown with items still queued must not leak them. *)
  let test_destroy_nonempty () =
    let q = Q.create () in
    for i = 1 to 500 do
      Q.enqueue q i
    done;
    Q.destroy q;
    Q.flush q;
    check_int "no leak with items queued" 0 (Memdom.Alloc.live (Q.alloc q))

  (* Bursty producers/consumers: phases of pure enqueue then pure
     dequeue stress grow-then-shrink reclamation. *)
  let test_burst_phases () =
    let q = Q.create () in
    run_domains_exn 4 (fun ~i ~tid:_ ->
        for _phase = 1 to 5 do
          if i land 1 = 0 then
            for k = 1 to 300 do
              Q.enqueue q k
            done
          else
            for _ = 1 to 300 do
              ignore (Q.dequeue q)
            done
        done);
    let rec drain n = match Q.dequeue q with Some _ -> drain (n + 1) | None -> n in
    ignore (drain 0);
    Q.destroy q;
    Q.flush q;
    check_int "no leak after bursts" 0 (Memdom.Alloc.live (Q.alloc q))

  (* Steady-state memory: pairs of enq/deq must not accumulate nodes. *)
  let steady_state_run () =
    let q = Q.create () in
    let stop = Atomic.make false in
    let peak = ref 0 in
    let series = ref [] in
    let watcher =
      Domain.spawn (fun () ->
          let ticks = ref 0 in
          while not (Atomic.get stop) do
            let l = Memdom.Alloc.live (Q.alloc q) in
            if l > !peak then peak := l;
            incr ticks;
            if !ticks land 1023 = 0 then series := l :: !series;
            Domain.cpu_relax ()
          done)
    in
    run_domains_exn 2 (fun ~i:_ ~tid:_ ->
        for k = 1 to 5_000 do
          Q.enqueue q k;
          ignore (Q.dequeue q)
        done);
    Atomic.set stop true;
    Domain.join watcher;
    Q.destroy q;
    Q.flush q;
    check_int "no leak" 0 (Memdom.Alloc.live (Q.alloc q));
    (!peak, List.rev !series)

  let steady_state_peak () = fst (steady_state_run ())

  let test_steady_state_bounded () =
    let peak = steady_state_peak () in
    (* the Leak control is the negative witness that this check bites:
       it must blow straight through the bound the real schemes obey *)
    if Q.scheme_name = "leak" then
      check_bool
        (Printf.sprintf "leak control unbounded (peak %d)" peak)
        true (peak > 4_096)
    else begin
      (* a blown bound gets one traced retry; see [Util.trace_retry] *)
      let peak =
        trace_retry
          ~name:("msq-" ^ Q.scheme_name)
          ~bound:4_096 ~first:peak steady_state_run
      in
      check_bool
        (Printf.sprintf "peak live %d bounded (not O(ops))" peak)
        true (peak < 4_096)
    end

  let cases =
    [
      Alcotest.test_case (Q.scheme_name ^ ": fifo sequential") `Quick
        test_fifo_sequential;
      prop_matches_model;
      Alcotest.test_case (Q.scheme_name ^ ": spsc order") `Slow test_spsc_order;
      Alcotest.test_case
        (Q.scheme_name ^ ": mpmc conservation + leak-free")
        `Slow test_mpmc_conservation;
      Alcotest.test_case
        (Q.scheme_name ^ ": destroy while non-empty")
        `Quick test_destroy_nonempty;
      Alcotest.test_case (Q.scheme_name ^ ": burst phases") `Slow
        test_burst_phases;
      Alcotest.test_case
        (Q.scheme_name ^ ": steady-state memory bounded")
        `Slow test_steady_state_bounded;
    ]
end

module B_hp = Battery (Q_hp)
module B_ptb = Battery (Q_ptb)
module B_ebr = Battery (Q_ebr)
module B_he = Battery (Q_he)
module B_ibr = Battery (Q_ibr)
module B_ptp = Battery (Q_ptp)
module B_leak = Battery (Q_leak)
module B_orc = Battery (Q_orc)

module B_kp = Battery (struct
  include Q_kp

  let scheme_name = "kp-orc"
end)

module B_lcrq_hp = Battery (struct
  include Q_lcrq_hp

  let scheme_name = "lcrq-hp"
end)

module B_lcrq_ptp = Battery (struct
  include Q_lcrq_ptp

  let scheme_name = "lcrq-ptp"
end)

module B_lcrq_orc = Battery (struct
  include Q_lcrq_orc

  let scheme_name = "lcrq-orc"
end)

module B_orc_hp = Battery (Q_orc_hp)

module B_lcrq_ebr = Battery (struct
  include Q_lcrq_ebr

  let scheme_name = "lcrq-ebr"
end)

module B_lcrq_orc_hp = Battery (struct
  include Q_lcrq_orc_hp

  let scheme_name = "lcrq-orc-hp"
end)

module B_turn = Battery (struct
  include Q_turn

  let scheme_name = "turn-orc"
end)

module B_kp_orc_hp = Battery (struct
  include Q_kp_orc_hp

  let scheme_name = "kp-orc-hp"
end)

module B_turn_orc_hp = Battery (struct
  include Q_turn_orc_hp

  let scheme_name = "turn-orc-hp"
end)

(* OrcGC-specific: the queue reclaims as it goes — after a large run the
   number of unreclaimed nodes must stay small, not grow with the run. *)
let test_orc_queue_reclaims_inline () =
  let q = Q_orc.create () in
  for i = 1 to 10_000 do
    Q_orc.enqueue q i;
    ignore (Q_orc.dequeue q)
  done;
  let live = Memdom.Alloc.live (Q_orc.alloc q) in
  check_bool
    (Printf.sprintf "live %d stays O(1), not O(n)" live)
    true (live <= 4);
  Q_orc.destroy q;
  check_int "no leak" 0 (Memdom.Alloc.live (Q_orc.alloc q))

let suite =
  [
    ("queue:hp", B_hp.cases);
    ("queue:ptb", B_ptb.cases);
    ("queue:ebr", B_ebr.cases);
    ("queue:he", B_he.cases);
    ("queue:ibr", B_ibr.cases);
    ("queue:ptp", B_ptp.cases);
    ("queue:leak", B_leak.cases);
    ("queue:orc", B_orc.cases);
    ("queue:kp-orc", B_kp.cases);
    ("queue:lcrq-hp", B_lcrq_hp.cases);
    ("queue:lcrq-ptp", B_lcrq_ptp.cases);
    ("queue:lcrq-orc", B_lcrq_orc.cases);
    ("queue:turn-orc", B_turn.cases);
    ("queue:ms-orc-hp", B_orc_hp.cases);
    ("queue:lcrq-ebr", B_lcrq_ebr.cases);
    ("queue:lcrq-orc-hp", B_lcrq_orc_hp.cases);
    ("queue:kp-orc-hp", B_kp_orc_hp.cases);
    ("queue:turn-orc-hp", B_turn_orc_hp.cases);
    ( "queue:orc-specific",
      [
        Alcotest.test_case "orc queue reclaims inline" `Quick
          test_orc_queue_reclaims_inline;
      ] );
  ]
