(* Reclamation lab: the same lock-free set under different reclamation
   schemes, side by side.

     dune exec examples/reclamation_lab.exe

   Demonstrates (1) how a data structure is parameterized by a manual
   scheme vs annotated for OrcGC, (2) the memory-bound differences the
   paper's Table 1 formalizes, and (3) that the substrate actually
   catches the bug reclamation schemes exist to prevent: retiring too
   early raises Use_after_free instead of corrupting memory. *)

open Atomicx

module L_hp = Ds.Michael_list.Make (Reclaim.Hp.Make)
module L_ebr = Ds.Michael_list.Make (Reclaim.Ebr.Make)
module L_ptp = Ds.Michael_list.Make (Orc_core.Ptp.Make)
module L_orc = Ds.Orc_michael_list.Make ()

let churn name add remove unreclaimed live flush =
  let stop = Atomic.make false in
  (* sample the retired-but-unreclaimed population while workers run:
     this is the quantity the paper's Table 1 bounds *)
  let peak = ref 0 in
  let watcher =
    Domain.spawn (fun () ->
        while not (Atomic.get stop) do
          let u = unreclaimed () in
          if u > !peak then peak := u;
          Domain.cpu_relax ()
        done)
  in
  let domains =
    List.init 4 (fun i ->
        Domain.spawn (fun () ->
            Registry.with_tid (fun _ ->
                let rng = Rng.create ((i + 1) * 1337) in
                for _ = 1 to 20_000 do
                  let k = 1 + Rng.int rng 128 in
                  if Rng.bool rng then ignore (add k) else ignore (remove k)
                done)))
  in
  List.iter Domain.join domains;
  Atomic.set stop true;
  Domain.join watcher;
  flush ();
  Printf.printf "  %-8s peak-unreclaimed=%-6d final-live=%d\n" name !peak
    (live ())

let () =
  print_endline "churning 4 domains x 20k add/remove on a 128-key set:";

  let hp = L_hp.create () in
  churn "hp" (L_hp.add hp) (L_hp.remove hp)
    (fun () -> L_hp.unreclaimed hp)
    (fun () -> Memdom.Alloc.live (L_hp.alloc hp))
    (fun () -> L_hp.flush hp);

  let ebr = L_ebr.create () in
  churn "ebr" (L_ebr.add ebr) (L_ebr.remove ebr)
    (fun () -> L_ebr.unreclaimed ebr)
    (fun () -> Memdom.Alloc.live (L_ebr.alloc ebr))
    (fun () -> L_ebr.flush ebr);

  let ptp = L_ptp.create () in
  churn "ptp" (L_ptp.add ptp) (L_ptp.remove ptp)
    (fun () -> L_ptp.unreclaimed ptp)
    (fun () -> Memdom.Alloc.live (L_ptp.alloc ptp))
    (fun () -> L_ptp.flush ptp);

  let orc = L_orc.create () in
  churn "orcgc" (L_orc.add orc) (L_orc.remove orc)
    (fun () -> L_orc.unreclaimed orc)
    (fun () -> Memdom.Alloc.live (L_orc.alloc orc))
    (fun () -> L_orc.flush orc);

  (* Negative control: free-at-retire is exactly the bug schemes prevent,
     and the substrate turns it into an exception instead of silent
     corruption. *)
  print_endline "\nnegative control (Unsafe scheme, frees at retire):";
  let module TN = struct
    type t = { hdr : Memdom.Hdr.t; mutable v : int }

    let hdr n = n.hdr
  end in
  let module Unsafe = Reclaim.None_scheme.Unsafe (TN) in
  let alloc = Memdom.Alloc.create "lab" in
  let s = Unsafe.create alloc in
  let tid = Registry.tid () in
  let n = { TN.hdr = Memdom.Alloc.hdr alloc (); v = 42 } in
  let arena = Memdom.Handle.arena ~hdr:TN.hdr () in
  let link = Link.make_in arena (Link.Ptr n) in
  ignore (Unsafe.get_protected_v s ~tid ~idx:0 link);
  Unsafe.retire s ~tid n (* frees immediately, despite the protection *);
  (try
     Memdom.Hdr.check_access n.TN.hdr;
     print_endline "  !!! use-after-free went undetected"
   with Memdom.Hdr.Use_after_free what ->
     Printf.printf "  caught Use_after_free(%s), as intended\n" what)
