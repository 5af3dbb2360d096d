(* Word-packing tests: exact zero-allocation guarantees of the packed
   header + tagged link hot paths (protected reads, the orc hard-link
   drop whose [dec] publishes a scratch uid, handovers, and whole warm
   split-map operations, guard included), the bit-layout
   boundaries of the packed words ([Hdr.state], the [_orc] word), the
   literal header transitions including their exceptions, and Michael
   lists on word links against the sequential set model.

   The zero-alloc assertions are exact ([delta = 0.], not "small"):
   [Gc.minor_words] itself allocates the boxed float it returns after
   reading the counter, so a two-call calibration measures that fixed
   overhead and the remaining delta is precisely what the measured
   region allocated.  Every measured loop runs once as a warmup first,
   so one-time lazy costs (arena chunks, counter shards) are paid
   outside the window. *)

open Util
open Atomicx

type pnode = { p_hdr : Memdom.Hdr.t; p_next : pnode Link.t }

module PN = struct
  type t = pnode

  let hdr n = n.p_hdr
end

module Hp = Reclaim.Hp.Make (PN)
module He = Reclaim.He.Make (PN)
module Ibr = Reclaim.Ibr.Make (PN)
module Ebr = Reclaim.Ebr.Make (PN)
module Ptb = Reclaim.Ptb.Make (PN)
module Ptp = Orc_core.Ptp.Make (PN)
module Leak = Reclaim.None_scheme.Leak (PN)

module ON = struct
  type t = pnode

  let hdr n = n.p_hdr
  let iter_links n f = f n.p_next
end

module Orc = Orc_core.Orc.Make (ON)
module Orc_hp = Orc_core.Orc.Make_hp (ON)

(* ------------------------------------------------------------------ *)
(* Zero-allocation: protected reads *)

let chain_len = 32

(* Every manual scheme's protected walk down a word-link chain: views
   are immediates and the pointer-publishing schemes publish a uid, so
   nothing on the path may allocate. *)
let zero_alloc_walk (module S : Reclaim.Scheme_intf.S with type node = pnode)
    () =
  let alloc =
    Memdom.Alloc.create ~sink:Obs.Sink.null ("pack-test-" ^ S.name)
  in
  let s = S.create ~max_hps:4 ~sink:Obs.Sink.null alloc in
  let arena = Memdom.Handle.arena ~hdr:(fun n -> n.p_hdr) () in
  let tail =
    { p_hdr = Memdom.Alloc.hdr alloc (); p_next = Link.make_in arena Link.Null }
  in
  let head = ref tail in
  for _ = 2 to chain_len do
    head :=
      {
        p_hdr = Memdom.Alloc.hdr alloc ();
        p_next = Link.make_in arena (Link.Ptr !head);
      }
  done;
  let root = Link.make_in arena (Link.Ptr !head) in
  S.begin_op s ~tid:0;
  let rec walk link idx =
    let v = S.get_protected_v s ~tid:0 ~idx link in
    if Link.v_has_target v then walk (Link.v_target_exn link v).p_next (1 - idx)
  in
  check_zero (S.name ^ " packed protected walk") (fun () ->
      for _ = 1 to 50 do
        walk root 0
      done);
  S.end_op s ~tid:0

let orc_zero_alloc (module O : Orc_core.Orc.S with type node = pnode) name () =
  let alloc = Memdom.Alloc.create ~sink:Obs.Sink.null ("pack-test-" ^ name) in
  let o = O.create ~sink:Obs.Sink.null alloc in
  O.with_guard o (fun g ->
      let root = O.new_link_v g Link.v_null in
      let np = O.ptr g in
      for _ = 1 to chain_len do
        let n =
          O.alloc_node_into g np (fun hdr ->
              { p_hdr = hdr; p_next = O.new_link_v g Link.v_null })
        in
        O.store_v g n.p_next (Link.view root);
        O.store_v g root (O.v_ptr o n)
      done;
      let prev = O.ptr g and curr = O.ptr g and next = O.ptr g in
      check_zero
        (name ^ " packed protected walk")
        (fun () ->
          for _ = 1 to 50 do
            O.load g root curr;
            while Link.v_has_target (O.Ptr.view curr) do
              let c = O.Ptr.node_exn curr in
              O.load g c.p_next next;
              O.assign g prev curr;
              O.assign g curr next
            done
          done));
  O.flush o

(* Dropping a hard link whose target keeps a positive count runs [dec]
   to completion without retiring: the scratch hazard slot 0 publishes
   the target's uid and comes down again, which must not allocate.
   [a] and [b] each stay held by a second link, so every store/CAS
   below moves one count down to 1 and another up to 2. *)
let orc_dec_zero_alloc (module O : Orc_core.Orc.S with type node = pnode) name () =
  let alloc = Memdom.Alloc.create ~sink:Obs.Sink.null ("pack-dec-" ^ name) in
  let o = O.create ~sink:Obs.Sink.null alloc in
  O.with_guard o (fun g ->
      let np = O.ptr g in
      let mk () =
        O.alloc_node_into g np (fun hdr ->
            { p_hdr = hdr; p_next = O.new_link_v g Link.v_null })
      in
      (* link each fresh node before [np] moves on and drops it *)
      let hold n =
        let l = O.new_link_v g Link.v_null in
        O.store_v g l (O.v_ptr o n);
        l
      in
      let a = mk () in
      let hold_a = hold a in
      let b = mk () in
      let hold_b = hold b in
      let va = O.v_ptr o a and vb = O.v_ptr o b in
      let l = O.new_link_v g Link.v_null in
      O.store_v g l va;
      check_zero (name ^ " store_v dropping a held link") (fun () ->
          for _ = 1 to 50 do
            O.store_v g l vb;
            O.store_v g l va
          done);
      (* expectations are loaded: a constructed view only matches a
         link never written since it was built *)
      let swap desired =
        if not (O.cas_v g l ~expected:(Link.view l) ~desired) then
          Alcotest.fail "cas_v lost"
      in
      check_zero (name ^ " cas_v dropping a held link") (fun () ->
          for _ = 1 to 50 do
            swap vb;
            swap va
          done);
      check_bool "a still live" false (Memdom.Hdr.is_freed a.p_hdr);
      check_bool "b still live" false (Memdom.Hdr.is_freed b.p_hdr);
      O.store_v g l Link.v_null;
      O.store_v g hold_a Link.v_null;
      O.store_v g hold_b Link.v_null);
  O.flush o;
  check_int (name ^ ": no leak") 0 (Memdom.Alloc.live alloc)

(* ------------------------------------------------------------------ *)
(* Zero-allocation: the handover plane *)

let handover_rounds = 2 (* the warmup, then the measured run *)

(* Algorithm 2's handover and its drain: a node retired while another
   thread's slot protects it is exchanged into that slot's empty
   handover, and clearing the slot takes it back out and frees it.  An
   empty handover slot is an immediate, so neither exchange boxes. *)
let ptp_handover_zero_alloc () =
  Registry.reserve 2;
  let alloc = Memdom.Alloc.create ~sink:Obs.Sink.null "pack-ptp-handover" in
  let s = Ptp.create ~max_hps:2 ~sink:Obs.Sink.null alloc in
  let arena = Memdom.Handle.arena ~hdr:(fun n -> n.p_hdr) () in
  let per = 50 in
  let nodes =
    Array.init (handover_rounds * per) (fun _ ->
        {
          p_hdr = Memdom.Alloc.hdr alloc ();
          p_next = Link.make_in arena Link.Null;
        })
  in
  let pins = Array.map Option.some nodes in
  let round = ref 0 in
  check_zero "ptp handover and its drain" (fun () ->
      let base = !round * per in
      incr round;
      for i = base to base + per - 1 do
        Ptp.protect_raw s ~tid:1 ~idx:0 pins.(i);
        Ptp.retire s ~tid:0 nodes.(i);
        Ptp.clear s ~tid:1 ~idx:0
      done);
  (* a retire that found no protection would free on the spot, and the
     clear would then find nothing to walk: one scan, not two *)
  check_int "each retire handed over, each clear walked it"
    (2 * handover_rounds * per)
    (Ptp.stats s).Reclaim.Scheme_intf.scans;
  check_int "no leak" 0 (Memdom.Alloc.live alloc)

(* A pinned unlink: a handle protects a node while its last hard link is
   dropped, so the dropping thread claims the zero-count node and
   tryHandover parks it on the handle's slot. *)
let orc_handover_zero_alloc () =
  let alloc = Memdom.Alloc.create ~sink:Obs.Sink.null "pack-orc-handover" in
  let o = Orc.create ~sink:Obs.Sink.null alloc in
  let per = 16 in
  Orc.with_guard o (fun g ->
      let np = Orc.ptr g in
      let links =
        Array.init (handover_rounds * per) (fun _ ->
            let l = Orc.new_link_v g Link.v_null in
            let n =
              Orc.alloc_node_into g np (fun hdr ->
                  { p_hdr = hdr; p_next = Orc.new_link_v g Link.v_null })
            in
            Orc.store_v g l (Orc.v_ptr o n);
            l)
      in
      let pins = Array.init (handover_rounds * per) (fun _ -> Orc.ptr g) in
      let h0 = (Orc.stats o).Orc.handovers in
      let round = ref 0 in
      check_zero "orc pinned unlink handover" (fun () ->
          let base = !round * per in
          incr round;
          for i = base to base + per - 1 do
            Orc.load g links.(i) pins.(i);
            Orc.store_v g links.(i) Link.v_null
          done);
      check_int "every unlink handed over" (handover_rounds * per)
        ((Orc.stats o).Orc.handovers - h0);
      check_int "parked, not freed" (handover_rounds * per)
        (Memdom.Alloc.live alloc));
  Orc.flush o;
  check_int "no leak" 0 (Memdom.Alloc.live alloc)

(* ------------------------------------------------------------------ *)
(* Zero-allocation: whole split-map operations, guard included *)

module Map_orc = Ds.Orc_split_map.Make ()
module Map_orc_hp = Ds.Orc_split_map.Make_hp ()
module Map_hp = Ds.Split_map.Make (Reclaim.Hp.Make)

(* A warm map (every bucket on the path initialized, the tid's guard
   and handle storage allocated by the warmup) runs each operation
   that retires and allocates no node with exactly zero minor words:
   the guard, its four handles, the bucket lookup, the window walk and
   the key's hash. *)
let map_ops_zero_alloc (module M : Ds.Orc_split_map.MAP) () =
  let m = M.create ~mode:Memdom.Alloc.Pool () in
  let keys = 512 in
  for k = 1 to keys do
    ignore (M.add m (2 * k))
  done;
  let hits = ref 0 in
  let each name op =
    check_zero
      (M.scheme_name ^ " " ^ name)
      (fun () ->
        for k = 1 to keys do
          if op m k then incr hits
        done)
  in
  each "contains (hit)" (fun m k -> M.contains m (2 * k));
  each "contains (miss)" (fun m k -> M.contains m ((2 * k) + 1));
  each "add of a present key" (fun m k -> M.add m (2 * k));
  each "remove of an absent key" (fun m k -> M.remove m ((2 * k) + 1));
  (* the warmup and the measured run of the one op that answers true *)
  check_int "every contains hit, nothing else did" (2 * keys) !hits;
  check_int "size unchanged" keys (M.size m);
  M.destroy m;
  M.flush m;
  check_int "no leak" 0 (Memdom.Alloc.live (M.alloc m))

(* A list's warm [contains], guard included: the Herlihy–Shavit
   list's wait-free walk, which reads the key node's mark from its
   [next] word, and Harris's search, which would excise a marked chain
   on the way (none here).  Both are top-level recursions run under
   [with_guard2]. *)
module Hs_orc = Ds.Orc_hs_list.Make ()
module Harris_orc = Ds.Orc_harris_list.Make ()

module Harris_orc_hp =
  Ds.Orc_harris_list.Impl (Orc_core.Orc.Make_hp (Ds.Orc_michael_list.N))

let contains_zero_alloc (module L : Ds.Intf.SET) label () =
  let l = L.create ~mode:Memdom.Alloc.Pool () in
  let keys = 256 in
  for k = 1 to keys do
    ignore (L.add l (2 * k))
  done;
  let hits = ref 0 in
  let each name key =
    check_zero (label ^ " contains " ^ name) (fun () ->
        for k = 1 to keys do
          if L.contains l (key k) then incr hits
        done)
  in
  each "(hit)" (fun k -> 2 * k);
  each "(miss)" (fun k -> (2 * k) + 1);
  check_int "every hit, nothing else" (2 * keys) !hits;
  check_bool "removed" true (L.remove l 2);
  check_bool "a removed key reads absent" false (L.contains l 2);
  L.destroy l;
  L.flush l;
  check_int "no leak" 0 (Memdom.Alloc.live (L.alloc l))

(* The skip lists' top-down descent and TBKP's wait-free walk, under
   orc and orc-hp: top-level recursions run under [with_guard2], like
   the lists above. *)
module Skip_hp_n = Orc_core.Orc.Make_hp (Ds.Skiplist_base.N)
module Crf_orc = Ds.Orc_crf_skiplist.Make ()
module Hs_skip_orc = Ds.Orc_hs_skiplist.Make ()
module Crf_orc_hp = Ds.Orc_crf_skiplist.Impl (Skip_hp_n)
module Hs_skip_orc_hp = Ds.Orc_hs_skiplist.Impl (Skip_hp_n)
module Tbkp_orc = Ds.Orc_tbkp_list.Make ()

module Tbkp_orc_hp =
  Ds.Orc_tbkp_list.Impl (Orc_core.Orc.Make_hp (Ds.Orc_tbkp_list.N))

let skip_contains_zero_alloc crf hs label () =
  contains_zero_alloc crf ("crf-skip-" ^ label) ();
  contains_zero_alloc hs ("hs-skip-" ^ label) ()

(* ------------------------------------------------------------------ *)
(* Zero-allocation: header lifecycle transitions *)

let test_zero_alloc_hdr () =
  let h =
    Memdom.Hdr.make ~uid:1 ~label:(Memdom.Hdr.intern "pack")
      ~strict:true ~birth_era:0
  in
  check_zero "mark_retired/unretire" (fun () ->
      for _ = 1 to 100 do
        Memdom.Hdr.mark_retired h;
        Memdom.Hdr.unretire h
      done);
  let uid = ref 2 in
  check_zero "retire/free/recycle cycle" (fun () ->
      for _ = 1 to 100 do
        Memdom.Hdr.mark_retired h;
        Memdom.Hdr.set_death_era h 7;
        Memdom.Hdr.mark_freed h;
        Memdom.Hdr.recycle h ~uid:!uid ~birth_era:3;
        incr uid
      done)

(* A pool hit restamps a recycled header in place: with the pool
   stocked for the warmup and the measured run, [Alloc.hdr] allocates
   nothing. *)
let test_zero_alloc_pool_hit () =
  let a =
    Memdom.Alloc.create ~mode:Memdom.Alloc.Pool ~sink:Obs.Sink.null
      "pack-pool"
  in
  let n = 100 in
  let stock = List.init (2 * n) (fun _ -> Memdom.Alloc.hdr a ()) in
  List.iter (Memdom.Alloc.free a) stock;
  let hits = Memdom.Alloc.pool_hits a and misses = Memdom.Alloc.pool_misses a in
  check_zero "Alloc.hdr pool hit" (fun () ->
      for _ = 1 to n do
        ignore (Sys.opaque_identity (Memdom.Alloc.hdr a ()))
      done);
  check_int "every call hit" (hits + (2 * n)) (Memdom.Alloc.pool_hits a);
  check_int "no miss" misses (Memdom.Alloc.pool_misses a)

(* ------------------------------------------------------------------ *)
(* Bit-layout boundaries of the [_orc] word (mirrors lib/core/orc.ml:
   bits 0-21 count biased at bit 22, bit 23 BRETIRED, sequence above) *)

let seq_unit = 1 lsl 24
let bretired = 1 lsl 23
let orc_zero = 1 lsl 22
let ocnt x = x land (seq_unit - 1)
let oseq x = x lsr 24

let test_orc_word_bits () =
  check_int "orc_initial is the count bias" orc_zero Memdom.Hdr.orc_initial;
  (* count saturation boundary: the largest biased count that does not
     spill into BRETIRED *)
  let maxed = orc_zero + (1 lsl 22) - 1 in
  check_int "max count fills bits 0-22" ((1 lsl 23) - 1) maxed;
  check_int "max count stays below BRETIRED" 0 (maxed land bretired);
  check_int "ocnt extracts the saturated count" maxed (ocnt maxed);
  (* sequence increments ride above the count field *)
  let w = (5 * seq_unit) lor bretired lor orc_zero in
  check_int "seq extraction" 5 (oseq w);
  check_int "seq add preserves count+retired" (ocnt w) (ocnt (w + seq_unit));
  check_int "seq add bumps seq" 6 (oseq (w + seq_unit));
  (* count arithmetic preserves the sequence (no carry at the bias) *)
  check_int "increment preserves seq" 5 (oseq (w + 1));
  check_int "decrement preserves seq" 5 (oseq (w - 1));
  check_int "BRETIRED flip preserves seq" 5 (oseq (w - bretired));
  check_int "BRETIRED flip preserves count" orc_zero (ocnt (w - bretired) lxor 0);
  (* a negative count (transient, Algorithm 3) borrows from the bias,
     never from the sequence *)
  let zero = 5 * seq_unit lor orc_zero in
  check_int "decrement below zero stays in field" 5 (oseq (zero - 1));
  check_int "biased -1" (orc_zero - 1) (ocnt (zero - 1));
  (* retire's combined delta (seq+1, count+1) decomposes *)
  let after = zero + seq_unit + 1 in
  check_int "retire delta: seq" 6 (oseq after);
  check_int "retire delta: count" (orc_zero + 1) (ocnt after)

(* The [_orc] word is the header's own field 0, not a separate cell:
   the count and the uid share one block. *)
let test_orc_word_in_header () =
  let h =
    Memdom.Hdr.make ~uid:7 ~label:(Memdom.Hdr.intern "pack")
      ~strict:true ~birth_era:0
  in
  check_bool "Hdr.orc views the header itself" true
    (Obj.repr (Memdom.Hdr.orc h) == Obj.repr h);
  check_int "initialised" Memdom.Hdr.orc_initial
    (Atomic.get (Memdom.Hdr.orc h));
  ignore (Atomic.fetch_and_add (Memdom.Hdr.orc h) 5);
  check_int "uid untouched by count updates" 7 h.Memdom.Hdr.uid;
  check_int "count updated" (Memdom.Hdr.orc_initial + 5)
    (Atomic.get (Memdom.Hdr.orc h))

(* The header block has exactly 7 fields.  OCaml 5 places a major-heap
   block in a fixed size class (whsize ..., 6, 8, 10, ...; whsize
   counts the block's header word), so 7 fields fill the 8-word class:
   8 or 9 fields would take the 10-word class, and dropping to 6 would
   still round up to 8.  The label id and the retire stamp ride in
   spare bits of [access] and [slot_word] to stay at 7. *)
let test_header_layout () =
  let h =
    Memdom.Hdr.make ~uid:3 ~label:(Memdom.Hdr.intern "layout")
      ~strict:false ~birth_era:0
  in
  check_int "header fields" 7 (Obj.size (Obj.repr h));
  let a = Memdom.Alloc.create "layout" in
  check_int "an allocated header too" 7
    (Obj.size (Obj.repr (Memdom.Alloc.hdr a ())))

(* ------------------------------------------------------------------ *)
(* Header transitions: the literal (lifecycle, generation) after every
   step of a life, an unretire race and a pooled recycle, with each
   invalid transition raising and leaving the word untouched *)

let lifecycle_name h =
  match Memdom.Hdr.lifecycle h with
  | Memdom.Hdr.Live -> "live"
  | Memdom.Hdr.Retired -> "retired"
  | Memdom.Hdr.Freed -> "freed"

let test_header_transitions () =
  let module H = Memdom.Hdr in
  let h = H.make ~uid:1 ~label:(H.intern "gen") ~strict:true ~birth_era:0 in
  let expect step lc gen =
    Alcotest.(check string) (step ^ ": lifecycle") lc (lifecycle_name h);
    check_int (step ^ ": generation") gen (H.generation h)
  in
  expect "make" "live" 0;
  H.mark_retired h;
  expect "retire" "retired" 1;
  Alcotest.check_raises "retire twice" (H.Double_retire "gen#1") (fun () ->
      H.mark_retired h);
  expect "retire twice (undone)" "retired" 1;
  H.unretire h;
  expect "unretire" "live" 2;
  H.unretire h;
  expect "unretire a live header (lost race, no-op)" "live" 2;
  H.mark_retired h;
  expect "retire again" "retired" 3;
  H.mark_freed h;
  expect "free" "freed" 4;
  Alcotest.check_raises "retire freed" (H.Use_after_free "gen#1") (fun () ->
      H.mark_retired h);
  Alcotest.check_raises "unretire freed" (H.Use_after_free "gen#1")
    (fun () -> H.unretire h);
  Alcotest.check_raises "free twice" (H.Double_free "gen#1") (fun () ->
      H.mark_freed h);
  expect "invalid transitions on freed (undone)" "freed" 4;
  H.recycle h ~uid:2 ~birth_era:5;
  expect "recycle" "live" 5;
  check_int "recycle restamps uid" 2 h.H.uid;
  check_int "recycle restamps birth era" 5 (H.birth_era h);
  check_int "recycle clears death era" max_int (H.death_era h);
  Alcotest.check_raises "recycle live" (H.Double_free "gen#2") (fun () ->
      H.recycle h ~uid:3 ~birth_era:6);
  expect "recycle live (refused)" "live" 5;
  H.mark_retired h;
  H.set_death_era h 7;
  expect "retire after recycle" "retired" 6;
  check_int "death era stamped" 7 (H.death_era h)

(* ------------------------------------------------------------------ *)
(* Michael lists on word links follow the sequential set model *)

module L_hp = Ds.Michael_list.Make (Reclaim.Hp.Make)
module L_orc = Ds.Orc_michael_list.Make ()
module IntSet = Set.Make (Int)

(* xorshift: a fixed op sequence over keys 1..64 *)
let op_sequence n =
  let x = ref 0x2545F491 in
  List.init n (fun _ ->
      x := !x lxor (!x lsl 13);
      x := !x lxor (!x lsr 7);
      x := !x lxor (!x lsl 17);
      (!x land 3, 1 + (abs !x mod 64)))

module type SET_OPS = sig
  type t

  val create : ?mode:Memdom.Alloc.mode -> unit -> t
  val add : t -> int -> bool
  val remove : t -> int -> bool
  val contains : t -> int -> bool
  val to_list : t -> int list
end

let matches_model (module M : SET_OPS) name () =
  let l = M.create () in
  let model = ref IntSet.empty in
  List.iteri
    (fun i (op, key) ->
      let step what = Printf.sprintf "%s: op %d %s %d" name i what key in
      match op with
      | 0 ->
          check_bool (step "add") (not (IntSet.mem key !model)) (M.add l key);
          model := IntSet.add key !model
      | 1 ->
          check_bool (step "remove") (IntSet.mem key !model) (M.remove l key);
          model := IntSet.remove key !model
      | _ ->
          check_bool (step "contains") (IntSet.mem key !model)
            (M.contains l key))
    (op_sequence 400);
  check_bool (name ^ ": final contents") true
    (M.to_list l = IntSet.elements !model);
  (* sanity: the sequence actually exercised the list *)
  check_bool (name ^ ": non-trivial run") true (not (IntSet.is_empty !model))

let walk_case (module S : Reclaim.Scheme_intf.S with type node = pnode) =
  Alcotest.test_case
    (S.name ^ ": packed protected walk allocates nothing")
    `Quick
    (zero_alloc_walk (module S))

let suite =
  [
    ( "pack_zero_alloc",
      [
        walk_case (module Hp);
        walk_case (module He);
        walk_case (module Ibr);
        walk_case (module Ebr);
        walk_case (module Ptb);
        walk_case (module Ptp);
        walk_case (module Leak);
        Alcotest.test_case "orc: packed guarded traversal allocates nothing"
          `Quick
          (orc_zero_alloc (module Orc) "orc");
        Alcotest.test_case "orc-hp: packed guarded traversal allocates nothing"
          `Quick
          (orc_zero_alloc (module Orc_hp) "orc-hp");
        Alcotest.test_case "hdr: packed lifecycle transitions allocate nothing"
          `Quick test_zero_alloc_hdr;
        Alcotest.test_case "alloc: a pool hit allocates nothing" `Quick
          test_zero_alloc_pool_hit;
        Alcotest.test_case "orc: dropping a held hard link allocates nothing"
          `Quick
          (orc_dec_zero_alloc (module Orc) "orc");
        Alcotest.test_case
          "orc-hp: dropping a held hard link allocates nothing" `Quick
          (orc_dec_zero_alloc (module Orc_hp) "orc-hp");
        Alcotest.test_case "ptp: a handover and its drain allocate nothing"
          `Quick ptp_handover_zero_alloc;
        Alcotest.test_case "orc: a pinned unlink's handover allocates nothing"
          `Quick orc_handover_zero_alloc;
        Alcotest.test_case "orc: warm split-map operations allocate nothing"
          `Quick
          (map_ops_zero_alloc (module Map_orc));
        Alcotest.test_case
          "orc-hp: warm split-map operations allocate nothing" `Quick
          (map_ops_zero_alloc (module Map_orc_hp));
        Alcotest.test_case "hp: warm split-map operations allocate nothing"
          `Quick
          (map_ops_zero_alloc (module Map_hp));
        Alcotest.test_case "orc: hs-list contains allocates nothing" `Quick
          (contains_zero_alloc (module Hs_orc) "hs-orc");
        Alcotest.test_case
          "orc: warm Harris contains (hit and miss) allocates nothing" `Quick
          (contains_zero_alloc (module Harris_orc) "harris-orc");
        Alcotest.test_case
          "orc-hp: warm Harris contains (hit and miss) allocates nothing"
          `Quick
          (contains_zero_alloc (module Harris_orc_hp) "harris-orc-hp");
        Alcotest.test_case
          "orc: warm CRF/HS skip contains (hit and miss) allocates nothing"
          `Quick
          (skip_contains_zero_alloc (module Crf_orc) (module Hs_skip_orc)
             "orc");
        Alcotest.test_case
          "orc-hp: warm CRF/HS skip contains (hit and miss) allocates nothing"
          `Quick
          (skip_contains_zero_alloc (module Crf_orc_hp) (module Hs_skip_orc_hp)
             "orc-hp");
        Alcotest.test_case
          "orc: warm TBKP contains (hit and miss) allocates nothing" `Quick
          (contains_zero_alloc (module Tbkp_orc) "tbkp-orc");
        Alcotest.test_case
          "orc-hp: warm TBKP contains (hit and miss) allocates nothing" `Quick
          (contains_zero_alloc (module Tbkp_orc_hp) "tbkp-orc-hp");
      ] );
    ( "pack_bits",
      [
        Alcotest.test_case "orc word: count/seq/BRETIRED boundaries" `Quick
          test_orc_word_bits;
        Alcotest.test_case "orc word: the header's own field" `Quick
          test_orc_word_in_header;
        Alcotest.test_case "hdr: seven fields, the 8-word class" `Quick
          test_header_layout;
        Alcotest.test_case "hdr: literal transitions and exceptions" `Quick
          test_header_transitions;
      ] );
    ( "pack_lists",
      [
        Alcotest.test_case "michael list (hp): matches set model" `Quick
          (matches_model (module L_hp) "hp list");
        Alcotest.test_case "michael list (orc): matches set model" `Quick
          (matches_model (module L_orc) "orc list");
      ] );
  ]
