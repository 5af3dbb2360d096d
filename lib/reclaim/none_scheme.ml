(** Degenerate schemes used as experimental controls.

    [Leak] never frees: the "no reclamation" series in the paper's plots
    (the performance ceiling — zero reclamation overhead, unbounded
    memory).  [Unsafe] frees at retire time, which is exactly the bug all
    real schemes exist to prevent; the negative stress tests use it to
    prove that the {!Memdom} substrate actually detects use-after-free
    (i.e. that the green tests of real schemes are meaningful). *)

open Atomicx

module Leak (N : Scheme_intf.NODE) : Scheme_intf.S with type node = N.t = struct
  type node = N.t

  type t = {
    alloc : Memdom.Alloc.t;
    sink : Obs.Sink.t;
    hps : int;
    retired : node list ref array;
    counters : Scheme_intf.Counters.t;
    orphans : node Memdom.Orphan.t;
    mutable lifecycle : int -> unit;
  }

  let name = "leak"
  let max_hps t = t.hps

  (* Even the leak control participates in the lifecycle protocol: a
     recycled tid must start with an empty park list, and [flush] must
     still see (and free) what departed threads parked. *)
  let orphan t ~tid =
    match !(t.retired.(tid)) with
    | [] -> ()
    | batch ->
        t.retired.(tid) := [];
        Memdom.Orphan.publish t.orphans t.sink ~tid batch

  let orphaned t = Memdom.Orphan.pending t.orphans

  let create ?(max_hps = 8) ?sink alloc =
    let sink =
      match sink with Some s -> s | None -> Memdom.Alloc.sink alloc
    in
    let t =
      {
        alloc;
        sink;
        hps = max_hps;
        retired = Array.init Registry.max_threads (fun _ -> ref []);
        counters = Scheme_intf.Counters.create ();
        orphans = Memdom.Orphan.create ();
        lifecycle = ignore;
      }
    in
    t.lifecycle <- (fun tid -> orphan t ~tid);
    Registry.on_quarantine t.lifecycle;
    t

  let begin_op t ~tid = Obs.Sink.guard_begin t.sink ~tid
  let end_op t ~tid = Obs.Sink.guard_end t.sink ~tid
  let get_protected_v _ ~tid:_ ~idx:_ link = Link.view link
  let protect_raw _ ~tid:_ ~idx:_ _ = ()
  let copy_protection _ ~tid:_ ~src:_ ~dst:_ = ()
  let clear _ ~tid:_ ~idx:_ = ()

  let retire t ~tid n =
    let h = N.hdr n in
    Memdom.Hdr.mark_retired h;
    Memdom.Hdr.set_retired_stamp h
      (Obs.Sink.on_retire t.sink ~tid ~uid:h.Memdom.Hdr.uid);
    Scheme_intf.Counters.retired t.counters ~tid;
    t.retired.(tid) := n :: !(t.retired.(tid))

  let unreclaimed t = Scheme_intf.Counters.unreclaimed t.counters
  let stats t = Scheme_intf.Counters.stats t.counters
  let pp_stats fmt t = Scheme_intf.pp_stats_record fmt (stats t)

  (* Quiesced: everything retired is reclaimable by definition. *)
  let flush t =
    for tid = 0 to Registry.registered () - 1 do
      let mine = !(t.retired.(tid)) in
      let all =
        List.rev_append (Memdom.Orphan.adopt t.orphans t.sink ~tid) mine
      in
      List.iter
        (fun n ->
          Scheme_intf.Counters.freed t.counters ~tid;
          Memdom.Alloc.free t.alloc (N.hdr n))
        all;
      t.retired.(tid) := []
    done
end

module Unsafe (N : Scheme_intf.NODE) : Scheme_intf.S with type node = N.t = struct
  type node = N.t

  type t = {
    alloc : Memdom.Alloc.t;
    sink : Obs.Sink.t;
    hps : int;
    counters : Scheme_intf.Counters.t;
  }

  let name = "unsafe"
  let max_hps t = t.hps

  let create ?(max_hps = 8) ?sink alloc =
    let sink =
      match sink with Some s -> s | None -> Memdom.Alloc.sink alloc
    in
    {
      alloc;
      sink;
      hps = max_hps;
      counters = Scheme_intf.Counters.create ();
    }

  let begin_op t ~tid = Obs.Sink.guard_begin t.sink ~tid
  let end_op t ~tid = Obs.Sink.guard_end t.sink ~tid
  let get_protected_v _ ~tid:_ ~idx:_ link = Link.view link
  let protect_raw _ ~tid:_ ~idx:_ _ = ()
  let copy_protection _ ~tid:_ ~src:_ ~dst:_ = ()
  let clear _ ~tid:_ ~idx:_ = ()

  let retire t ~tid n =
    let h = N.hdr n in
    Memdom.Hdr.mark_retired h;
    Memdom.Hdr.set_retired_stamp h
      (Obs.Sink.on_retire t.sink ~tid ~uid:h.Memdom.Hdr.uid);
    Scheme_intf.Counters.retired t.counters ~tid;
    Scheme_intf.Counters.freed t.counters ~tid;
    Memdom.Alloc.free t.alloc (N.hdr n)

  (* Nothing is ever pending, so thread death leaves nothing behind. *)
  let orphan _ ~tid:_ = ()
  let orphaned _ = 0
  let unreclaimed _ = 0
  let stats t = Scheme_intf.Counters.stats t.counters
  let pp_stats fmt t = Scheme_intf.pp_stats_record fmt (stats t)
  let flush _ = ()
end
