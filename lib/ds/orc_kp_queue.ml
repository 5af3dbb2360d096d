(** Kogan & Petrank's wait-free MPMC queue [17], with OrcGC.

    This is the paper's obstacle-1 structure (§2): queue nodes are
    referenced simultaneously from [head]/[tail] *and* from the per-thread
    operation-descriptor array used for helping, and those references are
    unlinked in orders that depend on the interleaving — there is no
    program point where a retire call would be sound, so no manual scheme
    in Table 1 applies.  OrcGC handles it with annotations alone: the
    descriptor's node reference is just another counted hard link.

    Both queue nodes and operation descriptors are OrcGC-tracked objects;
    the two roles share one record type, with a descriptor using the
    [next] link as its node reference. *)

open Atomicx

module Node (V : sig
  type t
end) =
struct
  type t = {
    item : V.t option; (* queue node payload; [None] in descriptors *)
    enq_tid : int;
    deq_tid : int Atomic.t; (* queue node: claimed dequeuer, -1 = none *)
    next : t Link.t; (* queue linkage / descriptor's node reference *)
    phase : int; (* descriptor fields *)
    pending : bool;
    is_enq : bool;
    hdr : Memdom.Hdr.t;
  }

  let hdr n = n.hdr
  let iter_links n f = f n.next
end

module Impl
    (V : sig
      type t
    end)
    (O : Intf.CORE with type node = Node(V).t) =
struct
  module Nd = Node (V)
  open Nd

  open Intf.Fresh (O)

  type item = V.t

  type t = {
    head : Nd.t Link.t;
    tail : Nd.t Link.t;
    state : Nd.t Link.t array; (* per-thread operation descriptors *)
    orc : O.t;
    alloc : Memdom.Alloc.t;
  }

  let scheme_name = O.name

  let item_of n =
    Memdom.Hdr.check_access n.hdr;
    n.item

  let next_of n =
    Memdom.Hdr.check_access n.hdr;
    n.next

  let mk_node g item etid hdr =
    {
      item;
      enq_tid = etid;
      deq_tid = Atomic.make (-1);
      next = O.new_link_v g Link.v_null;
      phase = -1;
      pending = false;
      is_enq = false;
      hdr;
    }

  let mk_desc ~phase ~pending ~is_enq ~node g hdr =
    {
      item = None;
      enq_tid = -1;
      deq_tid = Atomic.make (-1);
      next = O.new_link_v g node;
      phase;
      pending;
      is_enq;
      hdr;
    }

  let create ?(mode = Memdom.Alloc.System) () =
    let alloc = Memdom.Alloc.create ~mode ("kp_queue/" ^ O.name) in
    let orc = O.create alloc in
    O.with_guard orc (fun g ->
        let s = alloc_into g (O.ptr g) (mk_node g None (-1)) in
        let dp = O.ptr g in
        let state =
          Array.init Registry.max_threads (fun _ ->
              let d =
                alloc_into g dp
                  (mk_desc ~phase:(-1) ~pending:false ~is_enq:true
                     ~node:Link.v_null g)
              in
              O.new_link_v g (O.v_ptr orc d))
        in
        {
          head = O.new_link_v g (O.v_ptr orc s);
          tail = O.new_link_v g (O.v_ptr orc s);
          state;
          orc;
          alloc;
        })

  (* Working pointer set for one operation. *)
  type cursor = {
    lhead : O.Ptr.t;
    ltail : O.Ptr.t;
    lnext : O.Ptr.t;
    sp : O.Ptr.t; (* a state descriptor *)
    dn : O.Ptr.t; (* a descriptor's recorded node *)
    dp : O.Ptr.t; (* freshly allocated descriptors *)
  }

  let cursor g =
    {
      lhead = O.ptr g;
      ltail = O.ptr g;
      lnext = O.ptr g;
      sp = O.ptr g;
      dn = O.ptr g;
      dp = O.ptr g;
    }

  (* Does the handle hold a node, and does it hold [n]? *)
  let held p = Link.v_has_target (O.Ptr.view p)
  let holds p n = held p && O.Ptr.node_exn p == n

  (* Every [state] slot holds a descriptor while the queue lives. *)
  let max_phase t g cu =
    let m = ref (-1) in
    for i = 0 to Registry.high_water () - 1 do
      O.load g t.state.(i) cu.sp;
      let ph = (O.Ptr.node_exn cu.sp).phase in
      if ph > !m then m := ph
    done;
    !m

  let is_still_pending t g cu i ph =
    O.load g t.state.(i) cu.sp;
    let d = O.Ptr.node_exn cu.sp in
    d.pending && d.phase <= ph

  let help_finish_enq t g cu =
    O.load g t.tail cu.ltail;
    let last = O.Ptr.node_exn cu.ltail in
    O.load g (next_of last) cu.lnext;
    if held cu.lnext then begin
      let nx = O.Ptr.node_exn cu.lnext in
      let etid = nx.enq_tid in
      if etid >= 0 then begin
        O.load g t.state.(etid) cu.sp;
        let d = O.Ptr.node_exn cu.sp in
        if Link.view_eq (Link.view t.tail) (O.Ptr.view cu.ltail) then begin
          O.load g (next_of d) cu.dn;
          if holds cu.dn nx then begin
            let nd =
              alloc_into g cu.dp
                (mk_desc ~phase:d.phase ~pending:false ~is_enq:true
                   ~node:(O.Ptr.view cu.lnext) g)
            in
            ignore
              (O.cas_v g t.state.(etid) ~expected:(O.Ptr.view cu.sp)
                 ~desired:(O.v_ptr t.orc nd));
            ignore
              (O.cas_v g t.tail ~expected:(O.Ptr.view cu.ltail)
                 ~desired:(O.Ptr.view cu.lnext))
          end
        end
      end
    end

  let help_enq t g cu i ph =
    let rec loop () =
      if is_still_pending t g cu i ph then begin
        O.load g t.tail cu.ltail;
        let last = O.Ptr.node_exn cu.ltail in
        O.load g (next_of last) cu.lnext;
        if Link.view_eq (Link.view t.tail) (O.Ptr.view cu.ltail) then
          if not (held cu.lnext) then begin
            if is_still_pending t g cu i ph then begin
              (* cu.sp now holds thread i's descriptor *)
              let d = O.Ptr.node_exn cu.sp in
              O.load g (next_of d) cu.dn;
              if
                held cu.dn
                && O.cas_v g (next_of last) ~expected:(O.Ptr.view cu.lnext)
                     ~desired:(O.Ptr.view cu.dn)
              then help_finish_enq t g cu
              else loop ()
            end
          end
          else begin
            help_finish_enq t g cu;
            loop ()
          end
        else loop ()
      end
    in
    loop ()

  let help_finish_deq t g cu =
    O.load g t.head cu.lhead;
    let first = O.Ptr.node_exn cu.lhead in
    O.load g (next_of first) cu.lnext;
    let dtid = Atomic.get first.deq_tid in
    if dtid >= 0 then begin
      O.load g t.state.(dtid) cu.sp;
      let d = O.Ptr.node_exn cu.sp in
      if
        Link.view_eq (Link.view t.head) (O.Ptr.view cu.lhead)
        && held cu.lnext
      then begin
        O.load g (next_of d) cu.dn;
        let nd =
          alloc_into g cu.dp
            (mk_desc ~phase:d.phase ~pending:false ~is_enq:false
               ~node:(O.Ptr.view cu.dn) g)
        in
        ignore
          (O.cas_v g t.state.(dtid) ~expected:(O.Ptr.view cu.sp)
             ~desired:(O.v_ptr t.orc nd));
        ignore
          (O.cas_v g t.head ~expected:(O.Ptr.view cu.lhead)
             ~desired:(O.Ptr.view cu.lnext))
      end
    end

  let help_deq t g cu i ph =
    let rec loop () =
      if is_still_pending t g cu i ph then begin
        O.load g t.head cu.lhead;
        let first = O.Ptr.node_exn cu.lhead in
        O.load g t.tail cu.ltail;
        O.load g (next_of first) cu.lnext;
        if Link.view_eq (Link.view t.head) (O.Ptr.view cu.lhead) then
          if Link.v_same (O.Ptr.view cu.lhead) (O.Ptr.view cu.ltail) then
            if not (held cu.lnext) then begin
              (* empty: complete i's op with no node *)
              O.load g t.state.(i) cu.sp;
              let d = O.Ptr.node_exn cu.sp in
              if d.pending && d.phase <= ph then begin
                if
                  Link.view_eq (Link.view t.tail) (O.Ptr.view cu.ltail)
                then begin
                  let nd =
                    alloc_into g cu.dp
                      (mk_desc ~phase:d.phase ~pending:false ~is_enq:false
                         ~node:Link.v_null g)
                  in
                  ignore
                    (O.cas_v g t.state.(i) ~expected:(O.Ptr.view cu.sp)
                       ~desired:(O.v_ptr t.orc nd))
                end;
                loop ()
              end
            end
            else begin
              (* tail lagging: finish the in-flight enqueue first *)
              help_finish_enq t g cu;
              loop ()
            end
          else begin
            O.load g t.state.(i) cu.sp;
            let d = O.Ptr.node_exn cu.sp in
            if d.pending && d.phase <= ph then begin
              O.load g (next_of d) cu.dn;
              if Link.view_eq (Link.view t.head) (O.Ptr.view cu.lhead)
              then begin
                let proceed =
                  holds cu.dn first
                  ||
                  let nd =
                    alloc_into g cu.dp
                      (mk_desc ~phase:d.phase ~pending:true ~is_enq:false
                         ~node:(O.Ptr.view cu.lhead) g)
                  in
                  O.cas_v g t.state.(i) ~expected:(O.Ptr.view cu.sp)
                    ~desired:(O.v_ptr t.orc nd)
                in
                if proceed then begin
                  ignore (Atomic.compare_and_set first.deq_tid (-1) i);
                  help_finish_deq t g cu
                end;
                loop ()
              end
              else loop ()
            end
          end
        else loop ()
      end
    in
    loop ()

  let help t g cu ph =
    for i = 0 to Registry.high_water () - 1 do
      O.load g t.state.(i) cu.sp;
      let d = O.Ptr.node_exn cu.sp in
      if d.pending && d.phase <= ph then
        if d.is_enq then help_enq t g cu i ph else help_deq t g cu i ph
    done

  let enqueue q v =
    O.with_guard q.orc @@ fun g ->
    let tid = Registry.tid () in
    let cu = cursor g in
    let ph = max_phase q g cu + 1 in
    let np = O.ptr g in
    ignore (alloc_into g np (mk_node g (Some v) tid));
    ignore
      (alloc_into g cu.dp
         (mk_desc ~phase:ph ~pending:true ~is_enq:true
            ~node:(O.Ptr.view np) g));
    O.store_v g q.state.(tid) (O.Ptr.view cu.dp);
    help q g cu ph;
    help_finish_enq q g cu

  let dequeue q =
    O.with_guard q.orc @@ fun g ->
    let tid = Registry.tid () in
    let cu = cursor g in
    let ph = max_phase q g cu + 1 in
    ignore
      (alloc_into g cu.dp
         (mk_desc ~phase:ph ~pending:true ~is_enq:false ~node:Link.v_null g));
    O.store_v g q.state.(tid) (O.Ptr.view cu.dp);
    help q g cu ph;
    help_finish_deq q g cu;
    O.load g q.state.(tid) cu.sp;
    let d = O.Ptr.node_exn cu.sp in
    O.load g (next_of d) cu.dn;
    if not (held cu.dn) then None (* empty queue *)
    else begin
      O.load g (next_of (O.Ptr.node_exn cu.dn)) cu.lnext;
      item_of (O.Ptr.node_exn cu.lnext)
    end

  let destroy q =
    O.release_roots q.orc (q.head :: q.tail :: Array.to_list q.state)

  let unreclaimed q = O.unreclaimed q.orc
  let flush q = O.flush q.orc
  let alloc q = q.alloc
end

module Make (V : sig
  type t
end) =
  Impl (V) (Orc_core.Orc.Make (Node (V)))
