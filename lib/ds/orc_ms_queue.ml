(** Michael–Scott queue with OrcGC (paper Algorithm 1).

    The point of the exercise: compared with {!Ms_queue} there is *no
    retire call anywhere*.  The dequeue simply swings [head]; OrcGC
    notices the old sentinel's hard-link count reach zero and reclaims it
    once no thread protects it.  The only changes versus the textbook
    algorithm are type annotations: links are orc-managed and local
    references live in guard-scoped [Ptr] handles. *)

open Atomicx

module Make (V : sig
  type t
end) =
struct
  type item = V.t

  type node = { item : V.t option; next : node Link.t; hdr : Memdom.Hdr.t }

  module O = Orc_core.Orc.Make (struct
    type t = node

    let hdr n = n.hdr
    let iter_links n f = f n.next
  end)

  type t = {
    head : node Link.t;
    tail : node Link.t;
    orc : O.t;
    alloc : Memdom.Alloc.t;
  }

  let scheme_name = "orc"

  let next_of n =
    Memdom.Hdr.check_access n.hdr;
    n.next

  let item_of n =
    Memdom.Hdr.check_access n.hdr;
    n.item

  let create ?(mode = Memdom.Alloc.System) () =
    let alloc = Memdom.Alloc.create ~mode "orc_ms_queue" in
    let orc = O.create alloc in
    O.with_guard orc (fun g ->
        let s =
          O.alloc_node g (fun hdr ->
              { item = None; next = Link.make_in (O.arena orc) Link.Null; hdr })
        in
        let head = O.new_link_v g (O.Ptr.view s) in
        let tail = O.new_link_v g (O.Ptr.view s) in
        { head; tail; orc; alloc })

  let enqueue q v =
    O.with_guard q.orc @@ fun g ->
    let new_node =
      O.alloc_node g (fun hdr ->
          { item = Some v; next = Link.make_in (O.arena q.orc) Link.Null; hdr })
    in
    let nv = O.Ptr.view new_node in
    let ltail = O.ptr g in
    let lnext = O.ptr g in
    let backoff = Backoff.create () in
    let rec loop () =
      O.load g q.tail ltail;
      let tl = O.Ptr.node_exn ltail in
      O.load g (next_of tl) lnext;
      if O.Ptr.is_null lnext then begin
        if O.cas_v g (next_of tl) ~expected:Link.v_null ~desired:nv then
          ignore (O.cas_v g q.tail ~expected:(O.Ptr.view ltail) ~desired:nv)
        else begin
          Backoff.once backoff;
          loop ()
        end
      end
      else begin
        ignore
          (O.cas_v g q.tail ~expected:(O.Ptr.view ltail)
             ~desired:(O.Ptr.view lnext));
        loop ()
      end
    in
    loop ()

  let dequeue q =
    O.with_guard q.orc @@ fun g ->
    let node = O.ptr g in
    let ltail = O.ptr g in
    let lnext = O.ptr g in
    let backoff = Backoff.create () in
    let rec loop () =
      O.load g q.head node;
      O.load g q.tail ltail;
      if O.Ptr.same_node node ltail then begin
        (* Either empty or an in-flight enqueue left the tail lagging;
           help it forward so the element is not missed. *)
        O.load g (next_of (O.Ptr.node_exn node)) lnext;
        if O.Ptr.is_null lnext then None
        else begin
          ignore
            (O.cas_v g q.tail ~expected:(O.Ptr.view ltail)
               ~desired:(O.Ptr.view lnext));
          loop ()
        end
      end
      else begin
        O.load g (next_of (O.Ptr.node_exn node)) lnext;
        if
          O.cas_v g q.head ~expected:(O.Ptr.view node)
            ~desired:(O.Ptr.view lnext)
        then item_of (O.Ptr.node_exn lnext)
        else begin
          Backoff.once backoff;
          loop ()
        end
      end
    in
    loop ()

  (* Teardown is just dropping the roots: OrcGC cascades through the
     remaining chain (via the recursive list, not the program stack). *)
  let destroy q =
    O.with_guard q.orc @@ fun g ->
    O.store_v g q.head Link.v_null;
    O.store_v g q.tail Link.v_null

  let unreclaimed q = O.unreclaimed q.orc
  let flush q = O.flush q.orc
  let alloc q = q.alloc
end
