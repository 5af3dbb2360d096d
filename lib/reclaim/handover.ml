(* See the mli for the model. *)

open Atomicx

type ('s, 'a) run = 's -> tid:int -> 'a -> unit
type 'a buffer = { mutable items : 'a list; mutable count : int }

type 'a t = {
  slots : 'a Atomic.t array array; (* [row][idx] *)
  buffers : 'a buffer array; (* [tid]; owner-private *)
  sink : Obs.Sink.t;
  handovers : Shard.t;
}

(* The empty slot: an immediate, and every node is a heap block, so
   emptiness is one tag test. *)
let empty = Obj.magic 0

external is_empty : 'a -> bool = "%obj_is_int"

let create ~slots ~sink ~handovers =
  {
    slots = Padded.atomic_matrix Registry.max_threads slots empty;
    buffers =
      Array.init Registry.max_threads (fun _ -> { items = []; count = 0 });
    sink;
    handovers;
  }

let hand h ~tid ~row ~idx ~uid x =
  let evictee = Atomic.exchange h.slots.(row).(idx) x in
  Shard.incr h.handovers ~tid;
  Obs.Sink.on_handover h.sink ~tid ~uid;
  evictee

let take h ~row ~idx =
  let slot = h.slots.(row).(idx) in
  let x = Atomic.get slot in
  if is_empty x then x else Atomic.exchange slot empty

let adopt_row h s ~row ~tid ~run =
  for idx = 0 to Array.length h.slots.(row) - 1 do
    let x = take h ~row ~idx in
    if not (is_empty x) then run s ~tid x
  done

let push h s ~tid ch x ~run =
  let b = h.buffers.(tid) in
  b.items <- x :: b.items;
  b.count <- b.count + 1;
  if b.count >= Tuning.bg_batch then begin
    let batch = b.items and n = b.count in
    b.items <- [];
    b.count <- 0;
    let job ~tid:rtid = List.iter (run s ~tid:rtid) batch in
    (* the batch left the buffer before the send, so the inline
       fallback is single-owner *)
    if not (Channel.send ch ~tid ~count:n job) then List.iter (run s ~tid) batch
  end

(* Run [row]'s buffer under [tid]; [false] if it was empty. *)
let adopt_buffer h s ~row ~tid ~run =
  let b = h.buffers.(row) in
  let batch = b.items in
  b.items <- [];
  b.count <- 0;
  List.iter (run s ~tid) batch;
  batch <> []

let adopt h s ~row ~tid ~run =
  adopt_row h s ~row ~tid ~run;
  ignore (adopt_buffer h s ~row ~tid ~run)

(* Every row and buffer, again while a buffer held anything: a node run
   here can cascade into a retire and re-buffer under an active
   channel.  A node still protected only parks again, so the rows alone
   never force another pass. *)
let rec flush h s ~tid ~run =
  let refilled = ref false in
  for row = 0 to Registry.registered () - 1 do
    adopt_row h s ~row ~tid ~run;
    if adopt_buffer h s ~row ~tid ~run then refilled := true
  done;
  if !refilled then flush h s ~tid ~run

let rec find_in_row hp wm pu idx =
  if idx >= wm then -1
  else if Atomic.get hp.(idx) = pu then idx
  else find_in_row hp wm pu (idx + 1)
