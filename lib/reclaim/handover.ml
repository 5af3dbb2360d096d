(* See the mli for the model. *)

open Atomicx

type ('s, 'a) run = 's -> tid:int -> 'a -> unit

type 'a t = {
  slots : 'a Atomic.t array array; (* [row][idx] *)
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

(* One pass: a node run here that cascades into a retire either frees
   or parks again on a protecting row, and a node still protected only
   parks again, so the rows alone never force another pass. *)
let flush h s ~tid ~run =
  for row = 0 to Registry.registered () - 1 do
    adopt_row h s ~row ~tid ~run
  done

let rec find_in_row hp wm pu idx =
  if idx >= wm then -1
  else if Atomic.get hp.(idx) = pu then idx
  else find_in_row hp wm pu (idx + 1)
