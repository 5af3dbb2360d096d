(* A cache line is 64-128 bytes; a 16-word cell (17 with its header)
   keeps two cells off one line wherever the heap places them. *)
let cell_words = 16

(* Each cell is one 16-word block whose field 0 is the atomic's value:
   the atomic primitives act on field 0 of the block they are given,
   so the block is the [Atomic.t].  Invariant: fields 1.. are never
   read or written. *)
let padded_atomic (v : 'a) : 'a Atomic.t =
  let b = Array.make cell_words (Obj.repr 0) in
  Array.unsafe_set b 0 (Obj.repr v);
  Obj.magic b

let atomic_array n v = Array.init n (fun _ -> padded_atomic v)

let atomic_matrix rows cols v =
  Array.init rows (fun _ -> Array.init cols (fun _ -> Atomic.make v))
