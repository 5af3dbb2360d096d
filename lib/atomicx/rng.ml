(* The 64-bit state lives in 8 bytes read and written with the
   unboxed [Bytes] int64 primitives, and every draw is inlined into
   its caller, so a draw allocates nothing: a [mutable state : int64]
   field would box a fresh int64 on every step. *)
type t = Bytes.t

let golden_gamma = 0x9E3779B97F4A7C15L

let[@inline] mix64 z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let of_state s =
  let t = Bytes.create 8 in
  Bytes.set_int64_ne t 0 s;
  t

let create seed = of_state (Int64.of_int seed)

let[@inline] next_int64 t =
  let s = Int64.add (Bytes.get_int64_ne t 0) golden_gamma in
  Bytes.set_int64_ne t 0 s;
  mix64 s

let split t = of_state (mix64 (next_int64 t))

let[@inline] int t bound =
  if bound <= 0 then invalid_arg "Rng.int";
  let r = Int64.to_int (next_int64 t) land max_int in
  r mod bound

let[@inline] float t =
  let r = Int64.to_int (next_int64 t) land ((1 lsl 53) - 1) in
  float_of_int r /. float_of_int (1 lsl 53)

let[@inline] bool t = Int64.logand (next_int64 t) 1L = 1L
