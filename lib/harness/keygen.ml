(* See the mli.  The zipfian generator is YCSB's: a closed-form
   inverse-CDF draw over the harmonic-number normalizer zeta(n, theta),
   precomputed once at [create] (O(n), amortized over millions of
   draws).  Scrambling spreads the hot head ranks across the keyspace
   with a stateless mix, exactly like YCSB's ScrambledZipfian — without
   it, the hottest keys are 0,1,2,... and adjacent in every ordered
   structure they hit. *)

open Atomicx

let default_theta = 0.99

type dist =
  | Uniform
  | Zipfian of { theta : float }
  | Hotspot of { hot_set : float; hot_ops : float }

type gen =
  | U
  | Z of { theta : float; alpha : float; zetan : float; eta : float }
  | H of { hot_n : int; hot_ops : float }

type t = { rng : Rng.t; n : int; g : gen; scramble : bool }

let zeta n theta =
  let s = ref 0. in
  for i = 1 to n do
    s := !s +. (1. /. (float_of_int i ** theta))
  done;
  !s

let create dist ~n ~seed =
  if n < 1 then invalid_arg "Keygen.create: n must be positive";
  let rng = Rng.create seed in
  match dist with
  | Uniform -> { rng; n; g = U; scramble = false }
  | Zipfian { theta } ->
      if theta <= 0. || theta >= 1. then
        invalid_arg "Keygen.create: zipfian theta must be in (0, 1)";
      let zetan = zeta n theta in
      let eta =
        (1. -. ((2. /. float_of_int n) ** (1. -. theta)))
        /. (1. -. (zeta 2 theta /. zetan))
      in
      { rng; n; g = Z { theta; alpha = 1. /. (1. -. theta); zetan; eta }; scramble = true }
  | Hotspot { hot_set; hot_ops } ->
      if hot_set <= 0. || hot_set >= 1. || hot_ops <= 0. || hot_ops > 1. then
        invalid_arg "Keygen.create: hotspot fractions out of range";
      let hot_n = max 1 (int_of_float (hot_set *. float_of_int n)) in
      { rng; n; g = H { hot_n; hot_ops }; scramble = false }

let rank t =
  match t.g with
  | U -> Rng.int t.rng t.n
  | Z z ->
      let u = Rng.float t.rng in
      let uz = u *. z.zetan in
      if uz < 1. then 0
      else if uz < 1. +. (0.5 ** z.theta) then 1
      else
        min (t.n - 1)
          (int_of_float
             (float_of_int t.n *. (((z.eta *. u) -. z.eta +. 1.) ** z.alpha)))
  | H h ->
      if Rng.float t.rng < h.hot_ops then Rng.int t.rng h.hot_n
      else if h.hot_n >= t.n then Rng.int t.rng t.n
      else h.hot_n + Rng.int t.rng (t.n - h.hot_n)

(* SplitMix64-style finalizer (multipliers truncated to OCaml's 63-bit
   immediates, still odd): stateless, so a rank always scrambles to the
   same key — the distribution's shape is preserved, only relabeled
   (collisions mod n merge a negligible mass for n << 2^60). *)
let mix64 z =
  let z = (z lxor (z lsr 30)) * 0x3f58476d1ce4e5b9 in
  let z = (z lxor (z lsr 27)) * 0x14d049bb133111eb in
  z lxor (z lsr 31)

let next t =
  let r = rank t in
  if t.scramble then mix64 r land max_int mod t.n else r

type op = Read | Update

type mix = { label : string; read_pct : int }

let mix_a = { label = "A"; read_pct = 50 }
let mix_b = { label = "B"; read_pct = 95 }

let next_op t mix =
  if mix.read_pct >= 100 || Rng.int t.rng 100 < mix.read_pct then Read
  else Update
