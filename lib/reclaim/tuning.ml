(* See the mli for the model. *)

open Atomicx

let r_floor = 2
let load_factor = 4
let threshold ~hps = max r_floor (2 * hps * max 1 (Registry.active ()))
