(* The key streams behind every workload: each generator reproduces
   the recorded draws of [Golden_keys] exactly, so a change to how a
   draw is computed cannot change what the benchmarks run, and one draw
   of each kind allocates nothing. *)

open Util
open Atomicx
module K = Harness.Keygen

let draws = Array.length Golden_keys.rng_int

let check_ints name expected draw =
  Array.iteri
    (fun i e -> check_int (Printf.sprintf "%s draw %d" name i) e (draw ()))
    expected

let check_chars name expected draw =
  String.iteri
    (fun i e ->
      Alcotest.(check char) (Printf.sprintf "%s draw %d" name i) e (draw ()))
    expected

let test_rng_golden () =
  let r = Rng.create 42 in
  check_ints "Rng.int" Golden_keys.rng_int (fun () -> Rng.int r 1_000_000);
  let r = Rng.create 43 in
  Array.iteri
    (fun i e ->
      let f = Rng.float r in
      if Int64.bits_of_float f <> Int64.bits_of_float e then
        Alcotest.failf "Rng.float draw %d: %h, expected %h" i f e)
    Golden_keys.rng_float;
  let r = Rng.create 44 in
  check_chars "Rng.bool" Golden_keys.rng_bool (fun () ->
      if Rng.bool r then '1' else '0')

(* [next] then [next_op] from one generator, as a benchmark worker
   draws them. *)
let keygen_golden dist ~n ~seed keys ops () =
  check_int "recorded draws" draws (Array.length keys);
  let g = K.create dist ~n ~seed in
  Array.iteri
    (fun i k ->
      check_int (Printf.sprintf "next %d" i) k (K.next g);
      let op = match K.next_op g K.mix_a with K.Read -> 'R' | K.Update -> 'U' in
      Alcotest.(check char) (Printf.sprintf "next_op %d" i) ops.[i] op)
    keys

let zipfian = K.Zipfian { theta = K.default_theta }
let hotspot = K.Hotspot { hot_set = 0.2; hot_ops = 0.8 }

(* One draw of each kind, 100 times over, allocates nothing: the
   generator's state is unboxed and each draw returns an immediate or
   feeds an unboxed float straight into the caller's arithmetic. *)
let test_draws_zero_alloc () =
  let r = Rng.create 5 in
  let acc = ref 0 in
  check_zero "Rng.int" (fun () ->
      for _ = 1 to 100 do
        acc := !acc + Rng.int r 1000
      done);
  check_zero "Rng.float" (fun () ->
      for _ = 1 to 100 do
        if Rng.float r < 0.5 then incr acc
      done);
  check_zero "Rng.bool" (fun () ->
      for _ = 1 to 100 do
        if Rng.bool r then incr acc
      done);
  List.iter
    (fun (name, dist, n) ->
      let g = K.create dist ~n ~seed:9 in
      check_zero (name ^ " Keygen.next") (fun () ->
          for _ = 1 to 100 do
            acc := !acc + K.next g
          done);
      check_zero (name ^ " Keygen.next_op") (fun () ->
          for _ = 1 to 100 do
            match K.next_op g K.mix_b with K.Read -> incr acc | K.Update -> ()
          done))
    [ ("uniform", K.Uniform, 16384); ("zipfian", zipfian, 100_000);
      ("hotspot", hotspot, 10_000) ];
  check_bool "draws happened" true (!acc > 0)

let suite =
  [
    ( "keys",
      [
        Alcotest.test_case "Rng int/float/bool match the recorded draws"
          `Quick test_rng_golden;
        Alcotest.test_case "uniform keys and ops match the recorded draws"
          `Quick
          (keygen_golden K.Uniform ~n:16384 ~seed:7 Golden_keys.uniform_keys
             Golden_keys.uniform_ops);
        Alcotest.test_case "zipfian keys and ops match the recorded draws"
          `Quick
          (keygen_golden zipfian ~n:1_000_000 ~seed:11 Golden_keys.zipfian_keys
             Golden_keys.zipfian_ops);
        Alcotest.test_case "hotspot keys and ops match the recorded draws"
          `Quick
          (keygen_golden hotspot ~n:10_000 ~seed:13 Golden_keys.hotspot_keys
             Golden_keys.hotspot_ops);
        Alcotest.test_case "one draw of each kind allocates nothing" `Quick
          test_draws_zero_alloc;
      ] );
  ]
