(* Bits live in an int array, [bits_per_word] per word.  OCaml ints have
   63 bits; using 62 makes [full] exactly [max_int] and keeps every
   intermediate (notably [occupied + 1]) inside the representable
   range. *)
let bits_per_word = 62
let full = max_int (* 62 set bits *)

type t = { words : int array; capacity : int }

let create capacity =
  if capacity < 1 then invalid_arg "Bitmask.create";
  let nwords = (capacity + bits_per_word - 1) / bits_per_word in
  let words = Array.make nwords 0 in
  (* pre-set the bits beyond [capacity] in the last word so acquire can
     never hand out an out-of-range index *)
  let valid_last = capacity - ((nwords - 1) * bits_per_word) in
  if valid_last < bits_per_word then
    words.(nwords - 1) <- full lxor ((1 lsl valid_last) - 1);
  { words; capacity }

let capacity t = t.capacity

let reset t =
  let nwords = Array.length t.words in
  Array.fill t.words 0 nwords 0;
  let valid_last = t.capacity - ((nwords - 1) * bits_per_word) in
  if valid_last < bits_per_word then
    t.words.(nwords - 1) <- full lxor ((1 lsl valid_last) - 1)

(* Index of a one-bit value, by constant-step binary descent. *)
let bit_index b =
  let n = ref 0 and b = ref b in
  if !b lsr 32 <> 0 then begin
    n := !n + 32;
    b := !b lsr 32
  end;
  if !b lsr 16 <> 0 then begin
    n := !n + 16;
    b := !b lsr 16
  end;
  if !b lsr 8 <> 0 then begin
    n := !n + 8;
    b := !b lsr 8
  end;
  if !b lsr 4 <> 0 then begin
    n := !n + 4;
    b := !b lsr 4
  end;
  if !b lsr 2 <> 0 then begin
    n := !n + 2;
    b := !b lsr 2
  end;
  if !b lsr 1 <> 0 then incr n;
  !n

(* Lowest free index >= [from] at or above word [w]; -1 when none.  A
   top-level loop, so an acquire builds no closure. *)
let rec acquire_from t ~from w =
  if w >= Array.length t.words then -1
  else
    let base = w * bits_per_word in
    (* treat bits below [from] as occupied in the first visited word *)
    let low_mask = if from <= base then 0 else (1 lsl (from - base)) - 1 in
    let occupied = t.words.(w) lor low_mask in
    if occupied = full then acquire_from t ~from (w + 1)
    else begin
      (* lowest clear bit: [occupied + 1] carries through the trailing
         ones, [lnot occupied] keeps exactly the first zero *)
      let bit = lnot occupied land (occupied + 1) in
      t.words.(w) <- t.words.(w) lor bit;
      base + bit_index bit
    end

let acquire t ~from =
  let from = if from < 0 then 0 else from in
  if from >= t.capacity then -1 else acquire_from t ~from (from / bits_per_word)

let release t i =
  if i < 0 || i >= t.capacity then invalid_arg "Bitmask.release";
  let w = i / bits_per_word and b = i mod bits_per_word in
  t.words.(w) <- t.words.(w) land lnot (1 lsl b)

let mem t i =
  if i < 0 || i >= t.capacity then invalid_arg "Bitmask.mem";
  t.words.(i / bits_per_word) land (1 lsl (i mod bits_per_word)) <> 0

let count t =
  let n = ref 0 in
  for i = 0 to t.capacity - 1 do
    if mem t i then incr n
  done;
  !n
