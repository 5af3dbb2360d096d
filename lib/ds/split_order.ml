(* See the mli.  The representation invariants live here:

   - hashes use exactly [hash_bits] = 60 bits, so a bit-reversed hash
     shifted left one (for the regular bit) still fits a 62-bit OCaml
     immediate with [max_int] left over for the tail sentinel;
   - the multiplier is odd, so [hash] is a bijection of the 60-bit
     domain and distinct keys get distinct so-keys (comparing so-keys
     alone decides equality during traversal);
   - directory segments are never moved once published, mirroring the
     [Atomicx.Link] slot table: growth is one [Atomic.compare_and_set]
     on the bucket count and lazy segment/bucket initialization;
   - a directory cell is written with a plain store, at most one value
     per cell besides [unset]: callers store only the value that is
     unique to the bucket, so racing writers store the same thing. *)

let hash_bits = 60
let hash_mask = (1 lsl hash_bits) - 1
let max_key = hash_mask

(* Fibonacci multiplier, odd => invertible mod 2^60. *)
let multiplier = 0x2545F4914F6CDD1D
let hash key = key * multiplier land hash_mask

(* The multiplier's inverse mod 2^60 by Newton's iteration: an odd m is
   its own inverse mod 2^3, and each step doubles the correct low bits
   (3, 6, ..., 96 >= 60). *)
let inverse =
  let rec go x n =
    if n = 0 then x else go (x * (2 - (multiplier * x))) (n - 1)
  in
  go multiplier 5 land hash_mask

(* Bit reversal of the 60-bit domain, byte table composed so no
   intermediate exceeds the 62-bit immediate range: the j-th byte of
   [h] lands reversed at bit 52-8j (the top byte of the would-be
   64-bit reversal is shifted out by the >> 4 folded into each
   term). *)
let rev8 =
  Array.init 256 (fun i ->
      let r = ref 0 in
      for b = 0 to 7 do
        if i land (1 lsl b) <> 0 then r := !r lor (1 lsl (7 - b))
      done;
      !r)

(* a top-level helper: a local [t j] closing over [h] would allocate
   its closure on every reversal *)
let rev_byte h j = rev8.((h lsr (8 * j)) land 0xff)

let rev60 h =
  (rev_byte h 0 lsl 52) lor (rev_byte h 1 lsl 44) lor (rev_byte h 2 lsl 36)
  lor (rev_byte h 3 lsl 28) lor (rev_byte h 4 lsl 20)
  lor (rev_byte h 5 lsl 12) lor (rev_byte h 6 lsl 4)
  lor (rev_byte h 7 lsr 4)

(* So-keys: bit 0 is the regular bit (1 = real key, 0 = bucket dummy),
   bits 1..60 the reversed hash.  A dummy's so-key is a prefix-zero
   reversal of its bucket index, so it sorts before every key the
   bucket will ever hold and after every key of the preceding bucket,
   at every table size — the split-ordering invariant. *)
let regular h = (rev60 h lsl 1) lor 1
let key_of_regular so = rev60 (so lsr 1) * inverse land hash_mask
let dummy b = rev60 b lsl 1
let is_dummy so = so land 1 = 0
let bucket_of ~hash ~size = hash land (size - 1)

(* Parent bucket: clear the most significant set bit.  The parent's
   dummy is the closest initialized anchor that provably precedes
   bucket [b] in split order. *)
let parent b =
  let rec msb acc v = if v <= 1 then acc else msb (acc + 1) (v lsr 1) in
  b land lnot (1 lsl msb 0 b)

(* Bucket directory: a fixed array of lazily materialized segments of
   plain cells.  Published segments never move, so a cell read never
   races a growth copy — the doubling is just [size := 2 * size].  A
   segment starts filled with the map's [unset] value; an empty array
   marks a segment not yet materialized, so a read is two loads and no
   option block. *)
let seg_bits = 10
let seg_size = 1 lsl seg_bits
let n_segs = 1 lsl seg_bits
let max_buckets = n_segs * seg_size

type 'a dir = { segs : 'a array Atomic.t array; unset : 'a }

let dir_create ~unset =
  { segs = Array.init n_segs (fun _ -> Atomic.make [||]); unset }

let dir_unset d = d.unset

let dir_get d b =
  let seg = Atomic.get d.segs.(b lsr seg_bits) in
  if Array.length seg = 0 then d.unset else seg.(b land (seg_size - 1))

let dir_set d b v =
  let cell = d.segs.(b lsr seg_bits) in
  let seg =
    let seg = Atomic.get cell in
    if Array.length seg > 0 then seg
    else
      (* losing a materialization race drops an all-[unset] array *)
      let fresh = Array.make seg_size d.unset in
      if Atomic.compare_and_set cell seg fresh then fresh else Atomic.get cell
  in
  seg.(b land (seg_size - 1)) <- v
