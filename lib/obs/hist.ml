open Atomicx

(* Log-linear buckets, [sub] = 8 per octave: values below [sub] get a
   bucket each (bucket v holds v), and an octave [2^e, 2^(e+1)) with
   e >= [sub_bits] splits into [sub] equal buckets of width
   2^(e - sub_bits).  The index of v >= [sub] is
   (e - sub_bits + 1) * sub + (the [sub_bits] bits below the top one),
   which continues the exact range without a gap (bucket 8 holds 8, 15
   holds 15, 16 holds 16-17).  A bucket spans at most 1/8 of its lower
   edge, so a floor estimate is within 12.5% below the true value.
   The top octave of a non-negative int is e = 61. *)
let sub_bits = 3
let sub = 1 lsl sub_bits
let buckets = (61 - sub_bits + 2) * sub

(* index of the highest set bit of v > 0 *)
let msb v =
  let e = ref 0 and v = ref v in
  while !v > 1 do
    v := !v lsr 1;
    incr e
  done;
  !e

let bucket_of v =
  if v < sub then if v < 0 then 0 else v
  else
    let e = msb v in
    ((e - sub_bits + 1) * sub) + ((v lsr (e - sub_bits)) land (sub - 1))

(* Lower edge of a bucket — what quantile estimates report. *)
let bucket_floor b =
  if b < sub then b
  else
    let e = (b / sub) + sub_bits - 1 in
    (sub + (b land (sub - 1))) lsl (e - sub_bits)

type shard = {
  counts : int array;
  mutable s_count : int;
  mutable s_sum : int;
  mutable s_max : int;
}

type t = { shards : shard option Atomic.t array (* [tid], lazy *) }

let create () = { shards = Padded.atomic_array Registry.max_threads None }

let shard_of t ~tid =
  match Atomic.get t.shards.(tid) with
  | Some s -> s
  | None ->
      (* only the owning tid creates (and ever writes) its shard *)
      let s =
        { counts = Array.make buckets 0; s_count = 0; s_sum = 0; s_max = 0 }
      in
      Atomic.set t.shards.(tid) (Some s);
      s

let record t ~tid v =
  let v = if v < 0 then 0 else v in
  let s = shard_of t ~tid in
  let b = bucket_of v in
  s.counts.(b) <- s.counts.(b) + 1;
  s.s_count <- s.s_count + 1;
  s.s_sum <- s.s_sum + v;
  if v > s.s_max then s.s_max <- v

type report = {
  count : int;
  mean : float;
  p50 : int;
  p99 : int;
  p999 : int;
  max : int;
  by_bucket : (int * int) list;  (** (bucket floor, count), non-empty only *)
}

(* Merge-on-read: fold the registered shards.  Same caveat as
   [Shard.get] — concurrent with writers the view is exact to within one
   in-flight update per thread. *)
let merged t =
  let counts = Array.make buckets 0 in
  let count = ref 0 and sum = ref 0 and mx = ref 0 in
  for tid = 0 to Registry.registered () - 1 do
    match Atomic.get t.shards.(tid) with
    | None -> ()
    | Some s ->
        for b = 0 to buckets - 1 do
          counts.(b) <- counts.(b) + s.counts.(b)
        done;
        count := !count + s.s_count;
        sum := !sum + s.s_sum;
        if s.s_max > !mx then mx := s.s_max
  done;
  (counts, !count, !sum, !mx)

(* Quantile estimate over the merged buckets.  A rank landing in any
   bucket below the highest occupied one reports that bucket's floor
   (within 12.5% below the true value, the histogram's resolution).
   A rank landing in the {e top occupied} bucket interpolates linearly
   between the bucket floor and the exact recorded maximum instead:
   without this, a distribution saturating its top bucket pins every
   upper quantile at the bucket floor no matter how far the tail
   actually reaches (smoke runs used to report retire_free_p99_ns
   frozen at 1048576 = 2^20 for exactly this reason). *)
let quantile_of counts total mx q =
  if total = 0 then 0
  else begin
    let rank = int_of_float (ceil (q *. float_of_int total)) in
    let rank = if rank < 1 then 1 else rank in
    let top = ref 0 in
    for b = 0 to buckets - 1 do
      if counts.(b) > 0 then top := b
    done;
    let acc = ref 0 and result = ref 0 in
    (try
       for b = 0 to buckets - 1 do
         let before = !acc in
         acc := !acc + counts.(b);
         if !acc >= rank then begin
           let floor = bucket_floor b in
           (result :=
              if b = !top && mx > floor then
                let frac =
                  float_of_int (rank - before) /. float_of_int counts.(b)
                in
                floor + int_of_float (frac *. float_of_int (mx - floor))
              else floor);
           raise_notrace Exit
         end
       done
     with Exit -> ());
    !result
  end

let report t =
  let counts, count, sum, mx = merged t in
  (* rank against the buckets actually read: a concurrent writer can
     bump [count] after its bucket was merged *)
  let total = Array.fold_left ( + ) 0 counts in
  let by_bucket = ref [] in
  for b = buckets - 1 downto 0 do
    if counts.(b) > 0 then by_bucket := (bucket_floor b, counts.(b)) :: !by_bucket
  done;
  {
    count;
    mean = (if count = 0 then 0. else float_of_int sum /. float_of_int count);
    p50 = quantile_of counts total mx 0.50;
    p99 = quantile_of counts total mx 0.99;
    p999 = quantile_of counts total mx 0.999;
    max = mx;
    by_bucket = !by_bucket;
  }

let count t =
  let _, count, _, _ = merged t in
  count

let pp ?(unit_label = "ns") fmt t =
  let r = report t in
  if r.count = 0 then Format.fprintf fmt "(empty)"
  else begin
    Format.fprintf fmt "n=%d mean=%.0f%s p50=%d%s p99=%d%s p99.9=%d%s max=%d%s@."
      r.count r.mean unit_label r.p50 unit_label r.p99 unit_label r.p999
      unit_label r.max unit_label;
    List.iter
      (fun (floor, n) ->
        Format.fprintf fmt "  >=%-12d %6d %s@." floor n
          (String.make (min 60 (60 * n / r.count)) '#'))
      r.by_bucket
  end

let report_to_json r =
  Json.Obj
    [
      ("count", Json.Int r.count);
      ("mean_ns", Json.Float r.mean);
      ("p50_ns", Json.Int r.p50);
      ("p99_ns", Json.Int r.p99);
      ("p999_ns", Json.Int r.p999);
      ("max_ns", Json.Int r.max);
      ( "buckets",
        Json.List
          (List.map
             (fun (floor, n) ->
               Json.Obj [ ("ge", Json.Int floor); ("n", Json.Int n) ])
             r.by_bucket) );
    ]

let to_json t = report_to_json (report t)
