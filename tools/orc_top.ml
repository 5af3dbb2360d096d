(* orc_top: a `top`-style console for the live metrics plane.

   Two modes:

   - file mode (default): render the ["metrics"] section of a
     BENCH_orc.json (as written by `bench/main.exe --metrics --json`).
     Without [--once] it keeps polling the file and redraws whenever it
     changes, so a bench loop in another terminal gets a live view.

   - [--demo]: entirely in-process — starts the one background
     domain ([Reclaim.Reclaimer], neutralizing) over
     [Obs.Metrics.default], runs a guard + retire churn workload on
     EBR beside a staller it neutralizes, and renders the registry
     until [--seconds] elapse.  This is the end-to-end smoke of the
     whole plane: watchdog clock live, per-scheme probes, allocator
     gauges, ring-buffered series.

     dune exec tools/orc_top.exe -- [--once] [--interval=S] [FILE]
     dune exec tools/orc_top.exe -- --demo [--seconds=N] [--interval=S]

   FILE defaults to BENCH_orc.json.  Any other argument — an unknown
   flag, a value given as a separate word, a second FILE, a FILE or
   --once in demo mode — prints the usage and exits 2. *)

let fail fmt =
  Printf.ksprintf
    (fun s ->
      prerr_endline s;
      exit 1)
    fmt

let load path =
  match Obs.Json.of_file path with
  | doc -> doc
  | exception Obs.Json.Parse_error e -> fail "%s: JSON parse error: %s" path e
  | exception Sys_error e -> fail "%s" e

(* A numeric field of a JSON row; nan when absent. *)
let field row name =
  match Obs.Json.member name row with
  | Some (Obs.Json.Int i) -> float_of_int i
  | Some (Obs.Json.Float f) -> f
  | _ -> nan

let str_field row name =
  match Obs.Json.member name row with
  | Some (Obs.Json.Str s) -> Some s
  | _ -> None

let usage () =
  prerr_string
    "usage: orc_top [--once] [--interval=S] [FILE]\n\
    \       orc_top --demo [--seconds=N] [--interval=S]\n";
  exit 2

(* [Some v] when [a] is [prefix] followed by a number; a [prefix] with
   anything else after it is a usage error. *)
let number prefix a =
  if not (String.starts_with ~prefix a) then None
  else
    let n = String.length prefix in
    match float_of_string_opt (String.sub a n (String.length a - n)) with
    | Some v -> Some v
    | None -> usage ()

type args = {
  demo : bool;
  once : bool;
  interval : float;
  seconds : float option;
  files : string list;
}

let parse_args argv =
  let add acc a =
    match (a, number "--interval=" a, number "--seconds=" a) with
    | "--demo", _, _ -> { acc with demo = true }
    | "--once", _, _ -> { acc with once = true }
    | _, Some v, _ -> { acc with interval = v }
    | _, _, Some v -> { acc with seconds = Some v }
    | _ when String.starts_with ~prefix:"-" a -> usage ()
    | _ -> { acc with files = a :: acc.files }
  in
  let args =
    Array.fold_left add
      { demo = false; once = false; interval = 1.0; seconds = None; files = [] }
      (Array.sub argv 1 (Array.length argv - 1))
  in
  match args with
  | { demo = true; once = false; files = []; _ } -> args
  | { demo = false; seconds = None; files = [] | [ _ ]; _ } -> args
  | _ -> usage ()

(* ------------------------------------------------------------------ *)
(* Rendering *)

type row = {
  r_name : string;
  r_labels : string;
  r_kind : string;
  r_last : int;
  r_hwm : int;
  r_points : int array;
}

let spark_chars = [| "\xe2\x96\x81"; "\xe2\x96\x82"; "\xe2\x96\x83";
                     "\xe2\x96\x84"; "\xe2\x96\x85"; "\xe2\x96\x86";
                     "\xe2\x96\x87"; "\xe2\x96\x88" |]

let sparkline ?(width = 32) pts =
  let n = Array.length pts in
  let pts = if n > width then Array.sub pts (n - width) width else pts in
  let mx = Array.fold_left max 1 pts in
  String.concat ""
    (Array.to_list
       (Array.map
          (fun v ->
            let i = v * (Array.length spark_chars - 1) / mx in
            spark_chars.(max 0 (min (Array.length spark_chars - 1) i)))
          pts))

let print_row r =
  Printf.printf "%-30s %-24s %-7s %10d %10d  %s\n" r.r_name r.r_labels
    r.r_kind r.r_last r.r_hwm (sparkline r.r_points)

let render ~clear ~title rows =
  if clear then print_string "\027[2J\027[H";
  Printf.printf "orc_top — %s\n" title;
  Printf.printf "%-30s %-24s %-7s %10s %10s  %s\n" "series" "labels" "kind"
    "last" "hwm" "recent";
  List.iter print_row rows;
  flush stdout

let labels_string kvs =
  String.concat "," (List.map (fun (k, v) -> k ^ "=" ^ v) kvs)

(* ------------------------------------------------------------------ *)
(* File mode: rows out of the BENCH_orc.json metrics section *)

let rows_of_file path =
  let doc = load path in
  let m =
    match Obs.Json.member "metrics" doc with
    | Some m -> m
    | None -> fail "%s: no metrics section" path
  in
  let series =
    match Obs.Json.member "series" m with
    | Some (Obs.Json.List ss) -> ss
    | Some _ | None -> fail "%s: metrics.series missing or not a list" path
  in
  List.map
    (fun s ->
      let labels =
        match Obs.Json.member "labels" s with
        | Some (Obs.Json.Obj kvs) ->
            labels_string
              (List.filter_map
                 (fun (k, v) ->
                   match v with Obs.Json.Str v -> Some (k, v) | _ -> None)
                 kvs)
        | _ -> ""
      in
      let points =
        match Obs.Json.member "points" s with
        | Some (Obs.Json.List pts) ->
            Array.of_list
              (List.filter_map
                 (fun p ->
                   match p with
                   | Obs.Json.List [ _; Obs.Json.Int v ] -> Some v
                   | _ -> None)
                 pts)
        | _ -> [||]
      in
      {
        r_name = Option.value ~default:"?" (str_field s "name");
        r_labels = labels;
        r_kind = Option.value ~default:"?" (str_field s "kind");
        r_last = int_of_float (field s "last");
        r_hwm = int_of_float (field s "hwm");
        r_points = points;
      })
    series

let file_mode path ~once ~interval =
  let show () = render ~clear:(not once) ~title:path (rows_of_file path) in
  show ();
  if not once then begin
    let mtime () = try (Unix.stat path).Unix.st_mtime with _ -> 0. in
    let last = ref (mtime ()) in
    while true do
      Unix.sleepf interval;
      let m = mtime () in
      if m <> !last then begin
        last := m;
        show ()
      end
    done
  end

(* ------------------------------------------------------------------ *)
(* Demo mode: live in-process plane *)

type dnode = { d_hdr : Memdom.Hdr.t }

module DN = struct
  type t = dnode

  let hdr n = n.d_hdr
end

module Ebr = Reclaim.Ebr.Make (DN)

let rows_of_registry reg =
  List.map
    (fun (s : Obs.Metrics.series) ->
      {
        r_name = s.Obs.Metrics.name;
        r_labels = labels_string s.labels;
        r_kind = (if s.is_counter then "counter" else "gauge");
        r_last = s.last;
        r_hwm = s.hwm;
        r_points = Array.map snd s.points;
      })
    (Obs.Metrics.series reg)

let demo_mode ~seconds ~interval =
  let alloc = Memdom.Alloc.create "orc-top-demo" in
  let s = Ebr.create ~max_hps:4 alloc in
  (* the background domain samples the plane and neutralizes the
     staller below, so the neutralization totals move during the demo
     alongside the per-scheme series *)
  let domain =
    Reclaim.Reclaimer.start ~interval:(interval /. 4.) ~stall_age:4
      ~neutralize:true ()
  in
  let stop = Atomic.make false in
  let churner () =
    Atomicx.Registry.with_tid @@ fun tid ->
    while not (Atomic.get stop) do
      (try
         Ebr.begin_op s ~tid;
         for _ = 1 to 64 do
           Ebr.retire s ~tid { d_hdr = Memdom.Alloc.hdr alloc () }
         done;
         Ebr.end_op s ~tid
       with Reclaim.Neutralize.Neutralized _ -> ());
      Unix.sleepf 0.002
    done
  in
  (* a deliberate staller: parks inside a guard long enough for the
     stall-age gauge (orcgc_stall_age_max) to climb and the background
     domain to expire the guard — which unpins the epoch its announcement held
     back — then goes again *)
  let staller () =
    Atomicx.Registry.with_tid @@ fun tid ->
    while not (Atomic.get stop) do
      Ebr.begin_op s ~tid;
      Unix.sleepf (interval *. 2.);
      (* EBR's brackets acknowledge a neutralization silently *)
      Ebr.end_op s ~tid;
      Unix.sleepf (interval /. 2.)
    done
  in
  let d = Domain.spawn churner in
  let st = Domain.spawn staller in
  let deadline = Unix.gettimeofday () +. seconds in
  while Unix.gettimeofday () < deadline do
    Unix.sleepf interval;
    render ~clear:true
      ~title:
        (Printf.sprintf "demo (ebr churn + staller + neutralizer), %d ticks"
           (Reclaim.Reclaimer.ticks domain))
      (rows_of_registry Obs.Metrics.default)
  done;
  Atomic.set stop true;
  Domain.join d;
  Domain.join st;
  Reclaim.Reclaimer.stop domain;
  Ebr.flush s;
  render ~clear:false ~title:"demo final"
    (rows_of_registry Obs.Metrics.default)

let () =
  let a = parse_args Sys.argv in
  if a.demo then
    demo_mode ~seconds:(Option.value a.seconds ~default:5.0) ~interval:a.interval
  else
    let path = match a.files with [ f ] -> f | _ -> "BENCH_orc.json" in
    file_mode path ~once:a.once ~interval:a.interval
