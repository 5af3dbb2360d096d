open Atomicx

(* A registry entry is one *source* of a series: a sharded counter, a
   set-style gauge, or a weakly-held probe closure.  Several entries may
   share a (name, labels) identity — every scheme instance registers its
   own probes — and {!sample} aggregates them by summing the live
   sources, so the exported series describe the process, not one
   instance. *)

type gauge = { g_v : int Atomic.t; g_hwm : int Atomic.t }

type source =
  | Counter of Shard.t
  | Gauge of gauge
  | Probe of (unit -> int) Weak.t

type entry = {
  e_name : string;
  e_labels : (string * string) list;
  e_source : source;
  e_counter : bool;  (* exported TYPE: counter vs gauge *)
}

(* Aggregated series, written only by {!sample} (the background domain);
   concurrent readers get a diagnostics-grade view. *)
type serie = {
  s_name : string;
  s_labels : (string * string) list;
  s_counter : bool;  (* any contributing source is a Counter *)
  ticks : int array;  (* ring, capacity = history *)
  values : int array;
  mutable s_n : int;  (* total samples ever taken *)
  mutable s_last : int;
  mutable s_hwm : int;  (* monotone max of sampled aggregates *)
}

type t = {
  lock : Mutex.t;
  history : int;
  mutable entries : entry list;
  mutable storage : serie list;  (* find-or-create at sample time *)
}

let create ?(history = 240) () =
  let history = max 1 history in
  { lock = Mutex.create (); history; entries = []; storage = [] }

let default = create ()

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let same_identity name labels e =
  String.equal e.e_name name && e.e_labels = labels

(* Counters and gauges deduplicate: asking twice for the same identity
   returns the same handle, so independent call sites accumulate into
   one series.  Probes never deduplicate — each registration is a
   distinct source and sampling sums them. *)
let counter t ?(labels = []) name =
  locked t (fun () ->
      let existing =
        List.find_opt
          (fun e ->
            same_identity name labels e
            && match e.e_source with Counter _ -> true | _ -> false)
          t.entries
      in
      match existing with
      | Some { e_source = Counter s; _ } -> s
      | _ ->
          let s = Shard.create () in
          t.entries <-
            {
              e_name = name;
              e_labels = labels;
              e_source = Counter s;
              e_counter = true;
            }
            :: t.entries;
          s)

let gauge t ?(labels = []) name =
  locked t (fun () ->
      let existing =
        List.find_opt
          (fun e ->
            same_identity name labels e
            && match e.e_source with Gauge _ -> true | _ -> false)
          t.entries
      in
      match existing with
      | Some { e_source = Gauge g; _ } -> g
      | _ ->
          let g = { g_v = Atomic.make 0; g_hwm = Atomic.make 0 } in
          t.entries <-
            {
              e_name = name;
              e_labels = labels;
              e_source = Gauge g;
              e_counter = false;
            }
            :: t.entries;
          g)

(* Gauge updates are the hot path the acceptance gate measures: one
   store plus a CAS-max, no allocation (the payloads are immediate ints
   and [bump_hwm] is top-level, so no closure is built per call). *)
let rec bump_hwm hwm v =
  let cur = Atomic.get hwm in
  if v > cur && not (Atomic.compare_and_set hwm cur v) then bump_hwm hwm v

let set g v =
  Atomic.set g.g_v v;
  bump_hwm g.g_hwm v

let probe_alive e =
  match e.e_source with
  | Probe w -> Weak.check w 0
  | Counter _ | Gauge _ -> true

let probe t ?(labels = []) ?(counter = false) name f =
  let w = Weak.create 1 in
  Weak.set w 0 (Some f);
  locked t (fun () ->
      (* registration also prunes collected probes, so a process that
         builds many short-lived schemes without ever sampling does not
         accumulate dead entries *)
      t.entries <-
        { e_name = name; e_labels = labels; e_source = Probe w;
          e_counter = counter }
        :: List.filter probe_alive t.entries)

let read_source = function
  | Counter s -> Shard.get s
  | Gauge g -> Atomic.get g.g_v
  | Probe w -> (
      match Weak.get w 0 with
      | None -> 0
      | Some f -> ( try f () with _ -> 0))

let find_serie t name labels =
  List.find_opt
    (fun s -> String.equal s.s_name name && s.s_labels = labels)
    t.storage

let sample t ~tick =
  locked t (fun () ->
      (* drop sources whose probe closures were collected *)
      t.entries <- List.filter probe_alive t.entries;
      (* aggregate by identity: sum every live source *)
      let groups = Hashtbl.create 16 in
      let order = ref [] in
      List.iter
        (fun e ->
          let key = (e.e_name, e.e_labels) in
          let v = read_source e.e_source in
          let is_counter = e.e_counter in
          (* fold set-time gauge high-water marks in as well, so spikes
             between two samples still surface *)
          let set_hwm =
            match e.e_source with Gauge g -> Atomic.get g.g_hwm | _ -> 0
          in
          match Hashtbl.find_opt groups key with
          | None ->
              Hashtbl.add groups key (ref v, ref is_counter, ref set_hwm);
              order := key :: !order
          | Some (sum, ctr, hwm) ->
              sum := !sum + v;
              ctr := !ctr || is_counter;
              hwm := !hwm + set_hwm)
        t.entries;
      List.iter
        (fun (name, labels) ->
          let sum, ctr, set_hwm = Hashtbl.find groups (name, labels) in
          let s =
            match find_serie t name labels with
            | Some s -> s
            | None ->
                let s =
                  {
                    s_name = name;
                    s_labels = labels;
                    s_counter = !ctr;
                    ticks = Array.make t.history 0;
                    values = Array.make t.history 0;
                    s_n = 0;
                    s_last = 0;
                    s_hwm = 0;
                  }
                in
                t.storage <- t.storage @ [ s ];
                s
          in
          let slot = s.s_n mod t.history in
          s.ticks.(slot) <- tick;
          s.values.(slot) <- !sum;
          s.s_n <- s.s_n + 1;
          s.s_last <- !sum;
          if !sum > s.s_hwm then s.s_hwm <- !sum;
          if !set_hwm > s.s_hwm then s.s_hwm <- !set_hwm)
        (List.rev !order))

type series = {
  name : string;
  labels : (string * string) list;
  is_counter : bool;
  last : int;
  hwm : int;
  points : (int * int) array;  (* (tick, value), chronological *)
}

let series_of t s =
  let kept = min s.s_n t.history in
  let points =
    Array.init kept (fun i ->
        (* oldest retained sample first *)
        let slot = (s.s_n - kept + i) mod t.history in
        (s.ticks.(slot), s.values.(slot)))
  in
  {
    name = s.s_name;
    labels = s.s_labels;
    is_counter = s.s_counter;
    last = s.s_last;
    hwm = s.s_hwm;
    points;
  }

let series t = locked t (fun () -> List.map (series_of t) t.storage)

let clear t =
  locked t (fun () ->
      t.entries <- [];
      t.storage <- [])

(* {2 Exposition} *)

let sanitize name =
  String.map
    (fun c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | ':' -> c
      | _ -> '_')
    name

let prom_labels labels =
  match labels with
  | [] -> ""
  | kvs ->
      let b = Buffer.create 32 in
      Buffer.add_char b '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char b ',';
          Buffer.add_string b (sanitize k);
          Buffer.add_string b "=\"";
          String.iter
            (fun c ->
              match c with
              | '"' -> Buffer.add_string b "\\\""
              | '\\' -> Buffer.add_string b "\\\\"
              | '\n' -> Buffer.add_string b "\\n"
              | c -> Buffer.add_char b c)
            v;
          Buffer.add_char b '"')
        kvs;
      Buffer.add_char b '}';
      Buffer.contents b

let to_prometheus t =
  let ss = series t in
  let b = Buffer.create 1024 in
  let typed = Hashtbl.create 16 in
  List.iter
    (fun s ->
      let name = sanitize s.name in
      if not (Hashtbl.mem typed name) then begin
        Hashtbl.add typed name ();
        Buffer.add_string b
          (Printf.sprintf "# TYPE %s %s\n" name
             (if s.is_counter then "counter" else "gauge"))
      end;
      Buffer.add_string b
        (Printf.sprintf "%s%s %d\n" name (prom_labels s.labels) s.last))
    ss;
  (* high-water marks as companion gauges *)
  List.iter
    (fun s ->
      let name = sanitize s.name ^ "_hwm" in
      if not (Hashtbl.mem typed name) then begin
        Hashtbl.add typed name ();
        Buffer.add_string b (Printf.sprintf "# TYPE %s gauge\n" name)
      end;
      Buffer.add_string b
        (Printf.sprintf "%s%s %d\n" name (prom_labels s.labels) s.hwm))
    ss;
  Buffer.contents b

let series_to_json s =
  Json.Obj
    [
      ("name", Json.Str s.name);
      ("labels", Json.Obj (List.map (fun (k, v) -> (k, Json.Str v)) s.labels));
      ("kind", Json.Str (if s.is_counter then "counter" else "gauge"));
      ("last", Json.Int s.last);
      ("hwm", Json.Int s.hwm);
      ( "points",
        Json.List
          (Array.to_list
             (Array.map
                (fun (tick, v) -> Json.List [ Json.Int tick; Json.Int v ])
                s.points)) );
    ]

let to_json t = Json.List (List.map series_to_json (series t))
