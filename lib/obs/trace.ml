(* Chrome trace-event JSON (the format Perfetto and chrome://tracing
   load): a top-level object with a "traceEvents" list whose entries
   carry name/ph/ts(+dur)/pid/tid.  Guard_begin/Guard_end become "B"/"E"
   duration events; everything else becomes an instant event ("i",
   thread-scoped) with the object uid in args.  Timestamps are
   microseconds (floats), the unit the format mandates. *)

let us_of_ns ns = float_of_int ns /. 1e3

let instant_name kind = Event.name kind

let event_json ~pid (e : Event.t) =
  let base =
    [
      ("pid", Json.Int pid);
      ("tid", Json.Int e.tid);
      ("ts", Json.Float (us_of_ns e.ts));
    ]
  in
  match e.kind with
  | Event.Guard_begin ->
      Json.Obj (("name", Json.Str "guard") :: ("ph", Json.Str "B") :: base)
  | Event.Guard_end ->
      Json.Obj (("name", Json.Str "guard") :: ("ph", Json.Str "E") :: base)
  | kind ->
      Json.Obj
        (("name", Json.Str (instant_name kind))
        :: ("ph", Json.Str "i")
        :: ("s", Json.Str "t")
        :: base
        @ [
            ( "args",
              Json.Obj [ ("uid", Json.Int e.uid); ("arg", Json.Int e.arg) ] );
          ])

let meta_json ~pid ~name ~value field =
  Json.Obj
    [
      ("name", Json.Str name);
      ("ph", Json.Str "M");
      ("pid", Json.Int pid);
      ("tid", Json.Int 0);
      ("args", Json.Obj [ (field, Json.Str value) ]);
    ]

(* One process per sink.  Ring wraparound can orphan guard events — a
   Guard_begin overwritten while its Guard_end survives, or a trace cut
   mid-guard — so the exporter repairs pairing per thread: an "E" at
   depth 0 is dropped, and unterminated "B"s get synthetic closing "E"s
   at that thread's last timestamp.  The emitted file therefore always
   satisfies [validate]. *)
let events_of_sink ~pid ?process_name sink =
  let out = ref [] in
  (match process_name with
  | Some name ->
      out := [ meta_json ~pid ~name:"process_name" ~value:name "name" ]
  | None -> ());
  List.iter
    (fun evs ->
      let depth = ref 0 in
      let last_ts = ref 0 in
      Array.iter
        (fun (e : Event.t) ->
          last_ts := e.ts;
          match e.kind with
          | Event.Guard_begin ->
              incr depth;
              out := event_json ~pid e :: !out
          | Event.Guard_end ->
              if !depth > 0 then begin
                decr depth;
                out := event_json ~pid e :: !out
              end
          | _ -> out := event_json ~pid e :: !out)
        evs;
      (match evs with
      | [||] -> ()
      | evs ->
          let tid = evs.(0).Event.tid in
          for _ = 1 to !depth do
            out :=
              event_json ~pid
                {
                  Event.seq = 0;
                  ts = !last_ts;
                  tid;
                  kind = Event.Guard_end;
                  uid = 0;
                  arg = 0;
                }
              :: !out
          done))
    (Sink.events sink);
  List.rev !out

let wrap events =
  Json.Obj
    [ ("traceEvents", Json.List events); ("displayTimeUnit", Json.Str "ns") ]

let to_json ?(pid = 1) ?process_name sink =
  wrap (events_of_sink ~pid ?process_name sink)

let combined sinks =
  wrap
    (List.concat
       (List.mapi
          (fun i (name, sink) ->
            events_of_sink ~pid:(i + 1) ~process_name:name sink)
          sinks))

let to_file ?pid ?process_name path sink =
  Json.to_file path (to_json ?pid ?process_name sink)

(* {2 Validation} — structural well-formedness plus guard pairing, used
   by the bench's tracing guard and the test suite. *)

let validate json =
  let ( let* ) r f = match r with Ok v -> f v | Error _ as e -> e in
  let* events =
    match Json.member "traceEvents" json with
    | Some (Json.List evs) -> Ok evs
    | Some _ -> Error "traceEvents is not a list"
    | None -> Error "missing traceEvents"
  in
  let depths : (int * int, int) Hashtbl.t = Hashtbl.create 16 in
  let check_event i ev =
    let field name =
      match Json.member name ev with
      | Some v -> Ok v
      | None -> Error (Printf.sprintf "event %d: missing %s" i name)
    in
    let* name = field "name" in
    let* ph = field "ph" in
    let* pid = field "pid" in
    let* tid = field "tid" in
    let* ph =
      match ph with
      | Json.Str s -> Ok s
      | _ -> Error (Printf.sprintf "event %d: ph is not a string" i)
    in
    (* metadata events carry no timestamp in the Chrome format *)
    let* _ts = if ph = "M" then Ok Json.Null else field "ts" in
    let* key =
      match (pid, tid) with
      | Json.Int p, Json.Int t -> Ok (p, t)
      | _ -> Error (Printf.sprintf "event %d: pid/tid not ints" i)
    in
    match ph with
    | "B" ->
        Hashtbl.replace depths key
          (1 + Option.value ~default:0 (Hashtbl.find_opt depths key));
        Ok ()
    | "E" ->
        let d = Option.value ~default:0 (Hashtbl.find_opt depths key) in
        if d <= 0 then
          Error
            (Printf.sprintf
               "event %d: guard_end without matching guard_begin (pid=%d \
                tid=%d)"
               i (fst key) (snd key))
        else begin
          Hashtbl.replace depths key (d - 1);
          Ok ()
        end
    | "i" | "I" | "M" | "X" -> Ok ()
    | _ ->
        Error
          (Printf.sprintf "event %d (%s): unsupported ph %S" i
             (Json.to_string name) ph)
  in
  let rec all i = function
    | [] -> Ok ()
    | ev :: rest ->
        let* () = check_event i ev in
        all (i + 1) rest
  in
  let* () = all 0 events in
  Hashtbl.fold
    (fun (pid, tid) d acc ->
      match acc with
      | Error _ as e -> e
      | Ok () ->
          if d = 0 then Ok ()
          else
            Error
              (Printf.sprintf
                 "%d unterminated guard_begin(s) (pid=%d tid=%d)" d pid tid))
    depths (Ok ())
