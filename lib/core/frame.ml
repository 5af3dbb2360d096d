(* See the mli. *)

open Atomicx

type 'n handle = {
  arena : 'n Link.arena;
  mutable v : 'n Link.view;
  mutable idx : int;
}

type ('c, 'n) t = {
  mutable handles : 'n handle array;
  mutable top : int;
  mutable guards : ('c, 'n) guard array;
  mutable depth : int;
}

and ('c, 'n) guard = {
  core : 'c;
  tid : int;
  frame : ('c, 'n) t;
  level : int;
  mutable gen : int;
  mutable base : int;
}

(* Both arrays double when full, from the owner; the records they
   already held keep their identity. *)
let grow_guards fr ~core ~tid =
  let n = Array.length fr.guards in
  fr.guards <-
    Array.init (max 4 (2 * n)) (fun level ->
        if level < n then fr.guards.(level)
        else { core; tid; frame = fr; level; gen = 0; base = 0 })

let grow_handles fr =
  let n = Array.length fr.handles in
  let arena = fr.handles.(0).arena in
  fr.handles <-
    Array.init (2 * n) (fun idx ->
        if idx < n then fr.handles.(idx) else { arena; v = Link.v_null; idx })

let create ~core ~arena ~handles ~tid =
  let fr =
    {
      handles =
        Array.init (max 1 handles) (fun idx -> { arena; v = Link.v_null; idx });
      top = 0;
      guards = [||];
      depth = 0;
    }
  in
  grow_guards fr ~core ~tid;
  fr

let enter frames ~core ~arena ~handles ~tid ~gen =
  let fr =
    match frames.(tid) with
    | Some fr -> fr
    | None ->
        let fr = create ~core ~arena ~handles ~tid in
        frames.(tid) <- Some fr;
        fr
  in
  if fr.depth = Array.length fr.guards then grow_guards fr ~core ~tid;
  let g = fr.guards.(fr.depth) in
  g.gen <- gen;
  g.base <- fr.top;
  fr.depth <- fr.depth + 1;
  g

let handle g =
  let fr = g.frame in
  if fr.depth <> g.level + 1 then
    invalid_arg "Frame.handle: the guard is not the innermost open guard";
  if fr.top = Array.length fr.handles then grow_handles fr;
  let p = fr.handles.(fr.top) in
  fr.top <- fr.top + 1;
  p.v <- Link.v_null;
  p

let close g =
  g.frame.top <- g.base;
  g.frame.depth <- g.level

let run g leave f a b =
  match f g a b with
  | r ->
      leave g;
      r
  | exception e ->
      let bt = Printexc.get_raw_backtrace () in
      leave g;
      Printexc.raise_with_backtrace e bt
