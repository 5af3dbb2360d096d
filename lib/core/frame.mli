(** Per-tid guard and handle storage: the one implementation under
    OrcGC's automatic layer ({!Orc.Make_gen}) and the manual-scheme
    core ([Ds.Manual_core]).

    A handle holds two immediates, the link view it read and its hazard
    index, plus a constant back-pointer to its structure's arena, so no
    handle write is a [caml_modify]; its node is decoded from the view
    through the arena, which is safe while the handle's hazard slot
    pins the target.  Each tid has one frame per structure instance, allocated
    by that tid on its first guard: a growable array of handle records,
    the number in use, and one preallocated guard record per nesting
    level.  Guards nest: a guard owns the handles from its [base] to
    the next level's, and leaving it returns exactly those.  Nothing
    here allocates once a frame has grown to its tid's deepest nesting
    and largest handle count.  Owner-thread only. *)

type 'n handle = {
  arena : 'n Atomicx.Link.arena;
  mutable v : 'n Atomicx.Link.view;
  mutable idx : int;  (** hazard index *)
}

type ('c, 'n) t = private {
  mutable handles : 'n handle array;
  mutable top : int;  (** handles in use, over every open guard *)
  mutable guards : ('c, 'n) guard array;
  mutable depth : int;  (** guards open *)
}

and ('c, 'n) guard = private {
  core : 'c;  (** the structure instance *)
  tid : int;
  frame : ('c, 'n) t;
  level : int;  (** this guard's index in [frame.guards] *)
  mutable gen : int;
      (** registry generation at entry ({!Orc.Make_gen}'s neutralization
          check) *)
  mutable base : int;  (** the guard's first handle *)
}

val enter :
  ('c, 'n) t option array ->
  core:'c ->
  arena:'n Atomicx.Link.arena ->
  handles:int ->
  tid:int ->
  gen:int ->
  ('c, 'n) guard
(** Open the next guard of [tid]'s frame in [frames], first allocating
    the frame (with [handles] records, record [i] at hazard index [i])
    when [frames.(tid)] is [None]. *)

val handle : ('c, 'n) guard -> 'n handle
(** The frame's next handle record for [guard], reset to null; its
    [idx] is whatever the record last held.  Raises [Invalid_argument]
    unless [guard] is its tid's innermost open guard. *)

val run :
  ('c, 'n) guard ->
  (('c, 'n) guard -> unit) ->
  (('c, 'n) guard -> 'a -> 'b -> 'r) ->
  'a ->
  'b ->
  'r
(** [run g leave f a b] is [f g a b], then [leave g] on the normal and
    the exceptional path alike; an exception is re-raised with its
    backtrace.  [leave] must end with {!close}.  With a closed [f] and
    a closed [leave], nothing is allocated. *)

val close : ('c, 'n) guard -> unit
(** Return the guard's handles to the frame and close its level. *)
