(** The handover plane under every pass-the-pointer scheme: PTP
    (Algorithm 2), PTB's handoff slots and OrcGC's PTP backend
    (Algorithm 5's [tryHandover]).  The counterpart of {!Batch}.

    Per registry slot it owns a row of handover slots, one paired with
    each hazard slot of the scheme.  A scheme brings its hazard walk
    and what to do with a node it takes out of the plane: every drain
    takes a [run] function and calls it once per node.

    Nodes must be heap blocks (records): an empty slot holds an
    immediate sentinel, so storing into or emptying a slot allocates
    nothing.  Every write to a slot is an [Atomic.exchange], so each
    node handed in leaves the plane exactly once: as the evictee of a
    later {!hand}, or through one {!take} — concurrent drainers of one
    slot cannot both get it. *)

type 'a t

val create : slots:int -> sink:Obs.Sink.t -> handovers:Atomicx.Shard.t -> 'a t
(** [slots] handover slots per registry slot, all empty.  [handovers]
    is the owner's counter, bumped by every {!hand}. *)

type ('s, 'a) run = 's -> tid:int -> 'a -> unit
(** What a drain does with each node it takes out of the plane, under
    the draining thread's [tid]; ['s] is the scheme's state. *)

external is_empty : 'a -> bool = "%obj_is_int"
(** [true] on the sentinel that {!hand} and {!take} return for an
    empty slot.  The sentinel is an immediate and a node a heap block,
    so the test is one primitive, inlined at every call site. *)

val hand : 'a t -> tid:int -> row:int -> idx:int -> uid:int -> 'a -> 'a
(** [hand h ~tid ~row ~idx ~uid x] exchanges [x] (whose header uid is
    [uid]) into slot [idx] of [row] and returns the evictee, or the
    sentinel if the slot was empty.  Counts one handover and emits the
    sink event. *)

val take : 'a t -> row:int -> idx:int -> 'a
(** Empty slot [idx] of [row]: a plain read, then an exchange only if
    the slot is occupied.  Returns the node taken, or the sentinel. *)

val adopt_row : 'a t -> 's -> row:int -> tid:int -> run:('s, 'a) run -> unit
(** {!take} every slot of [row], calling [run s ~tid] on each node. *)

val flush : 'a t -> 's -> tid:int -> run:('s, 'a) run -> unit
(** The quiesced drain, under [tid]: {!adopt_row} every registered
    row, once.  A node [run] hands back to the plane is still
    protected, so another pass would only park it again. *)

val find_in_row : int Atomic.t array -> int -> int -> int -> int
(** [find_in_row hp wm uid idx]: the first slot of hazard row [hp] at
    or above [idx] and below [wm] publishing [uid], or -1.  A top-level
    loop, so a hazard scan allocates nothing. *)
