(** The one matrix of structure × scheme instantiations.

    Every algorithm in this library is written once as an [Impl] over
    {!Intf.CORE} (the paper's §4.1.1 method); this module applies each
    algorithm to each scheme it is run under, once, and names the
    result.  The figures ([Harness.Experiments]), the soak
    ([bin/soak.exe]), the split-map chaos battery and the bench take
    their structures from here by name.  The test batteries keep their
    own instantiations, which reach whitebox entry points that these
    signatures hide.

    A name is [<algorithm>-<scheme>], the scheme being a manual one
    (hp, ptb, ebr, he, ibr, ptp, leak) or an automatic core ("orc" over
    pass-the-pointer, "orc-hp" over hazard pointers).  The two [leak]
    entries never reclaim; every other entry frees all it allocated
    after [destroy] and [flush]. *)

type queue = (module Intf.QUEUE with type item = int)
type set = (module Intf.SET)
type map = (module Orc_split_map.MAP)

val queues : (string * queue) list
(** [ms-{hp,ptb,ebr,he,ibr,ptp,leak,orc,orc-hp}],
    [lcrq-{hp,ptp,ebr,orc,orc-hp}], [kp-orc(-hp)], [turn-orc(-hp)]. *)

val sets : (string * set) list
(** [michael-{hp,ptb,ebr,he,ibr,ptp,leak,orc}],
    [{harris,hs,tbkp}-orc(-hp)], [nmtree-{hp,he,ebr,ibr,ptp,orc,orc-hp}],
    [{hs,crf}-skip-orc(-hp)]. *)

val maps : (string * map) list
(** [splitmap-{hp,ebr,ptp,orc,orc-hp}]. *)

val queue : string -> queue

val set : string -> set
(** A set or a map (every map is a set). *)

val map : string -> map
(** Look an entry up by name; raise [Invalid_argument] if the group has
    no such entry. *)

module Hs_skip_orc : Skiplist_base.S
module Crf_skip_orc : Skiplist_base.S
(** The [hs-skip-orc] and [crf-skip-orc] entries with the skip-list
    probe surface (core and level-0 anchor) that the §5 pinned-reader
    experiment needs. *)
