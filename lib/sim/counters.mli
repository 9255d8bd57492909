(** Named event counters in scopes.

    A {e registry} is the schema: the list of counter names a subsystem
    declares once, at module initialisation.  A {e scope} holds one
    integer per counter of its registry — one per module instance, one
    per queue of a channel, and so on.  A scope created with a [parent]
    rolls up into it: every {!add} to the child also adds to the parent
    (and on up the chain), so a call site bumps once and the aggregate
    never needs a second increment.  The parent keeps what its children
    counted after they are dropped.

    {[
      let reg = Counters.registry "xenloop"
      let desc_tx = Counters.counter reg "desc_tx"
      ...
      Counters.bump queue_scope desc_tx   (* queue and module both count it *)
    ]}

    {!bump} and {!add} are O(1) per scope level and allocate nothing. *)

type registry

type counter = private int
(** A counter's slot in its registry. *)

val registry : string -> registry

val counter : registry -> string -> counter
(** Declare a counter.
    @raise Invalid_argument if the name is already declared or the
    registry already has scopes (a scope's width is fixed at creation). *)

type scope

val scope : ?parent:scope -> registry -> scope
(** A fresh all-zero scope.
    @raise Invalid_argument if [parent] belongs to another registry. *)

val bump : scope -> counter -> unit
val add : scope -> counter -> int -> unit

val get : scope -> counter -> int

(** {1 Snapshots} *)

type snapshot = (string * int) list
(** Every counter of the registry, in declaration order. *)

val snapshot : scope -> snapshot

val diff : snapshot -> snapshot -> snapshot
(** [diff after before], counter by counter.
    @raise Invalid_argument when the two list different counters. *)

val sum : snapshot list -> snapshot
(** Counter-by-counter sum; [[]] for no snapshots.
    @raise Invalid_argument when they list different counters. *)

val value : snapshot -> string -> int
(** @raise Invalid_argument naming the counter when it is not there. *)

val json_members : snapshot -> (string * Json.t) list
(** One numeric JSON member per counter, for splicing into an object. *)
