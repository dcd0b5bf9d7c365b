(** Sparse vector clocks.

    Slots are dense non-negative integers: {!Clock_engine} gives one to
    each asynchronous-task instance, {!Streaming_engine} one to each
    chain of tasks ordered one after another on a thread, and both one
    to each thread segment outside any task.  Missing entries read as
    0.

    A clock is an immutable sorted flat [int array] of (slot, time)
    pairs plus one {e owner} pair kept outside it: the slot ticked
    last, which in the engines is the executing context's own slot.
    With [n] entries:
    - {!tick} of the owner is O(1) and allocates one small record, the
      array is shared; ticking another slot makes it the owner, one
      O(n) copy;
    - {!get} is O(1) on the owner and a binary search otherwise;
    - {!merge} is one linear pass that returns an argument unchanged
      when it already dominates the other, and a second pass that
      writes the join otherwise;
    - {!leq} is one linear pass, {!cardinal} is O(1).

    Clocks stay persistent: no operation mutates its arguments, so a
    clock published into a table (a lock, a post, a completed task's
    end) may be aliased freely. *)

type t

val empty : t

val get : t -> int -> int

val set : t -> int -> int -> t

val tick : t -> int -> t
(** Increments the slot by one and makes it the owner. *)

val merge : t -> t -> t
(** Pointwise maximum. *)

val leq : t -> t -> bool
(** Pointwise comparison: [leq a b] iff every slot of [a] is ≤ in [b]. *)

val cardinal : t -> int

val retain : (int -> bool) -> t -> t
(** [retain keep t] drops every slot [keep] rejects, the owner's
    included.  Sound only when the dropped slots can never again be the
    subject of a {!get} — the streaming engine's retired-slot sweep
    establishes exactly that. *)

val pp : Format.formatter -> t -> unit
