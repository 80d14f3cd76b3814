(** Interned process states and object values: closure-tree states are
    lazily forced into small dense ints — one id per distinct (root,
    consumed-history) pair — and every step thereafter is an int-keyed
    table lookup.  The representation {!Flat} configurations are built
    on; see the module comment in the implementation for the soundness
    argument (state id equality ⇔ consumed-history equality from equal
    roots; no hash is trusted). *)

type 'a t

type kind =
  | Apply  (** poised at a shared-memory operation *)
  | Choose  (** poised at an internal coin flip *)
  | Decided

exception Overflow
(** An id space outgrew the packed-key capacity ([2^25] ids); rebuild the
    table.  Long-lived callers avoid this by polling {!near_capacity}
    between runs. *)

exception Step_disabled
(** [apply]/[choose] on a decided state (mirrors [Run.Step_disabled]). *)

val create : optypes:Optype.t array -> 'a t
val of_config : 'a Config.t -> 'a t
(** Fresh table over the configuration's object types. *)

val n_states : 'a t -> int
val n_values : 'a t -> int

val near_capacity : 'a t -> bool
(** True once either id space passed half capacity: rebuild between runs. *)

val value_id : 'a t -> Value.t -> int
val value : 'a t -> int -> Value.t

val root_fresh : 'a t -> fp:Fingerprint.t -> 'a Proc.t -> int
(** Intern a root with a guaranteed-fresh id (never shared). *)

val kind : 'a t -> int -> kind
val arg : 'a t -> int -> int
(** [Apply]: the object index the state is poised at; [Choose]: the
    number of outcomes.  Unspecified for [Decided]. *)

val code : 'a t -> int -> int
(** Packed kind/arg in one unchecked load: [(arg t sid lsl 2) lor tag]
    with tag {!tag_apply} / {!tag_choose} / {!tag_decided}.  The inner
    DFS loops branch on this instead of {!kind} + {!arg}. *)

val tag_apply : int
val tag_choose : int
val tag_decided : int

val fp : 'a t -> int -> Fingerprint.t
(** The fingerprint [Run.step] would carry for this consumed history. *)

val is_decided : 'a t -> int -> bool
val decision : 'a t -> int -> 'a option
val proc : 'a t -> int -> 'a Proc.t
(** The forced closure behind a state id (diagnostics / trace rebuild). *)

val apply : 'a t -> sid:int -> vid:int -> int
(** One shared-memory step of an [Apply] state against object value id
    [vid]: the successor state id; the post-step object value id is left
    in {!last_vid}.  Memoized on (sid, vid). *)

val last_vid : 'a t -> int

val apply_packed : 'a t -> sid:int -> vid:int -> int
(** Allocation- and side-effect-free variant of {!apply}: the packed
    pair of post-step ids, split with {!vid_of} / {!sid_of}.  The inner
    loops use this form — the memo-hit path is straight-line code that
    inlines into the caller. *)

val vid_of : int -> int
val sid_of : int -> int

val choose : 'a t -> sid:int -> outcome:int -> int
(** Successor of a [Choose] state on a coin outcome (range-checked). *)
