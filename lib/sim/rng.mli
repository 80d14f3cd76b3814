(** SplitMix64: a small, fast pseudorandom generator implemented in-repo so
    every measurement is reproducible from a seed independent of the OCaml
    stdlib. *)

type t

val create : int -> t
val copy : t -> t
val next_int64 : t -> int64

(** Uniform in [0, bound).  Raises [Invalid_argument] if [bound <= 0]. *)
val int : t -> int -> int

val bool : t -> bool

(** Uniform in [0, 1). *)
val float : t -> float

(** Derive an independent generator. *)
val split : t -> t

(** [nth_split t k] is the generator the [(k+1)]-th split of [t] would
    return after [k] earlier ones — equal to the last of [split_n t
    (k + 1)] — derived in O(1) from [t]'s state, which it leaves
    unchanged.  SplitMix64 is counter-based, so stream [k] needs no
    other stream: a parallel harness can derive task [k]'s generator
    only when task [k] needs one.  Raises [Invalid_argument] on a
    negative [k]. *)
val nth_split : t -> int -> t

(** [split_n t n] derives [n] independent generators by [n] sequential
    splits of [t].  Generator [i] depends only on [t]'s state and [i], so a
    parallel harness can hand stream [i] to task [i] and get bit-identical
    results regardless of domain count or scheduling.  Raises
    [Invalid_argument] on a negative count. *)
val split_n : t -> int -> t array

(** Fisher–Yates shuffle, in place. *)
val shuffle : t -> 'a array -> unit
