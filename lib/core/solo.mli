(** Goal predicates for {!Sim.Run.solo_search}, the effective form of
    nondeterministic solo termination (Section 2). *)

open Sim

(** Goal predicate: poised at a nontrivial operation on an object outside
    [inside] — Lemma 3.4's "until decided or poised at an object in
    V-bar". *)
val poised_outside : int list -> 'a Config.t -> int -> bool

(** Goal predicate: poised at any nontrivial operation — cuts a solo
    execution at its first write (Lemma 3.2). *)
val poised_anywhere : 'a Config.t -> int -> bool
