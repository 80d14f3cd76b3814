(** Lemma 3.6 / Theorem 3.7, as a program: the adversary for arbitrary
    (not necessarily identical) processes over historyless objects.  No
    cloning: interruptible executions and excess capacity throughout.  Its
    solo searches are {!Combine.solo_search}, the identical attack's. *)

open Sim

type outcome = {
  trace : int Trace.t;
  config : int Config.t;
  verdict : Checker.verdict;
  inputs : int list;
  processes_used : int;
  registers : int;
  pieces_alpha : int;
  pieces_beta : int;
}

type error =
  | Side_decides_wrong of { side : int; got : int }
  | Unsupported_processes of int
      (** the protocol cannot be instantiated with the process count the
          construction needs *)
  | Objects_grow of { probed : int; objects : int; processes : int }
      (** the protocol uses [probed] objects at 2 processes, from which the
          construction sized [processes], but [objects] at [processes]:
          the object count grows with n, so the bound 3r^2 + r <= n holds
          at no process count *)
  | Construction_failed of string
  | Budget_exhausted of Robust.Budget.reason
      (** the governed construction was cut short: no witness {e and} no
          evidence of robustness — an explicitly unknown outcome *)

val error_to_string : error -> string

(** The paper's 3r^2 + r plus the slack the executable construction needs
    at its final level (see DESIGN.md). *)
val default_processes : int -> int

(** [?budget] governs every solo search of the construction (via
    {!Combine.governed}); a trip surfaces as
    [Error (Budget_exhausted reason)] instead of an exception. *)
val run :
  ?budget:Robust.Budget.t ->
  ?processes:int ->
  Consensus.Protocol.t ->
  (outcome, error) result

val succeeded : outcome -> bool

(** Smallest (even) process count at which the attack lands, searched
    upward.  With [?pool], candidate counts are evaluated in parallel
    batches; the result is identical to the sequential scan. *)
val minimum_processes :
  ?pool:Par.Pool.t ->
  ?start:int ->
  ?limit:int ->
  Consensus.Protocol.t ->
  int option
