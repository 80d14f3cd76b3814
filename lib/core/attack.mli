(** Lemma 3.2 / Theorem 3.3, as a program: the adversary for
    identical-process consensus protocols over read-write registers.
    Given such a protocol (with nondeterministic solo termination), build
    a replayable execution deciding both 0 and 1.  Every solo search it
    makes, the two initial ones included, is {!Combine.solo_search} under
    the [?budget]'s meter. *)

open Sim

type outcome = {
  trace : int Trace.t;
  config : int Config.t;
  verdict : Checker.verdict;
  inputs : int list;  (** inputs of all processes, clones included *)
  processes_used : int;
  registers : int;
  genealogy : Builder.lineage list;  (** how each clone came to be *)
  nominal_n : int;
}

type error =
  | Not_identical
  | No_solo_termination of int
  | Solo_decides_wrong of { pid : int; expected : int; got : int }
  | Construction_failed of string
  | Budget_exhausted of Robust.Budget.reason
      (** the governed construction was cut short: no witness {e and} no
          evidence of robustness — an explicitly unknown outcome *)

val error_to_string : error -> string

(** With [rng], the two initial solo searches try coin outcomes in
    shuffled order (randomized restarts); a fixed generator is
    deterministic.  [?budget] governs every solo search (via
    {!Combine.governed}); a trip surfaces as
    [Error (Budget_exhausted reason)], as in {!General_attack.run}. *)
val run :
  ?budget:Robust.Budget.t ->
  ?nominal_n:int ->
  ?rng:Rng.t ->
  Consensus.Protocol.t ->
  (outcome, error) result

(** True iff the outcome's execution is genuinely inconsistent. *)
val succeeded : outcome -> bool

(** [seed_sweep ?pool ~seeds p] runs the attack once per seed — each seed
    randomizes the solo witness search — across the pool's domains, each
    run under its own meter of [?budget].  Results are in [seeds] order
    and bit-identical for any [?pool] (budget trips excepted: deadlines
    and cancellation are best-effort). *)
val seed_sweep :
  ?pool:Par.Pool.t ->
  ?budget:Robust.Budget.t ->
  ?nominal_n:int ->
  seeds:int list ->
  Consensus.Protocol.t ->
  (int * (outcome, error) result) list

(** Shortest successful witness of a sweep (ties: earliest seed in sweep
    order). *)
val best_witness :
  (int * (outcome, error) result) list -> (int * outcome) option

(** Realize the attack's execution from a fresh start: all processes
    (clones included) present from the initial configuration, each clone
    shadowing its origin lock-step up to its snapshot point, then the
    attack's schedule verbatim.  Returns the full certified trace and its
    verdict, or an explanation — notably when a shadow's response diverges
    from its origin's, which happens exactly when the object type leaks
    history through responses (why Section 3.1 is stated for read-write
    registers). *)
val certify :
  Consensus.Protocol.t ->
  outcome ->
  (int Trace.t * Checker.verdict, string) result
