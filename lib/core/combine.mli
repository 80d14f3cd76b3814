(** Lemma 3.1, as a program: from a configuration and two sides (poised
    writer sets with solo-continuation witnesses deciding different
    values), grow an execution in the builder that decides both.  See the
    implementation header for the case analysis.

    It also holds what both lower-bound constructions ({!Attack} and
    {!General_attack}) share: the one solo search ({!solo_search}) and the
    one budget and error boundary ({!governed}). *)

(** Raised when a construction step cannot proceed (replay divergence,
    malformed sides, no solo witness); {!governed} turns it into an error
    result. *)
exception Attack_failed of string

val fail : ('a, unit, string, 'b) format4 -> 'a

(** [governed budget f] runs a construction [f] with a fresh domain-local
    {!Robust.Budget.Meter} (created from [budget] unless it is [None] or
    unlimited) that every {!solo_search} inside [f] ticks.  A trip comes
    back as [Error (`Exhausted reason)]; {!Attack_failed}, and a replay
    that steps an already-decided process ({!Sim.Run.Step_disabled}), as
    [Error (`Failed msg)].  The previous meter is restored on exit, so
    governed constructions nest. *)
val governed :
  Robust.Budget.t option ->
  (unit -> 'a) ->
  ('a, [ `Failed of string | `Exhausted of Robust.Budget.reason ]) result

(** The one solo-termination search of both constructions:
    {!Sim.Run.solo_search} bounded at 5,000 steps per path and 500,000
    nodes, metered by the enclosing {!governed} call (none outside one). *)
val solo_search :
  ?stop:(int Sim.Config.t -> int -> bool) ->
  ?rng:Sim.Rng.t ->
  int Sim.Config.t ->
  pid:int ->
  int Sim.Run.solo option

(** What a failed {!solo_search} saw, for its error message: the bound
    it searched to and the configuration's process count. *)
val solo_bound : procs:int -> string

val combine : Builder.t -> Side.t -> Side.t -> unit
