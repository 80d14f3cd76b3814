(** Fuzzable scenarios: a uniform face over the three workload families
    the repo simulates — consensus (agreement/validity via
    {!Sim.Checker}), mutual exclusion (occupancy invariant), and object
    implementations (linearizability via the {!Lin.Cross} differential
    oracle pair, plus [Stuck] progress verdicts from the
    {!Objimpl.Harness} drain probe).

    Each scenario can run once under a freshly drawn adversarial schedule
    (recording the schedule it used) and can replay any schedule
    deterministically and judge it.  The shrinker only ever calls
    {!field:replay}, so shrink soundness holds by construction. *)

open Sim

type violation = Inconsistent | Invalid | Not_linearizable | Exclusion | Stuck

val violation_to_string : violation -> string

(** Adversarial schedule families drawn per run.  For linearizability
    scenarios [Crashing] injects harness crash points ([`Crash] schedule
    entries); elsewhere it passes [~crashes] to {!Sim.Run.exec}. *)
type sched_kind = Uniform | Starving | Crashing

val all_kinds : sched_kind list
val kind_name : sched_kind -> string

(** uniform 0.5, starve 0.25, crash 0.25 *)
val default_weights : (sched_kind * float) list

val pick_kind : (sched_kind * float) list -> Rng.t -> sched_kind

type run_report = {
  schedule : Schedule.t;
  violation : violation option;
  steps : int;
}

type t = {
  name : string;
  describe : string;
  gen : Rng.t -> sched_kind -> run_report;
      (** one stress run under a schedule drawn from [rng] *)
  replay : Schedule.t -> violation option;
      (** deterministic; the shrinker's oracle *)
  artifact : Schedule.t -> string;
      (** serialized counterexample: a {!Sim.Trace_io} trace for
          consensus/mutex scenarios, a {!Schedule} text for
          linearizability ones *)
}

(** Execution engine for gen/replay.  [`Flat] (the default) runs
    consensus scenarios over the in-place slab executors
    ({!Sim.Flat_run}: blit reset + shared intern runtime) and
    linearizability scenarios over the interned harness engine with a
    per-domain verdict memo; [`Closure] is the original closure-tree
    execution, kept as the differential reference.  Identical RNG draw
    order under both, so a seed names the same run either way; engine
    state is per-domain ([Domain.DLS]), preserving campaign
    jobs-invariance.  Mutex scenarios always execute closure-side (the
    occupancy invariant is judged on full event traces). *)
type engine = [ `Closure | `Flat ]

val consensus :
  ?engine:engine ->
  ?inputs:int list ->
  ?max_steps:int ->
  Consensus.Protocol.t ->
  t

val mutex : ?n:int -> ?max_steps:int -> Mutex.t -> t

(** Linearizability-and-progress scenarios.  Every recorded history is
    judged by both oracles ({!Lin.Cross.verdict} — raises
    {!Lin.Cross.Divergence} on decisive disagreement); the drain probe
    runs on every replay, and residual in-flight calls yield [Stuck]
    unless the implementation is {!Objimpl.Implementation.Blocking} and
    the schedule crashed somebody. *)
val lin :
  name:string ->
  ?engine:engine ->
  ?n:int ->
  ?len:int ->
  ?max_steps:int ->
  Objimpl.Implementation.t ->
  workload:(int * Op.t list) list ->
  t

(** The packaged table: ["flawed"] (the planted broken register
    consensus), [lin-collect-counter], [lin-snapshot-counter],
    [lin-lock-counter], [lin-stuck-counter] (the planted deadlock),
    [lin-consensus-swap], [lin-tas-rand], [mutex-peterson-2],
    [mutex-naive-flag], [mutex-swap-lock]. *)
val builtins : t list
(** The table under the default [`Flat] engine. *)

val builtins_with : engine -> t list

(** Builtins first, then any protocol name from {!Consensus.Registry}
    (with [inputs], default [[0; 1]]); [engine] selects the execution
    engine (default [`Flat]). *)
val find : ?inputs:int list -> ?engine:engine -> string -> (t, string) result
