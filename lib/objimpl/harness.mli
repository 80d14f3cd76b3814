(** Drive an implementation with a concurrent workload, record the
    history, and judge it with the linearizability checker.  The drain
    probe (Lowe-style progress testing) additionally reports in-flight
    calls that can never finish — deadlock/starvation verdicts. *)

open Sim

type outcome = {
  history : History.t;
  steps : int;
  completed : bool;  (** every planned call responded *)
  pids : int list;
      (** pids actually stepped, in order; replayable as [Fixed] with the
          same [coin_seed] and [crashes] *)
  crashed : int list;  (** pids killed by [crashes], ascending *)
  stuck : (int * int) list;
      (** (pid, call id) of surviving in-flight calls the drain probe
          could not finish solo; empty unless [probe] was set.  With
          [crashed = []] a nonempty [stuck] is a deadlock — a progress
          violation even for [Implementation.Blocking]. *)
}

type schedule =
  | Random_sched of int  (** seed *)
  | Fixed of int list
  | Starving of { victim : int; seed : int; len : int }
      (** [victim] moves only when no other process is active
          ({!Sim.Sched.starving} semantics); [len] bounds the schedule *)

(** The step engines.  One driver owns the schedule loop, crash clock,
    drain and drain probe; an engine supplies only how a call starts and
    how it steps.  [Closure] (the default) steps the procedure closure
    trees through [Optype.apply] — the reference semantics the fuzzer's
    parity checks compare against; [Interned] steps {!Sim.Intern} state
    ids — objects as dense value ids, each step a memoized table lookup.
    Sharing the driver, both draw RNGs in identical order; the
    differential suite pins that their steps agree. *)
type engine = Closure | Interned

type runtime
(** Long-lived [Interned] state for one (implementation, n): the intern
    table plus per-(pid, op) procedure roots, shared across runs so each
    distinct consumed-history is forced at most once ever.  Rebuilt
    transparently by {!run} when the id space nears capacity. *)

val runtime : Implementation.t -> n:int -> runtime

(** [run impl ~n ~workload ~schedule ()] interleaves the base-object steps
    of the per-process planned calls ([workload]: pid to operation list)
    under the schedule.  [Fixed] and [Starving] schedules resolve internal
    coin flips from [coin_seed] (default 0), so a fixed pid list — or the
    realized [pids] of a starving run — is a complete, replayable record
    of the run; [coin_seed] is ignored for [Random_sched].

    [crashes] is a list of [(tick, pid)] pairs: before schedule entry
    [tick] (0-based, counted over consumed entries) is processed, [pid]
    halts — its in-flight call never responds and its remaining planned
    operations are dropped.

    With [probe] set, after the schedule ends each surviving in-flight
    call is repeatedly offered solo runs of up to 4096 own-steps
    (coins from deterministic streams; completions keep their effects,
    failures revert them) until a fixpoint; what still cannot finish is
    reported in [stuck].

    [engine] selects the step engine (default [Closure]); with
    [Interned], pass [rt] (from {!runtime}, for the same implementation
    and [n]) to share forced states across runs — omitting it builds a
    throwaway runtime, which is correct but buys nothing.  An [rt] built
    for another implementation (physically) or another [n] raises
    [Invalid_argument]. *)
val run :
  ?engine:engine ->
  ?rt:runtime ->
  Implementation.t ->
  n:int ->
  workload:(int * Op.t list) list ->
  schedule:schedule ->
  ?coin_seed:int ->
  ?max_steps:int ->
  ?crashes:(int * int) list ->
  ?probe:bool ->
  unit ->
  outcome

val run_and_check :
  ?engine:engine ->
  ?rt:runtime ->
  Implementation.t ->
  n:int ->
  workload:(int * Op.t list) list ->
  schedule:schedule ->
  ?coin_seed:int ->
  ?max_steps:int ->
  ?crashes:(int * int) list ->
  ?probe:bool ->
  unit ->
  outcome * Linearize.verdict

(** [calls] operations per process, drawn uniformly from [ops]. *)
val random_workload :
  n:int -> calls:int -> ops:Op.t list -> seed:int -> (int * Op.t list) list
