(** Executing configurations: one step rule, applied purely by {!step},
    in place on a private copy by the scheduler loop {!exec} and the
    script replayer {!exec_script}, and the solo-termination search
    {!solo_search} over pure steps. *)

type outcome = All_decided | Max_steps | Scheduler_stopped

val outcome_to_string : outcome -> string

type 'a result = {
  config : 'a Config.t;
  trace : 'a Trace.t;
  steps : int;
  outcome : outcome;
}

(** Raised when stepping an already-decided process. *)
exception Step_disabled of int

(** Pure step of process [pid]: returns the successor configuration (the
    input is unchanged) and the emitted events — the step itself plus
    [Decided] if the process just decided.  [coin] supplies outcomes for
    internal flips; out-of-range outcomes raise [Invalid_argument].
    Ignores [halted] flags: the caller decides who may move. *)
val step :
  'a Config.t -> pid:int -> coin:(int -> int) -> 'a Config.t * 'a Event.t list

(** Drive a scheduler for at most [max_steps] steps (default 100_000),
    stepping a private copy of the configuration in place (the caller's
    is never touched).  [crashes] (default none) maps step indices to
    pids halted just before that step, at most one per loop iteration;
    recorded as [Halted] events. *)
val exec :
  ?max_steps:int ->
  ?crashes:(int * int) list ->
  'a Sched.t ->
  'a Config.t ->
  'a result

(** Deterministically replay a recorded schedule script.  [`Crash pid]
    halts a process (skipped when out of range or already disabled);
    [`Step (pid, coin)] steps one, with [coin] supplying the outcome if
    the process is poised at an internal flip ([None] or an out-of-range
    outcome falls back to 0).  Elements whose pid is disabled are skipped,
    so {e any} script replays to completion — the property the fuzzer's
    shrinker relies on (deleting elements can deactivate later ones but
    never wedge the replay).  Stops at [All_decided] as soon as every
    process has decided; an exhausted script is [Scheduler_stopped]. *)
val exec_script :
  ?max_steps:int ->
  script:[ `Step of int * int option | `Crash of int ] list ->
  'a Config.t ->
  'a result

(** A finite solo execution found by {!solo_search}. *)
type 'a solo = {
  coins : int list;  (** coin outcomes along the found path, in order *)
  decision : 'a option;  (** [Some v] iff the goal state has pid decided *)
  solo_steps : int;  (** solo steps on the found path *)
}

(** Nondeterministic solo termination (Section 2), made effective: search
    the tree of [pid]'s internal coin outcomes, depth first, for a finite
    solo execution reaching a goal — [pid] decided, or [stop config pid]
    (checked before each step; default never).  [None] when no goal is
    reached within [max_steps] steps per path (default 2_000) and
    [max_nodes] nodes in all (default 200_000): a protocol for which the
    search fails is reported as such, never silently assumed
    terminating.

    With [rng], coin outcomes at each node are tried in a shuffled order
    — a randomized restart of the same complete search, deterministic for
    a fixed generator state (the parallel seed sweeps of the attacks).

    [?meter] layers a caller-wide budget (deadline, cancellation, global
    step cap) over the local bounds: exhausting them means "no witness"
    and returns [None], while a metered trip raises
    {!Robust.Budget.Exhausted} to unwind the whole construction. *)
val solo_search :
  ?max_steps:int ->
  ?max_nodes:int ->
  ?meter:Robust.Budget.Meter.t ->
  ?stop:('a Config.t -> int -> bool) ->
  ?rng:Rng.t ->
  'a Config.t ->
  pid:int ->
  'a solo option
