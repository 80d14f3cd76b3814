(** Consensus protocols, packaged: the objects used for n processes and
    the procedure each process runs.  Decisions are [int]s (binary
    consensus uses 0/1). *)

open Sim

type t = {
  name : string;
  kind : [ `Deterministic | `Randomized ];
  identical : bool;
      (** process code independent of the pid — the Section 3.1
          assumption; required by [Lowerbound.Attack] *)
  supports_n : int -> bool;
  optypes : n:int -> Optype.t list;
  code : n:int -> pid:int -> input:int -> int Proc.t;
}

(** Number of object instances used for n processes. *)
val space : t -> n:int -> int

(** One process per input, at [n] processes: one value per distinct input
    for [identical] protocols and one per pid otherwise.  Processes share
    a root exactly when they hold the same value ([Config.make]), so
    same-input processes are interchangeable under [`Symmetric] dedup. *)
val procs : t -> n:int -> inputs:int list -> int Proc.t list

(** The initial configuration for the given inputs (one per process).
    Raises [Invalid_argument] if the protocol does not support that n. *)
val initial_config : t -> inputs:int list -> int Config.t

type run_report = {
  result : int Run.result;
  verdict : Checker.verdict;
  inputs : int list;
}

(** Run once under a scheduler; check consistency and validity of the
    decisions reached. *)
val run_once :
  ?max_steps:int -> t -> inputs:int list -> sched:int Sched.t -> run_report

(** [run_many] with seeds [seed .. seed+reps-1]. *)
val run_many :
  ?max_steps:int ->
  t ->
  inputs:int list ->
  mk_sched:(int -> int Sched.t) ->
  seed:int ->
  reps:int ->
  run_report list

(** Mean total steps over completed runs; [None] if none completed. *)
val mean_steps : run_report list -> float option
