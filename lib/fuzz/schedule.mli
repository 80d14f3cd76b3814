(** Recorded schedules: the fuzzer's unit of replay and shrinking.

    A schedule flattens the adversary's side of one execution into a list
    of entries compatible with {!Sim.Run.exec_script}: step a process
    (with the coin outcome it drew, if that step was an internal flip) or
    crash one.  Process code and object contents are not recorded; they
    are recomputed by replaying from a fresh initial configuration, which
    is what makes a shrunk schedule a genuine counterexample witness. *)

open Sim

type entry = [ `Step of int * int option | `Crash of int ]

type t = entry list

val length : t -> int

(** Scheduler steps only (crash entries are free for the adversary). *)
val steps : t -> int

(** Distinct pids appearing in the schedule, sorted. *)
val pids : t -> int list

(** The schedule a trace records; replaying it through
    {!Sim.Run.exec_script} from the same initial configuration reproduces
    the trace. *)
val of_trace : 'a Trace.t -> t

(** {1 Text codec} — one entry per line in a {!Robust.Persist} frame
    (header [fuzz-schedule v3], checksummed trailer), so a truncated or
    damaged file is a loud {!Sim.Trace_io.Parse_error} instead of a
    silently shorter witness. *)

val to_text : t -> string

(** Raises {!Sim.Trace_io.Parse_error} on malformed input. *)
val of_text : string -> t

val save : path:string -> t -> unit
val load : path:string -> t
val pp : Format.formatter -> t -> unit
