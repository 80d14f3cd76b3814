(** Pruning lemmas for the CEGIS loop: concrete violating executions,
    replayed against fresh candidates before a full search is paid for.

    A lemma records the input vector and adversary schedule of an
    execution that violated consensus for some earlier candidate
    ([source]).  {!hits} replays it against a new candidate through
    {!Sim.Run.exec_script} — a single bounded deterministic run — and
    reports whether {e that candidate's own} replayed execution violates
    the checker.  A pruned candidate is therefore refuted by exactly the
    evidence full verification would produce (a concrete violating
    execution of that candidate), which is why pruning never changes a
    frontier verdict; see DESIGN.md §4k.  A miss proves nothing and the
    candidate proceeds to verification. *)

type t = {
  source : string;
      (** protocol name of the candidate whose violating execution this
          schedule was extracted from — provenance for the soundness
          audit (replaying a lemma against its own source must violate) *)
  inputs : int list;
  schedule : Fuzz.Schedule.t;
}

(** Whether the lemma can refute correctness claims at [n] processes: a
    violation among [m] processes extends to any [n >= m] execution
    where the extra processes never move (identical processes), and to
    nothing smaller. *)
val applies : n:int -> t -> bool

(** Replay the lemma against a candidate protocol: build the candidate's
    initial configuration for the lemma's inputs, run the schedule, and
    check the final decisions.  [true] iff the replayed execution
    violates consensus.  Total: unsupported process counts are a miss,
    out-of-range pids and missing coins are skipped/defaulted by
    [exec_script]. *)
val hits : t -> Consensus.Protocol.t -> bool

(** A lemma ready for the tree kernel: its schedule compiled once
    ({!Consensus.Dtree.compile}), next to its width [List.length
    lemma.inputs], so that {!applies} is [width <= n].  The CEGIS pool
    compiles each lemma when it joins; the lemma itself, and so the
    text codec, is unchanged. *)
type compiled = private {
  lemma : t;
  width : int;
  sched : Consensus.Dtree.schedule;
}

val compile : t -> compiled

(** [hits] against [Consensus.Dtree.protocol ~registers pair], computed
    by {!Consensus.Dtree.replay_violates} on the trees themselves — no
    protocol, closures, configuration or decision list is built.  Same
    answer as {!hits} on the compiled pair (pinned by a differential
    test); the CEGIS pool's replay path. *)
val hits_pair :
  registers:int -> compiled -> Consensus.Dtree.t * Consensus.Dtree.t -> bool

(** First entry, in the pool's own order, that {!applies} at [n] and
    {!hits} the candidate.  Age order is a poor replay order: pool
    age does not track how often a lemma hits (at depth 2 the oldest 32
    of 68 lemmas catch 5% of prunes), which is why the CEGIS loop
    replays its pool most-hit first instead. *)
val first_hit : n:int -> t list -> Consensus.Protocol.t -> t option

(** {1 Text codec} — one lemma per line in a {!Robust.Persist} frame
    ([randsync-lemmas v2]; loud {!Sim.Trace_io.Parse_error} on damage).
    Byte-equality of [to_text] output is the determinism artifact the
    jobs 1/2 suite and CI compare. *)

val to_text : t list -> string

(** Raises {!Sim.Trace_io.Parse_error} on malformed input. *)
val of_text : string -> t list

val save : path:string -> t list -> unit
val load : path:string -> t list
