(** CEGIS over bounded decision-tree consensus protocols: find the
    largest process count [n] for which a correct protocol exists in the
    {!Consensus.Dtree} class of depth [<= depth] over [registers]
    objects, learning pruning lemmas ({!Lemma}) from every
    counterexample along the way.

    Per round [n = 2, 3, ...] the driver filters candidate trees by solo
    validity and then by unanimity, per tree rather than per pair, then
    sweeps surviving pairs through a pipeline of
    increasingly expensive refuters: pool-lemma replay, seeded random
    probes, the constructive adversary ({!Lowerbound.Attack}, rw only),
    and finally exhaustive search on every mixed input vector.  Every
    counterexample found at any stage becomes a lemma; pruning is sound
    because a hit replays a concrete violating execution of the pruned
    candidate itself (see {!Lemma.hits} and DESIGN.md §4k).  The pool is
    replayed on the trees themselves ({!Lemma.hits_pair}), each lemma's
    schedule compiled once when it joins ({!Lemma.compile}), most-hit
    lemma first, and a candidate's protocol is built only when the
    adversary runs.  The unanimity filter and the exhaustive search
    both run on the trees too ({!Consensus.Dtree.check}); trees are
    finite, so neither ever stops short, and only a budget trip makes a
    round unknown.

    The search is quotiented by the 0/1 swap ({!Consensus.Dtree.mirror}):
    side 1's unanimity verdicts are read off side 0's mirrored trees,
    and of each pair [(t0, t1)] and its partner
    [(mirror t1, mirror t0)], which are correct together, only the
    first in enumeration order is examined.  The witness is unchanged;
    an exhaustive sweep examines [(|u0|^2 + |u0|) / 2] pairs.

    The [n = 2] round over one [Rw] register is E12's impossibility
    table: its counts are that table's columns.

    Correctness of a protocol is monotone downward in [n] (idle-process
    embedding), so the round loop stops at the first exhaustively
    unsatisfiable [n] and the frontier verdict keeps [`Exhaustive]
    without visiting larger process counts.

    Determinism: identical parameters produce bit-identical results —
    rows, witness, lemma pool — at any [?pool] size, by the
    {!Fuzz.Campaign} discipline (batched budget admission, per-candidate
    {!Sim.Rng} streams derived from the round's generator by admission
    index with {!Sim.Rng.nth_split}, only for candidates that reach the
    probes, order-preserving {!Par.map_array}, sequential merge over
    per-batch-frozen lemma snapshots).  The [synth/replays] {!Obs}
    counter, kernel replays paid, is jobs-invariant too.

    Metrics ([?obs]): the [synth/search] span around the whole search,
    with one span per stage nested in it — [enumerate] and [solo] once
    per search, [unanimity] and [sweep] once per round (histograms
    [span/synth/search/<stage>]) — and, from the merged result, the
    counters [synth/candidates], [synth/pruned], [synth/refuted],
    [synth/verified], [synth/lemma-hits], [synth/replays],
    [synth/lemmas] and [budget/polls].  No clock is read per candidate,
    and every counter is jobs-invariant. *)

type verdict = [ `Satisfiable | `Unsatisfiable | `Unknown of Robust.Budget.reason ]

val verdict_to_string : verdict -> string

type row = {
  n : int;
  unanimous0 : int;  (** solo-valid trees also correct on the all-0 vector *)
  unanimous1 : int;
  candidates : int;
      (** pairs examined, one per mirror orbit (as far as the budget
          admits) *)
  pruned : int;  (** rejected by a replayed pool lemma, no search paid *)
  refuted : int;
      (** rejected by a fresh counterexample (probe, adversary or
          exhaustive search) *)
  witness : (Consensus.Dtree.t * Consensus.Dtree.t) option;
      (** first verified pair in enumeration order *)
  verdict : verdict;
}

type result = {
  style : Consensus.Dtree.style;
  registers : int;
  depth : int;
  coins : bool;
  max_procs : int;
  seed : int;
  trees : int;  (** enumerated candidate trees *)
  valid0 : int;  (** trees whose every solo run decides 0 *)
  valid1 : int;
  rows : row list;  (** one per examined [n], ascending *)
  frontier : int;
      (** largest [n] with a verified protocol; [1] when already [n = 2]
          fails (a single process just decides its own input) *)
  lemmas : Lemma.t list;  (** final pool, oldest first — the CI artifact *)
  lemma_hits : int;  (** replays that violated, pool hits and mints alike *)
  completeness : Robust.Budget.completeness;
}

(** [search ~style ~registers ~depth ~coins ~max_procs ~seed ()] runs
    rounds [n = 2 .. max_procs] (or stops earlier at the first
    unsatisfiable or unknown round).

    [prune] gates pool-lemma replay — with [prune:false] every candidate
    pays for its own refutation, which must produce identical verdicts
    (the soundness property [test_synth] pins).  [budget] governs the
    whole search: one node per unanimity check and one per candidate
    pair; a trip yields [`Unknown] rows and a [`Truncated] completeness,
    never a silent under-claim.

    Raises [Invalid_argument] on [registers < 1], [depth < 0] or
    [max_procs < 2]. *)
val search :
  ?obs:Obs.t ->
  ?pool:Par.Pool.t ->
  ?budget:Robust.Budget.t ->
  ?prune:bool ->
  style:Consensus.Dtree.style ->
  registers:int ->
  depth:int ->
  coins:bool ->
  max_procs:int ->
  seed:int ->
  unit ->
  result

(** Registry name ({!Consensus.Dtree.protocol_name}) of a row's witness,
    if it has one — resolvable by {!Consensus.Registry.find}, so a
    synthesized protocol is immediately usable by mc, fuzz and bench. *)
val witness_name : result -> row -> string option

(** Stable line-oriented report: header, one (or two, with the
    [synthesized:] name) lines per row, then [frontier:], [lemmas:] and
    [completeness:] lines.  The CLI prints these; tests and CI golden
    them. *)
val report : result -> string list
