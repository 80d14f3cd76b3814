(** Exhaustive impossibility for bounded protocols: every decision-tree
    protocol ({!Consensus.Dtree.t}) of bounded depth for two identical
    processes over one read-write register, checked against the
    consensus conditions by a full model-checker search per pair.
    Bounded trees always terminate, so only safety can fail — and for
    every candidate it does: [census ~depth] reports [correct = 0].

    The same tree language, lifted to [r] objects of either style and
    any process count, is the protocol space the CEGIS driver ([Synth])
    searches; the functions below serve both. *)

(** All trees of depth at most [depth] over [registers] objects: [Rw]
    style offers writes and reads, [Swapping] style swaps and reads (a
    write is a swap whose response is ignored); [coins] gates [Flip].
    At [registers = 1] under [Rw] these are the census's trees: 2, 14
    and 2774 deterministic trees at depths 0, 1 and 2. *)
val enumerate_dtrees :
  style:Consensus.Dtree.style ->
  registers:int ->
  coins:bool ->
  int ->
  Consensus.Dtree.t list

(** The initial configuration candidate [(t0, t1)] presents for the
    given inputs — the hook lemma replay ([Sim.Run.exec_script]) and
    full verification share, fingerprint-seeded by input so
    [`Symmetric] dedup stays sound. *)
val dtree_config :
  style:Consensus.Dtree.style ->
  registers:int ->
  Consensus.Dtree.t * Consensus.Dtree.t ->
  int list ->
  int Sim.Config.t

(** Every decision reachable on a solo run (coins enumerated), duplicate
    free and sorted — census filters and the synth lemma pool compare
    these lists structurally against [[0]]/[[1]], so the dedup+sort is
    part of the contract, not an accident of the underlying search. *)
val dtree_solo_decisions :
  style:Consensus.Dtree.style ->
  registers:int ->
  Consensus.Dtree.t ->
  int list

(** Exhaustive consensus check of candidate [(t0, t1)] on one input
    vector, with the violating trace exposed so callers can extract a
    pruning lemma ([Fuzz.Schedule.of_trace]).  [`Correct] only when the
    exploration was exhaustive; [`Unknown reason] when a budget cut it
    short with no violation found (an under-approximation, not a clean
    bill).  [dedup] defaults to [`Symmetric], which is sound here
    unconditionally: a process's tree is a function of its input alone
    and the fingerprints are seeded by input, so fingerprint-equal slots
    are state-equal (see [Explore]). *)
val dtree_check_verdict :
  ?obs:Obs.t ->
  ?budget:Robust.Budget.t ->
  ?dedup:Explore.dedup ->
  style:Consensus.Dtree.style ->
  registers:int ->
  Consensus.Dtree.t * Consensus.Dtree.t ->
  int list ->
  [ `Correct | `Violating of int Sim.Trace.t | `Unknown of Robust.Budget.reason ]

type census = {
  depth : int;
  trees : int;
  valid_solo_0 : int;
  valid_solo_1 : int;
  candidate_pairs : int;
  survive_unanimous : int;
  correct : int;
  example_correct : (Consensus.Dtree.t * Consensus.Dtree.t) option;
}

(** Census of an explicit list of one-register [Rw] trees (as produced
    by {!enumerate_dtrees}); the [dedup] and [budget] knobs reach every
    {!dtree_check_verdict} call (a truncated check conservatively counts
    the pair as not correct, so a budgeted census under-approximates the
    survivor counts — it can never manufacture a correct protocol). *)
val census_of_trees :
  ?budget:Robust.Budget.t ->
  ?dedup:Explore.dedup ->
  depth:int ->
  Consensus.Dtree.t list ->
  census

val census : depth:int -> census

(** Census over coin-flipping trees too: consensus may never err on any
    execution, so bounded randomized protocols fail exactly like
    deterministic ones. *)
val census_randomized : depth:int -> census
