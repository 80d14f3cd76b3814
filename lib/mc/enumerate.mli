(** Exhaustive impossibility for bounded protocols: every deterministic
    decision-tree protocol of bounded depth for two identical processes
    over one read-write register, checked against the consensus
    conditions.  Bounded trees always terminate, so only safety can fail —
    and for every candidate it does: [census ~depth] reports [correct = 0]. *)

type tree =
  | Decide of int
  | Write of int * tree
  | Read of tree * tree * tree  (** branch on empty / 0 / 1 *)
  | Flip of tree * tree  (** internal fair coin: tails / heads *)

val tree_size : tree -> int

(** All trees of depth at most [depth]; [coins] decides whether the
    [Flip] constructor is offered.  {!enumerate} and
    {!enumerate_randomized} are the two instantiations. *)
val enumerate_trees : coins:bool -> int -> tree list

(** All deterministic trees of depth at most [depth] (14 at depth 1, 2774
    at depth 2). *)
val enumerate : int -> tree list

(** All trees of depth at most [depth], coin flips included. *)
val enumerate_randomized : int -> tree list

val to_proc : tree -> int Sim.Proc.t

(** Every decision reachable on a solo run (coins enumerated), duplicate
    free and sorted — census filters and the synth lemma pool compare
    these lists structurally against [[0]]/[[1]], so the dedup+sort is
    part of the contract, not an accident of the underlying search. *)
val solo_decisions : tree -> int list

(** The unique decision of a deterministic tree's solo run; raises on
    randomized trees with several reachable outcomes. *)
val solo_decision : tree -> int

(** Exhaustive consensus check of (tree-for-0, tree-for-1) on one input
    vector with an explicit completeness verdict: [`Correct] only when the
    exploration was exhaustive, [`Unknown reason] when a budget or bound
    cut it short with no violation found (an under-approximation, not a
    clean bill).  [dedup] defaults to [`Symmetric], which is sound here
    unconditionally: a process's tree is a function of its input alone and
    the fingerprints are seeded by input, so fingerprint-equal slots are
    state-equal (see [Explore]). *)
val check_inputs_verdict :
  ?budget:Robust.Budget.t ->
  ?dedup:Explore.dedup ->
  tree ->
  tree ->
  int list ->
  [ `Correct | `Violating | `Unknown of Robust.Budget.reason ]

(** [check_inputs t0 t1 inputs = (check_inputs_verdict t0 t1 inputs =
    `Correct)] — the boolean view; truncation counts as not correct. *)
val check_inputs :
  ?budget:Robust.Budget.t ->
  ?dedup:Explore.dedup ->
  tree ->
  tree ->
  int list ->
  bool

type census = {
  depth : int;
  trees : int;
  valid_solo_0 : int;
  valid_solo_1 : int;
  candidate_pairs : int;
  survive_unanimous : int;
  correct : int;
  example_correct : (tree * tree) option;
}

(** Census of an explicit tree list (as produced by {!enumerate_trees});
    the [dedup] and [budget] knobs reach every [check_inputs] call (a
    truncated check conservatively counts the pair as not correct, so a
    budgeted census under-approximates the survivor counts — it can never
    manufacture a correct protocol). *)
val census_of_trees :
  ?budget:Robust.Budget.t ->
  ?dedup:Explore.dedup ->
  depth:int ->
  tree list ->
  census

val census : depth:int -> census

(** Census over coin-flipping trees too: consensus may never err on any
    execution, so bounded randomized protocols fail exactly like
    deterministic ones. *)
val census_randomized : depth:int -> census

(** {1 Generalized trees} — multiple registers, swap objects, any [n]

    The [Consensus.Dtree] protocol space the CEGIS driver ([Synth])
    searches; the machinery above lifted from one rw register and two
    processes to [r] objects of either style and arbitrary process
    counts. *)

(** Embed a legacy single-register tree. *)
val dtree_of_tree : tree -> Consensus.Dtree.t

(** All trees of depth at most [depth] over [registers] objects: [Rw]
    style offers writes and reads, [Swapping] style swaps and reads (a
    write is a swap whose response is ignored); [coins] gates [Flip].
    At [registers = 1] under [Rw] this is exactly {!enumerate} (or
    {!enumerate_randomized}) under {!dtree_of_tree}. *)
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

(** {!solo_decisions} for generalized trees: every reachable solo
    decision, duplicate-free and sorted. *)
val dtree_solo_decisions :
  style:Consensus.Dtree.style ->
  registers:int ->
  Consensus.Dtree.t ->
  int list

(** Exhaustive consensus check of candidate [(t0, t1)] on one input
    vector, with the violating trace exposed so callers can extract a
    pruning lemma ([Fuzz.Schedule.of_trace]).  [`Correct] only when the
    exploration was exhaustive. *)
val dtree_check_verdict :
  ?obs:Obs.t ->
  ?budget:Robust.Budget.t ->
  ?dedup:Explore.dedup ->
  style:Consensus.Dtree.style ->
  registers:int ->
  Consensus.Dtree.t * Consensus.Dtree.t ->
  int list ->
  [ `Correct | `Violating of int Sim.Trace.t | `Unknown of Robust.Budget.reason ]
