(** The bounded decision-tree protocol space ({!Consensus.Dtree.t}) of
    [registers] objects of either style, and the hooks the CEGIS driver
    ([Synth.Cegis]) sweeps it with: a tree walk for solo decisions, the
    model checker for pairs.  E12's impossibility table is that
    driver's n = 2 round over one [Rw] register, where every pair of
    depth [<= 2] trees is refuted.  Bounded trees always terminate, so
    every refutation is a safety violation. *)

(** All trees of depth at most [depth] over [registers] objects: [Rw]
    style offers writes and reads, [Swapping] style swaps and reads (a
    write is a swap whose response is ignored); [coins] gates [Flip].
    At [registers = 1] under [Rw] these are E12's trees: 2, 14 and 2774
    deterministic trees at depths 0, 1 and 2. *)
val enumerate_dtrees :
  style:Consensus.Dtree.style ->
  registers:int ->
  coins:bool ->
  int ->
  Consensus.Dtree.t list

(** {!enumerate_dtrees} as an array, with the mirror permutation: the
    tree at index [i] maps under {!Consensus.Dtree.mirror} to the tree
    at index [mirror.(i)].  Computed level by level from index
    arithmetic in O(trees), with no tree compared or hashed; an
    involution, since the enumeration is closed under the swap. *)
val enumerate_mirrored :
  style:Consensus.Dtree.style ->
  registers:int ->
  coins:bool ->
  int ->
  Consensus.Dtree.t array * int array

(** The initial configuration candidate [(t0, t1)] presents for the
    given inputs — the hook lemma replay ([Sim.Run.exec_script]) and
    full verification share: one process value per tree side, so
    same-input processes share a root. *)
val dtree_config :
  style:Consensus.Dtree.style ->
  registers:int ->
  Consensus.Dtree.t * Consensus.Dtree.t ->
  int list ->
  int Sim.Config.t

(** Every decision reachable on a solo run from [registers] empty
    objects, coins enumerated, sorted and duplicate free: a walk of the
    tree through {!Consensus.Dtree.step} that takes both outcomes of
    every [Flip].  A test pins it against the model checker's
    [Explore.decidable_values] on the one-process configuration. *)
val dtree_solo_decisions : registers:int -> Consensus.Dtree.t -> int list

(** Exhaustive consensus check of candidate [(t0, t1)] on one input
    vector, with the violating trace exposed so callers can extract a
    pruning lemma ([Fuzz.Schedule.of_trace]).  [`Correct] only when the
    exploration was exhaustive; [`Unknown reason] when a budget cut it
    short with no violation found (an under-approximation, not a clean
    bill).  [dedup] defaults to [`Symmetric], which is sound for every
    configuration; here same-input processes hold one value and so
    collapse (see [Explore]). *)
val dtree_check_verdict :
  ?obs:Obs.t ->
  ?budget:Robust.Budget.t ->
  ?dedup:Explore.dedup ->
  style:Consensus.Dtree.style ->
  registers:int ->
  Consensus.Dtree.t * Consensus.Dtree.t ->
  int list ->
  [ `Correct | `Violating of int Sim.Trace.t | `Unknown of Robust.Budget.reason ]
