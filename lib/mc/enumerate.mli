(** The bounded decision-tree protocol space ({!Consensus.Dtree.t}) of
    [registers] objects of either style, and the hooks the CEGIS driver
    ([Synth.Cegis]) sweeps it with: a tree walk for solo decisions (a
    mask) and the probe configuration of a pair.  Pairs are checked by
    {!Consensus.Dtree.check}; {!dtree_check_verdict}, the model checker
    on the compiled pair, is its referee.  E12's impossibility table is
    that driver's n = 2 round over one [Rw] register, where every pair
    of depth [<= 2] trees is refuted.  Bounded trees always terminate,
    so every refutation is a safety violation. *)

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
    given inputs — what CEGIS's random probes ([Sim.Run.exec]) and
    {!dtree_check_verdict} start from: one process value per tree side,
    so same-input processes share a root. *)
val dtree_config :
  style:Consensus.Dtree.style ->
  registers:int ->
  Consensus.Dtree.t * Consensus.Dtree.t ->
  int list ->
  int Sim.Config.t

(** Every decision reachable on a solo run from [registers] empty
    objects, coins enumerated, as a mask: bit [0] set when some run
    decides [0], bit [1] when some run decides [1], bit [2] when some
    run decides any other value.  So the tree is solo-valid for input
    [v] in [{0, 1}] exactly when the mask is [1 lsl v].  A pure walk of
    the tree through {!Consensus.Dtree.next} that takes both outcomes of
    every [Flip], with the register classes packed two bits per register
    in an int.  A test pins it against the model checker's
    [Explore.decidable_values] on the one-process configuration.  Raises
    [Invalid_argument] above [Sys.int_size / 2] registers. *)
val dtree_solo_mask : registers:int -> Consensus.Dtree.t -> int

(** Exhaustive consensus check of candidate [(t0, t1)] on one input
    vector by the model checker ([Explore.search] on {!dtree_config}),
    with the violating trace exposed.  The referee of
    {!Consensus.Dtree.check}, which CEGIS runs instead: wherever this
    search is exhaustive the two give the same verdict, and the
    kernel's schedule is [Fuzz.Schedule.of_trace] of this trace (pinned
    by [test_enumerate]); the census referee and E12's brute-force test
    call this one.  [`Correct] only when the exploration was
    exhaustive; [`Unknown reason] when a budget cut it short with no
    violation found (an under-approximation, not a clean bill).
    [dedup] defaults to [`Symmetric], which is sound for every
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
