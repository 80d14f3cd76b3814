(** Exhaustive exploration of the execution tree: the adversary chooses the
    schedule {e and} the outcomes of internal coin flips, exactly the
    nondeterminism against which consistency and validity are required.

    Depth-first, depth- and node-bounded; [truncated] reports whether the
    verdict is exhaustive or merely bounded.

    [~dedup] enables a transposition table (DESIGN.md has the soundness
    argument): [`Exact] merges configurations whose object values and
    per-slot process states coincide; [`Symmetric] additionally sorts
    the per-process states so permutations of interchangeable processes
    collapse to one state.  What a state is depends on the engine:

    - the flat engine (production) keys on interned ids ([Sim.Intern]):
      value ids, and state ids that stand for (root, consumed history)
      exactly, with no hash trusted.  The one place it reads 64-bit
      fingerprints is [`Symmetric]'s root sharing ([Sim.Flat.By_fp]):
      processes whose initial fingerprint seeds are equal share a root;
    - the closure referee keys on object values and the per-process
      consumed-history fingerprints ([Sim.Fingerprint]).

    So [`Symmetric] is sound when all processes run one protocol term
    with one input (the identical-processes setting of Theorem 3.3), or
    when differing initial terms were distinguished via
    [Config.make_seeded ~fp_seeds] (as [Consensus.Protocol.initial_config]
    does).  Dedup never changes the violation verdict or the reported
    witness; it changes only the node counts ([visited], [leaves]) and
    wall-clock. *)

open Sim

type dedup = [ `Off | `Exact | `Symmetric ]

type state = [ `Closure | `Flat ]
(** Which configuration engine drives [search].  [`Flat] (the default,
    and the only engine of every other entry point) interns process
    states and object values to dense ids ([Sim.Intern]) and explores one
    int slab in place with undo cells ([Sim.Flat]).  [`Closure] is the
    original persistent-configuration DFS, kept as the referee the flat
    engine is pinned against: same traversal order, counters, verdicts
    and witnesses, several times slower, and it does not checkpoint. *)

type 'a violation = {
  kind : [ `Inconsistent | `Invalid ];
  trace : 'a Trace.t;
  config : 'a Config.t;
}

type 'a result = {
  violation : 'a violation option;
  visited : int;
  leaves : int;  (** maximal executions reached *)
  truncated : bool;  (** [completeness <> `Exhaustive] *)
  completeness : Robust.Budget.completeness;
      (** why (and whether) the exploration stopped short (see
          {!search}).  A [`Truncated] result with [violation = None] is
          an under-approximation — "no violation among the visited
          states" — never a proof.  Mostly informational when a
          violation {e was} found: the witness is valid regardless. *)
  max_depth_seen : int;
  table_hits : int;  (** subtrees skipped via the transposition table *)
  table_misses : int;
      (** table lookups that found no reusable entry (always [0] under
          [`Off]); [table_hits + table_misses] is the lookup volume, so
          the hit rate of a dedup run is read straight off the result *)
}

(** All single-step successors of [pid]: one for an [Apply], [n] for a
    [Choose]. *)
val successors : 'a Config.t -> int -> ('a Config.t * 'a Event.t list) list

(** [witness root kind choices] replays the root-to-node
    [(pid, coin-outcome)] choice path from [root] with full event
    collection — the one replay behind every engine's witness, so
    witnesses are engine-independent. *)
val witness :
  'a Config.t -> [ `Inconsistent | `Invalid ] -> (int * int) list -> 'a violation

val max_depth_bound : int
(** The largest [max_depth] {!search} accepts, 2{^20}: the flat search
    allocates its depth-indexed path arrays up front. *)

(** Depth-first exploration from [config].

    [?budget] meters node entries (checked {e before} a node is counted):
    node budgets are deterministic — the run visits exactly the first [k]
    preorder nodes — while deadline/cancellation trips are best-effort
    (polled, so overshoot is bounded but the frontier is not
    reproducible).  In [completeness] a budget trip dominates the
    structural reasons: structural cuts still answer the bounded
    question, a trip leaves it unanswered.  Of the two structural
    reasons, [`States] wins once [visited] passed [max_states], even
    when a depth cut came first in preorder.

    Checkpoint/resume, for the flat search with [~dedup:`Off] only:
    [?on_checkpoint] receives the counters plus the root-to-cursor
    choice path every [checkpoint_every] visited nodes (before the node
    at the cursor is counted) and once more when the budget trips, with
    the first uncounted node as the cursor; [?resume] restores that
    state and fast-forwards the DFS to the cursor without re-counting or
    metering the nodes on its path.  An interrupted + resumed run is
    bit-identical to an uninterrupted one (pinned by [test_checkpoint]).
    [?on_checkpoint] or [?resume] with a table ([`Exact]/[`Symmetric])
    or with [~state:`Closure] raises [Invalid_argument]: a table's
    contents are not checkpointed, so a resumed dedup run could give
    another verdict, and no engine is swapped behind the caller's back.
    A resume path that does not fit the scenario raises
    [Invalid_argument].

    [?state] picks the engine (default [`Flat]).

    [?obs]: the run is wrapped in an ["mc/search"] span and, on return,
    records ["mc/visited"], ["mc/leaves"], ["mc/table-hits"],
    ["mc/table-misses"] and ["budget/polls"] counters, the
    ["mc/max-depth"] watermark, and an ["mc/truncated/<reason>"] counter
    on truncation.  Counters equal the corresponding result fields; all
    recording happens on the calling domain after the DFS returns.  A
    flat search with a table ([`Exact]/[`Symmetric]) also records the
    table's final size in bytes (["mc/table-bytes"]) and how often it
    was relaid out (["mc/table-relayouts"]: capacity growths plus key
    width changes, see {!Ptbl}), the width changes also on their own
    (["mc/table-widenings"]).

    A [max_depth] above {!max_depth_bound} raises [Invalid_argument]. *)
val search :
  ?obs:Obs.t ->
  ?budget:Robust.Budget.t ->
  ?dedup:dedup ->
  ?max_depth:int ->
  ?max_states:int ->
  ?checkpoint_every:int ->
  ?on_checkpoint:(Checkpoint.state -> unit) ->
  ?resume:Checkpoint.state ->
  ?state:state ->
  inputs:'a list ->
  'a Config.t ->
  'a result

(** Record a result's counters into [?obs] (["mc/visited"],
    ["mc/leaves"], ["mc/table-hits"], ["mc/table-misses"], the
    ["mc/max-depth"] watermark and the ["mc/truncated/<reason>"]
    counter), returning the result unchanged — the shared tail of every
    mc entry point, exported for [Shard].  Values are the result fields
    verbatim; call it once, on the calling domain. *)
val record_result : Obs.t option -> 'a result -> 'a result

(** All values decided in some reachable execution, and whether the set may
    be an under-approximation (budget hit).  Seeded with per-process
    {!Sim.Run.solo_search} probes (300 steps, 5,000 nodes each). *)
val decidable_values :
  ?max_depth:int -> ?max_states:int -> 'a Config.t -> 'a list * bool
