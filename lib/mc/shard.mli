(** Fingerprint-sharded, disk-backed frontier exploration — the
    out-of-core tier of the model checker (DESIGN.md §4j), reachable from
    no CLI or serve path and kept for the repository benchmark only.

    [search ~shards] explores the same bounded adversary tree as
    [Explore.search], but as a work-stealing drain over [shards] deques
    of root-to-node choice paths, routed by the canonical state hash
    modulo [shards]; under dedup each shard owns a two-tier [Dtbl]
    transposition table whose hot tier is bounded by
    [table_mem_budget] bytes (across all shards) and spills to
    [table_dir/shard-<k>.dtbl] append-logs.  Work items are expanded on
    the flat engine ([Sim.Flat]); there is no engine argument.

    Contract against the sequential referee (pinned by [test_shard] and
    the bench hard-fail rows):

    - {b Violation verdict and witness: always identical.}  A violating
      drain delegates to [Explore.search] and returns its entire result,
      so violating runs are bit-identical to the sequential engine's.
      (Only when the caller's deadline stops the referee first does the
      lex-least sharded candidate serve as the witness.)
    - {b Node counts and completeness: identical under [~dedup:`Off]} on
      violation-free runs whose state cap does not bind — both engines
      then count exactly the choice-tree nodes.
    - {b Under dedup, counts are schedule-dependent} and the completeness
      claim is graph-closure semantics (skips are exact, not
      conservative), so only the violation verdict is pinned — see
      DESIGN.md §4j for why this differs from the DFS tier and why it is
      sound.

    Budgets: deadline/cancel are polled per work item; a node budget is
    enforced against a global counter.  Truncated sharded runs make no
    bit-determinism promise (that contract belongs to the sequential
    [Explore.search]).  Any trip still flushes
    and closes every shard's log, so the on-disk tables a deadline
    leaves behind reopen cleanly.

    [?jobs] (default [Par.default_jobs ()]) domains own the shards
    round-robin and steal from foreign deques when starved ([`mc/shard/
    steals`]); [?obs] additionally receives the [`mc/dtbl/*`] tier
    counters and the usual [`mc/*`] result counters. *)

open Sim

val search :
  ?obs:Obs.t ->
  ?jobs:int ->
  ?budget:Robust.Budget.t ->
  ?dedup:Explore.dedup ->
  ?max_depth:int ->
  ?max_states:int ->
  ?table_dir:string ->
  ?table_mem_budget:int ->
  shards:int ->
  inputs:'a list ->
  'a Config.t ->
  'a Explore.result
