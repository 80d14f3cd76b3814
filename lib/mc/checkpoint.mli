(** Checkpoint/resume for long model-checking runs.

    A checkpoint captures the DFS cursor of a budget-interrupted
    {!Explore.search} as data: the counters accumulated so far plus the
    root-to-cursor choice path (the [(pid, coin-outcome)] pairs leading to
    the first {e unvisited} node in the sequential preorder).  Because the
    DFS child order is deterministic (ascending pid, then ascending coin
    outcome — see DESIGN.md §4d), that path pins the frontier exactly:
    resuming re-descends the path without re-counting anything, skips
    every sibling subtree to the left of it, and continues as if the run
    had never stopped.  Process state is {e not} serialized — it is
    recomputed by replaying the path, the same lazy-witness trick the DFS
    already uses, which keeps checkpoints a few hundred bytes regardless
    of state-space size.

    Only a dedup-off search checkpoints ({!Explore.search} refuses
    anything else), so a resumed run is the uninterrupted one, node for
    node: its verdict, counters and witness are the same.  A table's
    contents could not be restored, and a resumed dedup run could give
    a different verdict.  The scenario string exists so a resume against
    the wrong protocol/inputs/depth is refused loudly instead of
    exploring garbage.

    File format: a {!Robust.Persist} frame, so a truncated or damaged
    checkpoint is a loud parse error instead of a silently wrong resume
    cursor; files of another version (v3 and older) are refused:
    {v
    randsync-checkpoint v4
    scenario <verbatim scenario line>
    visited <int>
    leaves <int>
    max_depth_seen <int>
    reason <reason|->
    path <pid>:<outcome> <pid>:<outcome> ...
    end <bytes> <md5-hex>
    v} *)

type state = {
  visited : int;
  leaves : int;
  max_depth_seen : int;
  reason : Robust.Budget.reason option;  (** first truncation reason *)
  path : (int * int) list;  (** root-to-cursor choice path *)
}

val empty : state

(** Durable atomic write ({!Robust.Persist.write}): an interrupted save
    leaves the previous checkpoint intact. *)
val save : path:string -> scenario:string -> state -> unit

(** Returns [(scenario, state)]; raises {!Robust.Persist.Error}, or
    {!Sim.Trace_io.Parse_error} on a damaged or wrong-version file. *)
val load : path:string -> string * state

(** The codec under {!save}/{!load}, exposed for tests. *)
val to_text : scenario:string -> state -> string

val of_text : string -> string * state
