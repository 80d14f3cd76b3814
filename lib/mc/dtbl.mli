(** Two-tier (memory + append-log) transposition table for the sharded
    frontier engine ([Shard]): a bounded in-memory hot cache over a
    versioned on-disk record log, so dedup state can exceed RAM.

    Semantics: the table maps canonical state keys ({!Skey}) to packed
    meta words (same packing as the flat DFS's in-memory table
    ({!Ptbl}) — [((remaining_depth + 1) lsl 1) lor complete]), and {!find} is exactly
    the {!merge_meta}-fold of every {!set} for that key, across spills,
    eviction, compaction, close and reopen.  Losing depth would only be
    conservative for the search (less pruning, same verdict), but the
    no-loss form is what the property suite pins.

    Durability: the v1 format is line-oriented ([randsync-dtbl v1] header,
    one sentinel-terminated record per line, hash-checked on decode) and
    is rewritten atomically (tmp+rename) at creation and compaction;
    appends between are sequential, so a crash tears at most a suffix.
    Reopening recovers the valid prefix, loudly dropping a torn tail
    (reported on stderr and in {!stats}); a damaged interior line raises
    [Sim.Trace_io.Parse_error] instead — that is corruption, not a crash.

    Instances are single-threaded; [Shard] serializes access per shard. *)

(** Canonical, engine-independent state key: per-process consumed-history
    fingerprints (caller-sorted under symmetric dedup) plus decoded
    object values.  Unlike the flat slab's ids ({!Ptbl} keys) this does
    not depend on any intern table's numbering, so keys written by one domain or one
    run mean the same thing to every other — see DESIGN.md §4j. *)
module Skey : sig
  type t = private {
    hash : int;  (** mixed exactly as [Explore]'s closure-engine key *)
    fps : int array;
    objs : Sim.Value.t array;
  }

  val make : fps:int array -> objs:Sim.Value.t array -> t
  val equal : t -> t -> bool
end

type t

type stats = {
  hits : int;  (** {!find} calls answered (either tier) *)
  misses : int;  (** {!find} calls answered [None] *)
  spills : int;  (** hot-tier flushes to the log *)
  compactions : int;
  disk_records : int;  (** records currently in the log (pre-merge) *)
  mem_entries : int;
  recovered : int;  (** records recovered from an existing log at open *)
  lost_tail : bool;  (** open dropped a torn tail (crash recovery) *)
}

(** [create ?path ?mem_entries ()]: without [path] the table is purely
    in-memory and unbounded ([mem_entries] is ignored — a cap with no
    spill target could only drop entries).  With [path], the hot tier
    holds at most [mem_entries] keys (default unbounded) and spills
    wholesale to the log when it overflows; an existing log at [path] is
    recovered (see the module comment). *)
val create : ?path:string -> ?mem_entries:int -> unit -> t

val find : t -> Skey.t -> int option
val set : t -> Skey.t -> int -> unit

(** Max of the depth halves, or of the complete bits. *)
val merge_meta : int -> int -> int

(** Merge duplicate log records and atomically rewrite the log; also
    triggered automatically when the log outgrows the live key estimate. *)
val compact : t -> unit

val flush : t -> unit

(** Spill the hot tier and close the log (idempotent).  A reopened table
    at the same path answers everything this one knew. *)
val close : t -> unit

val stats : t -> stats

(** {1 v1 record codec} — exposed for the torture suite. *)

val header : string
val record_to_line : Skey.t -> int -> string

(** Raises [Sim.Trace_io.Parse_error] unless the line is a byte-exact v1
    record (sentinel present, hash check passes). *)
val record_of_line : string -> Skey.t * int
