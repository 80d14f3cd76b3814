(** Deterministic multicore execution for the batches of independent
    searches in this repo: adversarial attack sweeps, fuzz runs, synth
    candidates, and experiment fan-out.

    Two invariants govern everything here:

    - {b Determinism}: every combinator produces bit-identical results
      regardless of the number of domains and of how the OS schedules
      them.  Parallelism changes wall-clock time, never answers.  This is
      achieved by (a) indexing tasks and writing each result into its own
      slot, (b) reducing sequentially in task order after the barrier, and
      (c) deriving per-task RNGs from a root seed {e before} dispatch
      ({!Sim.Rng.split_n}), never from worker-local state.
    - {b No hangs}: a task that raises never wedges the pool.  Exceptions
      are captured per task; after the batch barrier the exception of the
      {e lowest-indexed} failing task is re-raised on the caller's domain
      (the same exception a sequential left-to-right run would surface),
      and the pool remains usable.

    All combinators take [?pool].  [None] means run sequentially on the
    calling domain — the baseline the determinism tests compare against. *)

(** Default worker count: [RANDSYNC_JOBS] if set to a positive integer,
    otherwise [Domain.recommended_domain_count ()]. *)
val default_jobs : unit -> int

module Pool : sig
  (** A persistent pool of [jobs - 1] worker domains plus the submitting
      domain, fed batches through a chunked work queue (an atomic cursor
      over the task index space; workers claim chunks with
      [fetch_and_add]). *)
  type t

  (** [create ~jobs ()] spawns [jobs - 1] worker domains ([jobs = 1]
      spawns none and runs everything on the caller).  Defaults to
      {!default_jobs}.

      [?obs] attaches scheduling observability: each batch bumps
      ["par/batches"], per-domain ["par/chunks/domain<i>"] and
      ["par/tasks/domain<i>"] counters (slot 0 is the submitting
      domain), and observes the submitter's straggler wait into the
      ["par/barrier-wait-seconds"] histogram.  Workers write only
      per-domain slots; the metrics accumulator itself is touched by the
      submitting domain alone, after the barrier.  These counters
      describe scheduling and are naturally jobs-variant — engine-level
      counters (["mc/*"], ["fuzz/*"]) stay jobs-invariant because
      engines record from merged results.  Without [?obs] the
      instrumentation paths are skipped entirely. *)
  val create : ?jobs:int -> ?obs:Obs.t -> unit -> t

  val jobs : t -> int

  (** [for_ t ~n body] runs [body i] for [0 <= i < n] across the pool and
      returns when all [n] tasks finished.  Exceptions are captured per
      task and the lowest-indexed one is re-raised after the barrier. *)
  val for_ : t -> n:int -> (int -> unit) -> unit

  (** Stop and join the worker domains.  The pool degrades to sequential
      execution afterwards (it never deadlocks a late caller).  Safe to
      call from several domains concurrently; every call returns. *)
  val shutdown : t -> unit
end

(** [with_pool ~jobs f] runs [f pool] and shuts the pool down on exit,
    including on exceptions. *)
val with_pool : ?jobs:int -> ?obs:Obs.t -> (Pool.t -> 'a) -> 'a

(** Order-preserving parallel map: [map ?pool f xs] equals
    [List.map f xs] for any pool. *)
val map : ?pool:Pool.t -> ('a -> 'b) -> 'a list -> 'b list

(** Like {!map} with the task index. *)
val mapi : ?pool:Pool.t -> (int -> 'a -> 'b) -> 'a list -> 'b list

val map_array : ?pool:Pool.t -> ('a -> 'b) -> 'a array -> 'b array

(** [map_reduce ?pool ~map ~reduce ~init xs] maps in parallel and folds
    the results {e sequentially, in input order}:
    [fold_left reduce init (List.map map xs)].  [reduce] need not be
    commutative — order preservation makes the fold deterministic. *)
val map_reduce :
  ?pool:Pool.t ->
  map:('a -> 'b) ->
  reduce:('acc -> 'b -> 'acc) ->
  init:'acc ->
  'a list ->
  'acc

(** [map_seeded ?pool ~seed f xs] gives task [i] its own generator, the
    [i]-th sequential split of [Rng.create seed], computed before
    dispatch.  Task [i] therefore sees the same stream under any [?pool],
    which is what makes seeded sweeps reproducible across [--jobs]. *)
val map_seeded :
  ?pool:Pool.t -> seed:int -> (Sim.Rng.t -> 'a -> 'b) -> 'a list -> 'b list

(** A mutex-guarded double-ended work queue for the sharded frontier
    ([Mc.Shard]): the owner pushes and pops at the bottom (LIFO), other
    domains steal from the top (FIFO, oldest first).  Safe for any number
    of concurrent owners and thieves; every operation locks, which is
    deliberate — items are coarse (a whole replay-and-expand unit), so a
    lock-free ring would not be measurable here. *)
module Wsq : sig
  type 'a t

  val create : unit -> 'a t
  val push : 'a t -> 'a -> unit

  (** Owner end: most recently pushed. *)
  val pop : 'a t -> 'a option

  (** Thief end: oldest. *)
  val steal : 'a t -> 'a option

  (** Instantaneous size (racy under concurrency, exact when quiescent). *)
  val length : 'a t -> int
end
