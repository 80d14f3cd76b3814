(** Dependency-light observability: named monotonic counters, high-water
    marks and histograms ({!Metrics}), nested wall-clock span timers
    ({!span}), and a pluggable {!Sink} (null / in-memory / line-JSON file
    written through {!Robust.Persist.write}).

    The layer is built for the determinism contracts of this repo: engines
    never tick shared metrics from worker domains.  Instead each parallel
    task accumulates into its own {!Metrics.t} (or returns plain counters
    in its result record) and the caller merges after the barrier, in task
    order — instrumentation can therefore never introduce cross-domain
    contention or perturb the bit-identical-at-any-jobs guarantees pinned
    by [test/test_determinism.ml].  A {!t} handle must only be touched by
    the domain that created it; the one exception is {!Progress.heartbeat},
    which is explicitly multi-domain safe.

    Cost model: every instrumentation point in the engines is either
    guarded by [match obs with None -> ...] or records once at a merge
    boundary, so [?obs:None] (the default everywhere) costs one branch and
    the null sink costs a hash-table update per recorded name per run —
    the [bench --obs-bench] table pins the total at ≲2% on the
    [BENCH_mc.json] scenarios. *)

module Metrics : sig
  (** A named-metric accumulator: monotonic counters, high-water marks and
      float histograms, each keyed by a slash-separated name such as
      ["mc/nodes_visited"].  Not thread-safe — one accumulator per
      domain, merged with {!merge_into} after the barrier. *)
  type t

  val create : unit -> t

  (** [add t name k] bumps counter [name] by [k] ([k < 0] is clamped to 0:
      counters are monotonic). *)
  val add : t -> string -> int -> unit

  val incr : t -> string -> unit

  (** [record_max t name v] keeps the high-water mark of [v] under
      [name] (e.g. a depth watermark). *)
  val record_max : t -> string -> int -> unit

  (** [observe t name v] adds one sample to histogram [name]. *)
  val observe : t -> string -> float -> unit

  (** Count / sum / extrema plus power-of-two buckets: [buckets] lists
      [(upper_bound, samples <= upper_bound in this bucket)] pairs in
      increasing bound order. *)
  type histogram = {
    count : int;
    sum : float;
    min : float;
    max : float;
    buckets : (float * int) list;
  }

  (** Reads return 0 / [None] for never-recorded names. *)
  val counter : t -> string -> int

  val watermark : t -> string -> int
  val histogram : t -> string -> histogram option

  (** Snapshots, sorted by name (deterministic dump order). *)
  val counters : t -> (string * int) list

  val watermarks : t -> (string * int) list
  val histograms : t -> (string * histogram) list

  (** [merge_into ~into src] folds [src] into [into]: counters add,
      watermarks max, histograms merge bucket-wise.  [src] is unchanged. *)
  val merge_into : into:t -> t -> unit
end

module Sink : sig
  (** Where emitted lines go.  [null] drops them, [memory] keeps them (in
      emission order) for tests, [file] buffers them and writes the whole
      file with {!Robust.Persist.write} on {!flush}: never half-written,
      and {!Robust.Persist.Error} if it cannot be written. *)
  type t

  val null : t
  val memory : unit -> t

  (** [file path] buffers lines until {!flush}. *)
  val file : string -> t

  (** [false] exactly for {!null}: callers may skip formatting work. *)
  val enabled : t -> bool

  (** Emit one line (the line-JSON framing is the caller's business). *)
  val emit : t -> string -> unit

  (** Lines emitted so far, oldest first.  [[]] for null/file sinks. *)
  val contents : t -> string list

  (** Atomic write-out for [file] sinks; no-op otherwise.  Idempotent:
      flushing twice rewrites the same contents. *)
  val flush : t -> unit
end

(** One observability handle: a metrics accumulator plus a sink plus the
    span stack.  Owned by the creating domain. *)
type t

val create : ?sink:Sink.t -> unit -> t
val metrics : t -> Metrics.t
val sink : t -> Sink.t

(** The option-threading helpers the engines use ([?obs] parameters are
    [t option]); all are no-ops on [None]. *)

val add : t option -> string -> int -> unit

val incr : t option -> string -> unit
val record_max : t option -> string -> int -> unit
val observe : t option -> string -> float -> unit

(** [span obs name f] times [f ()] and records the duration (seconds)
    into histogram ["span/<path>"], where [<path>] is [name] prefixed by
    the names of the enclosing spans ("mc/search/subtree" when nested);
    an enabled sink additionally gets one
    [{"type":"span","name":...,"seconds":...}] line per completed span.
    Exception-safe: the span closes (and records) even if [f] raises. *)
val span : t option -> string -> (unit -> 'a) -> 'a

(** [alloc_span obs name f] runs [f] and adds the minor-heap words it
    allocated (the [Gc.minor_words] delta, rounded down; calling-domain
    only) to the ["<name>/minor-words"] counter.  The bench harness's
    per-row allocation column.  Exception-safe like {!span}; [None] just
    runs [f]. *)
val alloc_span : t option -> string -> (unit -> 'a) -> 'a

(** [dump ?extra obs] emits the whole metrics snapshot as line-JSON to the
    sink — one [{"type":"counter"|"watermark"|"histogram",...}] object per
    line, name-sorted within each type, preceded by a single
    [{"type":"meta",...}] line carrying the [extra] key/value pairs — and
    flushes.  Every line is a complete JSON object, so consumers can
    stream-parse without reading the whole file. *)
val dump : ?extra:(string * string) list -> t -> unit

module Progress : sig
  (** A throttled heartbeat for [--progress]: the returned closure prints
      [render ()] to [out] at most once per [interval] seconds (first call
      prints immediately) and is safe to call concurrently from any
      domain — exactly one caller wins each interval.  Designed to ride
      [Robust.Budget]'s poll cadence via the budget's [on_poll] hook. *)
  val heartbeat :
    ?interval:float ->
    ?out:out_channel ->
    render:(nodes:int -> steps:int -> string) ->
    unit ->
    nodes:int ->
    steps:int ->
    unit
end
