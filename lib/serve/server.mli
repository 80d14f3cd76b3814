(** The daemon behind [randsync serve]: a threaded socket server that
    multiplexes verification jobs over the {!Wire} protocol.

    {b Admission.}  The queue is bounded ([queue_limit]); a submit that
    finds it full is shed with an explicit [Overloaded] reply — the
    server never buffers without bound, and shedding is observable
    (["serve/shed"] counter).  While draining, submits get [Draining].

    {b Isolation.}  Each connection is handled by its own reader thread.
    A malformed frame is answered with [Error] and costs that client its
    connection; a disconnect (clean or half-closed) cancels only that
    client's attached jobs.  Detached jobs ([Submit {detach = true}])
    belong to no connection and are never cancelled by churn.  A worker
    never raises: a job whose {!Job.execute} raises (an unwritable spool
    checkpoint, say) is answered with status 1 and the one line
    [job failed: <exception>].

    {b Drain.}  SIGTERM (or a [Drain] request) stops admission, lets
    idle workers exit, and cancels running jobs via their {!Robust.Cancel}
    tokens; a job that {!Job.checkpoints} saves its cursor on the way
    out.  Jobs cut
    by the drain are left {e pending} in the spool (state
    [Interrupted]); jobs that complete despite it are recorded normally.
    After the workers join, metrics are dumped ({!Obs.dump}) and [run]
    returns — the CLI then exits 0.

    {b Resume.}  With a spool, accepted jobs are on disk before the
    [Accepted] reply.  A restarted server re-enqueues every job with no
    verdict and no cancel marker; determinism of the workloads makes the
    replay reach the verdict the interrupted run would have (a job that
    {!Job.checkpoints} resumes from the spool checkpoint
    {!Job.load_checkpoint} accepts; a missing or refused one means the
    prefix is recomputed).  Pinned by
    the kill-9 test in [test_serve]. *)

type address = [ `Unix of string | `Tcp of string * int ]

type config = {
  address : address;
  queue_limit : int;
  workers : int;
  spool_dir : string option;  (** [None]: no persistence, no resume *)
  obs : Obs.t option;
  progress_interval : float;
      (** min seconds between streamed [Progress] frames per job *)
}

val default_queue_limit : int
val default_workers : int

(** [run ?on_ready config] listens, serves until drained, and returns.
    [on_ready] fires once the socket is bound and recovery is done, with
    the concrete address (the actual port when [`Tcp (_, 0)] was asked).
    Installs SIGTERM/SIGINT handlers that trigger the drain and ignores
    SIGPIPE.  Raises [Unix.Unix_error] if the address cannot be bound. *)
val run : ?on_ready:(address -> unit) -> config -> unit
