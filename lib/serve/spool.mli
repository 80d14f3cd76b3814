(** Crash-safe job persistence.

    One directory, a few small files per job, every write durable and
    atomic ({!Robust.Persist.write}), so the spool is consistent at every
    instant — a kill -9 or power loss between any two syscalls leaves
    either the old state or the new one, never a torn file:

    - [job-<id>.json] — the spec, written {e before} the [accepted]
      reply goes out (an accepted job is on disk by definition);
    - [job-<id>.verdict] — the outcome, written when the job finishes;
    - [job-<id>.cancelled] — a marker for client/operator cancellation;
    - [job-<id>.ckpt] — the mc search checkpoint ({!Mc.Checkpoint}
      format) of a job that {!Job.checkpoints}, written by the running
      search itself.

    [recover] classifies what a restarted server owes its past self: a
    job with a verdict or a cancel marker is terminal; anything else —
    queued or in flight at the crash — is pending and gets re-enqueued.
    Re-running pending work is safe because every workload is
    deterministic: the replay reaches the verdict the interrupted run
    would have, with an mc checkpoint merely skipping the prefix. *)

type t

(** Creates [dir] (and parents) if needed.  Raises
    {!Robust.Persist.Error} (op [mkdir]) if it cannot, or if [dir] is not a
    directory. *)
val create : dir:string -> t

val dir : t -> string

(** The three writers raise {!Robust.Persist.Error}. *)
val add : t -> id:int -> Job.t -> unit
val record_verdict : t -> id:int -> Job.outcome -> unit
val mark_cancelled : t -> id:int -> unit

(** Where job [id]'s mc search checkpoints; the file need not exist. *)
val checkpoint_path : t -> id:int -> string

type entry = {
  id : int;
  job : Job.t;
  fate : [ `Pending | `Finished of Job.outcome | `Cancelled ];
}

type recovered = {
  entries : entry list;  (** id order *)
  next_id : int;  (** strictly above every id ever spooled *)
}

(** Unreadable or unparsable entries are skipped with a note on stderr —
    a corrupt spool degrades to losing that job, never to a crash or a
    silently wrong replay.  A directory that cannot be listed raises
    {!Robust.Persist.Error} (op [readdir]). *)
val recover : t -> recovered
