(** Verification jobs: the unit of work the server admits, persists,
    executes and replies to.

    A job is a declarative request for one of the three workload families
    (model-check, fuzz campaign, lower-bound attack) plus an optional
    per-job wall-clock deadline.  Specs are plain data with a versioned
    JSON codec, so the same bytes travel the wire ([Wire.Submit]) and the
    spool (crash-safe restart re-reads them verbatim).

    {b Verdict identity.}  [execute] is the one executor: the server's
    workers and the CLI's [mc]/[fuzz]/[attack] subcommands all run it, so
    a job's verdict lines are byte-identical to a direct [randsync
    mc]/[fuzz]/[attack] run of the same parameters — [test_serve] pins
    this.  An mc job runs the one sequential search, and fuzz/attack jobs
    are jobs-invariant by their determinism contracts, so the identity
    holds at any [--jobs].

    {b Statuses.}  [outcome.status] is the CLI exit code ({!Status}) —
    the wire status of a verdict is the exit code the same job would have
    produced locally. *)

type mc = {
  mc_protocol : string;
  mc_inputs : int list;
  mc_depth : int;
  mc_max_states : int;
  mc_dedup : [ `Off | `Exact | `Symmetric ];
  mc_max_nodes : int option;
}

type fuzz = {
  fz_scenario : string;
  fz_inputs : int list option;
  fz_engine : [ `Flat | `Closure ];
  fz_runs : int;
  fz_seed : int;
  fz_shrink : bool;
  fz_max_candidates : int;
  fz_max_runs : int option;
}

type attack = { at_protocol : string; at_general : bool; at_seeds : int }

type spec = Mc of mc | Fuzz of fuzz | Attack of attack

type t = {
  spec : spec;
  deadline : float option;
      (** wall-clock budget in seconds from the start of {!execute}
          (the CLI's [--deadline]).  Deadline-truncated frontiers are
          best-effort, so a deadline job forfeits the byte-identity
          guarantee (the verdict stays sound). *)
}

val mc_defaults : protocol:string -> mc
val fuzz_defaults : scenario:string -> fuzz

(** A short human label: ["mc counter-3"], ["fuzz flawed"], ... *)
val label : t -> string

(** The spec's own constraints: inputs non-empty and binary, and a
    process count the named registry protocol supports, [depth >= 0],
    [max_states >= 1], [runs >= 1], [seeds], [max_candidates],
    [max_nodes], [max_runs] and [deadline] non-negative.  The message
    names the CLI flag ([--runs must be >= 1]).  {!of_json} and
    {!execute} both apply it. *)
val validate : t -> (unit, string) result

(** {1 Checkpoints} *)

(** The one checkpoint rule: only an mc job with [mc_dedup = `Off]
    checkpoints or resumes.  Its resumed run is the uninterrupted one,
    node for node; a table's contents are not checkpointed, so a resumed
    dedup run could answer another verdict.  {!execute} refuses the rest,
    and the server gives no other job a spool checkpoint. *)
val checkpoints : t -> bool

(** [load_checkpoint t ~path] is the resume state saved in [path] for
    job [t].  [Error msg] if [t] may not resume ({!checkpoints}), the
    file cannot be read or parsed, or it was saved for another search
    (its scenario stamp: protocol, inputs, depth, max-states, dedup —
    one stamp for CLI and server checkpoints, so each resumes the
    other's).  [msg] is what [randsync mc --resume] prints before it
    exits 1; the server runs such a job afresh. *)
val load_checkpoint : t -> path:string -> (Mc.Checkpoint.state, string) result

(** The enum spellings the JSON codec and the CLI flags share. *)
val dedup_of_name : string -> ([ `Off | `Exact | `Symmetric ], string) result

val engine_of_name : string -> ([ `Flat | `Closure ], string) result

(** {1 JSON codec} (one object, ["kind"] discriminated).  Decoding
    validates kinds, field types and enum values, then {!validate}s the
    spec; unknown kinds and malformed fields are loud [Error]s. *)

val to_json : t -> Json.t
val of_json : Json.t -> (t, string) result

(** {1 Execution} *)

type outcome = { status : int; lines : string list }

(** The exit-code contract of every [randsync] subcommand and of the
    wire (README has the table): [clean] 0, [bad_args] 1, [violation] 2,
    [truncated] 3 (a budget cut the answer short), [attack_failed] 4,
    [progress] 5 (a stuck call).  [bad_args] and [attack_failed] outcomes
    carry no verdict; the CLI prints their lines to stderr. *)
module Status : sig
  val clean : int
  val bad_args : int
  val violation : int
  val truncated : int
  val attack_failed : int
  val progress : int
end

val outcome_to_json : id:int -> outcome -> Json.t
val outcome_of_json : Json.t -> (int * outcome, string) result

(** What a job constructed — a fuzz counterexample, or the execution of
    a completed attack, inconsistent or not — for callers that act on it
    (the CLI's [attack --save/--trace/--certify] and [fuzz --out]).  It
    is not part of the outcome, so a served job never exposes it. *)
type witness =
  | Attack_witness of Consensus.Protocol.t * Lowerbound.Attack.outcome
  | General_witness of Lowerbound.General_attack.outcome
  | Fuzz_witness of Fuzz.Campaign.counterexample

(** [execute job] validates and runs the job to an outcome; an invalid
    spec or unknown protocol/scenario is a [Status.bad_args] outcome.
    - [obs] receives the engines' counters and the [attack/*] counters
      and span.
    - [pool] runs the fuzz campaign and the attack seed sweep, whose
      results are the same for any pool.
    - [cancel] is a kill switch (client cancel, drain, SIGTERM);
      [on_poll] rides the budget's poll cadence (progress).  The spec's
      [deadline] is relative to the call.
    - [checkpoint] names a file the search writes its cursor to every
      [checkpoint_every] nodes (default 50,000; below 1 is a
      [Status.bad_args] outcome) and at any budget trip; it is never
      read.
    - [resume] continues a checkpointed search ({!load_checkpoint}).
      The node allowance shrinks by the nodes the checkpoint already
      visited, so the resumed run stops at the uninterrupted run's
      frontier.
    - [checkpoint] or [resume] for a job that does not {!checkpoints} is
      a [Status.bad_args] outcome naming the flags; nothing is searched
      or written.
    - [on_witness] receives the job's {!witness}, if it has one.

    File failures of [checkpoint] raise {!Robust.Persist.Error}. *)
val execute :
  ?obs:Obs.t ->
  ?pool:Par.Pool.t ->
  ?cancel:Robust.Cancel.t ->
  ?on_poll:(nodes:int -> steps:int -> unit) ->
  ?checkpoint:string ->
  ?checkpoint_every:int ->
  ?resume:Mc.Checkpoint.state ->
  ?on_witness:(witness -> unit) ->
  t ->
  outcome
