(** Verification jobs: the unit of work the server admits, persists,
    executes and replies to.

    A job is a declarative request for one of the three workload families
    (model-check, fuzz campaign, lower-bound attack) plus an optional
    per-job wall-clock deadline.  Specs are plain data with a versioned
    JSON codec, so the same bytes travel the wire ([Wire.Submit]) and the
    spool (crash-safe restart re-reads them verbatim).

    {b Verdict identity.}  [execute] renders its result with the same
    report functions the CLI's [mc]/[fuzz] subcommands print through
    ({!mc_report}, {!fuzz_report}), so a job's verdict lines are
    byte-identical to a direct [randsync mc]/[randsync fuzz] run of the
    same parameters — the chaos suite pins this.  An mc job runs the one
    sequential search the CLI's [mc] runs, and fuzz/attack jobs are
    jobs-invariant by their determinism contracts, so the identity holds
    at any [--jobs].

    {b Statuses.}  [outcome.status] reuses the CLI exit-code contract
    verbatim (0 clean / 1 bad input / 2 violation / 3 truncated / 4
    attack failed / 5 progress violation) — the wire status of a verdict
    is the exit code the same job would have produced locally. *)

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
      (** per-job wall-clock budget in seconds, enforced server-side via
          the job's budget/cancel token.  Deadline-truncated frontiers
          are best-effort, so a deadline job forfeits the byte-identity
          guarantee (the verdict stays sound). *)
}

val mc_defaults : protocol:string -> mc
val fuzz_defaults : scenario:string -> fuzz

(** A short human label: ["mc counter-3"], ["fuzz flawed"], ... *)
val label : t -> string

(** The checkpoint scenario stamp for an mc job — character-identical to
    the one [randsync mc --checkpoint] writes, so server checkpoints and
    CLI checkpoints are mutually resumable. *)
val mc_stamp : mc -> string

(** {1 JSON codec} (one object, ["kind"] discriminated).  Decoding
    validates kinds, field types and enum values; unknown kinds and
    malformed fields are loud [Error]s. *)

val to_json : t -> Json.t
val of_json : Json.t -> (t, string) result

(** {1 Execution} *)

type outcome = { status : int; lines : string list }

val outcome_to_json : id:int -> outcome -> Json.t
val outcome_of_json : Json.t -> (int * outcome, string) result

(** [execute ?cancel ?on_poll ?checkpoint job] runs the job to an
    outcome.  [cancel] is the server's per-job kill switch (client
    cancel, client disconnect, drain); [on_poll] rides the budget's poll
    cadence (progress streaming).  [checkpoint] (mc jobs only) names a
    file: the search (the same one an uncheckpointed job runs) then
    writes its cursor there periodically and at any budget trip, and —
    when the file already holds a matching-stamp checkpoint and the job's
    dedup is [`Off] — resumes from it, shrinking any node allowance by the
    nodes already visited so the resumed run reproduces the
    uninterrupted one's frontier exactly.  Never raises: unknown
    protocols/scenarios return [status = 1] outcomes, unexpected
    exceptions are caught and reported as [status = 1] with the
    exception text as the only line. *)
val execute :
  ?cancel:Robust.Cancel.t ->
  ?on_poll:(nodes:int -> steps:int -> unit) ->
  ?checkpoint:string ->
  t ->
  outcome

(** {1 Shared report renderers} — the CLI prints these lines verbatim;
    [execute] embeds them in verdict frames.  Divergence between server
    and CLI output is therefore impossible by construction. *)

val mc_report : int Mc.Explore.result -> outcome

val fuzz_report : describe:string -> seed:int -> Fuzz.Campaign.result -> outcome
