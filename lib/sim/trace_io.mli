(** Durable witness artifacts: serialize and parse traces in a stable,
    line-oriented text format, so counterexample executions can be saved,
    diffed and reloaded.  The text is a {!Robust.Persist} frame (header
    [randsync-trace v1], checksummed trailer), so a truncated or damaged
    trace is a loud {!Parse_error}.  Symbols must not contain whitespace
    or the delimiters [,;)\]] (every symbol this repository uses
    qualifies). *)

(** {!Robust.Persist.Parse_error}, raised by every codec. *)
exception Parse_error of string

val encode_value : Value.t -> string

(** Raises {!Parse_error} on malformed input. *)
val decode_value : string -> Value.t

(** Int-decision (binary consensus) traces, one event per frame line. *)
val to_text_int : int Trace.t -> string

val of_text_int : string -> int Trace.t

(** Via {!Robust.Persist}: [load_int] raises its [Error] or [Parse_error]. *)
val save_int : path:string -> int Trace.t -> unit

val load_int : path:string -> int Trace.t
