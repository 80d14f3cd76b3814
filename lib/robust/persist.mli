(** The one persistence layer (DESIGN.md §4d): every file the repository
    writes goes through {!write}, and every artifact a later run reads
    back is a {!frame}. *)

(** A file step failed: [op] is [open], [write], [fsync], [close],
    [rename], [fsync-dir] or [read] ([mkdir] and [readdir] in
    [Serve.Spool]). *)
type error = { path : string; op : string; err : Unix.error }

exception Error of error

(** A damaged or malformed artifact; [Sim.Trace_io.Parse_error] is this
    exception.  Both print (via [Printexc]) as their message alone. *)
exception Parse_error of string

(** [<path>: <op>: <reason>] *)
val error_message : error -> string

(** Durable atomic replace: write [<path>.tmp], fsync, close, rename over
    [path], fsync the directory.  On failure the temp file is unlinked,
    the descriptor closed and {!Error} raised; [path] keeps its previous
    bytes unless the directory fsync failed after the rename landed. *)
val write : path:string -> string -> unit

(** The whole file; raises {!Error} and never leaks its descriptor. *)
val read : path:string -> string

(** [decode (read ~path)], a {!Parse_error} re-raised as
    [<path>: parse: <reason>]. *)
val load : path:string -> (string -> 'a) -> 'a

(** [magic], the lines (right-trimmed), then [end <bytes> <md5-hex>] over
    the LF-terminated lines.  MD5 catches truncation and bit rot, not an
    adversary.  Raises [Invalid_argument] on a newline inside a line. *)
val frame : magic:string -> string list -> string

(** The lines of a frame.  CRLF, trailing blanks and blank lines after
    the trailer are tolerated; any other difference is a {!Parse_error}. *)
val unframe : magic:string -> string -> string list

(** Fault injection for tests: [!hook op] runs before each write(2),
    fsync, rename and directory fsync of {!write}; [Some kind] fails that
    step.  [Short_write] writes half the chunk and reports it. *)
module Fault : sig
  type op = Write | Fsync | Rename | Fsync_dir
  type kind = Enospc | Eio | Short_write

  val hook : (op -> kind option) ref
end
