(** A flat configuration: one int slab of interned ids ({!Intern}) —
    object value ids followed by per-process state ids — plus crash
    flags.  The slab is the model checker's transposition key as it
    stands ({!slab_copy}).  Clone is a blit; slot writes are single
    stores and self-inverse, which is what makes the model checker's
    in-place DFS undo discipline work.  See the implementation's module
    comment for the slab layout. *)

type 'a t

type roots =
  | Per_slot  (** every process gets its own root id; always sound *)
  | By_fp
      (** processes with equal initial fingerprints share a root id —
          requires the [`Symmetric] precondition (equal fingerprint
          seeds ⇒ equal protocol terms) *)

val of_config : ?rt:'a Intern.t -> roots:roots -> 'a Config.t -> 'a t
(** Flatten a closure configuration, interning into [rt] (fresh table
    when omitted).  Pass an existing [rt] to share forced states across
    many runs of the same protocol. *)

val rt : 'a t -> 'a Intern.t
val n_objs : 'a t -> int
val n_procs : 'a t -> int

val obj_vid : 'a t -> int -> int
(** Current value id of object [i]. *)

val sid : 'a t -> int -> int
(** Current state id of process [p]. *)

val is_halted : 'a t -> int -> bool
val is_decided : 'a t -> int -> bool
val is_enabled : 'a t -> int -> bool

val enabled_count : 'a t -> int
(** Number of enabled processes, maintained incrementally. *)

val all_decided : 'a t -> bool
val decision : 'a t -> int -> 'a option
val fingerprint : 'a t -> int -> Fingerprint.t

val fingerprints : 'a t -> Fingerprint.t array
(** Fresh array of every process's consumed-history fingerprint, in pid
    order.  Together with {!objects} this is the engine- and
    intern-table-independent serialization of the configuration: the
    canonical key the sharded model checker routes and deduplicates on
    ([Mc.Dtbl.Skey]), identical to what the closure engine derives from
    [Config.fps]. *)

val objects : 'a t -> Value.t array
(** Fresh array of the current object values, decoded from their interned
    ids ({!Intern.value}); companion of {!fingerprints}. *)

val decisions : 'a t -> 'a list
(** Decided values in pid order (same order as [Config.decisions]). *)

val slab_copy : 'a t -> into:int array -> unit
(** Copy the whole slab (object vids then sids) into [into], which must
    have length [n_objs + n_procs]: the transposition-key fill of the
    flat search is this one copy (plus a sort of the sid slice under
    [`Symmetric]). *)

val clone : 'a t -> 'a t
(** Independent copy sharing the intern table: one array copy + one
    bytes copy. *)

val blit : src:'a t -> dst:'a t -> unit
(** Overwrite [dst] with [src]'s state (same shapes assumed): the
    allocation-free per-run reset. *)

val write_obj : 'a t -> int -> int -> unit
(** [write_obj t i vid] sets object [i]'s value id.  Writes are
    self-inverse: writing the old id back restores the slab exactly. *)

val write_sid : 'a t -> int -> int -> unit
(** [write_sid t p sid] sets process [p]'s state id; does NOT touch the
    enabled count (see {!note_decided}). *)

val halt : 'a t -> int -> unit
(** Crash process [p] in place (idempotent). *)

val note_decided : 'a t -> int -> unit
(** Account for process [p] having just transitioned to a decided
    state: call exactly once per undecided→decided [write_sid] (and its
    inverse is re-incrementing via {!note_undecided} when undoing). *)

val note_undecided : 'a t -> int -> unit
(** Inverse of {!note_decided}, for DFS undo. *)

val pp : 'a Fmt.t -> 'a t Fmt.t
