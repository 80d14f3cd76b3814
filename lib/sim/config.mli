(** Configurations (Section 2): the value of every shared object plus the
    state of every process, persistent (updates copy), with crash-failure
    flags and per-process state fingerprints (see {!Fingerprint}). *)

type 'a t = {
  optypes : Optype.t array;
  objects : Value.t array;
  procs : 'a Proc.t array;
  halted : bool array;
  fps : Fingerprint.t array;
      (** consumed-history fingerprint per process, maintained by
          [Run.step]; hashes the process state (see [Mc.Explore]) *)
}

(** [make ~optypes ~procs] is the initial configuration: objects at their
    initial values, no process halted.  Each initial fingerprint is
    seeded with the slot's root class, the first slot that holds the very
    same ([==]) value, so equal initial fingerprints mean one term.  To
    make processes interchangeable, pass one value for all of them. *)
val make : optypes:Optype.t list -> procs:'a Proc.t list -> 'a t

val n_objects : 'a t -> int
val n_procs : 'a t -> int
val copy : 'a t -> 'a t

(** {1 Process status} *)

val decision : 'a t -> int -> 'a option
val is_decided : 'a t -> int -> bool
val is_halted : 'a t -> int -> bool

(** The process's current consumed-history fingerprint. *)
val fingerprint : 'a t -> int -> Fingerprint.t

(** Enabled: neither decided nor crashed. *)
val is_enabled : 'a t -> int -> bool

(** [iter_enabled t f] applies [f] to every enabled pid in ascending
    order, allocating nothing — the model checker's inner loop. *)
val iter_enabled : 'a t -> (int -> unit) -> unit

(** Whether any process is enabled ([not (all_decided t)], allocation-free). *)
val exists_enabled : 'a t -> bool

val enabled_pids : 'a t -> int list

(** Every process decided or halted. *)
val all_decided : 'a t -> bool

val decisions : 'a t -> 'a list

(** {1 Mutation (persistent)} *)

(** Crash a process: it takes no further steps. *)
val halt : 'a t -> int -> 'a t

(** Append a process in the given state; returns the new configuration and
    the new pid.  Used by the lower-bound adversaries to introduce clones;
    [?fp] carries over the fingerprint of the origin whose state was
    snapshotted. *)
val add_proc : ?fp:Fingerprint.t -> 'a t -> 'a Proc.t -> 'a t * int

(** {1 Poisedness} *)

(** The shared-memory operation the process is poised at, if any (trivial
    or not; see [Lowerbound.Triviality] for the paper's notion). *)
val pending : 'a t -> int -> (int * Op.t) option

(** Enabled processes whose next step applies to the given object. *)
val poised_at : 'a t -> int -> int list

val pp :
  (Format.formatter -> 'a -> unit) -> Format.formatter -> 'a t -> unit
