(** Schedulers — the adversaries of the model.  At each step a scheduler
    picks which enabled process moves and resolves internal coin flips.
    (The model checker and the lower-bound machinery bypass schedulers and
    drive {!Run.step} directly, enumerating outcomes.) *)

type 'a t = {
  name : string;
  choose : 'a Config.t -> step:int -> int option;
      (** Pick an enabled pid, or [None] to stop the run. *)
  coin : pid:int -> n:int -> int;  (** Resolve a coin flip. *)
}

(** Cycle through processes in pid order, skipping disabled ones. *)
val round_robin : ?seed:int -> unit -> 'a t

(** Uniformly random enabled process; fair coins. *)
val random : seed:int -> 'a t

(** Run one process solo; everyone else stalls. *)
val solo : pid:int -> seed:int -> 'a t

(** Starve [victim]: uniformly random among the other enabled processes;
    the victim moves only when nobody else can.  Fair coins. *)
val starving : victim:int -> seed:int -> 'a t

(** An adaptive adversary from a decision function. *)
val adaptive :
  name:string ->
  seed:int ->
  (Rng.t -> 'a Config.t -> step:int -> int option) ->
  'a t

(** Maximize contention: schedule among the processes poised at the most
    crowded object. *)
val contention : seed:int -> 'a t
