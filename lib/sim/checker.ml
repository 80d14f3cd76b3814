(* Correctness conditions for (binary) consensus runs, from Section 2:

   Consistency: all DECIDE operations return the same value.
   Validity:    every returned value is some process's input.

   These are safety properties checkable on any execution, terminating or
   not; a run that decides both 0 and 1 is the "inconsistent execution" the
   lower-bound adversaries construct. *)

type verdict = {
  consistent : bool;
  valid : bool;
  n_decided : int;
  values : int list;  (** distinct decided values *)
}

let check ~inputs ~decisions =
  let values = List.sort_uniq Int.compare decisions in
  {
    consistent = List.length values <= 1;
    valid = List.for_all (fun v -> List.exists (Int.equal v) inputs) values;
    n_decided = List.length decisions;
    values;
  }

let ok v = v.consistent && v.valid

(** The adversary's goal: an execution in which both 0 and 1 were decided. *)
let inconsistent ~decisions =
  match decisions with
  | [] -> false
  | v :: rest -> List.exists (fun w -> not (Int.equal v w)) rest

let of_config ~inputs config =
  check ~inputs ~decisions:(Config.decisions config)

let of_trace ~inputs trace =
  check ~inputs ~decisions:(List.map snd (Trace.decisions trace))

let pp ppf v =
  Fmt.pf ppf "consistent=%b valid=%b decided=%d values=[%a]" v.consistent
    v.valid v.n_decided
    Fmt.(list ~sep:(any ";") int)
    v.values
