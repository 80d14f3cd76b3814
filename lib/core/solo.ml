(* Goal predicates for the solo-termination search ({!Sim.Run.solo_search}).

   Lemma 3.4 runs a process "until it has decided or is poised at an
   object in V-bar"; the search's [~stop] takes the second half as a
   predicate.  These depend on {!Triviality}, which is why they live here
   and the search itself lives in [Sim.Run]. *)

(** Goal predicate: pid is poised at a nontrivial operation on an object
    outside [inside].  Combine with the implicit decided-goal to get
    Lemma 3.4's "until decided or poised at an object in V-bar". *)
let poised_outside inside config pid =
  match Triviality.poised_write config pid with
  | Some (obj, _) -> not (List.mem obj inside)
  | None -> false

(** Goal predicate: pid is poised at any nontrivial operation at all.
    Used to cut a solo execution at its first write (Lemma 3.2). *)
let poised_anywhere config pid = Triviality.poised_write config pid <> None
