(* A brute-force census of the one-register rw decision-tree space: the
   referee E12's CEGIS-derived rows are checked against.  It runs only
   the exhaustive checker ([Mc.Enumerate.dtree_check_verdict]) — no
   lemma replay, probes, adversary or solo-decision search — so a fault
   in any of those cannot hide here.

   A tree is solo-valid for [v] when the one-process run on input [v]
   is correct (every execution decides [v]); it survives unanimity when
   two copies are correct on [v; v]; a pair is correct when it is also
   correct on [0; 1] (identical processes make [1; 0] the same check). *)

module D = Consensus.Dtree

let style = D.Rw
let registers = 1
let trees ~coins depth = Mc.Enumerate.enumerate_dtrees ~style ~registers ~coins depth

let correct_on pair inputs =
  Mc.Enumerate.dtree_check_verdict ~style ~registers pair inputs = `Correct

let solo_valid v t = correct_on (t, t) [ v ]
let unanimous v t = correct_on (t, t) [ v; v ]

type t = {
  trees : int;
  valid : int * int;
  u0 : D.t list;  (** solo-valid for 0 and correct on [0; 0] *)
  u1 : D.t list;
}

(* the per-tree filters: affordable at every depth E12 runs *)
let filters ~coins depth =
  let all = trees ~coins depth in
  let v0 = List.filter (solo_valid 0) all and v1 = List.filter (solo_valid 1) all in
  {
    trees = List.length all;
    valid = (List.length v0, List.length v1);
    u0 = List.filter (unanimous 0) v0;
    u1 = List.filter (unanimous 1) v1;
  }

(* the pair sweep: one full search per surviving pair *)
let correct c =
  List.fold_left
    (fun acc t0 ->
      List.fold_left
        (fun acc t1 -> if correct_on (t0, t1) [ 0; 1 ] then acc + 1 else acc)
        acc c.u1)
    0 c.u0

(* E12's columns before "fully correct", for the same depth and coins *)
let row ~coins depth c =
  [
    string_of_int depth;
    string_of_bool coins;
    string_of_int c.trees;
    string_of_int (fst c.valid * snd c.valid);
    string_of_int (List.length c.u0 * List.length c.u1);
  ]
