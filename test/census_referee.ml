(* A brute-force census of a decision-tree class (any style, register
   count, depth and coin setting): the referee E12's CEGIS-derived rows
   and CEGIS's own rounds are checked against.  It runs only the
   exhaustive checker ([Mc.Enumerate.dtree_check_verdict]) — no lemma
   replay, probes, adversary, solo-decision walk or mirror reduction —
   so a fault in any of those cannot hide here.

   A tree is solo-valid for [v] when the one-process run on input [v]
   is correct (every execution decides [v]); it survives unanimity at
   [n] when [n] copies are correct on the all-[v] vector; a pair is
   correct at [n] when it is also correct on every mixed vector
   [k zeros ++ (n - k) ones] (identical processes make the order of a
   vector irrelevant). *)

module D = Consensus.Dtree

type cls = { style : D.style; registers : int; coins : bool; depth : int }

(* E12's class: one rw register *)
let e12 ~coins depth = { style = D.Rw; registers = 1; coins; depth }

let trees c =
  Mc.Enumerate.enumerate_dtrees ~style:c.style ~registers:c.registers
    ~coins:c.coins c.depth

let correct_on c pair inputs =
  Mc.Enumerate.dtree_check_verdict ~style:c.style ~registers:c.registers pair
    inputs
  = `Correct

let solo_valid c v t = correct_on c (t, t) [ v ]
let unanimous c ~n v t = correct_on c (t, t) (List.init n (fun _ -> v))

let mixed n =
  List.init (n - 1) (fun i -> List.init n (fun j -> if j <= i then 0 else 1))

let pair_correct c ~n pair = List.for_all (correct_on c pair) (mixed n)

type t = {
  trees : int;
  valid : int * int;
  u0 : D.t list;  (** solo-valid for 0 and unanimous on all zeros *)
  u1 : D.t list;
}

(* the per-tree filters at [n] (E12's are at n = 2): affordable at every
   depth E12 runs *)
let filters ?(n = 2) c =
  let all = trees c in
  let v0 = List.filter (solo_valid c 0) all
  and v1 = List.filter (solo_valid c 1) all in
  {
    trees = List.length all;
    valid = (List.length v0, List.length v1);
    u0 = List.filter (unanimous c ~n 0) v0;
    u1 = List.filter (unanimous c ~n 1) v1;
  }

(* the pair sweep at n = 2: one full search per surviving pair *)
let correct c f =
  List.fold_left
    (fun acc t0 ->
      List.fold_left
        (fun acc t1 -> if correct_on c (t0, t1) [ 0; 1 ] then acc + 1 else acc)
        acc f.u1)
    0 f.u0

(* E12's columns before "fully correct", for the same depth and coins *)
let row c f =
  [
    string_of_int c.depth;
    string_of_bool c.coins;
    string_of_int f.trees;
    string_of_int (fst f.valid * snd f.valid);
    string_of_int (List.length f.u0 * List.length f.u1);
  ]

(* The first correct pair at [n] over all of u0 x u1, t0-major in
   enumeration order, if any. *)
let first_correct c ~n f =
  List.find_map
    (fun t0 ->
      List.find_map
        (fun t1 -> if pair_correct c ~n (t0, t1) then Some (t0, t1) else None)
        f.u1)
    f.u0

(* CEGIS's rounds by brute force: per n = 2 .. [max_procs], the
   unanimity counts and the first correct pair, stopping after the first
   n without one (correctness is monotone downward in n). *)
let rounds c ~max_procs =
  let rec go n =
    if n > max_procs then []
    else
      let f = filters ~n c in
      let w = first_correct c ~n f in
      (n, List.length f.u0, List.length f.u1, w)
      :: (if w = None then [] else go (n + 1))
  in
  go 2
