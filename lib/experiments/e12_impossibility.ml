(* E12 — "Table 4": exhaustive impossibility for bounded protocols.

   The paper's starting point — deterministic wait-free consensus from
   read-write registers is impossible — established by brute force for
   the class of bounded decision-tree protocols ([Consensus.Dtree] at one
   read-write register): EVERY protocol of depth <= 2 for two identical
   processes is enumerated and model-checked; each either violates
   validity or admits an inconsistent interleaving.  (Bounded trees
   always terminate, so safety is the only thing left to fail — and it
   always does.)

   The randomized rows add internal coin flips to the protocol grammar.
   Consensus may never err on any execution (Section 2: no Monte Carlo),
   so the adversary resolves coins too, and bounded randomized protocols
   fail exactly like deterministic ones — which is why genuine randomized
   consensus (Aspnes-Herlihy, Theorem 4.2, ...) must have unbounded
   executions of vanishing probability. *)

type row = { coins : bool; census : Mc.Enumerate.census }

(* [dedup] reaches every model-checking call of the census; [`Symmetric]
   (the default) is sound here because each tree is a function of the
   input — see [Mc.Enumerate.dtree_check_verdict].  [budget] reaches
   them too: a governed census stays a valid impossibility witness only
   when it completes ungoverned — a truncated check counts its pair as
   not correct, so budgets can only shrink the survivor columns, never
   manufacture a correct protocol. *)
let rows ?dedup ?budget ?(depths = [ 0; 1; 2 ]) ?(randomized_depths = [ 1; 2 ])
    () =
  let census ~coins depth =
    Mc.Enumerate.census_of_trees ?budget ?dedup ~depth
      (Mc.Enumerate.enumerate_dtrees ~style:Consensus.Dtree.Rw ~registers:1
         ~coins depth)
  in
  List.map
    (fun depth -> { coins = false; census = census ~coins:false depth })
    depths
  @ List.map
      (fun depth -> { coins = true; census = census ~coins:true depth })
      randomized_depths

let table ?dedup ?budget ?depths ?randomized_depths () =
  let t =
    Stats.Table.create
      ~header:
        [
          "depth";
          "coins";
          "protocol trees";
          "solo-valid pairs";
          "+ unanimous-valid";
          "fully correct";
        ]
  in
  List.iter
    (fun { coins; census = c } ->
      let { Mc.Enumerate.depth; trees; candidate_pairs; survive_unanimous;
            correct; _ } =
        c
      in
      Stats.Table.add_row t
        [
          string_of_int depth;
          string_of_bool coins;
          string_of_int trees;
          string_of_int candidate_pairs;
          string_of_int survive_unanimous;
          string_of_int correct;
        ])
    (rows ?dedup ?budget ?depths ?randomized_depths ());
  t
