(* E12 — "Table 4": exhaustive impossibility for bounded protocols.

   The paper's starting point — deterministic wait-free consensus from
   read-write registers is impossible — established mechanically for the
   class of bounded decision-tree protocols ([Consensus.Dtree] at one
   read-write register).  Each row is the n = 2 round of
   [Synth.Cegis.search] over every tree of depth <= d: trees are
   filtered by solo validity and unanimity, and every surviving pair of
   two identical processes is then refuted, by a replayed lemma (a
   concrete violating execution of that very pair) or by a fresh
   counterexample.  An [`Unsatisfiable] row is exhaustive: no pair is a
   correct protocol.  (Bounded trees always terminate, so safety is the
   only thing left to fail — and it always does.)

   The randomized rows add internal coin flips to the protocol grammar.
   Consensus may never err on any execution (Section 2: no Monte Carlo),
   so the adversary resolves coins too, and bounded randomized protocols
   fail exactly like deterministic ones — which is why genuine randomized
   consensus (Aspnes-Herlihy, Theorem 4.2, ...) must have unbounded
   executions of vanishing probability. *)

module Cegis = Synth.Cegis

(* [pool] only spreads the search: CEGIS rows are identical at any pool *)
let row ?pool ~coins depth =
  let r =
    Cegis.search ?pool ~style:Consensus.Dtree.Rw ~registers:1 ~depth ~coins
      ~max_procs:2 ~seed:1 ()
  in
  let n2 = List.hd r.Cegis.rows in
  [
    string_of_int depth;
    string_of_bool coins;
    string_of_int r.Cegis.trees;
    string_of_int (r.Cegis.valid0 * r.Cegis.valid1);
    string_of_int (n2.Cegis.unanimous0 * n2.Cegis.unanimous1);
    (match n2.Cegis.verdict with
    | `Unsatisfiable -> "0"
    | v -> Cegis.verdict_to_string v);
  ]

let table ?pool ?(depths = [ 0; 1; 2 ]) ?(randomized_depths = [ 1; 2 ]) () =
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
    (fun (coins, depth) -> Stats.Table.add_row t (row ?pool ~coins depth))
    (List.map (fun d -> (false, d)) depths
    @ List.map (fun d -> (true, d)) randomized_depths);
  t
