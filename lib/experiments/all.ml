(* The full experiment harness: every table/figure of EXPERIMENTS.md, in
   order, with a [quick] mode for CI-speed runs.

   [pool] fans an experiment's independent cells out across domains; the
   parallelized experiments (e2, e3, e4, e14 — see EXPERIMENTS.md) derive
   every cell's parameters and seeds before dispatch, so the produced
   table is bit-identical for any pool, [None] included.  e12 hands the
   pool to the CEGIS search, whose rows are pool-invariant.  The other
   experiments ignore the pool. *)

type spec = {
  id : string;
  title : string;
  run : pool:Par.Pool.t option -> quick:bool -> Stats.Table.t;
}

let specs =
  [
    {
      id = "e1";
      title = "Table 1 - Section 4 separation (primitive x power)";
      run = (fun ~pool:_ ~quick -> E1_separation.table ~reps:(if quick then 5 else 30) ());
    };
    {
      id = "e2";
      title = "Figure 2 - identical-process lower bound witnesses (Thm 3.3)";
      run = (fun ~pool ~quick -> E2_identical_lb.table ?pool ~max_r:(if quick then 3 else 4) ());
    };
    {
      id = "e3";
      title = "Figure 3 - general historyless lower bound witnesses (Lemma 3.6)";
      run = (fun ~pool ~quick -> E3_general_lb.table ?pool ~max_r:(if quick then 2 else 3) ());
    };
    {
      id = "e4";
      title = "Figure 4 - space for randomized n-consensus, upper vs lower";
      run = (fun ~pool ~quick:_ -> E4_space.table ?pool ());
    };
    {
      id = "e5";
      title = "Figure 5 - expected work to consensus under a random adversary";
      run =
        (fun ~pool:_ ~quick ->
          if quick then E5_work.table ~ns:[ 2; 4; 8 ] ~reps:5 ()
          else E5_work.table ());
    };
    {
      id = "e6";
      title = "Figure 6 - shared-coin random walk: flips and agreement";
      run =
        (fun ~pool:_ ~quick ->
          if quick then E6_coin.table ~ns:[ 2; 4 ] ~reps:10 ()
          else E6_coin.table ());
    };
    {
      id = "e7";
      title = "Table 2 - object algebra, classified exhaustively";
      run = (fun ~pool:_ ~quick:_ -> E7_classify.table ());
    };
    {
      id = "e8";
      title = "Table 3 - Theorem 2.1 transfer to Corollaries 4.1/4.3/4.5";
      run = (fun ~pool:_ ~quick:_ -> E8_transfer.table ());
    };
    {
      id = "e9";
      title = "Figure 7 - solo termination vs wait-freedom (snapshot reader)";
      run =
        (fun ~pool:_ ~quick ->
          if quick then E9_solo_vs_waitfree.table ~writers:[ 0; 2 ] ~reps:8 ()
          else E9_solo_vs_waitfree.table ());
    };
    {
      id = "e10";
      title = "Figure 8 - FLP bivalence survival: why randomization is needed";
      run =
        (fun ~pool:_ ~quick ->
          if quick then E10_bivalence.table ~probe:6 ()
          else E10_bivalence.table ());
    };
    {
      id = "e11";
      title = "Figure 9 - crash-fault tolerance of the randomized protocols";
      run =
        (fun ~pool:_ ~quick ->
          if quick then E11_crash.table ~n:4 ~fs:[ 0; 2 ] ~reps:5 ()
          else E11_crash.table ());
    };
    {
      id = "e12";
      title =
        "Table 4 - exhaustive impossibility: every bounded register protocol fails";
      run =
        (fun ~pool ~quick ->
          if quick then
            E12_impossibility.table ?pool ~depths:[ 0; 1 ]
              ~randomized_depths:[ 1 ] ()
          else E12_impossibility.table ?pool ());
    };
    {
      id = "e13";
      title = "Table 5 - mutual exclusion: the classical foil, checked";
      run =
        (fun ~pool:_ ~quick ->
          if quick then E13_mutex.table ~reps:3 () else E13_mutex.table ());
    };
    {
      id = "e14";
      title = "Table 6 - ablation: the cursor staleness slack is load-bearing";
      run =
        (fun ~pool ~quick ->
          if quick then E14_ablation.table ?pool ~ns:[ 2; 4 ] ~reps:15 ()
          else E14_ablation.table ?pool ());
    };
  ]

let find id = List.find_opt (fun s -> s.id = id) specs

let run_all ?pool ?(quick = false) () =
  List.iter
    (fun s ->
      Printf.printf "\n=== %s: %s ===\n\n" (String.uppercase_ascii s.id) s.title;
      Stats.Table.print (s.run ~pool ~quick);
      print_newline ())
    specs
