(* The bounded decision-tree space behind E12: tree counts and solo
   semantics, E12's rows against the brute-force referee
   ([Census_referee]), and the model-checker regression the census
   uncovered (initial decisions must be checked). *)

open Sim
open Mc

module D = Consensus.Dtree

(* one-register rw trees, written in the [Dtree] codec *)
let tree s = Result.get_ok (D.of_string s)
let solo_decisions = Enumerate.dtree_solo_decisions ~registers:1

let solo_value t =
  match solo_decisions t with
  | [ v ] -> v
  | vs -> Alcotest.failf "%d reachable solo outcomes" (List.length vs)

let test_tree_counts () =
  let count ?(style = D.Rw) ~coins depth =
    List.length (Enumerate.enumerate_dtrees ~style ~registers:1 ~coins depth)
  in
  Alcotest.(check int) "depth 0" 2 (count ~coins:false 0);
  Alcotest.(check int) "depth 1" 14 (count ~coins:false 1);
  Alcotest.(check int) "depth 2" 2774 (count ~coins:false 2);
  Alcotest.(check int) "depth 1 with coins" 18 (count ~coins:true 1);
  (* swap style at depth 1: 2 decides + 2x8 one-swap trees + 8 reads *)
  Alcotest.(check int) "swap depth 1" 26
    (count ~style:D.Swapping ~coins:false 1)

let test_tree_semantics () =
  Alcotest.(check int) "decide" 0 (solo_value (tree "d0"));
  Alcotest.(check int) "write then decide" 1 (solo_value (tree "w0.0(d1)"));
  (* read from the empty register takes the empty branch *)
  Alcotest.(check int) "read empty branch" 0
    (solo_value (tree "r0(d0,d1,d1)"));
  Alcotest.(check int) "write then read own" 1
    (solo_value (tree "w0.1(r0(d0,d0,d1))"))

(* E12's rows come from CEGIS's n = 2 round; the brute-force referee
   must print the same row wherever it can afford every pair *)
let check_e12_row ~coins depth =
  let cls = Census_referee.e12 ~coins depth in
  let c = Census_referee.filters cls in
  let correct = Census_referee.correct cls c in
  Alcotest.(check (list string))
    (Printf.sprintf "E12 row, depth %d coins %b" depth coins)
    (Census_referee.row cls c @ [ string_of_int correct ])
    (Experiments.E12_impossibility.row ~coins depth);
  (c, correct)

let test_census_depth1_impossible () =
  let c, correct = check_e12_row ~coins:false 1 in
  Alcotest.(check int) "no correct protocol" 0 correct;
  Alcotest.(check (pair int int)) "7 x 7 solo-valid trees" (7, 7) c.valid

let test_census_depth0 () =
  let c, correct = check_e12_row ~coins:false 0 in
  Alcotest.(check (pair int int)) "one candidate pair (D0, D1)" (1, 1) c.valid;
  Alcotest.(check int) "and it is inconsistent" 0 correct

let test_census_randomized_depth1 () =
  let c, correct = check_e12_row ~coins:true 1 in
  Alcotest.(check int) "18 trees with coins" 18 c.trees;
  Alcotest.(check int) "coins do not help" 0 correct

(* Depth 2 has 1.4 M (5.3 M with coins) unanimity-surviving pairs, too
   many for the referee's per-pair search.  Its filters still run in
   full and must give E12's counts (the coin row's are the table's
   published figures: its CEGIS run would triple this test's time); a
   seeded sample of the surviving pairs must each fail the full search
   on [0; 1], as CEGIS claims every one of them does. *)
let test_census_depth2_sample () =
  List.iter
    (fun coins ->
      let cls = Census_referee.e12 ~coins 2 in
      let c = Census_referee.filters cls in
      Alcotest.(check (list string))
        (Printf.sprintf "E12 row before its last column, coins %b" coins)
        (Census_referee.row cls c)
        (if coins then [ "2"; "true"; "6194"; "7144929"; "5313025" ]
         else
           List.filteri (fun i _ -> i < 5)
             (Experiments.E12_impossibility.row ~coins 2));
      let u0 = Array.of_list c.u0 and u1 = Array.of_list c.u1 in
      let rng = Random.State.make [| 12 |] in
      for _ = 1 to 2_000 do
        let pair =
          ( u0.(Random.State.int rng (Array.length u0)),
            u1.(Random.State.int rng (Array.length u1)) )
        in
        if Census_referee.correct_on cls pair [ 0; 1 ] then
          Alcotest.failf "correct depth-2 pair %s | %s" (D.to_string (fst pair))
            (D.to_string (snd pair))
      done)
    [ false; true ]

let test_flip_semantics () =
  let flip = tree "f(d0,d1)" in
  (* a flipping tree reaches both outcomes solo *)
  Alcotest.(check (list int)) "both reachable" [ 0; 1 ] (solo_decisions flip);
  (* and is therefore rejected by both validity filters *)
  let trees = [ tree "d0"; flip; tree "d1" ] in
  let solo_valid v t = solo_decisions t = [ v ] in
  List.iter
    (fun v ->
      Alcotest.(check (list string))
        (Printf.sprintf "only the decide tree is solo-valid for %d" v)
        [ Printf.sprintf "d%d" v ]
        (List.map D.to_string (List.filter (solo_valid v) trees));
      Alcotest.(check (list string))
        (Printf.sprintf "the referee agrees for %d" v)
        [ Printf.sprintf "d%d" v ]
        (List.map D.to_string
           (List.filter
              (Census_referee.solo_valid (Census_referee.e12 ~coins:true 1) v)
              trees)))
    [ 0; 1 ]

(* the regression: a protocol where both processes decide instantly with
   different values has an inconsistent execution of zero steps — the
   checker must see it *)
let test_mc_initial_decisions () =
  let config =
    Config.make
      ~optypes:[ Objects.Register.optype () ]
      ~procs:[ Proc.decide 0; Proc.decide 1 ]
  in
  match (Explore.search ~inputs:[ 0; 1 ] config).Explore.violation with
  | Some { kind = `Inconsistent; _ } -> ()
  | _ -> Alcotest.fail "missed the zero-step inconsistency"

let test_mc_initial_invalid () =
  let config =
    Config.make ~optypes:[] ~procs:[ Proc.decide 7 ]
  in
  match (Explore.search ~inputs:[ 0 ] config).Explore.violation with
  | Some { kind = `Invalid; _ } -> ()
  | _ -> Alcotest.fail "missed the zero-step validity violation"

(* sanity: a known-broken depth-1 pair is caught by the census check *)
let test_census_check_catches () =
  (* both read the empty register concurrently and decide their inputs *)
  match
    Enumerate.dtree_check_verdict ~style:D.Rw ~registers:1
      (tree "r0(d0,d0,d1)", tree "r0(d1,d0,d1)")
      [ 0; 1 ]
  with
  | `Violating _ -> ()
  | `Correct -> Alcotest.fail "mixed inputs not refuted"
  | `Unknown _ -> Alcotest.fail "check truncated"

(* solo_decisions is contractually duplicate-free and sorted: the synth
   validity filter asks for a one-element list, so a tree reaching the
   same decision along several coin paths must not report it twice *)
let test_solo_decisions_dedup () =
  Alcotest.(check (list int)) "flip to the same decision" [ 0 ]
    (solo_decisions (tree "f(d0,d0)"));
  Alcotest.(check (list int)) "nested flips, two paths each" [ 0; 1 ]
    (solo_decisions (tree "f(f(d1,d0),f(d0,d1))"));
  Alcotest.(check (list int)) "sorted regardless of branch order" [ 0; 1 ]
    (solo_decisions (tree "f(d1,d0)"))

(* The tree walk against its referee, the model checker: every value
   decided in some execution of the one-process configuration, coins
   enumerated, on every tree of each slice. *)
let test_solo_decisions_referee () =
  let referee ~style ~registers t =
    let config =
      Config.make ~optypes:(D.optypes ~style ~registers) ~procs:[ D.to_proc t ]
    in
    let values, truncated = Explore.decidable_values ~max_depth:50 config in
    if truncated then Alcotest.failf "referee truncated on %s" (D.to_string t);
    List.sort_uniq compare values
  in
  List.iter
    (fun (style, registers, coins, depth, count) ->
      let trees = Enumerate.enumerate_dtrees ~style ~registers ~coins depth in
      let what =
        Printf.sprintf "%s r%d d%d coins %b" (D.style_to_string style)
          registers depth coins
      in
      Alcotest.(check int) (what ^ ": trees") count (List.length trees);
      let bad =
        List.filter
          (fun t ->
            Enumerate.dtree_solo_decisions ~registers t
            <> referee ~style ~registers t)
          trees
      in
      Alcotest.(check (list string)) (what ^ ": mismatches") []
        (List.map D.to_string bad))
    [
      (D.Rw, 1, false, 2, 2774);
      (D.Rw, 1, true, 2, 6194);
      (D.Rw, 2, true, 1, 30);
      (D.Swapping, 2, true, 1, 54);
      (D.Swapping, 1, true, 2, 81902);
      (D.Rw, 2, false, 2, 35258);
    ]

(* [Dtree.mirror] is an involution that maps each enumeration onto
   itself, index for index as [enumerate_mirrored]'s permutation says,
   with every solo decision flipped: the facts CEGIS's side-1 lookup and
   orbit sweep stand on. *)
let test_mirror () =
  List.iter
    (fun (style, registers, coins, depth) ->
      let what =
        Printf.sprintf "%s r%d d%d coins %b" (D.style_to_string style)
          registers depth coins
      in
      let trees, mirror =
        Enumerate.enumerate_mirrored ~style ~registers ~coins depth
      in
      Alcotest.(check bool)
        (what ^ ": the trees of enumerate_dtrees")
        true
        (Array.to_list trees
        = Enumerate.enumerate_dtrees ~style ~registers ~coins depth);
      let flip = List.map (fun v -> 1 - v) in
      Array.iteri
        (fun i t ->
          let m = D.mirror t in
          if
            D.mirror m <> t
            || mirror.(mirror.(i)) <> i
            || trees.(mirror.(i)) <> m
            || Enumerate.dtree_solo_decisions ~registers m
               <> List.rev (flip (Enumerate.dtree_solo_decisions ~registers t))
          then Alcotest.failf "%s: mirror of %s" what (D.to_string t))
        trees)
    [
      (D.Rw, 1, false, 1);
      (D.Rw, 1, true, 1);
      (D.Rw, 2, false, 1);
      (D.Rw, 2, true, 1);
      (D.Swapping, 1, false, 1);
      (D.Swapping, 1, true, 1);
      (D.Swapping, 2, false, 1);
      (D.Swapping, 2, true, 1);
      (D.Rw, 1, false, 2);
      (D.Rw, 1, true, 2);
    ]

(* Synthesis's stage-2 filter runs one tiny search per tree and side:
   its per-check set-up must stay off the major heap.  Every array over
   256 words is allocated there directly, so the bound of 64 words per
   check is broken by any one table sized for a big search. *)
let test_stage2_checks_stay_minor () =
  let style = D.Rw and registers = 1 in
  let trees = Enumerate.enumerate_dtrees ~style ~registers ~coins:false 2 in
  let vectors = [ [ 0; 0 ]; [ 1; 1 ]; [ 0; 0; 0 ]; [ 1; 1; 1 ] ] in
  Gc.minor ();
  let before = (Gc.quick_stat ()).Gc.major_words in
  List.iter
    (fun t ->
      List.iter
        (fun inputs ->
          ignore
            (Enumerate.dtree_check_verdict ~style ~registers (t, t) inputs))
        vectors)
    trees;
  let major = (Gc.quick_stat ()).Gc.major_words -. before in
  let checks = List.length trees * List.length vectors in
  let per_check = major /. float_of_int checks in
  if per_check >= 64. then
    Alcotest.failf "%.0f major-heap words per stage-2 check (limit 64)"
      per_check

let suite =
  [
    Alcotest.test_case "tree counts" `Quick test_tree_counts;
    Alcotest.test_case "solo_decisions dedup + sort" `Quick
      test_solo_decisions_dedup;
    Alcotest.test_case "tree semantics" `Quick test_tree_semantics;
    Alcotest.test_case "solo_decisions = decidable_values" `Quick
      test_solo_decisions_referee;
    Alcotest.test_case "depth-1 census: impossible" `Quick test_census_depth1_impossible;
    Alcotest.test_case "depth-0 census" `Quick test_census_depth0;
    Alcotest.test_case "randomized census depth 1" `Quick test_census_randomized_depth1;
    Alcotest.test_case "depth-2 census: sampled survivors all fail" `Quick
      test_census_depth2_sample;
    Alcotest.test_case "flip semantics" `Quick test_flip_semantics;
    Alcotest.test_case "MC checks initial decisions" `Quick test_mc_initial_decisions;
    Alcotest.test_case "MC checks initial validity" `Quick test_mc_initial_invalid;
    Alcotest.test_case "check_inputs catches races" `Quick test_census_check_catches;
    Alcotest.test_case "stage-2 checks stay off the major heap" `Quick
      test_stage2_checks_stay_minor;
    Alcotest.test_case "mirror: an involution onto every enumeration" `Quick
      test_mirror;
  ]
