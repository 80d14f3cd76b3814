(* Exhaustive bounded-protocol impossibility, and the model-checker
   regression it uncovered (initial decisions must be checked). *)

open Sim
open Mc

let test_tree_counts () =
  Alcotest.(check int) "depth 0" 2 (List.length (Enumerate.enumerate 0));
  Alcotest.(check int) "depth 1" 14 (List.length (Enumerate.enumerate 1));
  Alcotest.(check int) "depth 2" 2774 (List.length (Enumerate.enumerate 2))

let test_tree_semantics () =
  let open Enumerate in
  Alcotest.(check int) "decide" 0 (solo_decision (Decide 0));
  Alcotest.(check int) "write then decide" 1 (solo_decision (Write (0, Decide 1)));
  (* read from the empty register takes the empty branch *)
  Alcotest.(check int) "read empty branch" 0
    (solo_decision (Read (Decide 0, Decide 1, Decide 1)));
  Alcotest.(check int) "write then read own" 1
    (solo_decision (Write (1, Read (Decide 0, Decide 0, Decide 1))))

let test_census_depth1_impossible () =
  let c = Enumerate.census ~depth:1 in
  Alcotest.(check int) "no correct protocol" 0 c.Enumerate.correct;
  Alcotest.(check bool) "no example" true (c.Enumerate.example_correct = None);
  Alcotest.(check int) "pairs checked" 49 c.Enumerate.candidate_pairs

let test_census_depth0 () =
  let c = Enumerate.census ~depth:0 in
  Alcotest.(check int) "one candidate pair (D0, D1)" 1 c.Enumerate.candidate_pairs;
  Alcotest.(check int) "and it is inconsistent" 0 c.Enumerate.correct

let test_census_randomized_depth1 () =
  let c = Enumerate.census_randomized ~depth:1 in
  Alcotest.(check int) "18 trees with coins" 18 c.Enumerate.trees;
  Alcotest.(check int) "coins do not help" 0 c.Enumerate.correct

let test_flip_semantics () =
  let open Enumerate in
  (* a flipping tree reaches both outcomes solo *)
  Alcotest.(check (list int)) "both reachable" [ 0; 1 ]
    (solo_decisions (Flip (Decide 0, Decide 1)));
  (* and is therefore rejected by the validity filter *)
  match solo_decision (Flip (Decide 0, Decide 1)) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected rejection of a two-outcome tree"

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

(* sanity: a known-broken depth-1 pair is caught by check_inputs *)
let test_check_inputs_catches () =
  let open Enumerate in
  let t0 = Read (Decide 0, Decide 0, Decide 1) in
  let t1 = Read (Decide 1, Decide 0, Decide 1) in
  (* both read the empty register concurrently and decide their inputs *)
  Alcotest.(check bool) "mixed inputs refuted" false (check_inputs t0 t1 [ 0; 1 ])

(* solo_decisions is contractually duplicate-free and sorted: census
   filters and the synth lemma pool compare the list structurally
   against [0]/[1], so a tree reaching the same decision along several
   coin paths must not report it twice *)
let test_solo_decisions_dedup () =
  let open Enumerate in
  Alcotest.(check (list int)) "flip to the same decision" [ 0 ]
    (solo_decisions (Flip (Decide 0, Decide 0)));
  Alcotest.(check (list int)) "nested flips, two paths each" [ 0; 1 ]
    (solo_decisions
       (Flip (Flip (Decide 1, Decide 0), Flip (Decide 0, Decide 1))));
  Alcotest.(check (list int)) "sorted regardless of branch order" [ 0; 1 ]
    (solo_decisions (Flip (Decide 1, Decide 0)))

(* ---- generalized trees (the synth search space) ---- *)

module D = Consensus.Dtree

(* at one rw register the generalized enumeration is the legacy one:
   same counts at every depth, and the census goldens carry over *)
let test_dtree_counts_match_legacy () =
  List.iter
    (fun (depth, expect) ->
      Alcotest.(check int)
        (Printf.sprintf "rw r=1 depth %d" depth)
        expect
        (List.length
           (Enumerate.enumerate_dtrees ~style:D.Rw ~registers:1 ~coins:false
              depth)))
    [ (0, 2); (1, 14); (2, 2774) ];
  Alcotest.(check int) "rw r=1 depth 1 with coins" 18
    (List.length
       (Enumerate.enumerate_dtrees ~style:D.Rw ~registers:1 ~coins:true 1));
  (* swap style at depth 1: 2 decides + 2x8 one-swap trees + 8 reads *)
  Alcotest.(check int) "swap r=1 depth 1" 26
    (List.length
       (Enumerate.enumerate_dtrees ~style:D.Swapping ~registers:1
          ~coins:false 1))

let test_dtree_embedding_agrees () =
  let open Enumerate in
  List.iter
    (fun tree ->
      let d = dtree_of_tree tree in
      Alcotest.(check (list int))
        (D.to_string d ^ " solo decisions agree")
        (solo_decisions tree)
        (dtree_solo_decisions ~style:D.Rw ~registers:1 d))
    (enumerate_randomized 1);
  (* a violating legacy pair is violating through the dtree checker too *)
  let t0 = Read (Decide 0, Decide 0, Decide 1) in
  let t1 = Read (Decide 1, Decide 0, Decide 1) in
  match
    dtree_check_verdict ~style:D.Rw ~registers:1
      (dtree_of_tree t0, dtree_of_tree t1)
      [ 0; 1 ]
  with
  | `Violating _ -> ()
  | `Correct -> Alcotest.fail "dtree checker missed the race"
  | `Unknown _ -> Alcotest.fail "dtree check truncated"

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
    Alcotest.test_case "dtree counts match legacy" `Quick
      test_dtree_counts_match_legacy;
    Alcotest.test_case "dtree embedding agrees" `Quick
      test_dtree_embedding_agrees;
    Alcotest.test_case "tree semantics" `Quick test_tree_semantics;
    Alcotest.test_case "depth-1 census: impossible" `Quick test_census_depth1_impossible;
    Alcotest.test_case "depth-0 census" `Quick test_census_depth0;
    Alcotest.test_case "randomized census depth 1" `Quick test_census_randomized_depth1;
    Alcotest.test_case "flip semantics" `Quick test_flip_semantics;
    Alcotest.test_case "MC checks initial decisions" `Quick test_mc_initial_decisions;
    Alcotest.test_case "MC checks initial validity" `Quick test_mc_initial_invalid;
    Alcotest.test_case "check_inputs catches races" `Quick test_check_inputs_catches;
    Alcotest.test_case "stage-2 checks stay off the major heap" `Quick
      test_stage2_checks_stay_minor;
  ]
