(* Soundness of the adversaries: against *correct* protocols they must
   fail with an error — they can never fabricate a violation, because
   every step of a constructed execution goes through the ordinary runner
   and the verdict is recomputed by the checker.  (cas-1 and sticky-1 are
   exhaustively verified for small n in test_mc, so a "successful" attack
   on them would be a soundness bug in the framework itself.) *)

open Consensus
open Lowerbound

let assert_attack_fails (p : Protocol.t) =
  match Attack.run p with
  | Error _ -> ()
  | Ok o ->
      if Attack.succeeded o then
        Alcotest.failf "%s: identical-process attack fabricated a violation!"
          p.Protocol.name
      (* a consistent outcome would also be wrong: the driver must not
         report success without an inconsistency *)
      else
        Alcotest.failf "%s: attack returned Ok on a correct protocol"
          p.Protocol.name

let assert_general_fails (p : Protocol.t) =
  match General_attack.run ~processes:12 p with
  | Error _ -> ()
  | Ok o ->
      if General_attack.succeeded o then
        Alcotest.failf "%s: general attack fabricated a violation!"
          p.Protocol.name
      else
        Alcotest.failf "%s: general attack returned Ok on a correct protocol"
          p.Protocol.name

let test_identical_attack_on_correct () =
  (* identical-process, correct protocols *)
  List.iter assert_attack_fails
    [ Cas_consensus.protocol; Sticky_consensus.protocol ]

let test_identical_attack_on_randomized_correct () =
  (* the randomized single-object protocols are identical too; the attack
     must not break them either (searches may exhaust, constructions must
     fail — never a fabricated witness) *)
  List.iter assert_attack_fails
    [ Fa_consensus.protocol; Counter_consensus.protocol ]

let test_general_attack_on_correct () =
  (* counters and fetch&add are not historyless: the splice's replays
     can step a process that already decided, which must surface as a
     construction failure, not an exception *)
  List.iter assert_general_fails
    [
      Cas_consensus.protocol;
      Sticky_consensus.protocol;
      Counter_consensus.protocol;
      Fa_consensus.protocol;
    ]

(* even when given absurdly many processes, no fabrication *)
let test_attack_large_budget () =
  match General_attack.run ~processes:60 Cas_consensus.protocol with
  | Error _ -> ()
  | Ok o ->
      Alcotest.(check bool) "no fabricated violation" false
        (General_attack.succeeded o)

(* every solo search of both constructions ticks the caller's meter: on
   anon-rw, whose searches run for seconds, a step allowance trips
   deterministically and is reported as such, never as a failure *)
let test_step_budget_cuts_both () =
  let p = Anon_consensus.protocol in
  List.iter
    (fun k ->
      let budget = Robust.Budget.make ~steps:k () in
      (match Attack.run ~budget p with
      | Error (Attack.Budget_exhausted `Steps) -> ()
      | Error e ->
          Alcotest.failf "attack, %d steps: %s" k (Attack.error_to_string e)
      | Ok _ -> Alcotest.failf "attack, %d steps: constructed" k);
      List.iter
        (fun (seed, r) ->
          match r with
          | Error (Attack.Budget_exhausted `Steps) -> ()
          | Error _ | Ok _ ->
              Alcotest.failf "seed %d, %d steps: not cut by the budget" seed k)
        (Attack.seed_sweep ~budget ~seeds:[ 1; 2 ] p);
      match General_attack.run ~budget p with
      | Error (General_attack.Budget_exhausted `Steps) -> ()
      | Error e ->
          Alcotest.failf "general attack, %d steps: %s" k
            (General_attack.error_to_string e)
      | Ok _ -> Alcotest.failf "general attack, %d steps: constructed" k)
    [ 1; 200 ]

let suite =
  [
    Alcotest.test_case "identical attack vs correct deterministic" `Quick
      test_identical_attack_on_correct;
    Alcotest.test_case "identical attack vs correct randomized" `Quick
      test_identical_attack_on_randomized_correct;
    Alcotest.test_case "general attack vs correct" `Quick
      test_general_attack_on_correct;
    Alcotest.test_case "general attack, large budget" `Quick
      test_attack_large_budget;
    Alcotest.test_case "step budget cuts both constructions" `Quick
      test_step_budget_cuts_both;
  ]
