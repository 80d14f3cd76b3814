(* Bivalence survival (the FLP argument, played by the model checker) and
   the solo-probe seeding of decidable_values. *)

open Consensus

let test_cas_dies_immediately () =
  let config = Protocol.initial_config Cas_consensus.protocol ~inputs:[ 0; 1 ] in
  Alcotest.(check int) "no bivalent step exists" 0
    (Mc.Valency.bivalence_survival ~max_depth:8 config)

let test_tas2_dies_at_the_tas () =
  let config = Protocol.initial_config Tas2.protocol ~inputs:[ 0; 1 ] in
  let survival = Mc.Valency.bivalence_survival ~max_depth:8 config in
  (* the two input-publication writes keep bivalence; the first test&set
     kills it *)
  Alcotest.(check int) "two bivalent steps" 2 survival

let test_rw_survives_probe () =
  let config = Protocol.initial_config Rw_consensus.protocol ~inputs:[ 0; 1 ] in
  let probe = 8 in
  Alcotest.(check int) "registers keep bivalence alive" probe
    (Mc.Valency.bivalence_survival ~max_depth:probe config)

let test_unanimous_inputs_never_bivalent () =
  let config = Protocol.initial_config Rw_consensus.protocol ~inputs:[ 1; 1 ] in
  Alcotest.(check int) "univalent start" 0
    (Mc.Valency.bivalence_survival ~max_depth:4 config)

(* the probe [decidable_values] seeds itself with *)
let test_solo_probe () =
  let config = Protocol.initial_config Rw_consensus.protocol ~inputs:[ 0; 1 ] in
  let probe pid =
    Option.bind
      (Sim.Run.solo_search ~max_steps:300 ~max_nodes:5_000 config ~pid)
      (fun f -> f.Sim.Run.decision)
  in
  Alcotest.(check (option int)) "P0 solo decides 0" (Some 0) (probe 0);
  Alcotest.(check (option int)) "P1 solo decides 1" (Some 1) (probe 1)

let test_decidable_values_seeded () =
  let config = Protocol.initial_config Rw_consensus.protocol ~inputs:[ 0; 1 ] in
  let values, _ = Mc.Explore.decidable_values ~max_depth:30 ~max_states:50_000 config in
  Alcotest.(check (list int)) "both values found despite truncation" [ 0; 1 ] values

let suite =
  [
    Alcotest.test_case "cas: survival 0" `Quick test_cas_dies_immediately;
    Alcotest.test_case "tas2: survival 2" `Quick test_tas2_dies_at_the_tas;
    Alcotest.test_case "registers: survive probe" `Quick test_rw_survives_probe;
    Alcotest.test_case "unanimous inputs: survival 0" `Quick
      test_unanimous_inputs_never_bivalent;
    Alcotest.test_case "solo probe" `Quick test_solo_probe;
    Alcotest.test_case "decidable_values seeded" `Quick test_decidable_values_seeded;
  ]
