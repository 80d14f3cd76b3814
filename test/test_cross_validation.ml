(* Cross-validation of the two refutation engines.

   The enumeration (E12) says: every bounded-depth tree protocol over one
   register that passes the validity filters is inconsistent — the model
   checker finds a bad interleaving for each.  Lemma 3.2 says: the
   *constructive adversary* breaks every identical-process register
   protocol with nondeterministic solo termination.  Here we sample
   protocols from the enumeration and confirm the adversary defeats every
   single one — the proof machinery and the brute-force search agree
   witness for witness. *)

open Sim
open Consensus
open Lowerbound

module D = Consensus.Dtree

let protocol_of_trees t0 t1 = D.protocol ~style:D.Rw ~registers:1 (t0, t1)

let correct_on t0 t1 inputs =
  Mc.Enumerate.dtree_check_verdict ~style:D.Rw ~registers:1 (t0, t1) inputs
  = `Correct

let sample_valid_pairs ~depth ~count ~seed =
  let trees =
    Mc.Enumerate.enumerate_dtrees ~style:D.Rw ~registers:1 ~coins:false depth
  in
  let solo_valid v t =
    Mc.Enumerate.dtree_solo_mask ~registers:1 t = 1 lsl v
  in
  let v0 = Array.of_list (List.filter (solo_valid 0) trees) in
  let v1 = Array.of_list (List.filter (solo_valid 1) trees) in
  let rng = Rng.create seed in
  List.init count (fun _ ->
      (v0.(Rng.int rng (Array.length v0)), v1.(Rng.int rng (Array.length v1))))

let test_adversary_beats_sampled_protocols () =
  let pairs = sample_valid_pairs ~depth:2 ~count:150 ~seed:42 in
  List.iter
    (fun (t0, t1) ->
      let p = protocol_of_trees t0 t1 in
      (* the model checker's verdict first: is this pair even unanimously
         valid? (the adversary presupposes a plausible protocol) *)
      let unanimous_ok =
        correct_on t0 t0 [ 0; 0 ] && correct_on t1 t1 [ 1; 1 ]
      in
      if unanimous_ok then begin
        match Attack.run p with
        | Ok o when Attack.succeeded o ->
            (* and the witness certifies: tree protocols use only
               read-write registers *)
            (match Attack.certify p o with
            | Ok (_, verdict) ->
                if verdict.Checker.consistent then
                  Alcotest.fail "certified replay lost the inconsistency"
            | Error msg -> Alcotest.failf "certification failed: %s" msg)
        | Ok _ -> Alcotest.fail "adversary returned a consistent execution"
        | Error e ->
            Alcotest.failf "adversary failed on an enumerated protocol: %s"
              (Attack.error_to_string e)
      end)
    pairs

(* and in the other direction: wherever the adversary succeeds, the model
   checker also finds a violation (on 2 processes) *)
let test_mc_confirms_adversary () =
  let pairs = sample_valid_pairs ~depth:2 ~count:60 ~seed:7 in
  List.iter
    (fun (t0, t1) ->
      let p = protocol_of_trees t0 t1 in
      match Attack.run p with
      | Ok o when Attack.succeeded o ->
          let config = Protocol.initial_config p ~inputs:[ 0; 1 ] in
          let result = Mc.Explore.search ~max_depth:30 ~inputs:[ 0; 1 ] config in
          (* MC explores 2 processes; the adversary may have needed clones
             (3+ processes), in which case MC at n=2 may or may not find a
             violation — but for ONE register, Lemma 3.2's threshold is
             r^2-r+2 = 2, so two processes always suffice *)
          (match result.Mc.Explore.violation with
          | Some _ -> ()
          | None ->
              Alcotest.fail
                "adversary broke a protocol the model checker calls correct")
      | Ok _ | Error _ -> ())
    pairs

let suite =
  [
    Alcotest.test_case "adversary beats sampled enumerated protocols" `Quick
      test_adversary_beats_sampled_protocols;
    Alcotest.test_case "model checker confirms adversary" `Quick
      test_mc_confirms_adversary;
  ]
