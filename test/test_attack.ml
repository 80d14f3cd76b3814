(* The Lemma 3.1/3.2 adversary (identical processes): against every flawed
   register/swap protocol it must construct a replayable execution deciding
   both 0 and 1; against nothing must it ever claim success with a
   consistent trace. *)

open Sim
open Consensus
open Lowerbound

let assert_broken (p : Protocol.t) =
  match Attack.run p with
  | Error e -> Alcotest.failf "%s: attack errored: %s" p.Protocol.name (Attack.error_to_string e)
  | Ok outcome ->
      if not (Attack.succeeded outcome) then
        Alcotest.failf "%s: attack produced a consistent execution" p.Protocol.name;
      (* the witness genuinely decides both values *)
      let ds = List.map snd (Trace.decisions outcome.Attack.trace) in
      Alcotest.(check bool)
        (p.Protocol.name ^ " decides 0 and 1")
        true
        (List.mem 0 ds && List.mem 1 ds);
      (* validity is not the violation: every decided value is an input *)
      Alcotest.(check bool) (p.Protocol.name ^ " valid") true outcome.Attack.verdict.Checker.valid

let test_first_writer () =
  List.iter (fun r -> assert_broken (Flawed.first_writer ~r)) [ 1; 2; 3 ]

let test_unanimous_rw () =
  List.iter (fun r -> assert_broken (Flawed.unanimous ~style:Flawed.Rw ~r)) [ 1; 2; 3; 4 ]

let test_unanimous_swap () =
  List.iter
    (fun r -> assert_broken (Flawed.unanimous ~style:Flawed.Swapping ~r))
    [ 1; 2; 3 ]

let test_mixed () =
  List.iter (fun r -> assert_broken (Flawed.mixed ~r)) [ 2; 3 ]

let test_coin_retry () =
  List.iter
    (fun r -> assert_broken (Flawed.coin_retry ~style:Flawed.Rw ~r))
    [ 1; 2; 3 ]

(* The process count the adversary needs stays within the paper's
   r^2 - r + 2 bound for these targets. *)
let test_process_bound () =
  List.iter
    (fun r ->
      let p = Flawed.unanimous ~style:Flawed.Rw ~r in
      match Attack.run p with
      | Ok outcome ->
          let bound = Bounds.identical_process_bound r + 1 in
          if outcome.Attack.processes_used > bound then
            Alcotest.failf "r=%d: used %d processes > bound %d" r
              outcome.Attack.processes_used bound
      | Error e -> Alcotest.failf "attack errored: %s" (Attack.error_to_string e))
    [ 1; 2; 3; 4 ]

(* Refuses protocols without identical process code. *)
let test_rejects_non_identical () =
  match Attack.run Tas2.protocol with
  | Error Attack.Not_identical -> ()
  | Error e -> Alcotest.failf "wrong error: %s" (Attack.error_to_string e)
  | Ok _ -> Alcotest.fail "attacked a non-identical protocol"

(* The trace is a *legal* execution: replaying its schedule through the
   ordinary runner from the attack's own start configuration reproduces
   exactly the same decisions. *)
let test_witness_replayable () =
  let p = Flawed.unanimous ~style:Flawed.Rw ~r:2 in
  match Attack.run p with
  | Error e -> Alcotest.failf "attack errored: %s" (Attack.error_to_string e)
  | Ok outcome ->
      (* all events in the trace are well-formed and pids within range *)
      List.iter
        (fun ev ->
          let pid = Event.pid ev in
          if pid < 0 || pid >= outcome.Attack.processes_used then
            Alcotest.failf "trace references unknown P%d" pid)
        (Trace.events outcome.Attack.trace);
      (* decisions recorded in the trace match the final configuration *)
      let trace_ds = List.sort compare (List.map snd (Trace.decisions outcome.Attack.trace)) in
      let config_ds = List.sort compare (Config.decisions outcome.Attack.config) in
      Alcotest.(check (list int)) "trace vs config decisions" config_ds trace_ds

(* Solo-termination search: finds witnesses and reports their decisions. *)
let test_solo_search () =
  let p = Flawed.unanimous ~style:Flawed.Rw ~r:2 in
  let config = Protocol.initial_config p ~inputs:[ 0; 1 ] in
  (match Run.solo_search config ~pid:0 with
  | Some { decision = Some 0; solo_steps; _ } ->
      Alcotest.(check bool) "solo run has steps" true (solo_steps > 0)
  | _ -> Alcotest.fail "P0 solo should decide 0");
  match Run.solo_search config ~pid:1 with
  | Some { decision = Some 1; _ } -> ()
  | _ -> Alcotest.fail "P1 solo should decide 1"

(* Solo search with a stop predicate halts at the first pending write. *)
let test_solo_stop_predicate () =
  let p = Flawed.unanimous ~style:Flawed.Rw ~r:2 in
  let config = Protocol.initial_config p ~inputs:[ 0; 1 ] in
  match Run.solo_search config ~pid:0 ~stop:Solo.poised_anywhere with
  | Some { decision = None; solo_steps; _ } ->
      (* unanimous writes immediately: prefix is empty *)
      Alcotest.(check int) "stops before first write" 0 solo_steps
  | _ -> Alcotest.fail "expected to stop poised at first write"

(* Builder bookkeeping: cloning the last writer yields a process poised to
   re-perform that write. *)
let test_clone_last_writer () =
  let p = Flawed.unanimous ~style:Flawed.Rw ~r:1 in
  let config = Protocol.initial_config p ~inputs:[ 0; 1 ] in
  let b = Builder.create ~config ~inputs:[ 0; 1 ] in
  Builder.step b ~pid:0 ();
  (* P0 wrote 0 to reg 0 *)
  let clone = Builder.clone_last_writer b ~obj:0 in
  (match Triviality.poised_write (Builder.config b) clone with
  | Some (0, op) ->
      Alcotest.(check string) "clone pending write" "write" op.Op.name;
      Alcotest.(check bool) "clone writes same value" true
        (Value.equal op.Op.arg (Value.int 0))
  | _ -> Alcotest.fail "clone not poised at reg 0");
  Alcotest.(check int) "clone input recorded" 0 (Builder.input_of b clone)

let suite =
  [
    Alcotest.test_case "first-writer broken (r=1..3)" `Quick test_first_writer;
    Alcotest.test_case "unanimous rw broken (r=1..4)" `Quick test_unanimous_rw;
    Alcotest.test_case "unanimous swap broken (r=1..3)" `Quick test_unanimous_swap;
    Alcotest.test_case "coin-retry broken (r=1..3)" `Quick test_coin_retry;
    Alcotest.test_case "mixed historyless broken (r=2,3)" `Quick test_mixed;
    Alcotest.test_case "process count within bound" `Quick test_process_bound;
    Alcotest.test_case "rejects non-identical" `Quick test_rejects_non_identical;
    Alcotest.test_case "witness replayable" `Quick test_witness_replayable;
    Alcotest.test_case "solo search" `Quick test_solo_search;
    Alcotest.test_case "solo stop predicate" `Quick test_solo_stop_predicate;
    Alcotest.test_case "clone last writer" `Quick test_clone_last_writer;
  ]
