(* The test&set tournament: safe and solo-terminating but blocking — the
   consensus-number-2 boundary, exhibited. *)

open Sim
open Consensus

let p = Tas_tournament.protocol

let test_safe_under_fair_schedules () =
  List.iter
    (fun n ->
      for seed = 1 to 15 do
        let rng = Rng.create (seed * 3) in
        let inputs = List.init n (fun _ -> Rng.int rng 2) in
        let report = Protocol.run_once p ~inputs ~sched:(Sched.random ~seed) in
        if not (Checker.ok report.Protocol.verdict) then
          Alcotest.failf "n=%d seed=%d: unsafe" n seed;
        if report.Protocol.result.Run.outcome <> Run.All_decided then
          Alcotest.failf "n=%d seed=%d: did not finish under a fair schedule" n seed
      done)
    [ 2; 3; 5 ]

let test_solo_terminates () =
  let config = Protocol.initial_config p ~inputs:[ 1; 0; 0 ] in
  match Run.solo_search config ~pid:0 with
  | Some { decision = Some 1; _ } -> ()
  | _ -> Alcotest.fail "solo run should win and decide its input"

(* the blocking schedule: the winner stalls after the test&set, before the
   announcement; losers spin forever *)
let test_losers_starve () =
  let inputs = [ 0; 1; 1 ] in
  let config = Protocol.initial_config p ~inputs in
  (* P0 publishes and wins the test&set (2 steps), then stalls *)
  let sched =
    Sched.adaptive ~name:"stall-winner" ~seed:1 (fun _rng config ~step ->
        if step < 2 then Some 0
        else
          (* only losers from here on *)
          List.find_opt (fun pid -> pid <> 0) (Config.enabled_pids config))
  in
  let result = Run.exec ~max_steps:500 sched config in
  Alcotest.(check bool) "losers spin to the budget" true
    (result.Run.outcome = Run.Max_steps);
  Alcotest.(check (list int)) "nobody decided" []
    (Config.decisions result.Run.config)

(* crashing the winner mid-announcement blocks everyone: NOT wait-free,
   unlike every protocol in Registry.correct *)
let test_winner_crash_blocks () =
  let inputs = [ 0; 1; 1 ] in
  let config = Protocol.initial_config p ~inputs in
  let sched =
    Sched.adaptive ~name:"p0-first" ~seed:4 (fun _rng config ~step ->
        if step < 2 then Some 0
        else List.find_opt (fun pid -> pid <> 0) (Config.enabled_pids config))
  in
  let result =
    Run.exec ~max_steps:500
      ~crashes:[ (2, 0) ] (* P0 dies right after winning, before announcing *)
      sched config
  in
  (* survivors never decide *)
  Alcotest.(check bool) "blocked" true (result.Run.outcome = Run.Max_steps)

(* ... and the deciding value is always the test&set winner's input *)
let test_decides_winner_value () =
  for seed = 1 to 10 do
    let inputs = [ 0; 1; 0; 1 ] in
    let report = Protocol.run_once p ~inputs ~sched:(Sched.random ~seed) in
    let winner_value =
      List.find_map
        (fun (pid, obj, op, resp) ->
          if obj = 0 && op.Op.name = "test&set" && resp = Value.int 0 then
            Some (List.nth inputs pid)
          else None)
        (Trace.applied_ops report.Protocol.result.Run.trace)
    in
    match winner_value with
    | Some w ->
        List.iter
          (fun d ->
            if d <> w then Alcotest.failf "seed %d: decided %d, winner had %d" seed d w)
          (Config.decisions report.Protocol.result.Run.config)
    | None -> Alcotest.fail "no test&set winner in trace?"
  done

let suite =
  [
    Alcotest.test_case "safe under fair schedules" `Quick test_safe_under_fair_schedules;
    Alcotest.test_case "solo terminates" `Quick test_solo_terminates;
    Alcotest.test_case "losers starve (directed)" `Quick test_losers_starve;
    Alcotest.test_case "winner crash blocks" `Quick test_winner_crash_blocks;
    Alcotest.test_case "decides winner's value" `Quick test_decides_winner_value;
  ]
