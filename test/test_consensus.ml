(* Every packaged correct protocol: consistency and validity on every run,
   under several adversarial schedulers, many seeds; termination within the
   step budget for the randomized ones (statistical wait-freedom). *)

open Sim
open Consensus

let schedulers =
  [
    ("random", fun seed -> Sched.random ~seed);
    ("round-robin", fun seed -> Sched.round_robin ~seed ());
    ("contention", fun seed -> Sched.contention ~seed);
  ]

let some_inputs n seed =
  let rng = Rng.create seed in
  List.init n (fun _ -> Rng.int rng 2)

let exercise (p : Protocol.t) ~n ~reps =
  List.iter
    (fun (sched_name, mk_sched) ->
      for seed = 1 to reps do
        let inputs = some_inputs n (seed * 7919) in
        let report = Protocol.run_once p ~inputs ~sched:(mk_sched seed) in
        if not (Checker.ok report.Protocol.verdict) then
          Alcotest.failf "%s n=%d %s seed=%d: bad verdict %s" p.Protocol.name n
            sched_name seed
            (Fmt.str "%a" Checker.pp report.Protocol.verdict);
        if report.Protocol.result.Run.outcome <> Run.All_decided then
          Alcotest.failf "%s n=%d %s seed=%d: did not terminate in budget"
            p.Protocol.name n sched_name seed
      done)
    schedulers

let test_cas () = List.iter (fun n -> exercise Cas_consensus.protocol ~n ~reps:20) [ 1; 2; 3; 5; 8 ]
let test_fa () = List.iter (fun n -> exercise Fa_consensus.protocol ~n ~reps:10) [ 1; 2; 3; 5; 8 ]

let test_counter () =
  List.iter (fun n -> exercise Counter_consensus.protocol ~n ~reps:10) [ 1; 2; 3; 5; 8 ]

let test_rw () = List.iter (fun n -> exercise Rw_consensus.protocol ~n ~reps:10) [ 1; 2; 3; 5 ]
let test_tas2 () = exercise Tas2.protocol ~n:2 ~reps:50
let test_swap2 () = exercise Swap2.protocol ~n:2 ~reps:50

(* Validity corner: unanimous inputs must decide that value, always. *)
let test_unanimous_inputs () =
  List.iter
    (fun (p : Protocol.t) ->
      List.iter
        (fun v ->
          let n = 4 in
          if p.Protocol.supports_n n then
            for seed = 1 to 10 do
              let report =
                Protocol.run_once p ~inputs:(List.init n (fun _ -> v))
                  ~sched:(Sched.random ~seed)
              in
              match Config.decisions report.Protocol.result.Run.config with
              | [] -> Alcotest.failf "%s: no decisions" p.Protocol.name
              | ds ->
                  if not (List.for_all (( = ) v) ds) then
                    Alcotest.failf "%s: unanimous %d broken" p.Protocol.name v
            done)
        [ 0; 1 ])
    Registry.correct

(* Crash tolerance: halting any single process must not block the others
   (wait-freedom) nor break safety. *)
let test_crash_one () =
  List.iter
    (fun (p : Protocol.t) ->
      let n = 3 in
      if p.Protocol.supports_n n then
        for victim = 0 to n - 1 do
          for seed = 1 to 5 do
            let inputs = some_inputs n (seed * 31 + victim) in
            let config = Protocol.initial_config p ~inputs in
            let config = Config.halt config victim in
            let result = Run.exec (Sched.random ~seed) config in
            let verdict = Checker.of_config ~inputs result.Run.config in
            if not (Checker.ok verdict) then
              Alcotest.failf "%s crash P%d seed %d: safety broken"
                p.Protocol.name victim seed;
            if result.Run.outcome <> Run.All_decided then
              Alcotest.failf "%s crash P%d seed %d: survivors stuck"
                p.Protocol.name victim seed
          done
        done)
    Registry.correct

(* A solo process always decides its own input (validity + wait-freedom). *)
let test_solo_decides_own () =
  List.iter
    (fun (p : Protocol.t) ->
      let n = 4 in
      if p.Protocol.supports_n n then
        for seed = 1 to 5 do
          let inputs = [ 1; 0; 0; 0 ] in
          let config = Protocol.initial_config p ~inputs in
          let result = Run.exec (Sched.solo ~pid:0 ~seed) config in
          match Config.decision result.Run.config 0 with
          | Some 1 -> ()
          | Some v -> Alcotest.failf "%s solo decided %d" p.Protocol.name v
          | None -> Alcotest.failf "%s solo did not decide" p.Protocol.name
        done)
    Registry.correct

(* Property test: random everything for the one-object randomized protocol. *)
let prop_fa_random =
  QCheck.Test.make ~name:"fetch&add consensus safe on random runs" ~count:100
    QCheck.(pair small_int (list_of_size Gen.(2 -- 6) (int_bound 1)))
    (fun (seed, inputs) ->
      QCheck.assume (List.length inputs >= 2);
      let report =
        Protocol.run_once Fa_consensus.protocol ~inputs
          ~sched:(Sched.random ~seed:(seed + 1))
      in
      Checker.ok report.Protocol.verdict
      && report.Protocol.result.Run.outcome = Run.All_decided)
  |> QCheck_alcotest.to_alcotest

let prop_counter_random =
  QCheck.Test.make ~name:"counter consensus safe on random runs" ~count:100
    QCheck.(pair small_int (list_of_size Gen.(2 -- 6) (int_bound 1)))
    (fun (seed, inputs) ->
      QCheck.assume (List.length inputs >= 2);
      let report =
        Protocol.run_once Counter_consensus.protocol ~inputs
          ~sched:(Sched.contention ~seed:(seed + 1))
      in
      Checker.ok report.Protocol.verdict)
  |> QCheck_alcotest.to_alcotest

let prop_rw_random =
  QCheck.Test.make ~name:"rw consensus safe on random runs" ~count:60
    QCheck.(pair small_int (list_of_size Gen.(2 -- 5) (int_bound 1)))
    (fun (seed, inputs) ->
      QCheck.assume (List.length inputs >= 2);
      let report =
        Protocol.run_once Rw_consensus.protocol ~inputs
          ~sched:(Sched.random ~seed:(seed + 1))
      in
      Checker.ok report.Protocol.verdict)
  |> QCheck_alcotest.to_alcotest

(* rw-3n once let a process commit on a collect that missed an
   overwritten entry: P1 leaves round 1 on the coin and overwrites its
   unflagged phase-2 entry, P0's collect then sees only its own flagged
   entry and commits 0, and P1 commits 1 alone in round 2 — a 26-step
   witness at n = 2.  The exhaustive search runs past it, and seeded
   starving-scheduler campaigns (which found it at n >= 3 within the
   first run) must stay clean. *)
let test_rw_overwritten_rounds () =
  let inputs = [ 0; 1 ] in
  let r =
    Mc.Explore.search ~dedup:`Exact ~max_depth:30 ~max_states:1_000_000
      ~inputs
      (Protocol.initial_config Rw_consensus.protocol ~inputs)
  in
  Alcotest.(check bool) "no violation to depth 30" true
    (r.Mc.Explore.violation = None);
  Alcotest.(check bool) "cut only by depth" true
    (r.Mc.Explore.visited <= 1_000_000);
  List.iter
    (fun inputs ->
      let c =
        Fuzz.Campaign.run ~weights:[ (Fuzz.Scenario.Starving, 1.) ] ~runs:300
          ~seed:1
          (Fuzz.Scenario.consensus ~inputs Rw_consensus.protocol)
      in
      Alcotest.(check int)
        (Printf.sprintf "starving campaign, n = %d" (List.length inputs))
        0 c.Fuzz.Campaign.violations)
    [ [ 0; 1; 1 ]; [ 0; 1; 1; 0 ] ]

let test_space_claims () =
  Alcotest.(check int) "cas uses 1" 1 (Protocol.space Cas_consensus.protocol ~n:8);
  Alcotest.(check int) "f&a uses 1" 1 (Protocol.space Fa_consensus.protocol ~n:8);
  Alcotest.(check int) "counter uses 3" 3
    (Protocol.space Counter_consensus.protocol ~n:8);
  Alcotest.(check int) "rw uses 3n" 24 (Protocol.space Rw_consensus.protocol ~n:8)

let test_fa_encoding () =
  let n = 5 in
  let x = Fa_consensus.init_value ~n in
  Alcotest.(check (triple int int int))
    "decode init" (0, 0, 0)
    (Fa_consensus.decode ~n x);
  let x = x + 1 (* one vote for 0 *) + Fa_consensus.votes1_mul ~n (* one for 1 *) in
  let x = x + (2 * Fa_consensus.cursor_mul ~n) (* cursor +2 *) in
  Alcotest.(check (triple int int int))
    "decode moved" (1, 1, 2)
    (Fa_consensus.decode ~n x);
  let x = x - (5 * Fa_consensus.cursor_mul ~n) in
  Alcotest.(check (triple int int int))
    "decode negative cursor" (1, 1, -3)
    (Fa_consensus.decode ~n x)

let suite =
  [
    Alcotest.test_case "cas: all n, all scheds" `Quick test_cas;
    Alcotest.test_case "fetch&add: all n, all scheds" `Slow test_fa;
    Alcotest.test_case "counter: all n, all scheds" `Slow test_counter;
    Alcotest.test_case "rw: all n, all scheds" `Slow test_rw;
    Alcotest.test_case "tas 2-process" `Quick test_tas2;
    Alcotest.test_case "swap 2-process" `Quick test_swap2;
    Alcotest.test_case "unanimous inputs" `Quick test_unanimous_inputs;
    Alcotest.test_case "crash one process" `Quick test_crash_one;
    Alcotest.test_case "solo decides own input" `Quick test_solo_decides_own;
    prop_fa_random;
    prop_counter_random;
    prop_rw_random;
    Alcotest.test_case "rw: overwritten rounds stay safe" `Quick
      test_rw_overwritten_rounds;
    Alcotest.test_case "space claims" `Quick test_space_claims;
    Alcotest.test_case "f&a field encoding" `Quick test_fa_encoding;
  ]
