(* Crash injection: [Run.exec ~crashes] and the fault-tolerance
   claim (survivors always decide, safety never breaks). *)

open Sim
open Consensus

let test_crash_recorded () =
  let p = Fa_consensus.protocol in
  let inputs = [ 0; 1; 1 ] in
  let config = Protocol.initial_config p ~inputs in
  let result = Run.exec ~crashes:[ (3, 0) ] (Sched.round_robin ()) config in
  let halts =
    List.filter
      (function Event.Halted _ -> true | _ -> false)
      (Trace.events result.Run.trace)
  in
  Alcotest.(check int) "one halt event" 1 (List.length halts);
  Alcotest.(check bool) "victim never decides" true
    (Config.decision result.Run.config 0 = None);
  Alcotest.(check bool) "victim takes no step after crash" true
    (let after = ref false and stepped = ref false in
     List.iter
       (fun ev ->
         match ev with
         | Event.Halted { pid = 0 } -> after := true
         | (Event.Applied { pid = 0; _ } | Event.Coin { pid = 0; _ }) when !after ->
             stepped := true
         | _ -> ())
       (Trace.events result.Run.trace);
     not !stepped)

let test_survivors_decide () =
  List.iter
    (fun (p : Protocol.t) ->
      for seed = 1 to 5 do
        let n = 5 in
        if p.Protocol.supports_n n then begin
          let rng = Rng.create (seed * 7) in
          let inputs = List.init n (fun _ -> Rng.int rng 2) in
          let config = Protocol.initial_config p ~inputs in
          (* crash three processes at staggered points *)
          let crashes = [ (4, 0); (9, 1); (14, 2) ] in
          let result =
            Run.exec ~max_steps:500_000 ~crashes
              (Sched.random ~seed) config
          in
          let verdict = Checker.of_config ~inputs result.Run.config in
          if not (Checker.ok verdict) then
            Alcotest.failf "%s: safety broken under crashes" p.Protocol.name;
          if result.Run.outcome <> Run.All_decided then
            Alcotest.failf "%s: survivors stuck" p.Protocol.name
        end
      done)
    [ Fa_consensus.protocol; Counter_consensus.protocol; Rw_consensus.protocol ]

let test_crash_everyone () =
  let p = Fa_consensus.protocol in
  let inputs = [ 0; 1 ] in
  let config = Protocol.initial_config p ~inputs in
  let result =
    Run.exec ~crashes:[ (1, 0); (2, 1) ] (Sched.random ~seed:1)
      config
  in
  (* everyone crashed: run ends (all "decided-or-halted"), nobody decided,
     and the empty decision set is trivially safe *)
  Alcotest.(check bool) "run ends" true (result.Run.outcome = Run.All_decided);
  Alcotest.(check (list int)) "no decisions" []
    (Config.decisions result.Run.config);
  Alcotest.(check bool) "vacuously safe" true
    (Checker.ok (Checker.of_config ~inputs result.Run.config))

(* The wait-freedom sweep: for EVERY registered correct protocol and every
   crash count f < n, halting f processes at staggered points never
   produces an unsafe verdict, and the survivors still decide (that is
   what wait-free means — no process waits on a crashed one).  The flawed
   registry entries are deliberately excluded: they are unsafe by design
   even with zero crashes, so they witness nothing about crash handling. *)
let test_registry_crash_sweep () =
  List.iter
    (fun (p : Protocol.t) ->
      let n = if p.Protocol.supports_n 5 then 5 else 2 in
      for f = 0 to n - 1 do
        (* staggered: victim i dies just before step 3 + 4i *)
        let crashes = List.init f (fun i -> (3 + (4 * i), i)) in
        List.iter
          (fun seed ->
            let rng = Rng.create ((17 * seed) + f) in
            let inputs = List.init n (fun _ -> Rng.int rng 2) in
            let config = Protocol.initial_config p ~inputs in
            let result =
              Run.exec ~max_steps:500_000 ~crashes
                (Sched.random ~seed) config
            in
            let verdict = Checker.of_config ~inputs result.Run.config in
            if not (Checker.ok verdict) then
              Alcotest.failf "%s: unsafe with f=%d crashes (seed %d)"
                p.Protocol.name f seed;
            if result.Run.outcome <> Run.All_decided then
              Alcotest.failf "%s: survivors stuck with f=%d crashes (seed %d)"
                p.Protocol.name f seed)
          [ 1; 2 ]
      done)
    Registry.correct

let test_e11_rows () =
  let rows = Experiments.E11_crash.rows ~n:4 ~fs:[ 0; 2 ] ~reps:4 ~seed:3 () in
  List.iter
    (fun (r : Experiments.E11_crash.row) ->
      Alcotest.(check int)
        (r.Experiments.E11_crash.protocol ^ " all safe")
        r.Experiments.E11_crash.runs r.Experiments.E11_crash.safe_runs;
      Alcotest.(check int)
        (r.Experiments.E11_crash.protocol ^ " all decided")
        r.Experiments.E11_crash.runs r.Experiments.E11_crash.decided_runs)
    rows

(* property: arbitrary crash plans never break safety of the randomized
   single-object protocol, and survivors always decide *)
let prop_random_crashes =
  QCheck.Test.make ~name:"random crash plans keep fetch&add consensus safe"
    ~count:60
    QCheck.(
      triple (int_bound 1000)
        (list_of_size Gen.(0 -- 3) (pair (int_bound 30) (int_bound 4)))
        (list_of_size Gen.(return 5) (int_bound 1)))
    (fun (seed, crashes, inputs) ->
      let config = Protocol.initial_config Fa_consensus.protocol ~inputs in
      let result =
        Run.exec ~max_steps:200_000 ~crashes
          (Sched.random ~seed:(seed + 1))
          config
      in
      let verdict = Checker.of_config ~inputs result.Run.config in
      Checker.ok verdict && result.Run.outcome = Run.All_decided)
  |> QCheck_alcotest.to_alcotest

let suite =
  [
    prop_random_crashes;
    Alcotest.test_case "crash recorded & respected" `Quick test_crash_recorded;
    Alcotest.test_case "survivors decide" `Quick test_survivors_decide;
    Alcotest.test_case "crash everyone" `Quick test_crash_everyone;
    Alcotest.test_case "registry-wide crash sweep" `Quick
      test_registry_crash_sweep;
    Alcotest.test_case "e11 rows" `Quick test_e11_rows;
  ]
