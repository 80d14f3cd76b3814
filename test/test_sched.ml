open Sim
open Objects

(* three processes, each does one write then decides *)
let one_write_code ~pid : int Proc.t =
  let open Proc in
  let* _ = apply pid (Register.write_int pid) in
  decide pid

let config3 () =
  Config.make
    ~optypes:[ Register.optype (); Register.optype (); Register.optype () ]
    ~procs:[ one_write_code ~pid:0; one_write_code ~pid:1; one_write_code ~pid:2 ]

let test_round_robin_order () =
  let result = Run.exec (Sched.round_robin ()) (config3 ()) in
  let apply_pids =
    List.map (fun (pid, _, _, _) -> pid) (Trace.applied_ops result.Run.trace)
  in
  Alcotest.(check (list int)) "cyclic order" [ 0; 1; 2 ] apply_pids

let test_random_deterministic_by_seed () =
  let r1 = Run.exec (Sched.random ~seed:5) (config3 ()) in
  let r2 = Run.exec (Sched.random ~seed:5) (config3 ()) in
  Alcotest.(check bool) "same trace" true (r1.Run.trace = r2.Run.trace)

(* recorded schedules replay through [Run.exec_script] *)
let replay pids =
  Run.exec_script ~script:(List.map (fun pid -> `Step (pid, None)) pids)

let test_replay_schedule () =
  let result = replay [ 2; 0; 1 ] (config3 ()) in
  let apply_pids =
    List.map (fun (pid, _, _, _) -> pid) (Trace.applied_ops result.Run.trace)
  in
  Alcotest.(check (list int)) "replayed order" [ 2; 0; 1 ] apply_pids

let test_replay_stops () =
  let result = replay [ 0 ] (config3 ()) in
  Alcotest.(check bool) "stops after list" true
    (result.Run.outcome = Run.Scheduler_stopped);
  Alcotest.(check int) "one step" 1 result.Run.steps

let test_replay_skips_decided () =
  (* scheduling a decided process is skipped, not an error *)
  let result = replay [ 0; 0; 0; 1 ] (config3 ()) in
  (* P0 has 2 steps (write + implicit decide is same step); after its
     decision further 0s are skipped *)
  let apply_pids =
    List.map (fun (pid, _, _, _) -> pid) (Trace.applied_ops result.Run.trace)
  in
  Alcotest.(check (list int)) "skips decided" [ 0; 1 ] apply_pids

let test_solo_only_runs_pid () =
  let result = Run.exec (Sched.solo ~pid:1 ~seed:1) (config3 ()) in
  Alcotest.(check (list int)) "only P1" [ 1 ] (Trace.pids result.Run.trace)

let test_contention_terminates () =
  let result = Run.exec (Sched.contention ~seed:2) (config3 ()) in
  Alcotest.(check bool) "completes" true (result.Run.outcome = Run.All_decided)

let test_adaptive () =
  (* adversary that always picks the highest enabled pid *)
  let sched =
    Sched.adaptive ~name:"max-pid" ~seed:1 (fun _rng config ~step:_ ->
        match List.rev (Config.enabled_pids config) with
        | pid :: _ -> Some pid
        | [] -> None)
  in
  let result = Run.exec sched (config3 ()) in
  let apply_pids =
    List.map (fun (pid, _, _, _) -> pid) (Trace.applied_ops result.Run.trace)
  in
  Alcotest.(check (list int)) "descending" [ 2; 1; 0 ] apply_pids

let test_starving_defers_victim () =
  (* the victim moves only once everyone else has decided: its write is the
     last Applied event, on every seed *)
  List.iter
    (fun seed ->
      let result = Run.exec (Sched.starving ~victim:1 ~seed) (config3 ()) in
      Alcotest.(check bool)
        (Printf.sprintf "all decided (seed %d)" seed)
        true
        (result.Run.outcome = Run.All_decided);
      let apply_pids =
        List.map (fun (pid, _, _, _) -> pid) (Trace.applied_ops result.Run.trace)
      in
      Alcotest.(check int)
        (Printf.sprintf "victim moves last (seed %d)" seed)
        1
        (List.nth apply_pids (List.length apply_pids - 1));
      Alcotest.(check bool)
        (Printf.sprintf "victim starved before that (seed %d)" seed)
        false
        (List.mem 1 (List.filteri (fun i _ -> i < 2) apply_pids)))
    [ 1; 2; 3; 4; 5 ]

let test_starving_deterministic_by_seed () =
  let r1 = Run.exec (Sched.starving ~victim:0 ~seed:9) (config3 ()) in
  let r2 = Run.exec (Sched.starving ~victim:0 ~seed:9) (config3 ()) in
  Alcotest.(check bool) "same trace" true (r1.Run.trace = r2.Run.trace)

let suite =
  [
    Alcotest.test_case "round robin order" `Quick test_round_robin_order;
    Alcotest.test_case "starving defers victim" `Quick
      test_starving_defers_victim;
    Alcotest.test_case "starving deterministic by seed" `Quick
      test_starving_deterministic_by_seed;
    Alcotest.test_case "random deterministic by seed" `Quick
      test_random_deterministic_by_seed;
    Alcotest.test_case "replay order" `Quick test_replay_schedule;
    Alcotest.test_case "replay stops" `Quick test_replay_stops;
    Alcotest.test_case "replay skips decided" `Quick test_replay_skips_decided;
    Alcotest.test_case "solo only runs pid" `Quick test_solo_only_runs_pid;
    Alcotest.test_case "contention terminates" `Quick test_contention_terminates;
    Alcotest.test_case "adaptive adversary" `Quick test_adaptive;
  ]
