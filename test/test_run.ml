open Sim
open Objects

(* A tiny deterministic protocol: write pid+input to own register, read
   neighbour, decide sum of what was seen (not consensus — just exercise
   machinery). *)
let tiny_code ~pid ~input : int Proc.t =
  let open Proc in
  let* _ = apply pid (Register.write_int input) in
  let* v = apply (1 - pid) Register.read in
  let seen = match v with Value.Int i -> i | _ -> -1 in
  decide ((10 * input) + seen)

let tiny_config inputs =
  Config.make
    ~optypes:[ Register.optype (); Register.optype () ]
    ~procs:(List.mapi (fun pid input -> tiny_code ~pid ~input) inputs)

let test_round_robin_completes () =
  let result = Run.exec (Sched.round_robin ()) (tiny_config [ 1; 2 ]) in
  Alcotest.(check bool) "all decided" true (result.Run.outcome = Run.All_decided);
  (* round robin: P0 writes, P1 writes, P0 reads 2, P1 reads 1 *)
  Alcotest.(check (list int))
    "decisions" [ 12; 21 ]
    (Config.decisions result.Run.config)

let test_solo_sees_nothing () =
  let result = Run.exec (Sched.solo ~pid:0 ~seed:1) (tiny_config [ 1; 2 ]) in
  Alcotest.(check bool)
    "scheduler stops with P1 pending" true
    (result.Run.outcome = Run.Scheduler_stopped);
  (* P0 wrote 1, read unwritten neighbour: 10 + (-1) = 9 *)
  Alcotest.(check (option int))
    "P0 decided alone" (Some 9)
    (Config.decision result.Run.config 0)

let test_trace_records_everything () =
  let result = Run.exec (Sched.round_robin ()) (tiny_config [ 0; 1 ]) in
  let trace = result.Run.trace in
  Alcotest.(check int) "4 applies" 4 (List.length (Trace.applied_ops trace));
  Alcotest.(check int) "2 decisions" 2 (List.length (Trace.decisions trace));
  Alcotest.(check int) "steps counted" 4 (Trace.steps trace);
  Alcotest.(check (list int)) "pids" [ 0; 1 ] (Trace.pids trace)

let test_halt_excludes () =
  let config = Config.halt (tiny_config [ 1; 2 ]) 1 in
  let result = Run.exec (Sched.round_robin ()) config in
  Alcotest.(check bool) "completes" true (result.Run.outcome = Run.All_decided);
  Alcotest.(check (option int)) "P1 never decided" None
    (Config.decision result.Run.config 1);
  Alcotest.(check bool) "P0 decided" true
    (Config.decision result.Run.config 0 <> None)

let test_max_steps () =
  (* a spinning protocol never finishes *)
  let rec spin () : int Proc.t =
    let open Proc in
    let* _ = apply 0 Register.read in
    spin ()
  in
  let config = Config.make ~optypes:[ Register.optype () ] ~procs:[ spin () ] in
  let result = Run.exec ~max_steps:50 (Sched.round_robin ()) config in
  Alcotest.(check bool) "hits bound" true (result.Run.outcome = Run.Max_steps);
  Alcotest.(check int) "exactly 50" 50 result.Run.steps

let test_step_disabled () =
  let config =
    Config.make ~optypes:[ Register.optype () ] ~procs:[ Proc.decide 3 ]
  in
  match Run.step config ~pid:0 ~coin:(fun _ -> 0) with
  | exception Run.Step_disabled 0 -> ()
  | _ -> Alcotest.fail "expected Step_disabled"

let test_coin_out_of_range () =
  let config =
    Config.make ~optypes:[] ~procs:[ Proc.(bind flip (fun b -> decide (Bool.to_int b))) ]
  in
  match Run.step config ~pid:0 ~coin:(fun _ -> 5) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected out-of-range rejection"

let test_exec_matches_pure_steps =
  (* [exec]'s in-place loop takes the trace that folding the pure [step]
     under the same scheduler takes *)
  QCheck.Test.make ~name:"exec = fold of pure steps" ~count:50
    QCheck.(pair (int_bound 10_000) (list_of_size Gen.(1 -- 4) (int_bound 1)))
    (fun (seed, inputs) ->
      QCheck.assume (inputs <> []);
      let inputs = if List.length inputs = 1 then [ 0; 1 ] else inputs in
      let inputs = List.filteri (fun i _ -> i < 2) inputs in
      let mk () = tiny_config inputs in
      let r = Run.exec (Sched.random ~seed) (mk ()) in
      let sched = Sched.random ~seed in
      let rec fold config rev_events step =
        if Config.all_decided config then (config, List.rev rev_events)
        else
          match sched.Sched.choose config ~step with
          | None -> (config, List.rev rev_events)
          | Some pid ->
              let config', events =
                Run.step config ~pid ~coin:(fun n -> sched.Sched.coin ~pid ~n)
              in
              fold config' (List.rev_append events rev_events) (step + 1)
      in
      let config, trace = fold (mk ()) [] 0 in
      r.Run.trace = trace
      && Config.decisions r.Run.config = Config.decisions config)
  |> QCheck_alcotest.to_alcotest

let test_add_proc () =
  let config = tiny_config [ 1; 2 ] in
  let config', pid = Config.add_proc config (tiny_code ~pid:0 ~input:7) in
  Alcotest.(check int) "new pid" 2 pid;
  Alcotest.(check int) "grown" 3 (Config.n_procs config');
  Alcotest.(check int) "original untouched" 2 (Config.n_procs config);
  let result = Run.exec (Sched.round_robin ()) config' in
  Alcotest.(check bool) "still runs" true (result.Run.outcome = Run.All_decided)

let test_poised_at () =
  let config = tiny_config [ 1; 2 ] in
  Alcotest.(check (list int)) "P0 at reg0" [ 0 ] (Config.poised_at config 0);
  Alcotest.(check (list int)) "P1 at reg1" [ 1 ] (Config.poised_at config 1);
  (* after P0's write, P0 is poised at reg 1 (reading) *)
  let config', _ = Run.step config ~pid:0 ~coin:(fun _ -> 0) in
  Alcotest.(check (list int)) "both at reg1" [ 0; 1 ] (Config.poised_at config' 1)

let suite =
  [
    Alcotest.test_case "round robin completes" `Quick test_round_robin_completes;
    Alcotest.test_case "solo scheduler" `Quick test_solo_sees_nothing;
    Alcotest.test_case "trace records" `Quick test_trace_records_everything;
    Alcotest.test_case "halted process excluded" `Quick test_halt_excludes;
    Alcotest.test_case "max steps" `Quick test_max_steps;
    Alcotest.test_case "step disabled raises" `Quick test_step_disabled;
    Alcotest.test_case "coin range checked" `Quick test_coin_out_of_range;
    test_exec_matches_pure_steps;
    Alcotest.test_case "add_proc" `Quick test_add_proc;
    Alcotest.test_case "poised_at" `Quick test_poised_at;
  ]
