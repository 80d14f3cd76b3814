(* The paper's lower bound, live: a plausible-looking "consensus" protocol
   over two read-write registers satisfies nondeterministic solo
   termination and behaves well in most schedules — and the Lemma 3.2
   adversary mechanically constructs an execution in which one process
   decides 0 and another decides 1.

     dune exec examples/adversary_attack.exe
*)

open Sim
open Consensus
open Lowerbound

let target = Flawed.unanimous ~style:Flawed.Rw ~r:2

let () =
  Printf.printf "target: %s (identical processes, %d registers)\n\n"
    target.Protocol.name
    (Protocol.space target ~n:2);

  (* 1. it looks fine under friendly schedules *)
  print_endline "1. benign schedules: 20 random runs, all consistent:";
  let all_ok = ref true in
  for seed = 1 to 20 do
    let report =
      Protocol.run_once target ~inputs:[ 0; 1 ] ~sched:(Sched.round_robin ~seed ())
    in
    if not (Checker.ok report.Protocol.verdict) then all_ok := false
  done;
  Printf.printf "   all consistent: %b\n\n" !all_ok;

  (* 2. solo termination holds: each process alone decides its own input *)
  print_endline "2. nondeterministic solo termination: witnessed by search:";
  let config = Protocol.initial_config target ~inputs:[ 0; 1 ] in
  List.iter
    (fun pid ->
      match Run.solo_search config ~pid with
      | Some { decision = Some d; solo_steps; _ } ->
          Printf.printf "   P%d solo decides %d in %d steps\n" pid d solo_steps
      | _ -> Printf.printf "   P%d: no terminating solo execution?!\n" pid)
    [ 0; 1 ];
  print_newline ();

  (* 3. the Lemma 3.2 adversary breaks it *)
  print_endline "3. the Lemma 3.2 adversary (clones + block writes):";
  match Attack.run target with
  | Error e -> print_endline ("   attack failed: " ^ Attack.error_to_string e)
  | Ok o ->
      Printf.printf "   processes used: %d (paper threshold r^2-r+2 = %d)\n"
        o.Attack.processes_used
        (Bounds.identical_attack_threshold 2);
      Printf.printf "   inputs (with clones): [%s]\n"
        (String.concat ";" (List.map string_of_int o.Attack.inputs));
      print_endline "   the inconsistent execution:";
      List.iter
        (fun ev -> print_endline ("     " ^ Event.to_string string_of_int ev))
        (Trace.events o.Attack.trace);
      Printf.printf "   verdict: %s\n"
        (Fmt.str "%a" Checker.pp o.Attack.verdict);
      if Attack.succeeded o then
        print_endline "   => consistency violated, exactly as Theorem 3.3 predicts.";
      print_newline ();
      print_endline "4. certification: the same execution from a fresh start,";
      print_endline "   with every clone a genuine process shadowing its origin:";
      (match Attack.certify target o with
      | Ok (trace, verdict) ->
          Printf.printf "   certified %d-step replay, verdict: %s\n"
            (Trace.steps trace)
            (Fmt.str "%a" Checker.pp verdict)
      | Error msg -> Printf.printf "   certification failed: %s\n" msg)
