(* Determinism regression suite: every parallelized entry point must
   produce bit-identical results for jobs 1, 2, and 8, identical to the
   sequential code path.  Outcomes are projected to plain data before
   comparison because configs carry closures (structural [=] would
   raise). *)

open Consensus
open Lowerbound

(* Each check runs once sequentially (pool = None) and once per pool. *)
let pool_jobs = [ 1; 2; 8 ]

let across_pools f =
  let reference = f None in
  List.iter
    (fun jobs ->
      Par.with_pool ~jobs (fun pool ->
          Alcotest.(check bool)
            (Printf.sprintf "jobs %d = sequential" jobs)
            true
            (f (Some pool) = reference)))
    pool_jobs;
  reference

(* ---- Attack sweeps ---- *)

let project_attack = function
  | Ok (o : Attack.outcome) ->
      Ok
        ( Attack.succeeded o,
          o.processes_used,
          o.registers,
          o.nominal_n,
          Sim.Trace.to_string string_of_int o.trace )
  | Error e -> Error (Attack.error_to_string e)

let test_attack_seed_sweep_deterministic () =
  let p = Flawed.unanimous ~style:Flawed.Rw ~r:2 in
  let seeds = List.init 12 (fun i -> i + 1) in
  ignore
    (across_pools (fun pool ->
         List.map
           (fun (s, r) -> (s, project_attack r))
           (Attack.seed_sweep ?pool ~seeds p)))

let test_attack_protocol_sweep_deterministic () =
  let ps =
    [
      Flawed.unanimous ~style:Flawed.Rw ~r:1;
      Flawed.unanimous ~style:Flawed.Swapping ~r:2;
      Flawed.first_writer ~r:1;
      Flawed.mixed ~r:2;
    ]
  in
  ignore
    (across_pools (fun pool ->
         List.map (fun (n, r) -> (n, project_attack r)) (Attack.sweep ?pool ps)))

let project_general = function
  | Ok (o : General_attack.outcome) ->
      Ok
        ( General_attack.succeeded o,
          o.processes_used,
          o.registers,
          o.pieces_alpha,
          o.pieces_beta )
  | Error e -> Error (General_attack.error_to_string e)

let test_general_attack_sweep_deterministic () =
  let ps =
    [
      Flawed.unanimous ~style:Flawed.Rw ~r:1;
      Flawed.unanimous ~style:Flawed.Swapping ~r:2;
    ]
  in
  ignore
    (across_pools (fun pool ->
         List.map
           (fun (n, r) -> (n, project_general r))
           (General_attack.sweep ?pool ps)))

let test_minimum_processes_deterministic () =
  let p = Flawed.unanimous ~style:Flawed.Rw ~r:1 in
  let n =
    across_pools (fun pool ->
        General_attack.minimum_processes ?pool ~limit:60 p)
  in
  Alcotest.(check bool) "found a minimum" true (n <> None)

(* ---- Experiment tables ---- *)

let test_experiment_tables_deterministic () =
  List.iter
    (fun (name, table) ->
      let rendered = across_pools (fun pool -> table pool) in
      Alcotest.(check bool)
        (name ^ " non-empty") true
        (String.length rendered > 0))
    [
      ( "e2",
        fun pool ->
          Stats.Table.render (Experiments.E2_identical_lb.table ?pool ~max_r:2 ()) );
      ( "e3",
        fun pool ->
          Stats.Table.render (Experiments.E3_general_lb.table ?pool ~max_r:1 ()) );
      ( "e4",
        fun pool ->
          Stats.Table.render (Experiments.E4_space.table ?pool ~ns:[ 2; 3 ] ()) );
      ( "e14",
        fun pool ->
          Stats.Table.render
            (Experiments.E14_ablation.table ?pool ~ns:[ 2 ] ~reps:8 ()) );
    ]

let suite =
  [
    Alcotest.test_case "attack seed sweep" `Quick
      test_attack_seed_sweep_deterministic;
    Alcotest.test_case "attack protocol sweep" `Quick
      test_attack_protocol_sweep_deterministic;
    Alcotest.test_case "general attack sweep" `Quick
      test_general_attack_sweep_deterministic;
    Alcotest.test_case "minimum_processes" `Quick
      test_minimum_processes_deterministic;
    Alcotest.test_case "experiment tables (e2/e3/e4/e14)" `Quick
      test_experiment_tables_deterministic;
  ]
