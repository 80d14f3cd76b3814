(* The benchmark harness.

   Two layers, both in this executable:

   1. The *experiment harness*: regenerates every table/figure of
      EXPERIMENTS.md (E1..E8) by calling the drivers in [Experiments].
      Run `dune exec bench/main.exe` (add `--quick` for a CI-speed pass,
      or `--only e3` for a single experiment).

   2. Bechamel micro/macro benchmarks — one Test per experiment-relevant
      code path (simulator step costs, one consensus run per protocol,
      one adversary construction per lower bound, one exhaustive model
      check).  Run with `--bench` (also included in a default full run).

   3. The parallel-speedup scenario (`--par-bench`): wall-clock time of
      the general attack sweep and the attack seed sweep sequentially
      and at 2 and 4 domains, with a column asserting that every jobs
      count produced identical results.
      `--jobs N` runs the experiment harness itself on a pool of N
      domains (0 = one per core).
*)

open Bechamel
open Toolkit

let nf = Staged.stage

(* --- micro: simulator step costs ------------------------------------- *)

let bench_object_step name (ot : Sim.Optype.t) op =
  Test.make ~name (nf (fun () -> Sim.Optype.apply ot ot.Sim.Optype.init op))

let micro_tests =
  [
    bench_object_step "step-register-write" (Objects.Register.optype ())
      (Objects.Register.write_int 1);
    bench_object_step "step-fetch-add" (Objects.Fetch_add.optype ())
      (Objects.Fetch_add.fetch_add 1);
    bench_object_step "step-compare-swap" (Objects.Compare_swap.optype ())
      (Objects.Compare_swap.cas ~expected:Sim.Value.none
         ~desired:(Sim.Value.some (Sim.Value.int 1)));
    Test.make ~name:"step-config-run"
      (let config =
         Consensus.Protocol.initial_config Consensus.Cas_consensus.protocol
           ~inputs:[ 0; 1 ]
       in
       nf (fun () -> Sim.Run.step config ~pid:0 ~coin:(fun _ -> 0)));
  ]

(* --- macro: one experiment-shaped unit of work per table/figure ------- *)

let run_protocol (p : Consensus.Protocol.t) ~n ~seed =
  let rng = Sim.Rng.create seed in
  let inputs = List.init n (fun _ -> Sim.Rng.int rng 2) in
  Consensus.Protocol.run_once p ~inputs ~sched:(Sim.Sched.random ~seed)

let macro_tests =
  [
    (* E1/E5: one consensus run per protocol, n = 8 *)
    Test.make ~name:"e1-consensus-cas-n8"
      (nf (fun () -> run_protocol Consensus.Cas_consensus.protocol ~n:8 ~seed:1));
    Test.make ~name:"e5-consensus-fetch-add-n8"
      (nf (fun () -> run_protocol Consensus.Fa_consensus.protocol ~n:8 ~seed:1));
    Test.make ~name:"e5-consensus-counter-n8"
      (nf (fun () ->
           run_protocol Consensus.Counter_consensus.protocol ~n:8 ~seed:1));
    Test.make ~name:"e5-consensus-rw3n-n8"
      (nf (fun () -> run_protocol Consensus.Rw_consensus.protocol ~n:8 ~seed:1));
    (* E2: one identical-process adversary construction (Lemma 3.2) *)
    Test.make ~name:"e2-attack-identical-r2"
      (nf (fun () ->
           Lowerbound.Attack.run
             (Consensus.Flawed.unanimous ~style:Consensus.Flawed.Rw ~r:2)));
    (* E3: one general adversary construction (Lemma 3.6) *)
    Test.make ~name:"e3-attack-general-r2"
      (nf (fun () ->
           Lowerbound.General_attack.run
             (Consensus.Flawed.unanimous ~style:Consensus.Flawed.Rw ~r:2)));
    (* E6: one shared-coin random walk, n = 8 *)
    Test.make ~name:"e6-shared-coin-n8"
      (nf (fun () ->
           let procs =
             List.init 8 (fun _ ->
                 Consensus.Shared_coin.counter_coin ~n:8 ~obj:0 ~k:1)
           in
           let config =
             Sim.Config.make ~optypes:[ Objects.Counter.optype () ] ~procs
           in
           Sim.Run.exec_fast (Sim.Sched.random ~seed:3) config));
    (* E7: one exhaustive classification *)
    Test.make ~name:"e7-classify-all"
      (nf (fun () -> List.map Objclass.Classify.report Objects.Specs.all));
    (* E4/E8 are arithmetic; benchmark the model checker instead *)
    Test.make ~name:"mc-cas-exhaustive-n2"
      (nf (fun () ->
           let config =
             Consensus.Protocol.initial_config Consensus.Cas_consensus.protocol
               ~inputs:[ 0; 1 ]
           in
           Mc.Explore.search ~max_depth:30 ~inputs:[ 0; 1 ] config));
    (* same search under a never-binding node budget: the delta between
       this and mc-cas-exhaustive-n2 is the whole cost of metering *)
    Test.make ~name:"mc-cas-exhaustive-n2-metered"
      (let budget = Robust.Budget.make ~nodes:max_int () in
       nf (fun () ->
           let config =
             Consensus.Protocol.initial_config Consensus.Cas_consensus.protocol
               ~inputs:[ 0; 1 ]
           in
           Mc.Explore.search ~budget ~max_depth:30 ~inputs:[ 0; 1 ] config));
    (* E9: one snapshot-counter workload, recorded and checked *)
    Test.make ~name:"e9-linearize-snapshot-counter"
      (nf (fun () ->
           let workload =
             Objimpl.Harness.random_workload ~n:3 ~calls:3
               ~ops:
                 [ Objects.Counter.inc; Objects.Counter.dec; Objects.Counter.read ]
               ~seed:4
           in
           Objimpl.Harness.run_and_check Objimpl.Counters.snapshot ~n:3
             ~workload ~schedule:(Objimpl.Harness.Random_sched 4) ()));
    (* E10: one greedy bivalence-survival probe *)
    Test.make ~name:"e10-bivalence-tas2"
      (nf (fun () ->
           let config =
             Consensus.Protocol.initial_config Consensus.Tas2.protocol
               ~inputs:[ 0; 1 ]
           in
           Mc.Valency.bivalence_survival ~max_depth:6 config));
    (* E12: the depth-1 protocol census (deterministic + randomized) *)
    Test.make ~name:"e12-census-depth1"
      (nf (fun () ->
           (Mc.Enumerate.census ~depth:1, Mc.Enumerate.census_randomized ~depth:1)));
    (* E13: exhaustive mutual-exclusion check of Peterson *)
    Test.make ~name:"e13-mutex-peterson"
      (nf (fun () -> Mutex.check_exclusion ~max_depth:14 Mutex.peterson ~n:2));
  ]

(* --- parallel speedup: sequential vs. Par pools on the hot sweeps ----- *)

let wall f =
  let t0 = Unix.gettimeofday () in
  let result = f () in
  (result, Unix.gettimeofday () -. t0)

(* One scenario = one workload as a function of the (optional) pool.  The
   workload must return plain data (no closures) so results from
   different jobs counts can be compared structurally; the "identical"
   column is the determinism claim, measured. *)
let add_scenario table name work =
  let seq_result, seq_time = wall (fun () -> work None) in
  Stats.Table.add_row table
    [ name; "seq"; Printf.sprintf "%.3f" seq_time; "1.00x"; "-" ];
  List.iter
    (fun jobs ->
      let result, time =
        wall (fun () -> Par.with_pool ~jobs (fun pool -> work (Some pool)))
      in
      Stats.Table.add_row table
        [
          name;
          string_of_int jobs;
          Printf.sprintf "%.3f" time;
          Printf.sprintf "%.2fx" (seq_time /. time);
          string_of_bool (result = seq_result);
        ])
    [ 2; 4 ]

let par_bench () =
  let table =
    Stats.Table.create
      ~header:[ "scenario"; "jobs"; "seconds"; "speedup"; "identical" ]
  in
  (* the general attack sweep: one Lemma 3.6 construction per (r, style)
     cell at register counts big enough to cost ~0.5 s each — the E3
     workload pushed into the parameter regime the parallel engine is
     for.  6 coarse independent cells saturate 4 domains. *)
  add_scenario table "general-attack-sweep" (fun pool ->
      Lowerbound.General_attack.sweep ?pool
        (List.concat_map
           (fun r ->
             [
               Consensus.Flawed.unanimous ~style:Consensus.Flawed.Rw ~r;
               Consensus.Flawed.unanimous ~style:Consensus.Flawed.Swapping ~r;
             ])
           [ 10; 13; 16 ])
      |> List.map (fun (name, result) ->
             ( name,
               match result with
               | Ok o ->
                   Ok
                     ( o.Lowerbound.General_attack.processes_used,
                       o.Lowerbound.General_attack.registers,
                       o.Lowerbound.General_attack.pieces_alpha,
                       o.Lowerbound.General_attack.pieces_beta,
                       Sim.Trace.steps o.Lowerbound.General_attack.trace,
                       Lowerbound.General_attack.succeeded o )
               | Error e ->
                   Error (Lowerbound.General_attack.error_to_string e) )));
  (* randomized-restart seed sweep of the identical-process adversary:
     thousands of tiny tasks, the chunked queue's amortization case *)
  add_scenario table "attack-seed-sweep" (fun pool ->
      Lowerbound.Attack.seed_sweep ?pool
        ~seeds:(List.init 8192 (fun i -> i + 1))
        (Consensus.Flawed.unanimous ~style:Consensus.Flawed.Rw ~r:4)
      |> List.map (fun (seed, result) ->
             ( seed,
               match result with
               | Ok o ->
                   Ok
                     ( Sim.Trace.steps o.Lowerbound.Attack.trace,
                       Lowerbound.Attack.succeeded o )
               | Error e -> Error (Lowerbound.Attack.error_to_string e) )));
  Stats.Table.print table

(* --- transposition-table benchmark: nodes and wall-clock per dedup mode - *)

let dedup_name = function
  | `Off -> "off"
  | `Exact -> "exact"
  | `Symmetric -> "symmetric"

let violation_name (r : int Mc.Explore.result) =
  match r.Mc.Explore.violation with
  | None -> "none"
  | Some v -> (
      match v.Mc.Explore.kind with
      | `Inconsistent -> "inconsistent"
      | `Invalid -> "invalid")

(* Each scenario is one protocol instance explored under all three dedup
   modes.  The verdict (violation found and its kind) must be identical
   across modes — that equality is asserted, not just reported.  The
   identical-process unanimous-input scenarios are where [`Symmetric]
   shines: every interleaving of interchangeable processes collapses. *)
let mc_bench_scenarios () =
  [
    ( "unanimous-rw-r1-n3",
      Consensus.Flawed.unanimous ~style:Consensus.Flawed.Rw ~r:1,
      [ 0; 0; 0 ],
      20 );
    ("first-writer-r2-n3", Consensus.Flawed.first_writer ~r:2, [ 0; 0; 0 ], 20);
    ( "unanimous-rw-r2-n3",
      Consensus.Flawed.unanimous ~style:Consensus.Flawed.Rw ~r:2,
      [ 0; 0; 0 ],
      24 );
    ( "unanimous-rw-r2-n3-mixed",
      Consensus.Flawed.unanimous ~style:Consensus.Flawed.Rw ~r:2,
      [ 0; 0; 1 ],
      20 );
    ( "coin-rw-r2-n2",
      Consensus.Flawed.coin_retry ~style:Consensus.Flawed.Rw ~r:2,
      [ 0; 0 ],
      12 );
    ("cas-n2-mixed", Consensus.Cas_consensus.protocol, [ 0; 1 ], 30);
  ]

(* Wall-clock plus minor-heap allocation of one run; the allocation
   number travels through the [lib/obs] counter so the bench exercises
   the same plumbing the CLI's --metrics mode uses. *)
let measured f =
  let obs = Obs.create () in
  let result, secs = wall (fun () -> Obs.alloc_span (Some obs) "bench" f) in
  (result, secs, Obs.Metrics.counter (Obs.metrics obs) "bench/minor-words")

let engine_project (r : int Mc.Explore.result) =
  ( violation_name r,
    r.Mc.Explore.visited,
    r.Mc.Explore.leaves,
    r.Mc.Explore.table_hits,
    r.Mc.Explore.truncated )

(* The mc-bench rows: every obs-bench scenario under all three dedup
   modes, plus the deep symmetric sweep — the longest row, where the
   flat slab engine's advantage is structural ([`Off] at this depth
   would take minutes, so it runs deduped only; its node-reduction
   ratio is relative to [`Exact]). *)
let mc_bench_rows () =
  List.map
    (fun (name, p, inputs, max_depth) ->
      (name, p, inputs, max_depth, [ `Off; `Exact; `Symmetric ]))
    (mc_bench_scenarios ())
  @ [
      ( "counter-3-n3-mixed-deep",
        Consensus.Counter_consensus.protocol,
        [ 0; 1; 0 ],
        24,
        [ `Exact; `Symmetric ] );
      ( "rw-3n-n7-deep",
        Consensus.Rw_consensus.protocol,
        [ 0; 0; 0; 0; 0; 0; 0 ],
        12,
        [ `Symmetric ] );
    ]

(* The CI perf-smoke subset: the two fastest scenarios of each suite,
   so the job can hard-fail on verdict/node drift in seconds without
   paying for the deep sweeps.  Smoke runs never rewrite the committed
   BENCH_*.json — they only diff against it. *)
let mc_smoke_scenarios = [ "coin-rw-r2-n2"; "cas-n2-mixed" ]
let fuzz_smoke_scenarios = [ "flawed"; "cas-1" ]

let mc_bench ?(smoke = false) () =
  let table =
    Stats.Table.create
      ~header:
        [
          "scenario";
          "dedup";
          "visited";
          "leaves";
          "table hits";
          "closure s";
          "flat s";
          "speedup";
          "flat minor MW";
          "flat table MiB";
          "nodes vs off";
          "verdict";
        ]
  in
  let baseline_rows = ref [] in
  let json_scenarios =
    List.map
      (fun (name, p, inputs, max_depth, modes) ->
        let runs =
          List.map
            (fun dedup ->
              let search ?obs state =
                Mc.Explore.search ?obs ~state ~dedup ~max_depth ~inputs
                  (Consensus.Protocol.initial_config p ~inputs)
              in
              let rc, secs_c, mw_c = measured (fun () -> search `Closure) in
              let rf, secs_f, mw_f = measured (fun () -> search `Flat) in
              if engine_project rc <> engine_project rf then begin
                Printf.eprintf
                  "mc-bench: ENGINE MISMATCH on %s/%s: flat and closure \
                   disagree\n"
                  name (dedup_name dedup);
                exit 1
              end;
              (* the table size is a deterministic counter: read it off an
                 untimed rerun, so the timed runs carry no obs handle *)
              let obs = Obs.create () in
              ignore (search ~obs `Flat : int Mc.Explore.result);
              let bytes =
                Obs.Metrics.counter (Obs.metrics obs) "mc/table-bytes"
              in
              (dedup, rf, secs_c, secs_f, mw_c, mw_f, bytes))
            modes
        in
        let first_result =
          match runs with (_, r, _, _, _, _, _) :: _ -> r | [] -> assert false
        in
        let has_off = List.mem `Off modes in
        List.iter
          (fun (dedup, (r : int Mc.Explore.result), secs_c, secs_f, _, mw_f, bytes)
             ->
            if violation_name r <> violation_name first_result then begin
              Printf.eprintf
                "mc-bench: VERDICT MISMATCH on %s: %s=%s but %s=%s\n" name
                (dedup_name dedup) (violation_name r)
                (dedup_name (List.hd modes))
                (violation_name first_result);
              exit 1
            end;
            baseline_rows :=
              (name, dedup_name dedup, violation_name r, r.Mc.Explore.visited, secs_f)
              :: !baseline_rows;
            Stats.Table.add_row table
              [
                name;
                dedup_name dedup;
                string_of_int r.Mc.Explore.visited;
                string_of_int r.Mc.Explore.leaves;
                string_of_int r.Mc.Explore.table_hits;
                Printf.sprintf "%.4f" secs_c;
                Printf.sprintf "%.4f" secs_f;
                Printf.sprintf "%.2fx" (secs_c /. Float.max secs_f 1e-9);
                Printf.sprintf "%.1f" (float_of_int mw_f /. 1e6);
                Printf.sprintf "%.2f" (float_of_int bytes /. 1048576.);
                (if has_off then
                   Printf.sprintf "%.1fx"
                     (float_of_int first_result.Mc.Explore.visited
                     /. float_of_int (max 1 r.Mc.Explore.visited))
                 else "-");
                violation_name r;
              ])
          runs;
        let mode_json
            (dedup, (r : int Mc.Explore.result), secs_c, secs_f, mw_c, mw_f, bytes)
            =
          Printf.sprintf
            {|        { "dedup": %S, "visited": %d, "leaves": %d, "table_hits": %d, "truncated": %b, "seconds_closure": %.6f, "seconds_flat": %.6f, "speedup": %.2f, "minor_words_closure": %d, "minor_words_flat": %d, "table_bytes_flat": %d, "verdict": %S }|}
            (dedup_name dedup) r.Mc.Explore.visited r.Mc.Explore.leaves
            r.Mc.Explore.table_hits r.Mc.Explore.truncated secs_c secs_f
            (secs_c /. Float.max secs_f 1e-9)
            mw_c mw_f bytes (violation_name r)
        in
        let last_result =
          match List.rev runs with
          | (_, r, _, _, _, _, _) :: _ -> r
          | [] -> assert false
        in
        Printf.sprintf
          {|    {
      "scenario": %S,
      "inputs": [%s],
      "max_depth": %d,
      "node_reduction_last_vs_first_mode": %.1f,
      "modes": [
%s
      ]
    }|}
          name
          (String.concat ", " (List.map string_of_int inputs))
          max_depth
          (float_of_int first_result.Mc.Explore.visited
          /. float_of_int (max 1 last_result.Mc.Explore.visited))
          (String.concat ",\n" (List.map mode_json runs)))
      (mc_bench_rows ()
      |> List.filter (fun (name, _, _, _, _) ->
             (not smoke) || List.mem name mc_smoke_scenarios))
  in
  Stats.Table.print table;
  let json =
    Printf.sprintf
      {|{
  "benchmark": "mc transposition table",
  "verdicts_agree": true,
  "engines_agree": true,
  "scenarios": [
%s
  ]
}
|}
      (String.concat ",\n" json_scenarios)
  in
  if smoke then print_endline "\n--smoke: BENCH_mc.json left untouched"
  else begin
    let oc = open_out "BENCH_mc.json" in
    output_string oc json;
    close_out oc;
    print_endline "\nwrote BENCH_mc.json"
  end;
  List.rev !baseline_rows

(* --- observability overhead: null-sink cost on the BENCH_mc scenarios -- *)

(* The claim under test: instrumenting a search with a disabled (null-sink)
   [Obs.t] costs ≲2% wall-clock on searches long enough for a percentage
   to mean anything.  The design makes this cheap by construction —
   engines record counters once from the result, not per node — so
   the entire overhead is a fixed per-invocation constant (one span's
   [gettimeofday] pair plus ~10 hashtable writes, ≈0.5µs); the Δ/search
   column shows that constant directly, which is the honest number for
   the microsecond-long scenarios where it dwarfs 2% of nearly nothing. *)
let obs_bench () =
  let table =
    Stats.Table.create
      ~header:
        [
          "scenario";
          "baseline s";
          "obs s";
          "overhead";
          "delta/search";
          "counters ok";
        ]
  in
  let reps = 7 in
  (* each timed rep runs the search enough times to sit well above clock
     granularity (~20ms per rep); baseline and instrumented reps are
     interleaved so CPU-frequency drift hits both sides equally, and the
     min over reps cuts scheduler noise *)
  let timed_rep iters f =
    let _, s =
      wall (fun () ->
          for _ = 1 to iters do
            ignore (f ())
          done)
    in
    s /. float_of_int iters
  in
  let interleaved base_f instr_f =
    let _, probe = wall (fun () -> ignore (base_f ())) in
    let iters =
      max 50 (min 20_000 (int_of_float (0.02 /. Float.max probe 1e-7)))
    in
    let rec go i best_b best_i =
      if i = 0 then (best_b, best_i)
      else
        let b = timed_rep iters base_f in
        let o = timed_rep iters instr_f in
        go (i - 1) (Float.min best_b b) (Float.min best_i o)
    in
    go reps infinity infinity
  in
  List.iter
    (fun (name, p, inputs, max_depth) ->
      let config = Consensus.Protocol.initial_config p ~inputs in
      let search ?obs () =
        Mc.Explore.search ?obs ~dedup:`Exact ~max_depth ~inputs config
      in
      (* one accumulator across iterations, as one CLI invocation sees:
         the claim covers recording cost, not per-search allocation *)
      let shared = Obs.create () in
      let base, instr =
        interleaved (fun () -> search ()) (fun () -> search ~obs:shared ())
      in
      let obs = Obs.create () in
      let r = search ~obs () in
      let m = Obs.metrics obs in
      let counters_ok =
        Obs.Metrics.counter m "mc/visited" = r.Mc.Explore.visited
        && Obs.Metrics.counter m "mc/table-hits" = r.Mc.Explore.table_hits
        && Obs.Metrics.counter m "mc/table-misses" = r.Mc.Explore.table_misses
        && Obs.Metrics.watermark m "mc/max-depth" = r.Mc.Explore.max_depth_seen
      in
      Stats.Table.add_row table
        [
          name;
          Printf.sprintf "%.6f" base;
          Printf.sprintf "%.6f" instr;
          Printf.sprintf "%+.1f%%" ((instr /. base -. 1.) *. 100.);
          Printf.sprintf "%+.0fns" ((instr -. base) *. 1e9);
          string_of_bool counters_ok;
        ])
    (mc_bench_scenarios ());
  Stats.Table.print table

(* --- fuzz throughput: runs/sec and shrink cost per scenario ----------- *)

(* One row per packaged scenario, campaign shrunk-counterexample stats
   included.  Scenarios with planted bugs (flawed, mutex-naive-flag,
   lin-collect-counter) are expected to violate; the safe ones bound the
   fuzzer's false-positive rate at these run counts. *)
let fuzz_bench_scenarios = [
    ("flawed", 2000);
    ("cas-1", 1000);
    ("mutex-naive-flag", 1000);
    ("mutex-peterson-2", 1000);
    ("lin-collect-counter", 2000);
    ("lin-consensus-swap", 2000);
    ("lin-tas-rand", 2000);
  ]

(* Identical campaigns under both engines (same seed drives the same
   runs — the differential suite's guarantee, re-asserted here on every
   bench), timed separately; the flat engine's wall-clock is the
   headline number and the baseline-diff subject. *)
let campaign_project (r : Fuzz.Campaign.result) =
  ( r.Fuzz.Campaign.runs_done,
    r.Fuzz.Campaign.violations,
    r.Fuzz.Campaign.total_steps,
    Robust.Budget.completeness_to_string r.Fuzz.Campaign.completeness,
    match r.Fuzz.Campaign.first_violation with
    | None -> None
    | Some cex -> Some (cex.Fuzz.Campaign.original, cex.Fuzz.Campaign.shrunk) )

let fuzz_bench ?(smoke = false) () =
  let table =
    Stats.Table.create
      ~header:
        [
          "scenario";
          "runs";
          "closure s";
          "flat s";
          "speedup";
          "flat runs/s";
          "flat minor MW";
          "violations";
          "orig steps";
          "shrunk steps";
          "candidates";
          "verdict";
        ]
  in
  let baseline_rows = ref [] in
  let json_scenarios =
    List.map
      (fun (name, runs) ->
        let scenario engine =
          match Fuzz.Scenario.find ~engine name with
          | Ok sc -> sc
          | Error e ->
              prerr_endline e;
              exit 1
        in
        let campaign engine =
          Fuzz.Campaign.run ~shrink:true ~runs ~seed:1 (scenario engine)
        in
        (* engine parity asserted once, on cold caches; the timed reps
           below then interleave the engines (min of 3, warm scenario
           state) so CPU-frequency drift cannot masquerade as a
           speedup — the same discipline obs_bench uses *)
        let rc = campaign `Closure in
        let r = campaign `Flat in
        if campaign_project rc <> campaign_project r then begin
          Printf.eprintf
            "fuzz-bench: ENGINE MISMATCH on %s: flat and closure campaigns \
             disagree\n"
            name;
          exit 1
        end;
        let secs_c = ref infinity
        and secs_f = ref infinity
        and mw_c = ref 0
        and mw_f = ref 0 in
        for _ = 1 to 3 do
          let _, s, mw = measured (fun () -> campaign `Closure) in
          secs_c := Float.min !secs_c s;
          mw_c := mw;
          let _, s, mw = measured (fun () -> campaign `Flat) in
          secs_f := Float.min !secs_f s;
          mw_f := mw
        done;
        let secs_c = !secs_c
        and secs_f = !secs_f
        and mw_c = !mw_c
        and mw_f = !mw_f in
        let orig, shrunk, candidates =
          match r.Fuzz.Campaign.first_violation with
          | None -> (0, 0, 0)
          | Some cex ->
              ( Fuzz.Schedule.steps cex.Fuzz.Campaign.original,
                Fuzz.Schedule.steps cex.Fuzz.Campaign.shrunk,
                match cex.Fuzz.Campaign.shrink_stats with
                | Some s -> s.Fuzz.Shrink.candidates
                | None -> 0 )
        in
        let verdict =
          Robust.Budget.completeness_to_string r.Fuzz.Campaign.completeness
        in
        baseline_rows :=
          (name, r.Fuzz.Campaign.violations, verdict, secs_f) :: !baseline_rows;
        Stats.Table.add_row table
          [
            name;
            string_of_int r.Fuzz.Campaign.runs_done;
            Printf.sprintf "%.3f" secs_c;
            Printf.sprintf "%.3f" secs_f;
            Printf.sprintf "%.2fx" (secs_c /. Float.max secs_f 1e-9);
            Printf.sprintf "%.0f"
              (float_of_int r.Fuzz.Campaign.runs_done /. secs_f);
            Printf.sprintf "%.1f" (float_of_int mw_f /. 1e6);
            string_of_int r.Fuzz.Campaign.violations;
            string_of_int orig;
            string_of_int shrunk;
            string_of_int candidates;
            verdict;
          ];
        Printf.sprintf
          {|    { "scenario": %S, "runs": %d, "seconds_closure": %.6f, "seconds_flat": %.6f, "speedup": %.2f, "runs_per_sec": %.1f, "minor_words_closure": %d, "minor_words_flat": %d, "violations": %d, "steps": %d, "original_steps": %d, "shrunk_steps": %d, "shrink_candidates": %d, "verdict": %S }|}
          name r.Fuzz.Campaign.runs_done secs_c secs_f
          (secs_c /. Float.max secs_f 1e-9)
          (float_of_int r.Fuzz.Campaign.runs_done /. secs_f)
          mw_c mw_f r.Fuzz.Campaign.violations r.Fuzz.Campaign.total_steps orig
          shrunk candidates verdict)
      (List.filter
         (fun (name, _) -> (not smoke) || List.mem name fuzz_smoke_scenarios)
         fuzz_bench_scenarios)
  in
  Stats.Table.print table;
  let json =
    Printf.sprintf
      {|{
  "benchmark": "fuzz campaign throughput",
  "seed": 1,
  "engines_agree": true,
  "scenarios": [
%s
  ]
}
|}
      (String.concat ",\n" json_scenarios)
  in
  if smoke then print_endline "\n--smoke: BENCH_fuzz.json left untouched"
  else begin
    let oc = open_out "BENCH_fuzz.json" in
    output_string oc json;
    close_out oc;
    print_endline "\nwrote BENCH_fuzz.json"
  end;
  List.rev !baseline_rows

(* --- serve bench: submit-to-verdict latency and throughput ------------ *)

(* One in-process daemon, N concurrent clients each pumping the same
   small mc job through the full wire path (connect, submit, stream,
   verdict).  Every verdict is checked against a direct Job.execute of
   the same spec — a served verdict that drifts from the local one is a
   hard failure, the same discipline as the fuzz bench's engine-parity
   check.  Latency is per submit_and_wait call; jobs/s is the wall-clock
   aggregate. *)
let serve_bench ?(smoke = false) () =
  let dir =
    let path = Filename.temp_file "randsync-serve-bench" "" in
    Sys.remove path;
    Unix.mkdir path 0o700;
    path
  in
  let sock = Filename.concat dir "s.sock" in
  let cfg =
    {
      Serve.Server.address = `Unix sock;
      queue_limit = 256;
      workers = Serve.Server.default_workers;
      spool_dir = None;
      obs = None;
      progress_interval = 3600.;
    }
  in
  let ready = Atomic.make false in
  let server =
    Thread.create
      (fun () ->
        Serve.Server.run ~on_ready:(fun _ -> Atomic.set ready true) cfg)
      ()
  in
  while not (Atomic.get ready) do
    Thread.yield ()
  done;
  let job =
    {
      Serve.Job.spec =
        Serve.Job.Mc
          {
            (Serve.Job.mc_defaults ~protocol:"counter-3") with
            Serve.Job.mc_inputs = [ 0; 1 ];
            mc_depth = 10;
          };
      deadline = None;
    }
  in
  let expected = Serve.Job.execute job in
  (* smoke trims the client-count sweep, never the per-row job count —
     rows must stay parameter-identical to the committed baseline *)
  let total_jobs = 24 in
  let client_counts = if smoke then [ 1; 2 ] else [ 1; 2; 8 ] in
  let table =
    Stats.Table.create
      ~header:
        [ "clients"; "jobs"; "seconds"; "jobs/s"; "mean ms"; "max ms";
          "verdict" ]
  in
  let baseline_rows = ref [] in
  let json_rows =
    List.map
      (fun clients ->
        let per_client = max 1 (total_jobs / clients) in
        let jobs = per_client * clients in
        let mismatches = Atomic.make 0 in
        let results = Array.make clients [||] in
        let client () =
          let lats = Array.make per_client 0. in
          for i = 0 to per_client - 1 do
            let t0 = Unix.gettimeofday () in
            (match Serve.Client.submit_and_wait (`Unix sock) job with
            | Ok (status, lines)
              when status = expected.Serve.Job.status
                   && lines = expected.Serve.Job.lines ->
                ()
            | Ok _ | Error _ -> Atomic.incr mismatches);
            lats.(i) <- Unix.gettimeofday () -. t0
          done;
          lats
        in
        let t0 = Unix.gettimeofday () in
        let threads =
          List.init clients (fun i ->
              Thread.create (fun () -> results.(i) <- client ()) ())
        in
        List.iter Thread.join threads;
        let secs = Unix.gettimeofday () -. t0 in
        if Atomic.get mismatches > 0 then begin
          Printf.eprintf
            "serve-bench: VERDICT MISMATCH: %d of %d served verdicts \
             diverged from the direct run\n"
            (Atomic.get mismatches) jobs;
          exit 1
        end;
        let lats = Array.concat (Array.to_list results) in
        let mean =
          Array.fold_left ( +. ) 0. lats /. float_of_int (Array.length lats)
        in
        let maxl = Array.fold_left Float.max 0. lats in
        baseline_rows :=
          (Printf.sprintf "clients=%d" clients, jobs, "ok", secs)
          :: !baseline_rows;
        Stats.Table.add_row table
          [
            string_of_int clients;
            string_of_int jobs;
            Printf.sprintf "%.3f" secs;
            Printf.sprintf "%.1f" (float_of_int jobs /. secs);
            Printf.sprintf "%.2f" (mean *. 1e3);
            Printf.sprintf "%.2f" (maxl *. 1e3);
            "ok";
          ];
        Printf.sprintf
          {|    { "clients": %d, "jobs": %d, "seconds": %.6f, "jobs_per_sec": %.1f, "mean_latency_ms": %.3f, "max_latency_ms": %.3f, "verdict": "ok" }|}
          clients jobs secs
          (float_of_int jobs /. secs)
          (mean *. 1e3) (maxl *. 1e3))
      client_counts
  in
  (* drain the daemon and scrub the scratch dir *)
  (match Serve.Client.connect (`Unix sock) with
  | Ok c ->
      Serve.Client.send c Serve.Wire.Drain;
      ignore (Serve.Client.recv c);
      Serve.Client.close c
  | Error _ -> ());
  Thread.join server;
  (try Unix.unlink sock with Unix.Unix_error _ -> ());
  (try Unix.rmdir dir with Unix.Unix_error _ -> ());
  Stats.Table.print table;
  let json =
    Printf.sprintf
      {|{
  "benchmark": "serve submit-to-verdict",
  "workers": %d,
  "rows": [
%s
  ]
}
|}
      Serve.Server.default_workers
      (String.concat ",\n" json_rows)
  in
  if smoke then print_endline "\n--smoke: BENCH_serve.json left untouched"
  else begin
    let oc = open_out "BENCH_serve.json" in
    output_string oc json;
    close_out oc;
    print_endline "\nwrote BENCH_serve.json"
  end;
  List.rev !baseline_rows

(* --- synth bench: CEGIS frontier search throughput -------------------- *)

(* One row per (object style, depth) point of the synthesis space.  The
   frontier, the completeness verdict and the candidate/pruned/refuted/
   lemma counts are deterministic for the pinned seed — a baseline diff
   that sees any of them move has caught a real change in the search,
   the pruning or the enumeration, not noise.  Wall clock is advisory as
   everywhere else.  Scenarios stay within a second or so each so the
   smoke subset can run the full list; rw-r1-d2 is the exhaustive
   1.4M-pair sweep. *)
let synth_bench_scenarios =
  [
    ("rw-r1-d1", Consensus.Dtree.Rw, 1, 1, false, 4);
    ("rw-r1-d1-coins", Consensus.Dtree.Rw, 1, 1, true, 3);
    ("swap-r1-d1", Consensus.Dtree.Swapping, 1, 1, false, 5);
    ("rw-r1-d2", Consensus.Dtree.Rw, 1, 2, false, 3);
  ]

(* the deterministic fields a synth baseline row is diffed on *)
let synth_exact_fields =
  [ "candidates"; "pruned"; "refuted"; "lemmas"; "frontier"; "verdict" ]

let synth_bench ?(smoke = false) () =
  let table =
    Stats.Table.create
      ~header:
        [
          "scenario";
          "trees";
          "candidates";
          "pruned";
          "refuted";
          "lemmas";
          "frontier";
          "secs";
          "verdict";
        ]
  in
  let baseline_rows = ref [] in
  let json_scenarios =
    List.map
      (fun (name, style, registers, depth, coins, procs) ->
        let search () =
          Synth.Cegis.search ~style ~registers ~depth ~coins ~max_procs:procs
            ~seed:1 ()
        in
        let r = search () in
        let secs = ref infinity in
        for _ = 1 to 3 do
          let _, s, _ = measured search in
          secs := Float.min !secs s
        done;
        let secs = !secs in
        let candidates =
          List.fold_left
            (fun a row -> a + row.Synth.Cegis.candidates)
            0 r.Synth.Cegis.rows
        in
        let pruned =
          List.fold_left
            (fun a row -> a + row.Synth.Cegis.pruned)
            0 r.Synth.Cegis.rows
        in
        let refuted =
          List.fold_left
            (fun a row -> a + row.Synth.Cegis.refuted)
            0 r.Synth.Cegis.rows
        in
        let verdict =
          Robust.Budget.completeness_to_string r.Synth.Cegis.completeness
        in
        let frontier = r.Synth.Cegis.frontier in
        let lemmas = List.length r.Synth.Cegis.lemmas in
        let exact =
          List.combine synth_exact_fields
            (List.map string_of_int
               [ candidates; pruned; refuted; lemmas; frontier ]
            @ [ verdict ])
        in
        baseline_rows := (name, exact, secs) :: !baseline_rows;
        Stats.Table.add_row table
          [
            name;
            string_of_int r.Synth.Cegis.trees;
            string_of_int candidates;
            string_of_int pruned;
            string_of_int refuted;
            string_of_int lemmas;
            string_of_int frontier;
            Printf.sprintf "%.3f" secs;
            verdict;
          ];
        Printf.sprintf
          {|    { "scenario": %S, "trees": %d, "candidates": %d, "pruned": %d, "refuted": %d, "lemmas": %d, "frontier": %d, "seconds": %.6f, "verdict": %S }|}
          name r.Synth.Cegis.trees candidates pruned refuted lemmas frontier
          secs verdict)
      synth_bench_scenarios
  in
  Stats.Table.print table;
  let json =
    Printf.sprintf
      {|{
  "benchmark": "synth CEGIS frontier search",
  "seed": 1,
  "scenarios": [
%s
  ]
}
|}
      (String.concat ",\n" json_scenarios)
  in
  if smoke then print_endline "\n--smoke: BENCH_synth.json left untouched"
  else begin
    let oc = open_out "BENCH_synth.json" in
    output_string oc json;
    close_out oc;
    print_endline "\nwrote BENCH_synth.json"
  end;
  List.rev !baseline_rows

(* --- baseline diff: verdict fields hard-fail, wall clock advisory ----- *)

(* Our own JSON emitters above write one object per scenario/mode line,
   so a per-line field scan is a complete parser for these files — no
   JSON library in the bench harness's dependency cone. *)
let find_sub line sub =
  let n = String.length line and m = String.length sub in
  let rec go i =
    if i + m > n then None
    else if String.sub line i m = sub then Some (i + m)
    else go (i + 1)
  in
  go 0

let json_field line key =
  match find_sub line (Printf.sprintf "%S: " key) with
  | None -> None
  | Some j ->
      let n = String.length line in
      if j < n && line.[j] = '"' then
        let k = String.index_from line (j + 1) '"' in
        Some (String.sub line (j + 1) (k - j - 1))
      else begin
        let k = ref j in
        while
          !k < n && not (List.mem line.[!k] [ ','; ' '; '}'; '\n'; '\r' ])
        do
          incr k
        done;
        Some (String.sub line j (!k - j))
      end

let read_lines file =
  let ic = open_in file in
  let rec go acc =
    match input_line ic with
    | line -> go (line :: acc)
    | exception End_of_file ->
        close_in ic;
        List.rev acc
  in
  go []

(* Flat seconds from a baseline row, accepting the pre-engine-column
   schema's plain "seconds" field too. *)
let baseline_seconds line =
  match json_field line "seconds_flat" with
  | Some s -> float_of_string_opt s
  | None -> Option.bind (json_field line "seconds") float_of_string_opt

let diff_advisory name base fresh =
  Printf.printf "baseline %-28s verdict ok, wall %+.1f%% (%.4fs -> %.4fs)\n"
    name
    ((fresh /. Float.max base 1e-9 -. 1.) *. 100.)
    base fresh

let diff_mc_baseline (file, lines) rows =
  let base = ref [] in
  let scenario = ref "" in
  List.iter
    (fun line ->
      (match json_field line "scenario" with
      | Some s -> scenario := s
      | None -> ());
      match json_field line "dedup" with
      | Some dedup ->
          base :=
            ( (!scenario, dedup),
              ( json_field line "verdict",
                Option.bind (json_field line "visited") int_of_string_opt,
                baseline_seconds line ) )
            :: !base
      | None -> ())
    lines;
  Printf.printf "\n=== Baseline diff vs %s (verdicts hard-fail) ===\n\n" file;
  let failed = ref false in
  List.iter
    (fun (scenario, dedup, verdict, visited, secs) ->
      let row = Printf.sprintf "%s/%s" scenario dedup in
      match List.assoc_opt (scenario, dedup) !base with
      | None -> Printf.printf "baseline %-28s not in baseline (new row)\n" row
      | Some (bverdict, bvisited, bsecs) ->
          if bverdict <> Some verdict || bvisited <> Some visited then begin
            Printf.eprintf
              "baseline %s: VERDICT/NODES CHANGED: %s/%d vs baseline %s/%s\n"
              row verdict visited
              (Option.value ~default:"?" bverdict)
              (match bvisited with Some v -> string_of_int v | None -> "?");
            failed := true
          end
          else
            Option.iter (fun bsecs -> diff_advisory row bsecs secs) bsecs)
    rows;
  if !failed then exit 1

let diff_fuzz_baseline (file, lines) rows =
  let base = ref [] in
  List.iter
    (fun line ->
      match (json_field line "scenario", json_field line "runs") with
      | Some s, Some _ ->
          base :=
            ( s,
              ( Option.bind (json_field line "violations") int_of_string_opt,
                json_field line "verdict",
                baseline_seconds line ) )
            :: !base
      | _ -> ())
    lines;
  Printf.printf "\n=== Baseline diff vs %s (verdicts hard-fail) ===\n\n" file;
  let failed = ref false in
  List.iter
    (fun (scenario, violations, verdict, secs) ->
      match List.assoc_opt scenario !base with
      | None ->
          Printf.printf "baseline %-28s not in baseline (new row)\n" scenario
      | Some (bviolations, bverdict, bsecs) ->
          if bviolations <> Some violations || bverdict <> Some verdict then begin
            Printf.eprintf
              "baseline %s: VERDICT CHANGED: %d/%s vs baseline %s/%s\n"
              scenario violations verdict
              (match bviolations with Some v -> string_of_int v | None -> "?")
              (Option.value ~default:"?" bverdict);
            failed := true
          end
          else
            Option.iter (fun bsecs -> diff_advisory scenario bsecs secs) bsecs)
    rows;
  if !failed then exit 1

let diff_serve_baseline (file, lines) rows =
  let base = ref [] in
  List.iter
    (fun line ->
      match (json_field line "clients", json_field line "verdict") with
      | Some c, Some v ->
          base :=
            ( "clients=" ^ c,
              ( v,
                Option.bind (json_field line "jobs") int_of_string_opt,
                baseline_seconds line ) )
            :: !base
      | _ -> ())
    lines;
  Printf.printf "\n=== Baseline diff vs %s (verdicts hard-fail) ===\n\n" file;
  let failed = ref false in
  List.iter
    (fun (row, jobs, verdict, secs) ->
      match List.assoc_opt row !base with
      | None -> Printf.printf "baseline %-28s not in baseline (new row)\n" row
      | Some (bverdict, bjobs, bsecs) ->
          if bverdict <> verdict || bjobs <> Some jobs then begin
            Printf.eprintf
              "baseline %s: VERDICT/JOBS CHANGED: %s/%d vs baseline %s/%s\n"
              row verdict jobs bverdict
              (match bjobs with Some j -> string_of_int j | None -> "?");
            failed := true
          end
          else Option.iter (fun bsecs -> diff_advisory row bsecs secs) bsecs)
    rows;
  if !failed then exit 1

let diff_synth_baseline (file, lines) rows =
  let base =
    List.filter_map
      (fun line ->
        Option.map (fun s -> (s, line)) (json_field line "scenario"))
      lines
  in
  Printf.printf "\n=== Baseline diff vs %s (verdicts hard-fail) ===\n\n" file;
  let failed = ref false in
  List.iter
    (fun (scenario, exact, secs) ->
      match List.assoc_opt scenario base with
      | None ->
          Printf.printf "baseline %-28s not in baseline (new row)\n" scenario
      | Some line ->
          let changed =
            List.filter
              (fun (key, v) -> json_field line key <> Some v)
              exact
          in
          if changed <> [] then begin
            List.iter
              (fun (key, v) ->
                Printf.eprintf "baseline %s: %s CHANGED: %s vs baseline %s\n"
                  scenario (String.uppercase_ascii key) v
                  (Option.value ~default:"?" (json_field line key)))
              changed;
            failed := true
          end
          else
            Option.iter
              (fun bsecs -> diff_advisory scenario bsecs secs)
              (baseline_seconds line))
    rows;
  if !failed then exit 1

let run_bechamel tests =
  let instances = Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~stabilize:true ()
  in
  let raw =
    Benchmark.all cfg instances
      (Test.make_grouped ~name:"randsync" ~fmt:"%s/%s" tests)
  in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let rows =
    Hashtbl.fold
      (fun name ols acc ->
        let ns =
          match Analyze.OLS.estimates ols with
          | Some (est :: _) -> est
          | _ -> nan
        in
        let r2 = Option.value ~default:nan (Analyze.OLS.r_square ols) in
        (name, ns, r2) :: acc)
      results []
  in
  let t = Stats.Table.create ~header:[ "benchmark"; "ns/run"; "r^2" ] in
  List.iter
    (fun (name, ns, r2) ->
      Stats.Table.add_row t
        [ name; Printf.sprintf "%.1f" ns; Printf.sprintf "%.4f" r2 ])
    (List.sort compare rows);
  Stats.Table.print t

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let quick = List.mem "--quick" args in
  let bench_only = List.mem "--bench" args in
  let par_bench_only = List.mem "--par-bench" args in
  let mc_bench_only = List.mem "--mc-bench" args in
  let fuzz_bench_only = List.mem "--fuzz-bench" args in
  let obs_bench_only = List.mem "--obs-bench" args in
  let serve_bench_only = List.mem "--serve-bench" args in
  let synth_bench_only = List.mem "--synth-bench" args in
  let smoke = List.mem "--smoke" args in
  let only =
    let rec find = function
      | "--only" :: id :: _ -> Some id
      | _ :: rest -> find rest
      | [] -> None
    in
    find args
  in
  (* the baseline is loaded up front: the bench overwrites BENCH_*.json
     in place, so reading the file after the run would diff the fresh
     results against themselves *)
  let baseline =
    let rec find = function
      | "--baseline" :: file :: _ -> Some file
      | _ :: rest -> find rest
      | [] -> None
    in
    match find args with
    | None -> None
    | Some file -> (
        match read_lines file with
        | lines -> Some (file, lines)
        | exception Sys_error e ->
            Printf.eprintf "--baseline: %s
" e;
            exit 2)
  in
  let jobs =
    let rec find = function
      | "--jobs" :: n :: _ -> int_of_string_opt n
      | _ :: rest -> find rest
      | [] -> None
    in
    match find args with
    | Some 0 -> Some (Par.default_jobs ())
    | Some n when n >= 1 -> Some n
    | Some _ | None -> None
  in
  let with_jobs f =
    match jobs with
    | None -> f None
    | Some jobs -> Par.with_pool ~jobs (fun pool -> f (Some pool))
  in
  if synth_bench_only then begin
    print_endline
      "\n=== Synth: CEGIS frontier search (pruning + verdicts) ===\n";
    let rows = synth_bench ~smoke () in
    Option.iter (fun b -> diff_synth_baseline b rows) baseline
  end
  else if serve_bench_only then begin
    print_endline
      "\n=== Serve daemon: submit-to-verdict latency and jobs/s by client \
       count ===\n";
    let rows = serve_bench ~smoke () in
    Option.iter (fun b -> diff_serve_baseline b rows) baseline
  end
  else if obs_bench_only then begin
    print_endline
      "\n=== Observability overhead (null sink vs. none, min of 7 \
       interleaved reps) ===\n";
    obs_bench ()
  end
  else if fuzz_bench_only then begin
    print_endline "\n=== Fuzz campaign throughput (shrink included) ===\n";
    let rows = fuzz_bench ~smoke () in
    Option.iter (fun b -> diff_fuzz_baseline b rows) baseline
  end
  else if mc_bench_only then begin
    print_endline
      "\n=== Transposition table (nodes + wall clock per dedup mode) ===\n";
    let rows = mc_bench ~smoke () in
    Option.iter (fun b -> diff_mc_baseline b rows) baseline
  end
  else if par_bench_only then begin
    print_endline "\n=== Parallel speedup (wall clock, determinism checked) ===\n";
    par_bench ()
  end
  else begin
    if not bench_only then
      with_jobs (fun pool ->
          match only with
          | Some id -> (
              match Experiments.All.find id with
              | Some s ->
                  Printf.printf "\n=== %s: %s ===\n\n"
                    (String.uppercase_ascii s.Experiments.All.id)
                    s.Experiments.All.title;
                  Stats.Table.print (s.Experiments.All.run ~pool ~quick)
              | None ->
                  Printf.eprintf "unknown experiment %S (known: e1..e8)\n" id;
                  exit 1)
          | None -> Experiments.All.run_all ?pool ~quick ());
    if bench_only || (only = None && not quick) then begin
      print_endline "\n=== Bechamel micro/macro benchmarks (ns per run) ===\n";
      run_bechamel (micro_tests @ macro_tests)
    end
  end
