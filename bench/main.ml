(* The benchmark harness.

   1. The *experiment harness*: regenerates every table/figure of
      EXPERIMENTS.md (E1..E14) by calling the drivers in [Experiments].
      Run `dune exec bench/main.exe` (add `--quick` for a CI-speed pass,
      `--only e3` for a single experiment, `--jobs N` for a pool of N
      domains, 0 = one per core).

   2. Bechamel micro/macro benchmarks — one Test per experiment-relevant
      code path (simulator step costs, one consensus run per protocol,
      one adversary construction per lower bound, one exhaustive model
      check).  Run with `--bench` (also included in a default full run).

   3. The parallel-speedup scenario (`--par-bench`): wall-clock time of
      the general attack sweep and the attack seed sweep sequentially
      and at 2 and 4 domains; a jobs count whose result differs from
      the sequential one exits 1.  `--obs-bench` prices disabled
      instrumentation.

   4. The four BENCH_*.json suites (`--mc-bench`, `--fuzz-bench`,
      `--synth-bench`, `--serve-bench`), rows in the [Bench_row]
      schema.  `--smoke` runs the CI subset without rewriting the file;
      `--baseline FILE` diffs against a committed file (exit 1 on any
      exact-field or row-set difference, 2 on an unreadable file).
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

(* --- the bench's clock --------------------------------------------------- *)

let wall f =
  let t0 = Unix.gettimeofday () in
  let result = f () in
  (result, Unix.gettimeofday () -. t0)

(* [Bench_row.runs] interleaved rounds; in each, every function of [fs]
   runs [iters] times back to back.  One min-of-N timing (seconds per
   iteration) per function: interleaving lets CPU-frequency drift hit
   every side equally, and the min cuts scheduler noise. *)
let min_of_n ?(iters = 1) fs =
  let samples = List.map (fun _ -> ref []) fs in
  for _ = 1 to Bench_row.runs do
    List.iter2
      (fun f acc ->
        let (), s =
          wall (fun () ->
              for _ = 1 to iters do
                f ()
              done)
        in
        acc := (s /. float_of_int iters) :: !acc)
      fs samples
  done;
  List.map (fun acc -> Bench_row.timing_of_samples !acc) samples

let timed f = List.hd (min_of_n [ (fun () -> ignore (f ())) ])

(* --- parallel speedup: sequential vs. Par pools on the hot sweeps ----- *)

(* One scenario = one workload as a function of the (optional) pool.  The
   workload must return plain data (no closures) so results from
   different jobs counts can be compared structurally; a jobs count
   whose result differs from the sequential one fails the bench. *)
let add_scenario table name work =
  let seq_result, seq_time = wall (fun () -> work None) in
  Stats.Table.add_row table
    [ name; "seq"; Printf.sprintf "%.3f" seq_time; "1.00x"; "-" ];
  List.iter
    (fun jobs ->
      let result, time =
        wall (fun () -> Par.with_pool ~jobs (fun pool -> work (Some pool)))
      in
      if result <> seq_result then begin
        Printf.eprintf
          "par-bench: RESULT MISMATCH on %s: jobs=%d differs from sequential\n"
          name jobs;
        exit 1
      end;
      Stats.Table.add_row table
        [
          name;
          string_of_int jobs;
          Printf.sprintf "%.3f" time;
          Printf.sprintf "%.2fx" (seq_time /. time);
          "true";
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

let engine_project (r : int Mc.Explore.result) =
  ( violation_name r,
    r.Mc.Explore.visited,
    r.Mc.Explore.leaves,
    r.Mc.Explore.table_hits,
    r.Mc.Explore.truncated )

(* The mc-bench rows: every obs-bench scenario under all three dedup
   modes, plus the deep symmetric sweep — the longest row, where the
   flat slab engine's advantage is structural ([`Off] at this depth
   would take minutes, so it runs deduped only; its node reduction is
   relative to [`Exact]). *)
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

(* Every mode's closure and flat results must agree (the referee runs
   untimed); the flat run is then timed min-of-N.  Allocation and table
   size come from one untimed flat run carrying an obs handle. *)
let mc_rows ~keep =
  List.concat_map
    (fun (name, p, inputs, max_depth, modes) ->
      let runs =
        List.map
          (fun dedup ->
            let search ?obs state =
              Mc.Explore.search ?obs ~state ~dedup ~max_depth ~inputs
                (Consensus.Protocol.initial_config p ~inputs)
            in
            let rc = search `Closure in
            let obs = Obs.create () in
            let rf =
              Obs.alloc_span (Some obs) "bench" (fun () -> search ~obs `Flat)
            in
            if engine_project rc <> engine_project rf then begin
              Printf.eprintf
                "mc-bench: ENGINE MISMATCH on %s/%s: flat and closure \
                 disagree\n"
                name (dedup_name dedup);
              exit 1
            end;
            (dedup, rf, Obs.metrics obs, timed (fun () -> search `Flat)))
          modes
      in
      let first_mode, first, _, _ = List.hd runs in
      List.map
        (fun (dedup, (r : int Mc.Explore.result), m, timing) ->
          if violation_name r <> violation_name first then begin
            Printf.eprintf "mc-bench: VERDICT MISMATCH on %s: %s=%s but %s=%s\n"
              name (dedup_name dedup) (violation_name r)
              (dedup_name first_mode) (violation_name first);
            exit 1
          end;
          {
            Bench_row.name = name ^ "/" ^ dedup_name dedup;
            exact =
              [
                ("inputs", Serve.Json.List (List.map (fun i -> Serve.Json.Int i) inputs));
                ("depth", Int max_depth);
                ("visited", Int r.Mc.Explore.visited);
                ("leaves", Int r.Mc.Explore.leaves);
                ("table_hits", Int r.Mc.Explore.table_hits);
                ("truncated", Bool r.Mc.Explore.truncated);
                ("table_bytes", Int (Obs.Metrics.counter m "mc/table-bytes"));
                ("verdict", String (violation_name r));
              ];
            timing;
            advisory =
              [
                ("minor_words", Int (Obs.Metrics.counter m "bench/minor-words"));
                ( "node_reduction",
                  Bench_row.num
                    (float_of_int first.Mc.Explore.visited
                    /. float_of_int (max 1 r.Mc.Explore.visited)) );
              ];
          })
        runs)
    (List.filter (fun (name, _, _, _, _) -> keep name) (mc_bench_rows ()))

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
  List.iter
    (fun (name, p, inputs, max_depth) ->
      let config = Consensus.Protocol.initial_config p ~inputs in
      let search ?obs () =
        Mc.Explore.search ?obs ~dedup:`Exact ~max_depth ~inputs config
      in
      (* one accumulator across iterations, as one CLI invocation sees:
         the claim covers recording cost, not per-search allocation *)
      let shared = Obs.create () in
      (* each timed round runs the search enough times to sit well above
         clock granularity (~20ms per round) *)
      let _, probe = wall (fun () -> search ()) in
      let iters =
        max 50 (min 20_000 (int_of_float (0.02 /. Float.max probe 1e-7)))
      in
      let base, instr =
        match
          min_of_n ~iters
            [
              (fun () -> ignore (search ()));
              (fun () -> ignore (search ~obs:shared ()));
            ]
        with
        | [ b; i ] -> (b.Bench_row.min, i.Bench_row.min)
        | _ -> assert false
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

let campaign_project (r : Fuzz.Campaign.result) =
  ( r.Fuzz.Campaign.runs_done,
    r.Fuzz.Campaign.violations,
    r.Fuzz.Campaign.total_steps,
    Robust.Budget.completeness_to_string r.Fuzz.Campaign.completeness,
    match r.Fuzz.Campaign.first_violation with
    | None -> None
    | Some cex -> Some (cex.Fuzz.Campaign.original, cex.Fuzz.Campaign.shrunk) )

(* Identical campaigns under both engines (same seed drives the same
   runs — the differential suite's guarantee, re-asserted here untimed
   on every bench); the flat campaign is then timed min-of-N. *)
let fuzz_rows ~keep =
  List.map
    (fun (name, runs) ->
      let campaign engine =
        match Fuzz.Scenario.find ~engine name with
        | Ok sc -> Fuzz.Campaign.run ~shrink:true ~runs ~seed:1 sc
        | Error e ->
            prerr_endline e;
            exit 1
      in
      let rc = campaign `Closure in
      let obs = Obs.create () in
      let r = Obs.alloc_span (Some obs) "bench" (fun () -> campaign `Flat) in
      if campaign_project rc <> campaign_project r then begin
        Printf.eprintf
          "fuzz-bench: ENGINE MISMATCH on %s: flat and closure campaigns \
           disagree\n"
          name;
        exit 1
      end;
      let timing = timed (fun () -> campaign `Flat) in
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
      {
        Bench_row.name;
        exact =
          [
            ("seed", Serve.Json.Int 1);
            ("runs", Int r.Fuzz.Campaign.runs_done);
            ("violations", Int r.Fuzz.Campaign.violations);
            ("steps", Int r.Fuzz.Campaign.total_steps);
            ("original_steps", Int orig);
            ("shrunk_steps", Int shrunk);
            ("shrink_candidates", Int candidates);
            ( "verdict",
              String
                (Robust.Budget.completeness_to_string
                   r.Fuzz.Campaign.completeness) );
          ];
        timing;
        advisory =
          [
            ( "runs_per_sec",
              Bench_row.num
                (float_of_int r.Fuzz.Campaign.runs_done /. timing.min) );
            ("minor_words", Int (Obs.Metrics.counter (Obs.metrics obs) "bench/minor-words"));
          ];
      })
    (List.filter (fun (name, _) -> keep name) fuzz_bench_scenarios)

(* --- serve bench: submit-to-verdict latency and throughput ------------ *)

(* One in-process daemon, N concurrent clients each pumping the same
   small mc job through the full wire path (connect, submit, stream,
   verdict).  Every verdict is checked against a direct Job.execute of
   the same spec — a served verdict that drifts from the local one is a
   hard failure, the same discipline as the fuzz bench's engine-parity
   check.  Latency is per submit_and_wait call (the last sweep's);
   jobs/s is the min-of-N sweep's aggregate. *)
let serve_rows ~keep =
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
  let rows =
    List.map
      (fun clients ->
        let per_client = max 1 (total_jobs / clients) in
        let jobs = per_client * clients in
        let lats = ref [||] in
        let sweep () =
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
          List.iter Thread.join
            (List.init clients (fun i ->
                 Thread.create (fun () -> results.(i) <- client ()) ()));
          if Atomic.get mismatches > 0 then begin
            Printf.eprintf
              "serve-bench: VERDICT MISMATCH: %d of %d served verdicts \
               diverged from the direct run\n"
              (Atomic.get mismatches) jobs;
            exit 1
          end;
          lats := Array.concat (Array.to_list results)
        in
        let timing = timed sweep in
        let lats = !lats in
        let mean =
          Array.fold_left ( +. ) 0. lats /. float_of_int (Array.length lats)
        in
        {
          Bench_row.name = Printf.sprintf "clients=%d" clients;
          exact =
            [
              ("workers", Serve.Json.Int Serve.Server.default_workers);
              ("clients", Int clients);
              ("jobs", Int jobs);
              ("verdict", String "ok");
            ];
          timing;
          advisory =
            [
              ("jobs_per_sec", Bench_row.num (float_of_int jobs /. timing.min));
              ("mean_latency_ms", Bench_row.num (mean *. 1e3));
              ( "max_latency_ms",
                Bench_row.num (Array.fold_left Float.max 0. lats *. 1e3) );
            ];
        })
      (List.filter
         (fun c -> keep (Printf.sprintf "clients=%d" c))
         [ 1; 2; 8 ])
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
  rows

(* --- synth bench: CEGIS frontier search throughput -------------------- *)

(* One row per (object style, depth) point of the synthesis space.  The
   frontier, the completeness verdict and the tree/candidate/pruned/
   refuted/lemma counts are deterministic for the pinned seed — a
   baseline diff that sees any of them move has caught a real change in
   the search, the pruning or the enumeration, not noise.  Scenarios
   stay within a second or so each so the smoke subset can run the full
   list; rw-r1-d2 is the exhaustive 1.4M-pair sweep. *)
let synth_bench_scenarios =
  [
    ("rw-r1-d1", Consensus.Dtree.Rw, 1, 1, false, 4);
    ("rw-r1-d1-coins", Consensus.Dtree.Rw, 1, 1, true, 3);
    ("swap-r1-d1", Consensus.Dtree.Swapping, 1, 1, false, 5);
    ("rw-r1-d2", Consensus.Dtree.Rw, 1, 2, false, 3);
  ]

let synth_rows ~keep =
  List.map
    (fun (name, style, registers, depth, coins, procs) ->
      let search () =
        Synth.Cegis.search ~style ~registers ~depth ~coins ~max_procs:procs
          ~seed:1 ()
      in
      let r = search () in
      let sum f = List.fold_left (fun a row -> a + f row) 0 r.Synth.Cegis.rows in
      {
        Bench_row.name;
        exact =
          [
            ("seed", Serve.Json.Int 1);
            ("trees", Int r.Synth.Cegis.trees);
            ("candidates", Int (sum (fun row -> row.Synth.Cegis.candidates)));
            ("pruned", Int (sum (fun row -> row.Synth.Cegis.pruned)));
            ("refuted", Int (sum (fun row -> row.Synth.Cegis.refuted)));
            ("lemmas", Int (List.length r.Synth.Cegis.lemmas));
            ("frontier", Int r.Synth.Cegis.frontier);
            ( "verdict",
              String
                (Robust.Budget.completeness_to_string r.Synth.Cegis.completeness)
            );
          ];
        timing = timed search;
        advisory = [];
      })
    (List.filter (fun (name, _, _, _, _, _) -> keep name) synth_bench_scenarios)

(* --- the four BENCH_*.json suites ---------------------------------------- *)

(* (flag, suite, title, rows, smoke subset).  A suite's rows are built
   from the scenarios [keep] admits; CI's perf-smoke job runs the smoke
   subset and diffs it against the committed file.  Smoke runs never
   rewrite BENCH_*.json. *)
let suites =
  [
    ( "--mc-bench",
      "mc",
      "Transposition table (nodes, flat wall clock per dedup mode)",
      mc_rows,
      fun s -> List.mem s [ "coin-rw-r2-n2"; "cas-n2-mixed" ] );
    ( "--fuzz-bench",
      "fuzz",
      "Fuzz campaign throughput (shrink included)",
      fuzz_rows,
      fun s -> List.mem s [ "flawed"; "cas-1" ] );
    ( "--synth-bench",
      "synth",
      "Synth: CEGIS frontier search (pruning + verdicts)",
      synth_rows,
      fun _ -> true );
    ( "--serve-bench",
      "serve",
      "Serve daemon: submit-to-verdict latency and jobs/s by client count",
      serve_rows,
      fun s -> List.mem s [ "clients=1"; "clients=2" ] );
  ]

(* mc row names are scenario/dedup; the smoke subset names scenarios *)
let scenario_of name =
  match String.index_opt name '/' with
  | Some i -> String.sub name 0 i
  | None -> name

(* Exit codes: 2 for an unreadable baseline or another suite's file
   (checked before the bench runs or writes anything), 1 for any exact
   field or row-set difference. *)
let run_suite ~smoke ~baseline (_, suite, title, rows, smoke_subset) =
  let keep = if smoke then smoke_subset else fun _ -> true in
  let baseline =
    Option.map
      (fun file ->
        match Bench_row.load ~suite (Sim.Trace_io.load_text ~path:file) with
        | Ok rows -> (file, rows)
        | Error e ->
            Printf.eprintf "--baseline %s: %s\n" file e;
            exit 2
        | exception Sys_error e ->
            Printf.eprintf "--baseline: %s\n" e;
            exit 2)
      baseline
  in
  Printf.printf "\n=== %s ===\n\n" title;
  let rows = rows ~keep in
  print_endline (Bench_row.render rows);
  let file = Printf.sprintf "BENCH_%s.json" suite in
  if smoke then Printf.printf "\n--smoke: %s left untouched\n" file
  else begin
    Sim.Trace_io.save_text ~path:file (Bench_row.to_string ~suite rows);
    Printf.printf "\nwrote %s\n" file
  end;
  Option.iter
    (fun (file, baseline) ->
      let d =
        Bench_row.diff ~keep:(fun n -> keep (scenario_of n)) ~baseline rows
      in
      Printf.printf
        "\n=== Baseline diff vs %s (exact fields hard-fail, timing advisory) \
         ===\n\n"
        file;
      List.iter print_endline d.Bench_row.report;
      List.iter (Printf.eprintf "baseline %s\n") d.Bench_row.failures;
      if d.Bench_row.failures <> [] then exit 1)
    baseline

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

let usage =
  "usage: main.exe [--quick] [--only ID] [--jobs N] [--bench]\n\
  \       main.exe --par-bench | --obs-bench\n\
  \       main.exe --mc-bench | --fuzz-bench | --synth-bench | --serve-bench\n\
  \                [--smoke] [--baseline FILE]"

let () =
  let die fmt =
    Printf.ksprintf
      (fun msg ->
        Printf.eprintf "%s\n%s\n" msg usage;
        exit 2)
      fmt
  in
  let switches =
    [ "--quick"; "--bench"; "--par-bench"; "--obs-bench"; "--smoke" ]
    @ List.map (fun (flag, _, _, _, _) -> flag) suites
  in
  let set = ref [] and only = ref None and baseline = ref None in
  let jobs = ref None in
  let rec parse = function
    | [] -> ()
    | "--only" :: id :: rest ->
        only := Some id;
        parse rest
    | "--baseline" :: file :: rest ->
        baseline := Some file;
        parse rest
    | "--jobs" :: n :: rest ->
        (match int_of_string_opt n with
        | Some 0 -> jobs := Some (Par.default_jobs ())
        | Some n when n > 0 -> jobs := Some n
        | _ -> die "--jobs: expected a non-negative integer, got %S" n);
        parse rest
    | [ (("--only" | "--baseline" | "--jobs") as flag) ] ->
        die "%s needs an argument" flag
    | arg :: rest when List.mem arg switches ->
        set := arg :: !set;
        parse rest
    | arg :: _ -> die "unknown argument %S" arg
  in
  parse (List.tl (Array.to_list Sys.argv));
  let has flag = List.mem flag !set in
  let quick = has "--quick" in
  match List.find_opt (fun (flag, _, _, _, _) -> has flag) suites with
  | Some suite -> run_suite ~smoke:(has "--smoke") ~baseline:!baseline suite
  | None when has "--obs-bench" ->
      Printf.printf
        "\n=== Observability overhead (null sink vs. none, min of %d \
         interleaved rounds) ===\n\n"
        Bench_row.runs;
      obs_bench ()
  | None when has "--par-bench" ->
      print_endline "\n=== Parallel speedup (wall clock, determinism checked) ===\n";
      par_bench ()
  | None ->
      let bench_only = has "--bench" in
      if not bench_only then begin
        let run pool =
          match !only with
          | Some id -> (
              match Experiments.All.find id with
              | Some s ->
                  Printf.printf "\n=== %s: %s ===\n\n"
                    (String.uppercase_ascii s.Experiments.All.id)
                    s.Experiments.All.title;
                  Stats.Table.print (s.Experiments.All.run ~pool ~quick)
              | None ->
                  Printf.eprintf "unknown experiment %S (known: %s)\n" id
                    (String.concat ", "
                       (List.map
                          (fun s -> s.Experiments.All.id)
                          Experiments.All.specs));
                  exit 1)
          | None -> Experiments.All.run_all ?pool ~quick ()
        in
        match !jobs with
        | None -> run None
        | Some jobs -> Par.with_pool ~jobs (fun pool -> run (Some pool))
      end;
      if bench_only || (!only = None && not quick) then begin
        print_endline "\n=== Bechamel micro/macro benchmarks (ns per run) ===\n";
        run_bechamel (micro_tests @ macro_tests)
      end
