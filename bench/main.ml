(* The benchmark harness: five suites of rows in the [Bench_row] schema,
   each written to a committed BENCH_<suite>.json.

     --mc-bench     transposition table: nodes and flat wall clock per
                    dedup mode (closure referee checked untimed)
     --fuzz-bench   fuzz campaign throughput, shrink included
     --synth-bench  CEGIS frontier search
     --serve-bench  daemon submit-to-verdict latency and jobs/s
     --obs-bench    instrumentation cost: an mc search with and without
                    an [Obs.t], and the counters it records

   `--smoke` runs the CI subset without rewriting the file; `--baseline
   FILE` diffs against a committed file (exit 1 on any exact-field or
   row-set difference, 2 on an unreadable file).  The experiment tables
   (E1..E14) come from `randsync sweep <id|all>`.
*)

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

(* The mc-bench rows: every scenario above (the obs bench's too) under
   all three dedup modes, plus two deep sweeps that run deduped only
   ([`Off] at these depths would take minutes; a row's node reduction is
   relative to its first mode).  [rw-3n-n7-deep], seven processes at
   depth 12 (1.67M nodes), is the longest row.  [rw-3n] gives each pid
   its own registers, so it is not an identical-process instance: no two
   processes share a root, and as state ids form a tree under their
   roots, [`Symmetric] keys it exactly like [`Exact], with no per-probe
   sort, and its counters equal [`Exact]'s (test_dedup and CI pin this).
   The row measures the table at scale, not Theorem 3.3's
   identical-process threshold. *)
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

(* --- observability overhead: null-sink cost on the mc scenarios -------- *)

(* The mc scenarios, all searches of 4 to 94 us whose timings sit under
   the noise bound, plus one deep search (about 0.07 s) whose timing
   does not. *)
let obs_bench_scenarios () =
  mc_bench_scenarios ()
  @ [
      ( "counter-3-n3-mixed-d20",
        Consensus.Counter_consensus.protocol,
        [ 0; 1; 0 ],
        20 );
    ]

(* The claim under test: instrumenting a search with an [Obs.t] costs a
   fixed per-search constant.  Engines record counters once from the
   result, not per node (one span's [gettimeofday] pair plus ~10
   hashtable writes); [delta_ns] shows that constant directly, the
   honest number for the microsecond-long scenarios, where any
   percentage is of nearly nothing.  The deep row
   [counter-3-n3-mixed-d20] times one 0.07 s search per round, and its
   min of 7 rounds spreads about 5% on a 2-core shared VM (overhead
   0.95 to 1.05 across runs), so it bounds the overhead by that spread
   and no tighter.  The recorded counters must equal the result's
   fields: a false check exits 1, like an mc verdict mismatch. *)
let obs_rows ~keep =
  List.map
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
        max 1 (min 20_000 (int_of_float (0.02 /. Float.max probe 1e-7)))
      in
      let base, timing =
        match
          min_of_n ~iters
            [
              (fun () -> ignore (search ()));
              (fun () -> ignore (search ~obs:shared ()));
            ]
        with
        | [ b; i ] -> (b.Bench_row.min, i)
        | _ -> assert false
      in
      let obs = Obs.create () in
      let r = search ~obs () in
      let m = Obs.metrics obs in
      let checks =
        [
          ("visited_ok", Obs.Metrics.counter m "mc/visited" = r.Mc.Explore.visited);
          ( "table_hits_ok",
            Obs.Metrics.counter m "mc/table-hits" = r.Mc.Explore.table_hits );
          ( "table_misses_ok",
            Obs.Metrics.counter m "mc/table-misses" = r.Mc.Explore.table_misses );
          ( "max_depth_ok",
            Obs.Metrics.watermark m "mc/max-depth" = r.Mc.Explore.max_depth_seen );
        ]
      in
      List.iter
        (fun (check, ok) ->
          if not ok then begin
            Printf.eprintf "obs-bench: COUNTER MISMATCH on %s: %s is false\n"
              name check;
            exit 1
          end)
        checks;
      {
        Bench_row.name;
        exact =
          [
            ("inputs", Serve.Json.List (List.map (fun i -> Serve.Json.Int i) inputs));
            ("depth", Int max_depth);
            ("visited", Int r.Mc.Explore.visited);
          ]
          @ List.map (fun (check, ok) -> (check, Serve.Json.Bool ok)) checks;
        timing;
        advisory =
          [
            ("bare_s", Bench_row.num base);
            ("overhead", Bench_row.num (timing.min /. base));
            ("delta_ns", Bench_row.num ((timing.min -. base) *. 1e9));
          ];
      })
    (List.filter (fun (name, _, _, _) -> keep name) (obs_bench_scenarios ()))

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
   list; rw-r1-d2 is the exhaustive sweep of 709,836 pairs (one per
   mirror orbit of 1.4M), and rw-r1-d2-coins, 2.66M pairs of 5.3M, runs
   long enough to rise above run-to-run noise. *)
let synth_bench_scenarios =
  [
    ("rw-r1-d1", Consensus.Dtree.Rw, 1, 1, false, 4);
    ("rw-r1-d1-coins", Consensus.Dtree.Rw, 1, 1, true, 3);
    ("swap-r1-d1", Consensus.Dtree.Swapping, 1, 1, false, 5);
    ("rw-r1-d2", Consensus.Dtree.Rw, 1, 2, false, 3);
    ("rw-r1-d2-coins", Consensus.Dtree.Rw, 1, 2, true, 3);
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

(* --- the five BENCH_*.json suites ---------------------------------------- *)

(* (flag, suite, title, rows, smoke subset).  A suite's rows are built
   from the scenarios [keep] admits; CI's perf-smoke job runs the smoke
   subset and diffs it against the committed file.  Smoke runs never
   rewrite BENCH_*.json. *)
let suites =
  let mc_smoke s = List.mem s [ "coin-rw-r2-n2"; "cas-n2-mixed" ] in
  [
    ( "--mc-bench",
      "mc",
      "Transposition table (nodes, flat wall clock per dedup mode)",
      mc_rows,
      mc_smoke );
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
    ( "--obs-bench",
      "obs",
      "Observability overhead (exact-dedup mc search with and without an \
       Obs.t; timing is the instrumented search)",
      obs_rows,
      mc_smoke );
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
        match Bench_row.load ~suite (Robust.Persist.read ~path:file) with
        | Ok rows -> (file, rows)
        | Error e ->
            Printf.eprintf "--baseline %s: %s\n" file e;
            exit 2
        | exception Robust.Persist.Error e ->
            Printf.eprintf "--baseline: %s\n" (Robust.Persist.error_message e);
            exit 2)
      baseline
  in
  Printf.printf "\n=== %s ===\n\n" title;
  let rows = rows ~keep in
  print_endline (Bench_row.render rows);
  let file = Printf.sprintf "BENCH_%s.json" suite in
  if smoke then Printf.printf "\n--smoke: %s left untouched\n" file
  else begin
    Robust.Persist.write ~path:file (Bench_row.to_string ~suite rows);
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

let usage =
  "usage: main.exe --mc-bench | --fuzz-bench | --synth-bench | --serve-bench\n\
  \                | --obs-bench [--smoke] [--baseline FILE]"

let () =
  let die fmt =
    Printf.ksprintf
      (fun msg ->
        Printf.eprintf "%s\n%s\n" msg usage;
        exit 2)
      fmt
  in
  let switches = "--smoke" :: List.map (fun (flag, _, _, _, _) -> flag) suites in
  let set = ref [] and baseline = ref None in
  let rec parse = function
    | [] -> ()
    | "--baseline" :: file :: rest ->
        baseline := Some file;
        parse rest
    | [ "--baseline" ] -> die "--baseline needs an argument"
    | arg :: rest when List.mem arg switches ->
        set := arg :: !set;
        parse rest
    | arg :: _ -> die "unknown argument %S" arg
  in
  parse (List.tl (Array.to_list Sys.argv));
  let has flag = List.mem flag !set in
  match List.find_opt (fun (flag, _, _, _, _) -> has flag) suites with
  | Some suite -> run_suite ~smoke:(has "--smoke") ~baseline:!baseline suite
  | None -> die "no suite chosen"
