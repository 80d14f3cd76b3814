(* Exit-code hygiene and resource-governance flags of the randsync binary,
   checked by actually running it ([Test_util.cli_binary] finds it next
   to the test executable).

   The contract under test (see README):
     0 clean, 1 bad args, 2 violation demonstrated, 3 budget-truncated,
     4 attack construction failed, 5 progress violation (stuck call). *)

let binary = Test_util.cli_binary

type run = { code : int; out : string }

let run_cli args =
  let out_file = Filename.temp_file "randsync-cli" ".out" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove out_file with Sys_error _ -> ())
    (fun () ->
      let cmd =
        Printf.sprintf "%s > %s 2>&1"
          (Filename.quote_command binary args)
          (Filename.quote out_file)
      in
      let code = Sys.command cmd in
      let ic = open_in_bin out_file in
      let out = really_input_string ic (in_channel_length ic) in
      close_in ic;
      { code; out })

let check_code name expected { code; out } =
  if code <> expected then
    Alcotest.failf "%s: exit %d, expected %d; output:\n%s" name code expected
      out

let contains = Test_util.contains

(* grep-able lines of the mc output: "visited=N ..." and "verdict: ..." *)
let line_with prefix { out; _ } =
  match
    List.find_opt
      (fun l ->
        String.length l > String.length prefix
        && String.sub l 0 (String.length prefix) = prefix)
      (String.split_on_char '\n' out)
  with
  | None -> Alcotest.failf "no %S line in output:\n%s" prefix out
  | Some l -> l

let visited_of r =
  let l = line_with "visited=" r in
  let v = String.sub l 8 (String.index l ' ' - 8) in
  match int_of_string_opt v with
  | Some n -> n
  | None -> Alcotest.failf "unparseable visited count %S" v

let verdict_of r = line_with "verdict: " r

let test_exit_codes () =
  check_code "clean mc" 0 (run_cli [ "mc"; "cas-1"; "--inputs"; "0,1" ]);
  check_code "unknown protocol" 1 (run_cli [ "mc"; "no-such-protocol" ]);
  check_code "bad inputs" 1 (run_cli [ "mc"; "cas-1"; "--inputs"; "0,zebra" ]);
  check_code "bad dedup" 1 (run_cli [ "mc"; "cas-1"; "--dedup"; "turbo" ]);
  check_code "process count the protocol refuses" 1
    (run_cli [ "mc"; "tas-2proc"; "--inputs"; "0,1,1" ]);
  check_code "non-binary input" 1
    (run_cli [ "mc"; "cas-1"; "--inputs"; "0,2" ]);
  let violating =
    run_cli [ "mc"; "flawed-first-writer-r1"; "--inputs"; "0,1" ]
  in
  check_code "violation" 2 violating;
  Alcotest.(check bool) "violation printed" true
    (contains violating.out "VIOLATION");
  check_code "attack demonstrates violation" 2
    (run_cli [ "attack"; "flawed-unanimous-rw-r1" ]);
  check_code "attack fails on correct protocol" 4 (run_cli [ "attack"; "cas-1" ])

let test_budget_truncation () =
  let r =
    run_cli
      [ "mc"; "counter-3"; "--inputs"; "0,1"; "--depth"; "12"; "--max-nodes";
        "200" ]
  in
  check_code "node budget exits truncated" 3 r;
  Alcotest.(check bool) "truncated verdict printed" true
    (contains r.out "verdict: truncated (nodes)");
  Alcotest.(check int) "visited exactly the allowance" 200 (visited_of r);
  (* --jobs does not move the node-budget frontier *)
  let r2 =
    run_cli
      [ "mc"; "counter-3"; "--inputs"; "0,1"; "--depth"; "12"; "--max-nodes";
        "200"; "--jobs"; "2" ]
  in
  check_code "same under --jobs 2" 3 r2;
  Alcotest.(check int) "same frontier under --jobs 2" 200 (visited_of r2)

let test_deadline_terminates () =
  (* an over-budget scenario: an effectively unbounded search that a 1s
     deadline must stop within ~2x of the deadline, exiting 3 *)
  let t0 = Unix.gettimeofday () in
  let r =
    run_cli
      [ "mc"; "counter-3"; "--inputs"; "0,1,1,0"; "--depth"; "200";
        "--max-states"; "2000000000"; "--deadline"; "1s" ]
  in
  let elapsed = Unix.gettimeofday () -. t0 in
  check_code "deadline exits truncated" 3 r;
  Alcotest.(check bool) "verdict line" true
    (contains r.out "verdict: truncated (deadline)");
  (* ~2x deadline plus generous slack for process startup on a loaded CI *)
  Alcotest.(check bool)
    (Printf.sprintf "terminated in %.2fs" elapsed)
    true (elapsed < 5.)

let test_checkpoint_resume_round_trip () =
  let ckpt = Filename.temp_file "randsync-cli-ckpt" ".txt" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove ckpt with Sys_error _ -> ())
    (fun () ->
      let scenario =
        [ "mc"; "counter-3"; "--inputs"; "0,1"; "--depth"; "12" ]
      in
      let base = run_cli scenario in
      check_code "uninterrupted run" 0 base;
      let interrupted =
        run_cli (scenario @ [ "--max-nodes"; "5000"; "--checkpoint"; ckpt ])
      in
      check_code "interrupted run" 3 interrupted;
      let resumed = run_cli (scenario @ [ "--resume"; ckpt ]) in
      check_code "resumed run" 0 resumed;
      Alcotest.(check int) "resume reproduces the uninterrupted node count"
        (visited_of base) (visited_of resumed);
      (* at depth 12 the base verdict is "truncated (depth)" — what resume
         must reproduce is the base verdict, whatever it is *)
      Alcotest.(check string) "resume reproduces the verdict"
        (verdict_of base) (verdict_of resumed);
      (* resuming against different parameters is refused as bad args *)
      check_code "mismatched resume refused" 1
        (run_cli
           [ "mc"; "counter-3"; "--inputs"; "0,1"; "--depth"; "13"; "--resume";
             ckpt ]);
      check_code "garbage checkpoint refused" 1
        (run_cli (scenario @ [ "--resume"; "/dev/null" ])))

(* --max-nodes K counts from the search's start: a resumed run stops
   where the uninterrupted --max-nodes K run stops, not K nodes past the
   checkpoint *)
let test_resume_with_node_budget () =
  let ckpt = Filename.temp_file "randsync-cli-ckpt" ".txt" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove ckpt with Sys_error _ -> ())
    (fun () ->
      let scenario =
        [ "mc"; "counter-3"; "--inputs"; "0,1"; "--depth"; "12" ]
      in
      check_code "interrupted run" 3
        (run_cli (scenario @ [ "--max-nodes"; "500"; "--checkpoint"; ckpt ]));
      let direct = run_cli (scenario @ [ "--max-nodes"; "1000" ]) in
      let resumed =
        run_cli (scenario @ [ "--resume"; ckpt; "--max-nodes"; "1000" ])
      in
      check_code "uninterrupted --max-nodes 1000" 3 direct;
      check_code "resumed --max-nodes 1000" 3 resumed;
      Alcotest.(check string) "resumed output = uninterrupted output"
        direct.out resumed.out)

(* File failures keep the exit-code contract: a file that cannot be
   written, or a damaged one that cannot be read, exits 1 with the path
   on stderr (never 125), over whatever verdict was already printed. *)
let test_file_failures_exit_1 () =
  let dir = Filename.temp_dir "randsync-cli-files" "" in
  let file = Filename.concat dir "regular" in
  Robust.Persist.write ~path:file "";
  Fun.protect
    ~finally:(fun () ->
      Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
      Sys.rmdir dir)
  @@ fun () ->
  let fails name path args =
    let r = run_cli args in
    check_code name 1 r;
    if not (contains r.out ("randsync: " ^ path ^ ": ")) then
      Alcotest.failf "%s: path %s not named; output:\n%s" name path r.out;
    r
  in
  let mc = [ "mc"; "counter-3"; "--inputs"; "0,1"; "--depth"; "12" ] in
  ignore
    (fails "mc --checkpoint into a missing dir" "/nonexistent/dir/F"
       (mc @ [ "--max-nodes"; "500"; "--checkpoint"; "/nonexistent/dir/F" ]));
  let r =
    fails "mc --metrics into a missing dir" "/nonexistent/m.json"
      [ "mc"; "cas-1"; "--inputs"; "0,1"; "--metrics"; "/nonexistent/m.json" ]
  in
  Alcotest.(check bool) "the verdict stays on stdout" true
    (contains r.out "verdict: ");
  ignore
    (fails "synth --lemmas into a missing dir" "/nonexistent/l"
       [ "synth"; "--registers"; "1"; "--depth"; "1"; "--seed"; "1";
         "--lemmas"; "/nonexistent/l" ]);
  ignore
    (fails "fuzz --out into a missing dir" "/nonexistent/o"
       [ "fuzz"; "flawed"; "--runs"; "64"; "--seed"; "1"; "--shrink"; "--out";
         "/nonexistent/o" ]);
  (* a regular file as a parent directory: unwritable even for root *)
  let unwritable = Filename.concat file "w" in
  ignore
    (fails "serve --spool on a regular file" file
       [ "serve"; "--spool"; file; "--socket"; Filename.concat dir "s.sock" ]);
  ignore
    (fails "attack --save under a regular file" unwritable
       [ "attack"; "flawed-unanimous-rw-r1"; "--save"; unwritable ]);
  (* damaged inputs: a truncated trace, a checkpoint with one changed
     digit *)
  let trace = Filename.concat dir "w.trace" in
  check_code "attack saves its witness" 2
    (run_cli [ "attack"; "flawed-unanimous-rw-r1"; "--save"; trace ]);
  let text = Robust.Persist.read ~path:trace in
  Robust.Persist.write ~path:trace
    (String.sub text 0 (String.length text / 2));
  ignore (fails "trace of a truncated file" trace [ "trace"; trace ]);
  let ckpt = Filename.concat dir "F" in
  check_code "interrupted run" 3
    (run_cli (mc @ [ "--max-nodes"; "500"; "--checkpoint"; ckpt ]));
  Robust.Persist.write ~path:ckpt
    (Test_util.replace_first ~sub:"visited 500" ~by:"visited 507"
       (Robust.Persist.read ~path:ckpt));
  ignore
    (fails "--resume of a checkpoint with a changed digit" ckpt
       (mc @ [ "--resume"; ckpt ]))

let test_fuzz_subcommand () =
  (* the acceptance pin: with seed 1, the flawed scenario is found and
     shrunk to <= 12 steps, and the saved trace replays to INCONSISTENT
     through `randsync trace` *)
  let out = Filename.temp_file "randsync-cli-fuzz" ".trace" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove out with Sys_error _ -> ())
    (fun () ->
      let r =
        run_cli
          [ "fuzz"; "flawed"; "--runs"; "64"; "--seed"; "1"; "--shrink";
            "--out"; out ]
      in
      check_code "flawed fuzz demonstrates violation" 2 r;
      Alcotest.(check bool) "VIOLATION line printed" true
        (contains r.out "VIOLATION (inconsistent)");
      let shrunk =
        let l = line_with "VIOLATION" r in
        match
          List.find_opt
            (fun tok -> Test_util.contains tok "shrunk-steps=")
            (String.split_on_char ' ' l)
        with
        | Some tok ->
            int_of_string
              (String.sub tok 13 (String.length tok - 13))
        | None -> Alcotest.failf "no shrunk-steps field in %S" l
      in
      Alcotest.(check bool)
        (Printf.sprintf "shrunk to %d <= 12 steps" shrunk)
        true (shrunk <= 12);
      let replay = run_cli [ "trace"; out ] in
      check_code "saved witness loads" 0 replay;
      Alcotest.(check bool) "witness replays inconsistent" true
        (contains replay.out "INCONSISTENT");
      (* identical seeds, identical campaigns at --jobs 1 and 4 (modulo the
         saved-file line, absent here) *)
      let args =
        [ "fuzz"; "flawed"; "--runs"; "64"; "--seed"; "1"; "--shrink" ]
      in
      let j1 = run_cli args in
      let j4 = run_cli (args @ [ "--jobs"; "4" ]) in
      check_code "jobs 1" 2 j1;
      check_code "jobs 4" 2 j4;
      Alcotest.(check string) "bit-identical output across --jobs" j1.out
        j4.out)

let test_fuzz_exit_codes () =
  check_code "clean scenario" 0
    (run_cli [ "fuzz"; "cas-1"; "--runs"; "32"; "--seed"; "1" ]);
  check_code "unknown scenario" 1 (run_cli [ "fuzz"; "no-such-scenario" ]);
  check_code "bad inputs" 1
    (run_cli [ "fuzz"; "cas-1"; "--inputs"; "0,zebra" ]);
  let truncated =
    run_cli
      [ "fuzz"; "cas-1"; "--runs"; "64"; "--seed"; "1"; "--max-runs"; "16" ]
  in
  check_code "run budget exits truncated" 3 truncated;
  Alcotest.(check bool) "truncated verdict printed" true
    (contains truncated.out "verdict: truncated (nodes)");
  Alcotest.(check bool) "admitted prefix reported" true
    (contains truncated.out "done=16")

(* the progress dimension of the exit-code contract: the planted
   leaky-lock deadlock exits 5 (not 2 — safety held), at any --jobs *)
let test_fuzz_progress_exit_code () =
  let args = [ "fuzz"; "lin-stuck-counter"; "--runs"; "32"; "--seed"; "3" ] in
  let r1 = run_cli args in
  check_code "stuck exits 5" 5 r1;
  Alcotest.(check bool) "stuck verdict printed" true
    (contains r1.out "VIOLATION (stuck)");
  let r2 = run_cli (args @ [ "--jobs"; "2" ]) in
  check_code "stuck exits 5 under --jobs 2" 5 r2;
  Alcotest.(check string) "output jobs-invariant" r1.out r2.out;
  (* a non-linearizable witness still exits 2, not 5 *)
  check_code "safety violation still exits 2" 2
    (run_cli
       [ "fuzz"; "lin-collect-counter"; "--runs"; "300"; "--seed"; "42" ])

(* A counter's value in a --metrics dump.  Zero-valued counters are
   omitted, so a missing name reads as 0. *)
let counter_of_metrics path name =
  let ic = open_in path in
  let prefix =
    Printf.sprintf {|{"type":"counter","name":"%s","value":|} name
  in
  let plen = String.length prefix in
  let rec go acc =
    match input_line ic with
    | exception End_of_file -> acc
    | line ->
        if String.length line > plen && String.sub line 0 plen = prefix then
          go (int_of_string (String.sub line plen (String.length line - plen - 1)))
        else go acc
  in
  Fun.protect ~finally:(fun () -> close_in ic) (fun () -> go 0)

let test_metrics_and_progress () =
  (* --metrics writes line-JSON whose counters equal the stdout numbers;
     the dump happens before the process exits, violation or not. *)
  let path = Filename.temp_file "randsync-cli" ".metrics" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      let scenario = [ "mc"; "counter-3"; "--inputs"; "0,1"; "--depth"; "12" ] in
      let r = run_cli (scenario @ [ "--metrics"; path ]) in
      check_code "mc with --metrics" 0 r;
      Alcotest.(check int) "mc/visited counter = stdout visited"
        (visited_of r)
        (counter_of_metrics path "mc/visited");
      (* same contract under --jobs: it is the same search *)
      let r2 = run_cli (scenario @ [ "--metrics"; path; "--jobs"; "2" ]) in
      check_code "mc --jobs 2 with --metrics" 0 r2;
      Alcotest.(check int) "jobs-invariant visited counter" (visited_of r)
        (counter_of_metrics path "mc/visited");
      (* a violating run dumps its metrics before exiting 2 *)
      check_code "violation still exits 2" 2
        (run_cli
           [ "mc"; "flawed-first-writer-r1"; "--inputs"; "0,1"; "--metrics";
             path ]);
      Alcotest.(check bool) "metrics dumped before the nonzero exit" true
        (counter_of_metrics path "mc/visited" > 0);
      (* fuzz shares the flag; its counters mirror the campaign record *)
      let f =
        run_cli
          [ "fuzz"; "cas-1"; "--runs"; "32"; "--seed"; "1"; "--metrics"; path ]
      in
      check_code "fuzz with --metrics" 0 f;
      Alcotest.(check int) "fuzz/runs counter" 32
        (counter_of_metrics path "fuzz/runs");
      (* --progress heartbeats on stderr without disturbing exit codes *)
      let p = run_cli (scenario @ [ "--progress" ]) in
      check_code "mc with --progress" 0 p;
      Alcotest.(check bool) "heartbeat line printed" true
        (contains p.out "mc: nodes="))

(* mc runs one sequential search whatever --jobs says: stdout, exit code
   and the engine counters of a --jobs run equal the plain run's.  Both
   instances dedup, where a search with per-subtree tables would visit
   more nodes than the one shared-table DFS. *)
let test_mc_jobs_invariance () =
  let path = Filename.temp_file "randsync-cli-jobs" ".metrics" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      let observe args =
        let r = run_cli (args @ [ "--metrics"; path ]) in
        ( r,
          List.map (counter_of_metrics path)
            [ "mc/visited"; "mc/table-hits"; "mc/table-misses" ] )
      in
      List.iter
        (fun scenario ->
          let plain, plain_counters = observe scenario in
          check_code "plain run" 0 plain;
          List.iter
            (fun jobs ->
              let label = Printf.sprintf "%s --jobs %s" (List.nth scenario 1) jobs in
              let r, counters = observe (scenario @ [ "--jobs"; jobs ]) in
              Alcotest.(check int) (label ^ ": exit code") plain.code r.code;
              Alcotest.(check string) (label ^ ": stdout") plain.out r.out;
              Alcotest.(check (list int))
                (label ^ ": visited/table-hits/table-misses")
                plain_counters counters)
            [ "1"; "2"; "8" ])
        [
          [ "mc"; "counter-3"; "--inputs"; "0,1,0"; "--depth"; "16";
            "--dedup"; "exact" ];
          [ "mc"; "rw-3n"; "--inputs"; "0,0,0"; "--depth"; "14"; "--dedup";
            "symmetric" ];
        ])

(* checkpointing runs the same engine as a plain run: asking for
   checkpoints, periodic ones included, changes nothing on stdout *)
let test_checkpoint_keeps_output () =
  let ckpt = Filename.temp_file "randsync-cli-ckpt" ".txt" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove ckpt with Sys_error _ -> ())
    (fun () ->
      let scenario = [ "mc"; "counter-3"; "--depth"; "12" ] in
      let plain = run_cli scenario in
      check_code "plain run" 0 plain;
      List.iter
        (fun extra ->
          let r = run_cli (scenario @ [ "--checkpoint"; ckpt ] @ extra) in
          check_code "checkpointing run" 0 r;
          Alcotest.(check string) "checkpointing output = plain output"
            plain.out r.out)
        [ []; [ "--checkpoint-every"; "1000" ] ])

(* a SIGTERM'd run still dumps its metrics before exiting: the budget's
   cancel token turns the signal into a truncated (cancelled) verdict,
   and the Obs sink is flushed on that path like any other *)
let test_sigterm_dumps_metrics () =
  let metrics = Filename.temp_file "randsync-cli-term" ".metrics" in
  let out = Filename.temp_file "randsync-cli-term" ".out" in
  Fun.protect
    ~finally:(fun () ->
      List.iter (fun p -> try Sys.remove p with Sys_error _ -> ())
        [ metrics; out ])
    (fun () ->
      Sys.remove metrics;
      let outfd = Unix.openfile out [ Unix.O_WRONLY; Unix.O_TRUNC ] 0o600 in
      let argv =
        [| binary; "mc"; "counter-3"; "--inputs"; "0,1,1,0"; "--depth"; "200";
           "--max-states"; "2000000000"; "--metrics"; metrics |]
      in
      let pid = Unix.create_process binary argv Unix.stdin outfd outfd in
      Unix.close outfd;
      Unix.sleepf 0.4;
      Unix.kill pid Sys.sigterm;
      (match Unix.waitpid [] pid with
      | _, Unix.WEXITED 3 -> ()
      | _, Unix.WEXITED n ->
          Alcotest.failf "SIGTERM'd mc exited %d, expected 3" n
      | _, (Unix.WSIGNALED _ | Unix.WSTOPPED _) ->
          Alcotest.fail "SIGTERM'd mc died without its epilogue");
      let ic = open_in_bin out in
      let printed = really_input_string ic (in_channel_length ic) in
      close_in ic;
      Alcotest.(check bool) "cancelled verdict printed" true
        (contains printed "verdict: truncated (cancelled)");
      Alcotest.(check bool) "metrics dumped on the signal path" true
        (Sys.file_exists metrics);
      let ic = open_in_bin metrics in
      let dumped = really_input_string ic (in_channel_length ic) in
      close_in ic;
      Alcotest.(check bool) "dump carries the mc counters" true
        (contains dumped {|"cmd":"mc"|} && contains dumped "mc/visited"))

(* numeric-flag hygiene: degenerate counts are refused as bad args
   (exit 1) with a message naming the flag, never silently clamped.
   cmdliner already rejects the space-separated form of a negative
   operand as a parse error, so the `=` forms below are the ones that
   reach our validation. *)
let test_numeric_validation () =
  let refused name args needle =
    let r = run_cli args in
    check_code name 1 r;
    Alcotest.(check bool) (name ^ " names the flag") true (contains r.out needle)
  in
  refused "mc --jobs=-1"
    [ "mc"; "cas-1"; "--inputs"; "0,1"; "--jobs=-1" ]
    "--jobs must be >= 0";
  refused "synth --jobs=-1"
    [ "synth"; "--registers"; "1"; "--depth"; "1"; "--jobs=-1" ]
    "--jobs must be >= 0";
  refused "mc --depth one above the bound"
    [
      "mc"; "cas-1"; "--inputs"; "0,1";
      Printf.sprintf "--depth=%d" (Mc.Explore.max_depth_bound + 1);
    ]
    (Printf.sprintf "--depth must be <= %d" Mc.Explore.max_depth_bound);
  refused "fuzz --runs=0" [ "fuzz"; "flawed"; "--runs=0" ] "--runs must be >= 1";
  refused "fuzz --runs=-5" [ "fuzz"; "flawed"; "--runs=-5" ]
    "--runs must be >= 1";
  refused "submit --attempts=0"
    [ "submit"; "--socket"; "/nonexistent.sock"; "--attempts=0"; "--ping" ]
    "--attempts must be >= 1"

(* the synth subcommand's exit-code and output contract *)
let test_synth_subcommand () =
  (* rw depth 1 is the paper's depth-1 impossibility: exhaustive, no
     protocol beyond the trivial n=1 *)
  let rw =
    run_cli
      [ "synth"; "--registers"; "1"; "--depth"; "1"; "--seed"; "1" ]
  in
  check_code "rw depth 1 exhausts clean" 0 rw;
  Alcotest.(check bool) "frontier verdict line" true
    (contains rw.out "frontier: n=1 (no correct protocol for n=2 in this class)");
  Alcotest.(check bool) "completeness line" true
    (contains rw.out "completeness: exhaustive");
  (* swap at depth 1 synthesizes a 2-consensus protocol and registers it *)
  let lemmas = Filename.temp_file "randsync-cli-synth" ".lemmas" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove lemmas with Sys_error _ -> ())
    (fun () ->
      let swap =
        run_cli
          [ "synth"; "--objects"; "swap"; "--registers"; "1"; "--depth"; "1";
            "--procs"; "3"; "--seed"; "1"; "--lemmas"; lemmas ]
      in
      check_code "swap depth 1 synthesizes" 0 swap;
      Alcotest.(check bool) "synthesized line names a registry entry" true
        (contains swap.out "synthesized: synth:swap:r1:");
      Alcotest.(check bool) "frontier n=2" true
        (contains swap.out "frontier: n=2");
      Alcotest.(check bool) "lemma file written" true
        (contains swap.out "lemmas saved to" && Sys.file_exists lemmas);
      (* the saved pool re-parses *)
      let pool = Synth.Lemma.load ~path:lemmas in
      Alcotest.(check bool) "saved pool is non-empty" true (pool <> []));
  (* bad arguments are refused *)
  check_code "bad --objects" 1 (run_cli [ "synth"; "--objects"; "turbo" ]);
  check_code "zero --registers" 1 (run_cli [ "synth"; "--registers"; "0" ]);
  check_code "one --procs" 1 (run_cli [ "synth"; "--procs"; "1" ]);
  (* a tiny node budget trips loudly: exit 3, truncated completeness *)
  let truncated =
    run_cli
      [ "synth"; "--registers"; "1"; "--depth"; "1"; "--seed"; "1";
        "--max-nodes"; "3" ]
  in
  check_code "node budget exits truncated" 3 truncated;
  Alcotest.(check bool) "truncated completeness printed" true
    (contains truncated.out "completeness: truncated (nodes)")

(* `sweep` runs one experiment or, with `all`, every one of them in
   order; an unknown id is a bad argument whose message lists `all`.
   The quick E9 and E12 tables inside `sweep all` are the CI goldens. *)
let test_sweep () =
  let nope = run_cli [ "sweep"; "nope" ] in
  check_code "unknown experiment" 1 nope;
  Alcotest.(check bool) "message names all" true (contains nope.out "e1..e14, all");
  let all = run_cli [ "sweep"; "all"; "--quick" ] in
  check_code "sweep all --quick" 0 all;
  List.iter
    (fun s ->
      let header =
        Printf.sprintf "=== %s: %s ===" (String.uppercase_ascii s.Experiments.All.id)
          s.Experiments.All.title
      in
      Alcotest.(check bool) (header ^ " present") true (contains all.out header))
    Experiments.All.specs;
  List.iter
    (fun id ->
      let golden =
        Robust.Persist.read
          ~path:(Test_util.beside_test ("golden/sweep-" ^ id ^ "-quick.txt"))
      in
      Alcotest.(check bool) (id ^ " table = golden") true (contains all.out golden))
    [ "e9"; "e12" ]

let suite =
  [
    Alcotest.test_case "exit codes" `Quick test_exit_codes;
    Alcotest.test_case "numeric flag validation" `Quick
      test_numeric_validation;
    Alcotest.test_case "synth subcommand" `Quick test_synth_subcommand;
    Alcotest.test_case "--checkpoint keeps the output" `Quick
      test_checkpoint_keeps_output;
    Alcotest.test_case "SIGTERM dumps metrics" `Quick
      test_sigterm_dumps_metrics;
    Alcotest.test_case "--metrics and --progress" `Quick
      test_metrics_and_progress;
    Alcotest.test_case "mc stdout same at any --jobs" `Quick
      test_mc_jobs_invariance;
    Alcotest.test_case "fuzz finds and shrinks flawed" `Quick
      test_fuzz_subcommand;
    Alcotest.test_case "fuzz exit codes" `Quick test_fuzz_exit_codes;
    Alcotest.test_case "fuzz progress exit code" `Quick
      test_fuzz_progress_exit_code;
    Alcotest.test_case "node budget truncation" `Quick test_budget_truncation;
    Alcotest.test_case "deadline terminates in time" `Quick
      test_deadline_terminates;
    Alcotest.test_case "file failures exit 1 naming the path" `Quick
      test_file_failures_exit_1;
    Alcotest.test_case "checkpoint/resume round trip" `Quick
      test_checkpoint_resume_round_trip;
    Alcotest.test_case "resume keeps the node budget" `Quick
      test_resume_with_node_budget;
    Alcotest.test_case "sweep one or all" `Quick test_sweep;
  ]
