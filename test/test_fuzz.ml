(* The fuzzer's own regression suite.

   Pinned-seed tests: the campaign rediscovers the planted agreement
   violation in [Consensus.Flawed] and the planted exclusion violation in
   [Mutex.naive_flag]; the shrinker is deterministic and its output
   replays to the same verdict; campaigns are bit-identical across jobs
   counts; the schedule codec round-trips and rejects malformed input;
   [Run.exec_script] reproduces recorded executions event for event. *)

open Sim

let find_scenario name =
  match Fuzz.Scenario.find name with
  | Ok sc -> sc
  | Error e -> Alcotest.failf "scenario %s: %s" name e

let violation = Alcotest.testable (Fmt.of_to_string Fuzz.Scenario.violation_to_string) ( = )

(* the acceptance pin: seed 1, 64 runs, shrink on *)
let flawed_campaign () =
  Fuzz.Campaign.run ~shrink:true ~runs:64 ~seed:1 (find_scenario "flawed")

let test_flawed_rediscovered () =
  let r = flawed_campaign () in
  Alcotest.(check bool) "violations found" true (r.Fuzz.Campaign.violations > 0);
  match r.Fuzz.Campaign.first_violation with
  | None -> Alcotest.fail "no counterexample"
  | Some cex ->
      Alcotest.check violation "agreement violation"
        Fuzz.Scenario.Inconsistent cex.Fuzz.Campaign.violation;
      Alcotest.(check bool) "shrunk to <= 12 steps" true
        (Fuzz.Schedule.steps cex.Fuzz.Campaign.shrunk <= 12);
      (* shrink soundness: the shrunk schedule replays to the same verdict *)
      let sc = find_scenario "flawed" in
      Alcotest.(check (option violation))
        "shrunk schedule still witnesses"
        (Some Fuzz.Scenario.Inconsistent)
        (sc.Fuzz.Scenario.replay cex.Fuzz.Campaign.shrunk)

let test_flawed_artifact_replays () =
  let r = flawed_campaign () in
  match r.Fuzz.Campaign.first_violation with
  | None -> Alcotest.fail "no counterexample"
  | Some cex ->
      (* the artifact is a Trace_io trace; reloaded, its decisions still
         disagree *)
      let trace = Trace_io.of_text_int cex.Fuzz.Campaign.artifact in
      let decisions = List.map snd (Trace.decisions trace) in
      Alcotest.(check bool) "decisions disagree" true
        (Checker.inconsistent ~decisions);
      (* and it survives a file round-trip byte for byte *)
      let path = Filename.temp_file "randsync-fuzz" ".trace" in
      Robust.Persist.write ~path cex.Fuzz.Campaign.artifact;
      let reloaded = Robust.Persist.read ~path in
      Sys.remove path;
      Alcotest.(check string) "artifact file roundtrip"
        cex.Fuzz.Campaign.artifact reloaded

let test_shrinker_deterministic () =
  let sc = find_scenario "flawed" in
  let r = flawed_campaign () in
  match r.Fuzz.Campaign.first_violation with
  | None -> Alcotest.fail "no counterexample"
  | Some cex ->
      let shrink () =
        Fuzz.Shrink.minimize ~replay:sc.Fuzz.Scenario.replay
          ~target:cex.Fuzz.Campaign.violation cex.Fuzz.Campaign.original
      in
      let s1, st1 = shrink () in
      let s2, st2 = shrink () in
      Alcotest.(check bool) "same schedule" true (s1 = s2);
      Alcotest.(check int) "same candidate count" st1.Fuzz.Shrink.candidates
        st2.Fuzz.Shrink.candidates;
      Alcotest.(check int) "same accepted count" st1.Fuzz.Shrink.accepted
        st2.Fuzz.Shrink.accepted

let test_campaign_jobs_invariant () =
  let run pool =
    Fuzz.Campaign.run ?pool ~shrink:true ~runs:96 ~seed:7
      (find_scenario "flawed")
  in
  let seq = run None in
  let par4 = Par.with_pool ~jobs:4 (fun pool -> run (Some pool)) in
  Alcotest.(check bool) "jobs 1 and 4 bit-identical" true (seq = par4)

let test_mutex_scenario () =
  let sc = find_scenario "mutex-naive-flag" in
  let r = Fuzz.Campaign.run ~shrink:true ~runs:64 ~seed:1 sc in
  match r.Fuzz.Campaign.first_violation with
  | None -> Alcotest.fail "naive-flag violation not found"
  | Some cex ->
      Alcotest.check violation "exclusion violation" Fuzz.Scenario.Exclusion
        cex.Fuzz.Campaign.violation;
      Alcotest.(check (option violation))
        "shrunk schedule still witnesses" (Some Fuzz.Scenario.Exclusion)
        (sc.Fuzz.Scenario.replay cex.Fuzz.Campaign.shrunk);
      Alcotest.(check bool) "shrunk no longer than original" true
        (Fuzz.Schedule.length cex.Fuzz.Campaign.shrunk
        <= Fuzz.Schedule.length cex.Fuzz.Campaign.original)

let test_safe_scenarios_clean () =
  List.iter
    (fun name ->
      let r =
        Fuzz.Campaign.run ~shrink:true ~runs:64 ~seed:1 (find_scenario name)
      in
      Alcotest.(check int) (name ^ " clean") 0 r.Fuzz.Campaign.violations)
    [
      "mutex-peterson-2";
      "mutex-swap-lock";
      "cas-1";
      "lin-lock-counter";
      "lin-consensus-swap";
      "lin-tas-rand";
    ]

(* the planted livelock: the leaky lock's release leaves the lock held,
   so the drain probe reports a call nobody can ever unblock — the
   [Stuck] progress verdict, under a pinned seed, shrunk and replayed *)
let test_stuck_counter_found () =
  let sc = find_scenario "lin-stuck-counter" in
  let r = Fuzz.Campaign.run ~shrink:true ~runs:64 ~seed:3 sc in
  Alcotest.(check bool) "violations found" true (r.Fuzz.Campaign.violations > 0);
  match r.Fuzz.Campaign.first_violation with
  | None -> Alcotest.fail "no counterexample"
  | Some cex ->
      Alcotest.check violation "progress violation" Fuzz.Scenario.Stuck
        cex.Fuzz.Campaign.violation;
      (* shrink soundness for the new verdict kind *)
      Alcotest.(check (option violation))
        "shrunk schedule still witnesses Stuck" (Some Fuzz.Scenario.Stuck)
        (sc.Fuzz.Scenario.replay cex.Fuzz.Campaign.shrunk);
      Alcotest.(check bool) "shrunk no longer than original" true
        (Fuzz.Schedule.length cex.Fuzz.Campaign.shrunk
        <= Fuzz.Schedule.length cex.Fuzz.Campaign.original)

(* deadlock detection is jobs-invariant like every other verdict *)
let test_stuck_campaign_jobs_invariant () =
  let run pool =
    Fuzz.Campaign.run ?pool ~shrink:true ~runs:48 ~seed:3
      (find_scenario "lin-stuck-counter")
  in
  let seq = run None in
  let par2 = Par.with_pool ~jobs:2 (fun pool -> run (Some pool)) in
  Alcotest.(check bool) "jobs 1 and 2 bit-identical" true (seq = par2)

let test_budget_truncates_cleanly () =
  let budget = Robust.Budget.make ~nodes:10 () in
  let r =
    Fuzz.Campaign.run ~budget ~shrink:false ~runs:1000 ~seed:1
      (find_scenario "cas-1")
  in
  Alcotest.(check int) "exactly the admitted prefix ran" 10
    r.Fuzz.Campaign.runs_done;
  Alcotest.(check string) "truncated (nodes)" "truncated (nodes)"
    (Robust.Budget.completeness_to_string r.Fuzz.Campaign.completeness)

(* ---- shrink truncation reasons (cap vs. meter) ---- *)

let test_shrink_truncation_reasons () =
  let sc = find_scenario "flawed" in
  let r = flawed_campaign () in
  match r.Fuzz.Campaign.first_violation with
  | None -> Alcotest.fail "no counterexample"
  | Some cex ->
      let replay = sc.Fuzz.Scenario.replay
      and target = cex.Fuzz.Campaign.violation
      and original = cex.Fuzz.Campaign.original in
      (* the shrinker's own candidate cap reports its dedicated reason —
         the regression was folding it into the meter's [`Steps], telling
         the operator to raise the wrong knob *)
      let _, st =
        Fuzz.Shrink.minimize ~max_candidates:3 ~replay ~target original
      in
      Alcotest.(check string) "cap has its own reason"
        "truncated (candidates)"
        (Fuzz.Shrink.completeness_to_string st.Fuzz.Shrink.completeness);
      Alcotest.(check bool) "cap respected" true
        (st.Fuzz.Shrink.candidates <= 3);
      (* a tripped step meter keeps the meter's reason *)
      let meter =
        Robust.Budget.Meter.create ~poll_every:1
          (Robust.Budget.make ~steps:3 ())
      in
      let _, st = Fuzz.Shrink.minimize ~meter ~replay ~target original in
      Alcotest.(check string) "meter trip keeps its reason"
        "truncated (steps)"
        (Fuzz.Shrink.completeness_to_string st.Fuzz.Shrink.completeness);
      (* and the unbudgeted run on the same input is exhaustive *)
      let _, st = Fuzz.Shrink.minimize ~replay ~target original in
      Alcotest.(check string) "uncapped run exhaustive" "exhaustive"
        (Fuzz.Shrink.completeness_to_string st.Fuzz.Shrink.completeness)

(* ---- coin canonicalization ---- *)

let test_zero_coins_canonicalizes () =
  (* a synthetic oracle that pins the pid sequence (so the removal passes
     cannot fire) and requires the last coin to stay 1: the sweep must
     zero the zeroable coin, revert the unzeroable one, and leave the
     coinless entry alone *)
  let shape sched =
    List.map (function `Step (p, _) -> `S p | `Crash p -> `C p) sched
  in
  let witnesses sched =
    shape sched = [ `S 0; `S 1; `S 2 ]
    && match List.nth sched 2 with `Step (2, Some 1) -> true | _ -> false
  in
  let replay sched = if witnesses sched then Some () else None in
  let original = [ `Step (0, Some 3); `Step (1, None); `Step (2, Some 1) ] in
  let shrunk, st = Fuzz.Shrink.minimize ~replay ~target:() original in
  Alcotest.(check bool) "zeroed where sound, reverted where not" true
    (shrunk = [ `Step (0, Some 0); `Step (1, None); `Step (2, Some 1) ]);
  Alcotest.(check string) "exhaustive" "exhaustive"
    (Fuzz.Shrink.completeness_to_string st.Fuzz.Shrink.completeness);
  (* deterministic: identical input, identical schedule and stats *)
  let shrunk2, st2 = Fuzz.Shrink.minimize ~replay ~target:() original in
  Alcotest.(check bool) "pass is deterministic" true
    (shrunk = shrunk2
    && st.Fuzz.Shrink.candidates = st2.Fuzz.Shrink.candidates
    && st.Fuzz.Shrink.accepted = st2.Fuzz.Shrink.accepted)

(* ---- schedule codec ---- *)

let test_schedule_roundtrip_cases () =
  let sched =
    [ `Step (0, None); `Step (1, Some 1); `Crash 2; `Step (1, None) ]
  in
  Alcotest.(check bool) "roundtrip" true
    (Fuzz.Schedule.of_text (Fuzz.Schedule.to_text sched) = sched);
  Alcotest.(check int) "steps counts steps only" 3 (Fuzz.Schedule.steps sched);
  Alcotest.(check (list int)) "pids sorted" [ 0; 1; 2 ]
    (Fuzz.Schedule.pids sched)

let schedule_gen =
  let open QCheck.Gen in
  list_size (int_bound 40)
    (oneof
       [
         map (fun pid -> `Step (pid, None)) (int_bound 7);
         map2 (fun pid c -> `Step (pid, Some c)) (int_bound 7) (int_bound 3);
         map (fun pid -> `Crash pid) (int_bound 7);
       ])

let prop_schedule_roundtrip =
  QCheck.Test.make ~name:"schedule text roundtrip" ~count:300
    (QCheck.make schedule_gen)
    (fun sched -> Fuzz.Schedule.of_text (Fuzz.Schedule.to_text sched) = sched)
  |> QCheck_alcotest.to_alcotest

let test_schedule_crlf_and_trailing_whitespace () =
  (* Windows checkouts and pasted text arrive with CRLF endings and
     trailing blanks; per-line trimming must make them parse identically
     — the old parser handed a stowaway "1\r" token to int_of_string *)
  let sched = [ `Step (0, None); `Step (1, Some 1); `Crash 2 ] in
  let text = Fuzz.Schedule.to_text sched in
  let lines = String.split_on_char '\n' text in
  Alcotest.(check bool) "CRLF parses identically" true
    (Fuzz.Schedule.of_text (String.concat "\r\n" lines) = sched);
  Alcotest.(check bool) "trailing whitespace ignored" true
    (Fuzz.Schedule.of_text
       (String.concat "\n" (List.map (fun l -> l ^ "  \t") lines))
    = sched);
  Alcotest.(check bool) "trailing blank lines ignored" true
    (Fuzz.Schedule.of_text (text ^ "\r\n\r\n") = sched);
  (* trimming must not loosen what a line may contain *)
  let framed line = Robust.Persist.frame ~magic:"fuzz-schedule v3" [ line ] in
  List.iter
    (fun text ->
      match Fuzz.Schedule.of_text text with
      | exception Trace_io.Parse_error _ -> ()
      | _ -> Alcotest.failf "accepted malformed schedule %S" text)
    [
      String.concat "\r\n" (String.split_on_char '\n' (framed "S zero"));
      Test_util.replace_first ~sub:"S 0 1 2\n" ~by:"S 0 1 2  \n"
        (framed "S 0 1 2");
    ]

let test_schedule_rejects_malformed () =
  List.iter
    (fun text ->
      match Fuzz.Schedule.of_text text with
      | exception Trace_io.Parse_error _ -> ()
      | _ -> Alcotest.failf "accepted malformed schedule %S" text)
    ([ ""; "fuzz-schedule v9\nS 0"; "S 0" ]
    @ List.map
        (fun line -> Robust.Persist.frame ~magic:"fuzz-schedule v3" [ line ])
        [ "Q 0"; "S zero"; "S 0 1 2"; "X" ])

let test_schedule_file_roundtrip () =
  let sched = [ `Step (1, Some 0); `Crash 0; `Step (1, None) ] in
  let path = Filename.temp_file "randsync-fuzz" ".sched" in
  Fuzz.Schedule.save ~path sched;
  let sched' = Fuzz.Schedule.load ~path in
  Sys.remove path;
  Alcotest.(check bool) "file roundtrip" true (sched = sched')

(* ---- exec_script replay fidelity ---- *)

let test_exec_script_reproduces_run () =
  (* record a run, extract its schedule, replay from a fresh initial
     configuration: the trace must match event for event *)
  List.iter
    (fun seed ->
      let p =
        match Consensus.Registry.find "cas-1" with
        | Some p -> p
        | None -> Alcotest.fail "cas-1 not registered"
      in
      let config () = Consensus.Protocol.initial_config p ~inputs:[ 0; 1 ] in
      let original = Run.exec (Sched.random ~seed) (config ()) in
      let script = Fuzz.Schedule.of_trace original.Run.trace in
      let replayed = Run.exec_script ~script (config ()) in
      Alcotest.(check bool)
        (Printf.sprintf "trace identical (seed %d)" seed)
        true
        (original.Run.trace = replayed.Run.trace))
    [ 1; 2; 3; 4; 5 ]

let test_exec_script_total_on_mangled_scripts () =
  (* deleting arbitrary entries must never wedge the replay — the property
     the shrinker relies on *)
  let p = Consensus.Flawed.first_writer ~r:1 in
  let config () = Consensus.Protocol.initial_config p ~inputs:[ 0; 1 ] in
  let original = Run.exec (Sched.random ~seed:3) (config ()) in
  let script = Fuzz.Schedule.of_trace original.Run.trace in
  let n = List.length script in
  for mask = 0 to min 255 ((1 lsl n) - 1) do
    let mangled =
      List.filteri (fun i _ -> mask land (1 lsl i) = 0) script
    in
    ignore (Run.exec_script ~script:mangled (config ()))
  done

let suite =
  [
    Alcotest.test_case "flawed rediscovered and shrunk" `Quick
      test_flawed_rediscovered;
    Alcotest.test_case "flawed artifact replays" `Quick
      test_flawed_artifact_replays;
    Alcotest.test_case "shrinker deterministic" `Quick
      test_shrinker_deterministic;
    Alcotest.test_case "campaign jobs-invariant" `Quick
      test_campaign_jobs_invariant;
    Alcotest.test_case "mutex scenario" `Quick test_mutex_scenario;
    Alcotest.test_case "safe scenarios clean" `Quick test_safe_scenarios_clean;
    Alcotest.test_case "stuck counter found, shrunk, replayed" `Quick
      test_stuck_counter_found;
    Alcotest.test_case "stuck campaign jobs-invariant" `Quick
      test_stuck_campaign_jobs_invariant;
    Alcotest.test_case "budget truncates cleanly" `Quick
      test_budget_truncates_cleanly;
    Alcotest.test_case "shrink truncation reasons" `Quick
      test_shrink_truncation_reasons;
    Alcotest.test_case "zero-coins canonicalization" `Quick
      test_zero_coins_canonicalizes;
    Alcotest.test_case "schedule roundtrip cases" `Quick
      test_schedule_roundtrip_cases;
    Alcotest.test_case "schedule CRLF + trailing whitespace" `Quick
      test_schedule_crlf_and_trailing_whitespace;
    prop_schedule_roundtrip;
    Alcotest.test_case "schedule rejects malformed" `Quick
      test_schedule_rejects_malformed;
    Alcotest.test_case "schedule file roundtrip" `Quick
      test_schedule_file_roundtrip;
    Alcotest.test_case "exec_script reproduces runs" `Quick
      test_exec_script_reproduces_run;
    Alcotest.test_case "exec_script total on mangled scripts" `Quick
      test_exec_script_total_on_mangled_scripts;
  ]
