(* Instrumentation must not perturb determinism: a metrics-enabled
   search (in-memory sink) returns the bare search's result and records
   the ["mc/"] counters as the result fields verbatim, and fuzz campaigns
   run under jobs 1 and 2 stay bit-identical with jobs-invariant merged
   engine counters (the ["fuzz/"] family) equal to the tallies they
   mirror.  The ["par/"] counters
   describe scheduling (chunks per domain, batches) and are jobs-variant
   by nature, so they are filtered out before comparison — the point of
   the per-domain-slot design is precisely that their variance never
   leaks into engine counters. *)

open Consensus

let engine_counters obs =
  List.filter
    (fun (name, _) -> not (String.starts_with ~prefix:"par/" name))
    (Obs.Metrics.counters (Obs.metrics obs))

let counter obs name = Obs.Metrics.counter (Obs.metrics obs) name

(* ---- search ---- *)

let project_result (r : _ Mc.Explore.result) =
  ( (match r.violation with
    | None -> None
    | Some v -> Some (Sim.Trace.to_string string_of_int v.trace)),
    r.visited,
    r.leaves,
    r.truncated,
    Robust.Budget.completeness_to_string r.completeness,
    r.max_depth_seen,
    r.table_hits,
    r.table_misses )

let test_search_metrics_are_result_fields () =
  let obs = Obs.create ~sink:(Obs.Sink.memory ()) () in
  let r =
    Mc.Explore.search ~obs ~dedup:`Exact ~max_depth:12 ~inputs:[ 0; 1 ]
      (Protocol.initial_config Cas_consensus.protocol ~inputs:[ 0; 1; 1 ])
  in
  Alcotest.(check int) "mc/visited = visited" r.Mc.Explore.visited
    (counter obs "mc/visited");
  Alcotest.(check int) "mc/leaves = leaves" r.Mc.Explore.leaves
    (counter obs "mc/leaves");
  Alcotest.(check int) "mc/table-hits = table_hits" r.Mc.Explore.table_hits
    (counter obs "mc/table-hits");
  Alcotest.(check int) "mc/table-misses = table_misses"
    r.Mc.Explore.table_misses
    (counter obs "mc/table-misses");
  Alcotest.(check int) "mc/max-depth = max_depth_seen"
    r.Mc.Explore.max_depth_seen
    (Obs.Metrics.watermark (Obs.metrics obs) "mc/max-depth")

let test_search_obs_does_not_change_result () =
  (* the observer effect pin: with and without a handle, same answer *)
  let config () =
    Protocol.initial_config Counter_consensus.protocol ~inputs:[ 0; 1 ]
  in
  let bare =
    project_result (Mc.Explore.search ~max_depth:9 ~inputs:[ 0; 1 ] (config ()))
  in
  let obs = Obs.create ~sink:(Obs.Sink.memory ()) () in
  let watched =
    project_result
      (Mc.Explore.search ~obs ~max_depth:9 ~inputs:[ 0; 1 ] (config ()))
  in
  Alcotest.(check bool) "observed run = bare run" true (watched = bare)

(* ---- fuzz campaigns ---- *)

let find_scenario name =
  match Fuzz.Scenario.find name with
  | Ok sc -> sc
  | Error e -> Alcotest.failf "scenario %s: %s" name e

let run_campaign jobs =
  let obs = Obs.create ~sink:(Obs.Sink.memory ()) () in
  let r =
    Par.with_pool ~jobs ~obs (fun pool ->
        Fuzz.Campaign.run ~obs ~pool ~shrink:true ~runs:64 ~seed:1
          (find_scenario "flawed"))
  in
  (r, obs)

let test_campaign_metrics_jobs_invariant () =
  let r1, obs1 = run_campaign 1 in
  let r2, obs2 = run_campaign 2 in
  Alcotest.(check bool) "campaigns bit-identical" true (r1 = r2);
  Alcotest.(check (list (pair string int)))
    "engine counters jobs-invariant" (engine_counters obs1)
    (engine_counters obs2);
  Alcotest.(check int) "fuzz/runs = runs_done" r1.Fuzz.Campaign.runs_done
    (counter obs1 "fuzz/runs");
  Alcotest.(check int) "fuzz/violations = violations"
    r1.Fuzz.Campaign.violations
    (counter obs1 "fuzz/violations");
  (* the shrinker counters mirror the recorded shrink stats (a missing
     counter reads 0 — zero-valued counters are omitted from dumps) *)
  match r1.Fuzz.Campaign.first_violation with
  | None -> Alcotest.fail "campaign found no violation"
  | Some cex -> (
      match cex.Fuzz.Campaign.shrink_stats with
      | None -> Alcotest.fail "shrink was on but stats are missing"
      | Some st ->
          Alcotest.(check int) "fuzz/shrink/candidates = stats"
            st.Fuzz.Shrink.candidates
            (counter obs1 "fuzz/shrink/candidates");
          Alcotest.(check int) "fuzz/shrink/accepted = stats"
            st.Fuzz.Shrink.accepted
            (counter obs1 "fuzz/shrink/accepted");
          Alcotest.(check bool) "shrinker exercised" true
            (st.Fuzz.Shrink.candidates > 0))

let suite =
  [
    Alcotest.test_case "search metrics = result fields" `Quick
      test_search_metrics_are_result_fields;
    Alcotest.test_case "search unperturbed by obs" `Quick
      test_search_obs_does_not_change_result;
    Alcotest.test_case "campaign metrics jobs-invariant" `Quick
      test_campaign_metrics_jobs_invariant;
  ]
