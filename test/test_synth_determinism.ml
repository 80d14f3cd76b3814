(* Jobs-invariance of the CEGIS driver: the same parameters must produce
   bit-identical results — rows, witness trees, and the lemma pool down
   to its text-codec bytes — sequentially and at any pool size.  Runs in
   the standalone determinism executable (RANDSYNC_JOBS=2 in CI). *)

module D = Consensus.Dtree
module Cegis = Synth.Cegis
module Lemma = Synth.Lemma

let pool_jobs = [ 1; 2; 8 ]

(* result projected to plain data (trees and rows are already closure
   free, but a stable string projection gives readable diffs) *)
let project (r : Cegis.result) =
  ( r.Cegis.frontier,
    Robust.Budget.completeness_to_string r.Cegis.completeness,
    r.Cegis.lemma_hits,
    List.map
      (fun (row : Cegis.row) ->
        ( row.Cegis.n,
          row.Cegis.unanimous0,
          row.Cegis.unanimous1,
          row.Cegis.candidates,
          row.Cegis.pruned,
          row.Cegis.refuted,
          Cegis.verdict_to_string row.Cegis.verdict,
          Option.map
            (fun (t0, t1) -> (D.to_string t0, D.to_string t1))
            row.Cegis.witness ))
      r.Cegis.rows,
    Lemma.to_text r.Cegis.lemmas )

let search ?pool ~style ~procs () =
  Cegis.search ?pool ~style ~registers:1 ~depth:1 ~coins:false
    ~max_procs:procs ~seed:11 ()

let across_pools ~style ~procs =
  let reference = project (search ~style ~procs ()) in
  List.iter
    (fun jobs ->
      Par.with_pool ~jobs (fun pool ->
          let got = project (search ~pool ~style ~procs ()) in
          Alcotest.(check bool)
            (Printf.sprintf "jobs %d = sequential" jobs)
            true (got = reference)))
    pool_jobs;
  reference

let test_rw_jobs_invariant () =
  let _, completeness, _, _, _ = across_pools ~style:D.Rw ~procs:4 in
  Alcotest.(check string) "exhaustive" "exhaustive" completeness

let test_swap_jobs_invariant () =
  let frontier, _, _, _, lemma_text = across_pools ~style:D.Swapping ~procs:5 in
  Alcotest.(check int) "frontier" 2 frontier;
  (* the pool text is the CI artifact: re-parse to keep the bytes honest *)
  Alcotest.(check string) "lemma text re-encodes identically" lemma_text
    (Lemma.to_text (Lemma.of_text lemma_text))

(* a deterministic node budget must trip on the same candidate at every
   pool size — the Campaign-style batched-admission pin *)
let test_budget_jobs_invariant () =
  let run pool =
    project
      (Cegis.search ?pool
         ~budget:(Robust.Budget.make ~nodes:40 ())
         ~style:D.Rw ~registers:1 ~depth:1 ~coins:false ~max_procs:4 ~seed:11
         ())
  in
  let reference = run None in
  List.iter
    (fun jobs ->
      Par.with_pool ~jobs (fun pool ->
          Alcotest.(check bool)
            (Printf.sprintf "budgeted jobs %d = sequential" jobs)
            true
            (run (Some pool) = reference)))
    pool_jobs

(* The depth-2 point the benchmark measures: 22,208 candidates under a
   25,000-node budget.  The pool snapshot is re-sorted by hits between
   batches, so which lemma is credited — and the [synth/replays] count
   of kernel replays paid — must be as jobs-invariant as the rows. *)
let test_depth2_jobs_invariant () =
  let run pool =
    let obs = Obs.create () in
    let r =
      Cegis.search ~obs ?pool
        ~budget:(Robust.Budget.make ~nodes:25_000 ())
        ~style:D.Rw ~registers:1 ~depth:2 ~coins:false ~max_procs:3 ~seed:1
        ()
    in
    (project r, Obs.Metrics.counter (Obs.metrics obs) "synth/replays")
  in
  let reference, replays = run None in
  let _, completeness, _, rows, lemma_text = reference in
  Alcotest.(check string) "truncated" "truncated (nodes)" completeness;
  (match rows with
  | [ (2, _, _, candidates, pruned, refuted, _, None) ] ->
      Alcotest.(check int) "candidates" 22_208 candidates;
      Alcotest.(check int) "pruned + refuted" candidates (pruned + refuted)
  | _ -> Alcotest.fail "expected one unwitnessed n=2 row");
  Alcotest.(check int) "lemmas" 71
    (List.length (Lemma.of_text lemma_text));
  Alcotest.(check int) "kernel replays" 33_491 replays;
  List.iter
    (fun jobs ->
      Par.with_pool ~jobs (fun pool ->
          let got, got_replays = run (Some pool) in
          Alcotest.(check string)
            (Printf.sprintf "jobs %d pool bytes" jobs)
            lemma_text
            (let _, _, _, _, text = got in
             text);
          Alcotest.(check bool)
            (Printf.sprintf "jobs %d = sequential" jobs)
            true (got = reference);
          Alcotest.(check int)
            (Printf.sprintf "jobs %d replays" jobs)
            replays got_replays))
    [ 1; 2 ]

let suite =
  [
    Alcotest.test_case "rw search jobs-invariant" `Quick
      test_rw_jobs_invariant;
    Alcotest.test_case "swap search jobs-invariant" `Quick
      test_swap_jobs_invariant;
    Alcotest.test_case "node budget jobs-invariant" `Quick
      test_budget_jobs_invariant;
    Alcotest.test_case "depth-2 budgeted search jobs-invariant" `Quick
      test_depth2_jobs_invariant;
  ]
