(* synth-rw-d2: one CEGIS frontier search over depth-2 decision trees on
   one read-write register, through a Par pool.  Hundreds of thousands of
   candidate pairs, each refuted by a lemma replay, a probe or a tiny
   exhaustive search: per-call set-up dominates here, where one huge
   search dominates mc-seq-deep.

   The pool has one domain.  At two, every minor collection is a
   stop-the-world barrier across both domains, so a neighbour on either
   core of a two-core machine stalls the whole search, and pass times
   spread by a quarter from run to run (NOTES.md).

   The seed is the CEGIS seed (probe streams); the goldens below do not
   depend on it. *)

open Common

let style = Consensus.Dtree.Rw
let registers = 1
let depth = 2
let max_procs = 3
let node_budget = 25_000
let jobs = 1

(* a search answers within this, or misses its deadline *)
let deadline = 15.

(* goldens *)
let g_frontier = 1
let g_completeness = "truncated (nodes)"
let g_candidates = 22_208

let search ?obs ~pool ~seed () =
  Synth.Cegis.search ?obs ~pool
    ~budget:(Robust.Budget.make ~nodes:node_budget ())
    ~style ~registers ~depth ~coins:false ~max_procs ~seed ()

let sum f (r : Synth.Cegis.result) =
  List.fold_left (fun a row -> a + f row) 0 r.Synth.Cegis.rows

let candidates = sum (fun row -> row.Synth.Cegis.candidates)

(* Returns whether the result matched the goldens. *)
let check (r : Synth.Cegis.result) =
  let completeness =
    Robust.Budget.completeness_to_string r.Synth.Cegis.completeness
  in
  let c = candidates r in
  let decided =
    sum (fun row -> row.Synth.Cegis.pruned + row.Synth.Cegis.refuted) r
  in
  record "synth"
    (if r.Synth.Cegis.frontier <> golden_int g_frontier then
       `Wrong
         (Printf.sprintf "frontier %d, golden %d" r.Synth.Cegis.frontier
            (golden_int g_frontier))
     else if completeness <> g_completeness then
       `Wrong (Printf.sprintf "completeness %S, golden %S" completeness g_completeness)
     else if c <> g_candidates then
       `Wrong (Printf.sprintf "candidates %d, golden %d" c g_candidates)
     else if decided <> c then
       `Wrong (Printf.sprintf "pruned + refuted = %d <> candidates %d" decided c)
     else `Ok)

(* A fixed seeded sample of candidate pairs from the enumeration. *)
let sample_pairs ~seed k =
  let trees = Array.of_list (Mc.Enumerate.enumerate_dtrees ~style ~registers ~coins:false depth) in
  let rng = Random.State.make [| seed; 0x5eed |] in
  let pick () = trees.(Random.State.int rng (Array.length trees)) in
  List.init k (fun _ -> (pick (), pick ()))

let judge r = (check r, float_of_int (candidates r))

(* set-up is the pool; every pass gets a fresh one, as a CLI run would *)
let setup () =
  setup_probe ~batch:100 ~discard:Par.Pool.shutdown (fun () ->
      Par.Pool.create ~jobs ())

let run ~setup ~cli ~seed ~seconds ~trace =
  let plain_pass () =
    let pool = Par.Pool.create ~jobs () in
    Fun.protect ~finally:(fun () -> Par.Pool.shutdown pool) @@ fun () ->
    fst (timed_pass ~judge (search ~pool ~seed))
  in
  if not trace then
    in_process_metrics ~setup ~deadline ~seconds (fun _ -> plain_pass ())
  else begin
    (* traced passes get their own observed pool, so Par's batch and
       barrier counters cover exactly one search *)
    let traced_pass k =
      Span.pass := k;
      let obs = Obs.create () in
      let p, (r, gc) =
        timed_pass
          ~judge:(fun (r, _) -> judge r)
          (fun () ->
            Span.traced @@ fun () ->
            Par.with_pool ~jobs ~obs @@ fun pool ->
            Span.run "synth.cegis.search" (fun () ->
                gc_delta (fun () -> search ~obs ~pool ~seed ())))
      in
      let mt = Obs.metrics obs in
      let c name = float_of_int (Obs.Metrics.counter mt name) in
      let wait =
        match Obs.Metrics.histogram mt "par/barrier-wait-seconds" with
        | Some h -> h.Obs.Metrics.sum
        | None -> 0.
      in
      ( p.secs,
        r,
        gc
        @ [
            m "synth.cegis.candidates" "count" (c "synth/candidates");
            m "synth.cegis.pruned" "count" (c "synth/pruned");
            m "synth.cegis.refuted" "count" (c "synth/refuted");
            m "synth.cegis.lemma_hits" "count" (c "synth/lemma-hits");
            m "synth.cegis.lemmas" "count" (c "synth/lemmas");
            m "budget.polls" "count" (c "budget/polls");
            m "par.batches" "count" (c "par/batches");
            m "par.barrier_wait_s" "s" wait;
          ] )
    in
    let ps =
      passes ~seconds:(0.5 *. seconds) ~min_passes:2 (fun k ->
          if k mod 2 = 1 then `Traced (traced_pass k)
          else `Plain (plain_pass ()).secs)
    in
    let plain = List.filter_map (function `Plain t -> Some t | _ -> None) ps in
    let traced = List.filter_map (function `Traced x -> Some x | _ -> None) ps in
    let rows = List.map (fun (_, _, row) -> row) traced in
    let med = per_pass_median rows in
    let _, final, _ = List.hd traced in
    (* layer probes on fixed seeded samples, outside any pass *)
    let pairs = sample_pairs ~seed 2_000 in
    let protocols =
      List.map (fun pr -> Consensus.Dtree.protocol ~style ~registers pr) pairs
    in
    let lemmas = final.Synth.Cegis.lemmas in
    let (), first_hit_s =
      timed (fun () ->
          List.iter
            (fun p -> ignore (Sys.opaque_identity (Synth.Lemma.first_hit ~n:2 lemmas p)))
            protocols)
    in
    let dtrees =
      List.init 5 (fun _ ->
          timed (fun () ->
              Mc.Enumerate.enumerate_dtrees ~style ~registers ~coins:false depth))
    in
    let trees = List.length (fst (List.hd dtrees)) in
    let checks = List.filteri (fun i _ -> i < 200) pairs in
    let (), check_s =
      timed (fun () ->
          List.iter
            (fun pr ->
              ignore
                (Sys.opaque_identity
                   (Mc.Enumerate.dtree_check_verdict ~style ~registers pr [ 0; 1 ])))
            checks)
    in
    [
      m "synth.cegis.search_s" "s" (median (Span.durations "synth.cegis.search"));
      m "synth.cegis.prune_ratio" "ratio"
        (ratio (med "synth.cegis.pruned") (med "synth.cegis.candidates"));
      m "synth.lemma.first_hit_us" "us"
        (first_hit_s /. float_of_int (List.length protocols) *. 1e6);
      m "mc.enumerate.dtrees_s" "s" (median (List.map snd dtrees));
      m "mc.enumerate.trees" "count" (float_of_int trees);
      m "mc.enumerate.check_verdict_ms" "ms"
        (check_s /. float_of_int (List.length checks) *. 1e3);
      traced_overhead ~traced:(List.map (fun (dt, _, _) -> dt) traced) ~plain;
    ]
    @ medians_of rows
        [
          ("synth.cegis.candidates", "count");
          ("synth.cegis.pruned", "count");
          ("synth.cegis.refuted", "count");
          ("synth.cegis.lemma_hits", "count");
          ("synth.cegis.lemmas", "count");
          ("budget.polls", "count");
          ("par.batches", "count");
          ("par.barrier_wait_s", "s");
          ("gc.minor_words", "words");
          ("gc.major_words", "words");
          ("gc.major_collections", "count");
        ]
    @ Wl_serve.layers ~cli ~seed ~seconds:(0.5 *. seconds)
  end
