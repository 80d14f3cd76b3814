(* Registry-wide sweep for the determinism executable (RANDSYNC_JOBS=2):
   [search_par] must be bit-identical across pool sizes — including
   [None] — and agree with the sequential closure referee on verdict and
   witness.  Per-subtree flat slabs are private to their task, so the
   merged result must not depend on how tasks land on domains. *)

open Consensus
open Test_par_determinism

(* [Test_par_determinism.project_result] plus the table counters, which
   must be jobs-invariant too. *)
let project_tables (r : _ Mc.Explore.result) =
  (project_result r, r.Mc.Explore.table_hits, r.Mc.Explore.table_misses)

let smallest_n (p : Protocol.t) =
  let rec go n =
    if n > 8 then invalid_arg p.name
    else if p.supports_n n then n
    else go (n + 1)
  in
  go 2

let test_search_par_flat_registry () =
  List.iter
    (fun (p : Protocol.t) ->
      let n = smallest_n p in
      let inputs = List.init n (fun i -> i land 1) in
      List.iter
        (fun dedup ->
          let par, _, _ =
            across_pools (fun pool ->
                project_tables
                  (Mc.Explore.search_par ?pool ~dedup ~max_depth:8
                     ~max_states:10_000 ~inputs:[ 0; 1 ]
                     (Protocol.initial_config p ~inputs)))
          in
          let referee =
            project_result
              (Mc.Explore.search ~state:`Closure ~dedup ~max_depth:8
                 ~max_states:10_000 ~inputs:[ 0; 1 ]
                 (Protocol.initial_config p ~inputs))
          in
          let verdict (v, _, _, _, _, _) = v in
          Alcotest.(check bool)
            (Printf.sprintf "%s: par verdict = sequential closure" p.name)
            true
            (verdict par = verdict referee);
          (* every field under `Off on violation-free trees (a violating
             sequential search stops at first blood, while the partitioned
             subtrees run to completion); no state cap binds here *)
          if dedup = `Off && verdict referee = None then
            Alcotest.(check bool)
              (Printf.sprintf "%s: par = sequential closure, all fields"
                 p.name)
              true (par = referee))
        [ `Off; `Exact; `Symmetric ])
    Registry.all

(* The flat DFS holds each in-progress entry's table slot across its
   subtree; when the table is relaid out underneath (capacity growth, or
   a key field widened because interning outgrew it) the post-expansion
   meta write must find the entry again.  These searches start from a
   table sized and packed for the root alone, so both happen with the
   root's entry (and every entry above the current node) in progress.
   All counters must still match the closure referee node for node. *)
let test_relayout_under_stack () =
  List.iter
    (fun (name, inputs, max_depth) ->
      let p =
        match Registry.find name with Some p -> p | None -> invalid_arg name
      in
      List.iter
        (fun dedup ->
          let config () = Protocol.initial_config p ~inputs in
          let obs = Obs.create () in
          let flat =
            Mc.Explore.search ~obs ~dedup ~max_depth ~inputs (config ())
          in
          let referee =
            Mc.Explore.search ~state:`Closure ~dedup ~max_depth ~inputs
              (config ())
          in
          let label =
            Printf.sprintf "%s depth %d %s" name max_depth
              (match dedup with `Exact -> "exact" | _ -> "symmetric")
          in
          Alcotest.(check bool)
            (label ^ ": flat = closure referee") true
            (project_tables flat = project_tables referee);
          Alcotest.(check bool)
            (label ^ ": table relaid out") true
            (Obs.Metrics.counter (Obs.metrics obs) "mc/table-relayouts" > 0))
        [ `Exact; `Symmetric ])
    [ ("counter-3", [ 0; 1; 0 ], 12); ("rw-3n", [ 0; 1; 0 ], 14) ]

let suite =
  [
    Alcotest.test_case "relayout under in-progress entries = referee" `Quick
      test_relayout_under_stack;
    Alcotest.test_case "search_par flat: registry jobs-invariance" `Quick
      test_search_par_flat_registry;
  ]
