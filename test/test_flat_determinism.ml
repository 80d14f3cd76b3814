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

let suite =
  [
    Alcotest.test_case "search_par flat: registry jobs-invariance" `Quick
      test_search_par_flat_registry;
  ]
