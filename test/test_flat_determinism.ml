(* Flat DFS against the closure referee where the packed table is
   relaid out under in-progress entries. *)

open Consensus

(* Every result field, configs projected to plain data (they carry
   closures, so structural [=] would raise). *)
let project_tables (r : _ Mc.Explore.result) =
  ( (match r.violation with
    | None -> None
    | Some v ->
        Some
          ( (match v.kind with `Inconsistent -> "inconsistent" | `Invalid -> "invalid"),
            Sim.Trace.to_string string_of_int v.trace )),
    r.visited,
    r.leaves,
    r.truncated,
    Robust.Budget.completeness_to_string r.completeness,
    r.max_depth_seen,
    r.table_hits,
    r.table_misses )

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
  ]
