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
          let counter name = Obs.Metrics.counter (Obs.metrics obs) name in
          Alcotest.(check bool)
            (label ^ ": table relaid out") true
            (counter "mc/table-relayouts" > 0);
          Alcotest.(check bool)
            (label ^ ": key widths widened") true
            (counter "mc/table-widenings" > 0))
        [ `Exact; `Symmetric ])
    [ ("counter-3", [ 0; 1; 0; 1 ], 12); ("rw-3n", [ 0; 1; 0 ], 14) ]

(* Synthesis's stage-2 shape: thousands of searches of a few nodes
   each, every one starting from the smallest intern and transposition
   tables, so each small-table growth step runs many times over.  Every
   depth-2 rw tree against itself, unanimous inputs, n = 2 and 3. *)
let test_many_tiny_searches () =
  let style = Dtree.Rw and registers = 1 in
  let trees = Mc.Enumerate.enumerate_dtrees ~style ~registers ~coins:false 2 in
  Alcotest.(check int) "depth-2 rw trees" 2774 (List.length trees);
  let obs = Obs.create () in
  List.iter
    (fun t ->
      List.iter
        (fun (dedup, inputs) ->
          let config () =
            Mc.Enumerate.dtree_config ~style ~registers (t, t) inputs
          in
          let search ?obs state =
            Mc.Explore.search ?obs ~state ~dedup ~max_depth:50 ~inputs
              (config ())
          in
          if
            project_tables (search ~obs `Flat)
            <> project_tables (search `Closure)
          then
            Alcotest.failf "%s on [%s]%s: flat <> closure referee"
              (Dtree.to_string t)
              (String.concat ";" (List.map string_of_int inputs))
              (if dedup = `Exact then " exact" else ""))
        (List.concat_map
           (fun inputs -> [ (`Symmetric, inputs); (`Exact, inputs) ])
           [ [ 0; 0 ]; [ 1; 1 ]; [ 0; 0; 0 ]; [ 1; 1; 1 ] ]))
    trees;
  Alcotest.(check bool) "small tables grew" true
    (Obs.Metrics.counter (Obs.metrics obs) "mc/table-relayouts" > 0)

let suite =
  [
    Alcotest.test_case "relayout under in-progress entries = referee" `Quick
      test_relayout_under_stack;
    Alcotest.test_case "2,774 tiny searches from small tables = referee"
      `Quick test_many_tiny_searches;
  ]
