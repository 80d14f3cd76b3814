(* Properties of the transposition-table dedup (Mc.Explore ~dedup):
   turning it on may only change node counts and wall-clock — never the
   verdict, never the witness.  The suite pins that contract across a
   sweep of protocol instances, plus the fingerprint/history consistency
   the soundness argument rests on (see DESIGN.md). *)

open Consensus

let dedup_name = function
  | `Off -> "off"
  | `Exact -> "exact"
  | `Symmetric -> "symmetric"

let project_violation (r : int Mc.Explore.result) =
  match r.Mc.Explore.violation with
  | None -> None
  | Some v ->
      Some
        ( (match v.Mc.Explore.kind with
          | `Inconsistent -> "inconsistent"
          | `Invalid -> "invalid"),
          Sim.Trace.to_string string_of_int v.Mc.Explore.trace )

(* A mix of violating and violation-free instances, identical and
   pid-dependent, deterministic and randomized, exhaustive and
   depth-truncated. *)
let instances =
  [
    ("unanimous-rw-r1 [0;0;0]", Flawed.unanimous ~style:Flawed.Rw ~r:1, [ 0; 0; 0 ], 20);
    ("unanimous-rw-r1 [0;1]", Flawed.unanimous ~style:Flawed.Rw ~r:1, [ 0; 1 ], 20);
    ("unanimous-rw-r2 [0;0;0]", Flawed.unanimous ~style:Flawed.Rw ~r:2, [ 0; 0; 0 ], 24);
    ("unanimous-swap-r2 [0;0]", Flawed.unanimous ~style:Flawed.Swapping ~r:2, [ 0; 0 ], 18);
    ("first-writer-r1 [0;1]", Flawed.first_writer ~r:1, [ 0; 1 ], 20);
    ("first-writer-r2 [0;0;0]", Flawed.first_writer ~r:2, [ 0; 0; 0 ], 20);
    ("coin-rw-r2 [0;0]", Flawed.coin_retry ~style:Flawed.Rw ~r:2, [ 0; 0 ], 10);
    ("cas [0;1]", Cas_consensus.protocol, [ 0; 1 ], 30);
    ("tas2 [1;0]", Tas2.protocol, [ 1; 0 ], 30);
    ("cas [0;1;1] truncated", Cas_consensus.protocol, [ 0; 1; 1 ], 6);
  ]

let search dedup (p : Protocol.t) inputs max_depth =
  let config = Protocol.initial_config p ~inputs in
  Mc.Explore.search ~dedup ~max_depth ~inputs config

(* Dedup finds a violation iff Off does — and the SAME first witness:
   only violation-free subtrees are memoized and the traversal order is
   unchanged, so the leftmost violating path is reached identically. *)
let test_modes_agree () =
  List.iter
    (fun (name, p, inputs, max_depth) ->
      let reference = project_violation (search `Off p inputs max_depth) in
      List.iter
        (fun dedup ->
          Alcotest.(check bool)
            (Printf.sprintf "%s: %s = off" name (dedup_name dedup))
            true
            (project_violation (search dedup p inputs max_depth) = reference))
        [ `Exact; `Symmetric ])
    instances

(* The table can only prune: nodes expanded with dedup never exceed the
   plain DFS's. *)
let test_dedup_never_expands_more () =
  List.iter
    (fun (name, p, inputs, max_depth) ->
      let off = (search `Off p inputs max_depth).Mc.Explore.visited in
      List.iter
        (fun dedup ->
          let v = (search dedup p inputs max_depth).Mc.Explore.visited in
          Alcotest.(check bool)
            (Printf.sprintf "%s: visited %s (%d) <= off (%d)" name
               (dedup_name dedup) v off)
            true (v <= off))
        [ `Exact; `Symmetric ])
    instances

(* Fingerprint/history consistency, the heart of the soundness argument:
   a process state is a function of its initial term and its consumed
   response/outcome history, and the fingerprint hashes exactly that
   history.  Run one identical-process protocol under many schedules,
   collect every (fingerprint, consumed history) pair, and check the two
   equivalences the model checker relies on: equal histories always give
   equal fingerprints (determinism of the mixing), and equal fingerprints
   only arise from equal histories (no collisions observed — 63-bit
   fingerprints make one astronomically unlikely, and any collision here
   would be a deterministic, reportable regression). *)
let test_fingerprint_matches_history () =
  let p = Flawed.unanimous ~style:Flawed.Rw ~r:1 in
  let inputs = [ 0; 0; 0 ] in
  let history_of trace pid =
    List.filter_map
      (fun ev ->
        match ev with
        | Sim.Event.Applied { pid = p; resp; _ } when p = pid ->
            Some (Sim.Value.to_string resp)
        | Sim.Event.Coin { pid = p; outcome; _ } when p = pid ->
            Some (string_of_int outcome)
        | _ -> None)
      trace
  in
  let pairs =
    List.concat_map
      (fun seed ->
        let config = Protocol.initial_config p ~inputs in
        let result =
          Sim.Run.exec ~max_steps:40 (Sim.Sched.random ~seed) config
        in
        List.mapi
          (fun pid _ ->
            ( Sim.Config.fingerprint result.Sim.Run.config pid,
              history_of result.Sim.Run.trace pid ))
          inputs)
      (List.init 25 (fun i -> i + 1))
  in
  List.iteri
    (fun i (fp_a, h_a) ->
      List.iteri
        (fun j (fp_b, h_b) ->
          if i < j then begin
            if h_a = h_b then
              Alcotest.(check bool)
                (Printf.sprintf "equal histories -> equal fps (%d,%d)" i j)
                true (fp_a = fp_b);
            if fp_a = fp_b then
              Alcotest.(check bool)
                (Printf.sprintf "equal fps -> equal histories (%d,%d)" i j)
                true (h_a = h_b)
          end)
        pairs)
    pairs

(* Same protocol, different inputs: [initial_config] builds one process
   value per input, and [Config.make] seeds each fingerprint with the
   slot's root class, so differing initial terms stay apart even when
   the consumed histories coincide (both empty). *)
let test_seeds_separate_inputs () =
  let p = Flawed.unanimous ~style:Flawed.Rw ~r:1 in
  let config = Protocol.initial_config p ~inputs:[ 0; 1 ] in
  Alcotest.(check bool)
    "different inputs, different initial fingerprints" false
    (Sim.Config.fingerprint config 0 = Sim.Config.fingerprint config 1);
  let config = Protocol.initial_config p ~inputs:[ 1; 1 ] in
  Alcotest.(check bool)
    "same input, same initial fingerprint" true
    (Sim.Config.fingerprint config 0 = Sim.Config.fingerprint config 1)

(* Over the full depth-1 census enumeration (coins included), the
   census's correctness check answers the same under every dedup mode,
   for unanimous and mixed input vectors. *)
let test_census_check_mode_independent () =
  let module D = Dtree in
  let trees =
    Mc.Enumerate.enumerate_dtrees ~style:D.Rw ~registers:1 ~coins:true 1
  in
  let correct dedup t0 t1 inputs =
    Mc.Enumerate.dtree_check_verdict ~dedup ~style:D.Rw ~registers:1 (t0, t1)
      inputs
    = `Correct
  in
  let disagreements = ref 0 in
  List.iter
    (fun t0 ->
      List.iter
        (fun t1 ->
          List.iter
            (fun inputs ->
              let off = correct `Off t0 t1 inputs in
              if
                correct `Exact t0 t1 inputs <> off
                || correct `Symmetric t0 t1 inputs <> off
              then incr disagreements)
            [ [ 0; 0 ]; [ 0; 1 ]; [ 1; 1 ] ])
        trees)
    trees;
  Alcotest.(check int) "no disagreement over depth-1 pairs" 0 !disagreements

(* Clones inherit their origin's fingerprint, so a clone is
   fingerprint-equal to its origin exactly while it shadows it. *)
let test_clone_fingerprints () =
  let p = Flawed.unanimous ~style:Flawed.Rw ~r:1 in
  let inputs = [ 0; 0 ] in
  let config = Protocol.initial_config p ~inputs in
  let b = Lowerbound.Builder.create ~config ~inputs in
  Lowerbound.Builder.step b ~pid:0 ();
  let clone = Lowerbound.Builder.clone_of b ~pid:0 in
  let c = Lowerbound.Builder.config b in
  Alcotest.(check bool)
    "clone fp = origin fp" true
    (Sim.Config.fingerprint c clone = Sim.Config.fingerprint c 0);
  Alcotest.(check bool)
    "clone fp <> unstepped process fp" false
    (Sim.Config.fingerprint c clone = Sim.Config.fingerprint c 1)

(* [`Symmetric] collapses only processes that run one code: [rw-3n]
   gives each pid its own registers ([identical = false] in the
   registry), so its counters equal [`Exact]'s, while the anonymous
   [anon-rw] at unanimous inputs collapses interleavings. *)
let test_symmetric_needs_identical () =
  let counters p =
    List.map
      (fun dedup ->
        let r = search dedup p [ 0; 0; 0 ] 10 in
        (r.Mc.Explore.visited, r.Mc.Explore.leaves, r.Mc.Explore.table_hits))
      [ `Exact; `Symmetric ]
  in
  Alcotest.(check bool) "rw-3n is not identical" false
    Rw_consensus.protocol.Protocol.identical;
  (match counters Rw_consensus.protocol with
  | [ exact; sym ] ->
      Alcotest.(check (triple int int int)) "rw-3n: symmetric = exact" exact sym
  | _ -> assert false);
  Alcotest.(check bool) "anon-rw is identical" true
    Anon_consensus.protocol.Protocol.identical;
  match counters Anon_consensus.protocol with
  | [ (exact, _, _); (sym, _, _) ] ->
      Alcotest.(check bool)
        (Printf.sprintf "anon-rw: symmetric visits fewer (%d < %d)" sym exact)
        true (sym < exact)
  | _ -> assert false

(* A plain [Config.make] configuration with one freshly built process
   value per slot: no two slots hold the same value, so no two share a
   root, whatever the protocol.  [`Symmetric] must then stay sound on
   every registry protocol (same verdict and witness as [`Exact]) and
   the flat engine must agree with the closure referee node for node.
   Before roots were shared by value identity, a plain configuration gave
   every process P0's root: [`Symmetric] missed [first-writer-r1]'s
   inconsistency, called [rw-3n] exhaustive and raised on [swap-2proc]. *)
let test_plain_config_symmetric () =
  let check (p : Protocol.t) n =
    let inputs = List.init n (fun i -> i land 1) in
    let search ?state dedup =
      let config =
        Sim.Config.make ~optypes:(p.optypes ~n)
          ~procs:(List.mapi (fun pid input -> p.code ~n ~pid ~input) inputs)
      in
      Mc.Explore.search ?state ~dedup ~max_depth:14 ~max_states:40_000
        ~inputs config
    in
    let counts (r : int Mc.Explore.result) =
      (project_violation r, r.Mc.Explore.visited, r.Mc.Explore.leaves)
    in
    let flat = search `Symmetric in
    let closure = search ~state:`Closure `Symmetric in
    Alcotest.(check bool)
      (Printf.sprintf "%s n=%d: flat symmetric = closure (%d vs %d nodes)"
         p.name n flat.Mc.Explore.visited closure.Mc.Explore.visited)
      true
      (counts flat = counts closure);
    Alcotest.(check bool)
      (Printf.sprintf "%s n=%d: symmetric verdict = exact" p.name n)
      true
      (project_violation flat = project_violation (search `Exact))
  in
  List.iter
    (fun (p : Protocol.t) ->
      List.iter (check p) (List.filter p.supports_n [ 2; 3 ]))
    Registry.all

let suite =
  [
    Alcotest.test_case "dedup modes agree with off (witness included)" `Quick
      test_modes_agree;
    Alcotest.test_case "dedup never expands more nodes" `Quick
      test_dedup_never_expands_more;
    Alcotest.test_case "fingerprint = consumed history" `Quick
      test_fingerprint_matches_history;
    Alcotest.test_case "fp seeds separate inputs" `Quick
      test_seeds_separate_inputs;
    Alcotest.test_case "enumerate check_inputs mode-independent" `Quick
      test_census_check_mode_independent;
    Alcotest.test_case "clones inherit fingerprints" `Quick
      test_clone_fingerprints;
    Alcotest.test_case "symmetric collapses only identical processes" `Quick
      test_symmetric_needs_identical;
    Alcotest.test_case "plain Config.make: symmetric sound, flat = closure"
      `Quick test_plain_config_symmetric;
  ]
