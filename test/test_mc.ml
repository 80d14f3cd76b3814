(* Exhaustive model checking of the small cases: correct protocols have no
   bad execution at all; flawed ones are refuted with a concrete witness. *)

open Sim
open Consensus

let search ?(max_depth = 40) (p : Protocol.t) ~inputs =
  let config = Protocol.initial_config p ~inputs in
  Mc.Explore.search ~max_depth ~inputs config

let assert_clean name result =
  (match result.Mc.Explore.violation with
  | Some v ->
      Alcotest.failf "%s: violation %s:\n%s" name
        (match v.Mc.Explore.kind with
        | `Inconsistent -> "inconsistent"
        | `Invalid -> "invalid")
        (Trace.to_string string_of_int v.Mc.Explore.trace)
  | None -> ());
  if result.Mc.Explore.truncated then
    Alcotest.failf "%s: exploration truncated (not exhaustive)" name

let test_cas_exhaustive () =
  List.iter
    (fun inputs ->
      assert_clean "cas" (search Cas_consensus.protocol ~inputs))
    [ [ 0; 1 ]; [ 1; 0 ]; [ 0; 0 ]; [ 1; 1 ]; [ 0; 1; 1 ]; [ 1; 0; 1 ] ]

let test_tas2_exhaustive () =
  List.iter
    (fun inputs -> assert_clean "tas2" (search Tas2.protocol ~inputs))
    [ [ 0; 1 ]; [ 1; 0 ]; [ 0; 0 ]; [ 1; 1 ] ]

let test_swap2_exhaustive () =
  List.iter
    (fun inputs -> assert_clean "swap2" (search Swap2.protocol ~inputs))
    [ [ 0; 1 ]; [ 1; 0 ]; [ 0; 0 ]; [ 1; 1 ] ]

let test_flawed_first_writer_refuted () =
  let p = Flawed.first_writer ~r:1 in
  let result = search p ~inputs:[ 0; 1 ] in
  match result.Mc.Explore.violation with
  | Some { kind = `Inconsistent; trace; _ } ->
      (* the witness really contains two conflicting decisions *)
      let ds = List.map snd (Trace.decisions trace) in
      Alcotest.(check bool) "witness decides both" true
        (List.mem 0 ds && List.mem 1 ds)
  | Some { kind = `Invalid; _ } -> Alcotest.fail "expected inconsistency"
  | None -> Alcotest.fail "model checker missed the bug"

let test_flawed_unanimous_refuted () =
  List.iter
    (fun r ->
      let p = Flawed.unanimous ~style:Flawed.Rw ~r in
      (* enough processes that the bound r^2 - r + 2 is satisfied *)
      let n = max 2 ((r * r) - r + 2) in
      let inputs = List.init n (fun i -> i mod 2) in
      let result = search ~max_depth:60 p ~inputs in
      match result.Mc.Explore.violation with
      | Some { kind = `Inconsistent; _ } -> ()
      | Some { kind = `Invalid; _ } -> Alcotest.fail "expected inconsistency"
      | None ->
          if not result.Mc.Explore.truncated then
            Alcotest.failf "unanimous r=%d: MC says correct?!" r)
    [ 1; 2 ]

let test_valency_cas () =
  (* mixed-input cas: initially bivalent; after one step univalent *)
  let config = Protocol.initial_config Cas_consensus.protocol ~inputs:[ 0; 1 ] in
  (match Mc.Valency.classify config with
  | Mc.Valency.Bivalent vs ->
      Alcotest.(check (list int)) "both reachable" [ 0; 1 ] (List.sort compare vs)
  | _ -> Alcotest.fail "expected bivalent initial config");
  let config', _ = Run.step config ~pid:0 ~coin:(fun _ -> 0) in
  match Mc.Valency.classify config' with
  | Mc.Valency.Univalent 0 -> ()
  | v ->
      Alcotest.failf "expected 0-univalent after P0's cas, got %s"
        (Mc.Valency.to_string string_of_int v)

let test_valency_unanimous_inputs () =
  let config = Protocol.initial_config Cas_consensus.protocol ~inputs:[ 1; 1 ] in
  match Mc.Valency.classify config with
  | Mc.Valency.Univalent 1 -> ()
  | v -> Alcotest.failf "expected 1-univalent, got %s" (Mc.Valency.to_string string_of_int v)

(* the randomized protocols, explored exhaustively up to a depth bound:
   schedules AND coin outcomes are both adversary choices here, so this is
   strictly stronger than any number of random runs within the bound *)
let test_randomized_bounded_safety () =
  List.iter
    (fun ((p : Protocol.t), depth) ->
      List.iter
        (fun inputs ->
          let config = Protocol.initial_config p ~inputs in
          let result =
            Mc.Explore.search ~max_depth:depth ~max_states:400_000 ~inputs config
          in
          match result.Mc.Explore.violation with
          | Some v ->
              Alcotest.failf "%s inputs=[%s]: %s violation within depth %d"
                p.Protocol.name
                (String.concat ";" (List.map string_of_int inputs))
                (match v.Mc.Explore.kind with
                | `Inconsistent -> "consistency"
                | `Invalid -> "validity")
                depth
          | None -> ())
        [ [ 0; 1 ]; [ 1; 1 ]; [ 0; 0 ] ])
    [ (Fa_consensus.protocol, 18); (Counter_consensus.protocol, 16);
      (Rw_consensus.protocol, 14) ]

let test_visited_counts () =
  let result = search Cas_consensus.protocol ~inputs:[ 0; 1 ] in
  Alcotest.(check bool) "visited some states" true (result.Mc.Explore.visited > 4);
  Alcotest.(check bool) "found leaves" true (result.Mc.Explore.leaves > 0)

(* A depth bound is refused above [max_depth_bound], by both engines and
   before the flat one allocates its depth-indexed path arrays; the bound
   itself is a search like any other. *)
let test_depth_bound () =
  let config () = Protocol.initial_config Cas_consensus.protocol ~inputs:[ 0; 1 ] in
  let bound = Mc.Explore.max_depth_bound in
  List.iter
    (fun state ->
      (match
         Mc.Explore.search ~state ~dedup:`Exact ~max_depth:(bound + 1)
           ~inputs:[ 0; 1 ] (config ())
       with
      | _ -> Alcotest.fail "max_depth above the bound accepted"
      | exception Invalid_argument _ -> ());
      let r =
        Mc.Explore.search ~state ~dedup:`Exact ~max_depth:bound
          ~inputs:[ 0; 1 ] (config ())
      in
      Alcotest.(check bool) "the bound itself searches" true
        (r.Mc.Explore.completeness = `Exhaustive))
    [ `Flat; `Closure ]

let suite =
  [
    Alcotest.test_case "cas exhaustive n=2,3" `Quick test_cas_exhaustive;
    Alcotest.test_case "max_depth above the bound is refused" `Quick
      test_depth_bound;
    Alcotest.test_case "tas2 exhaustive" `Quick test_tas2_exhaustive;
    Alcotest.test_case "swap2 exhaustive" `Quick test_swap2_exhaustive;
    Alcotest.test_case "first-writer refuted" `Quick test_flawed_first_writer_refuted;
    Alcotest.test_case "unanimous refuted" `Quick test_flawed_unanimous_refuted;
    Alcotest.test_case "valency: cas" `Quick test_valency_cas;
    Alcotest.test_case "valency: unanimous inputs" `Quick test_valency_unanimous_inputs;
    Alcotest.test_case "randomized protocols: bounded exhaustive safety" `Slow
      test_randomized_bounded_safety;
    Alcotest.test_case "exploration stats" `Quick test_visited_counts;
  ]
