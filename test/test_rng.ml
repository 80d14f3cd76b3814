open Sim

let test_deterministic () =
  let a = Rng.create 42 and b = Rng.create 42 in
  for _ = 1 to 100 do
    Alcotest.(check int) "same stream" (Rng.int a 1000) (Rng.int b 1000)
  done

let test_seeds_differ () =
  let a = Rng.create 1 and b = Rng.create 2 in
  let xs = List.init 20 (fun _ -> Rng.int a 1_000_000) in
  let ys = List.init 20 (fun _ -> Rng.int b 1_000_000) in
  Alcotest.(check bool) "different streams" true (xs <> ys)

let test_range () =
  let rng = Rng.create 7 in
  for _ = 1 to 10_000 do
    let x = Rng.int rng 13 in
    if x < 0 || x >= 13 then Alcotest.failf "out of range: %d" x
  done

let test_uniformity () =
  let rng = Rng.create 11 in
  let buckets = Array.make 10 0 in
  let reps = 100_000 in
  for _ = 1 to reps do
    let x = Rng.int rng 10 in
    buckets.(x) <- buckets.(x) + 1
  done;
  Array.iteri
    (fun i c ->
      let expected = reps / 10 in
      if abs (c - expected) > expected / 5 then
        Alcotest.failf "bucket %d count %d far from %d" i c expected)
    buckets

let test_bool_balance () =
  let rng = Rng.create 3 in
  let trues = ref 0 in
  let reps = 50_000 in
  for _ = 1 to reps do
    if Rng.bool rng then incr trues
  done;
  let ratio = float_of_int !trues /. float_of_int reps in
  if ratio < 0.47 || ratio > 0.53 then
    Alcotest.failf "bool ratio %.3f not near 0.5" ratio

let test_float_range () =
  let rng = Rng.create 5 in
  for _ = 1 to 10_000 do
    let f = Rng.float rng in
    if f < 0.0 || f >= 1.0 then Alcotest.failf "float out of range: %f" f
  done

let test_shuffle_permutes () =
  let rng = Rng.create 9 in
  let arr = Array.init 50 Fun.id in
  let orig = Array.copy arr in
  Rng.shuffle rng arr;
  Alcotest.(check bool) "same multiset" true
    (List.sort compare (Array.to_list arr) = Array.to_list orig);
  Alcotest.(check bool) "actually shuffled" true (arr <> orig)

let test_split_independent () =
  let rng = Rng.create 17 in
  let a = Rng.split rng and b = Rng.split rng in
  let xs = List.init 10 (fun _ -> Rng.int a 1000) in
  let ys = List.init 10 (fun _ -> Rng.int b 1000) in
  Alcotest.(check bool) "split streams differ" true (xs <> ys)

let test_golden_stream () =
  (* pinned SplitMix64 outputs: any change to the generator breaks every
     recorded experiment seed, so it must be deliberate *)
  let rng = Rng.create 42 in
  Alcotest.(check (list int))
    "seed 42 stream"
    [ 637706; 446145; 381929; 127882; 981625; 494531; 812462; 887954 ]
    (List.init 8 (fun _ -> Rng.int rng 1_000_000))

let draws rng k = List.init k (fun _ -> Rng.int rng 1_000_000)

let test_split_after_draw_matches_reference () =
  (* a split consumes exactly one parent draw, so the child derived after
     k draws depends only on the seed and k — the interleaving of child
     consumption with later parent activity is irrelevant *)
  let reference =
    let r = Rng.create 99 in
    ignore (draws r 5);
    let child = Rng.split r in
    draws child 10
  in
  (* same construction, but the parent keeps drawing and splitting before
     the child is ever consumed *)
  let interleaved =
    let r = Rng.create 99 in
    ignore (draws r 5);
    let child = Rng.split r in
    ignore (draws r 7);
    ignore (Rng.split r);
    draws child 10
  in
  Alcotest.(check (list int)) "child stream fixed at split" reference interleaved

let test_split_child_does_not_disturb_parent () =
  let a = Rng.create 123 and b = Rng.create 123 in
  let child_a = Rng.split a and child_b = Rng.split b in
  ignore (draws child_a 50);
  (* consuming child_a heavily must leave parent a in lock-step with b *)
  Alcotest.(check (list int)) "parents in lock-step" (draws b 10) (draws a 10);
  ignore child_b

let test_split_n_matches_sequential_splits () =
  let a = Rng.create 7 and b = Rng.create 7 in
  let children = Rng.split_n a 6 in
  let manual = Array.init 6 (fun _ -> Rng.split b) in
  Array.iteri
    (fun i c ->
      Alcotest.(check (list int))
        (Printf.sprintf "child %d stream" i)
        (draws manual.(i) 5) (draws c 5))
    children;
  (* both parents advanced by exactly 6 draws: next values agree *)
  Alcotest.(check (list int)) "parent state equal" (draws b 5) (draws a 5)

let test_split_n_edge_cases () =
  let r = Rng.create 1 in
  Alcotest.(check int) "zero children" 0 (Array.length (Rng.split_n r 0));
  (match Rng.split_n r (-1) with
  | _ -> Alcotest.fail "negative count must be rejected"
  | exception Invalid_argument _ -> ());
  let children = Rng.split_n (Rng.create 5) 8 in
  let streams = Array.to_list (Array.map (fun c -> draws c 5) children) in
  Alcotest.(check int)
    "pairwise distinct child streams" 8
    (List.length (List.sort_uniq compare streams))

(* [nth_split t k] is the (k+1)-th sequential split, from any parent
   state (after draws too, and at a large index, where the multiplied
   counter wraps as the repeated additions do), and leaves the parent
   where it was *)
let test_nth_split_matches_sequential_splits () =
  List.iter
    (fun (seed, drawn) ->
      let parent = Rng.create seed in
      ignore (draws parent drawn);
      let untouched = Rng.copy parent in
      let sequential = Rng.copy parent in
      for k = 0 to 40 do
        let expected = Rng.split sequential in
        Alcotest.(check (list int))
          (Printf.sprintf "seed %d after %d draws: stream %d" seed drawn k)
          (draws expected 5)
          (draws (Rng.nth_split parent k) 5)
      done;
      let far = Rng.copy parent in
      for _ = 1 to 100_000 do
        ignore (Rng.split far)
      done;
      Alcotest.(check (list int)) "stream 100000"
        (draws (Rng.split far) 5)
        (draws (Rng.nth_split parent 100_000) 5);
      Alcotest.(check (list int)) "parent state unchanged" (draws untouched 5)
        (draws parent 5))
    [ (1, 0); (42, 3); (-7, 17) ];
  match Rng.nth_split (Rng.create 1) (-1) with
  | _ -> Alcotest.fail "negative index must be rejected"
  | exception Invalid_argument _ -> ()

let test_copy_is_independent () =
  let a = Rng.create 31 in
  ignore (draws a 3);
  let b = Rng.copy a in
  Alcotest.(check (list int)) "copy replays" (draws a 10) (draws b 10)

let suite =
  [
    Alcotest.test_case "deterministic by seed" `Quick test_deterministic;
    Alcotest.test_case "seeds differ" `Quick test_seeds_differ;
    Alcotest.test_case "int range" `Quick test_range;
    Alcotest.test_case "uniformity" `Quick test_uniformity;
    Alcotest.test_case "bool balance" `Quick test_bool_balance;
    Alcotest.test_case "float range" `Quick test_float_range;
    Alcotest.test_case "shuffle permutes" `Quick test_shuffle_permutes;
    Alcotest.test_case "split independent" `Quick test_split_independent;
    Alcotest.test_case "golden stream (seed 42)" `Quick test_golden_stream;
    Alcotest.test_case "split-after-draw reference" `Quick
      test_split_after_draw_matches_reference;
    Alcotest.test_case "child does not disturb parent" `Quick
      test_split_child_does_not_disturb_parent;
    Alcotest.test_case "split_n = sequential splits" `Quick
      test_split_n_matches_sequential_splits;
    Alcotest.test_case "split_n edge cases" `Quick test_split_n_edge_cases;
    Alcotest.test_case "nth_split = sequential splits" `Quick
      test_nth_split_matches_sequential_splits;
    Alcotest.test_case "copy independent" `Quick test_copy_is_independent;
  ]
