(* The shared counter as a randomized synchronization primitive: the
   random-walk shared coin (the cursor of Aspnes's Theorem 4.2 algorithm)
   and the full bounded-counter consensus built on it.

     dune exec examples/shared_counter.exe
*)

open Sim
open Objects
open Consensus

let () =
  print_endline "Part 1: the counter random walk as a weak shared coin";
  print_endline "(n flippers push one counter; absorption at +-(k*n))\n";
  List.iter
    (fun n ->
      let agree = ref 0 and flips_acc = ref 0 and runs = 30 in
      for seed = 1 to runs do
        let procs =
          List.init n (fun _ -> Shared_coin.counter_coin ~n ~obj:0 ~k:2)
        in
        let config = Config.make ~optypes:[ Counter.optype () ] ~procs in
        let result = Run.exec ~max_steps:2_000_000 (Sched.random ~seed) config in
        let outputs = Config.decisions result.Run.config in
        flips_acc := !flips_acc + List.length (Trace.coins result.Run.trace);
        if List.length (List.sort_uniq compare outputs) = 1 then incr agree
      done;
      Printf.printf
        "  n=%2d: mean flips per run = %5d, all-agree in %d/%d runs\n" n
        (!flips_acc / runs) !agree runs)
    [ 2; 4; 8; 16 ];
  print_newline ();
  print_endline "Part 2: bounded-counter consensus (Theorem 4.2 shape)";
  print_endline "(two vote counters + one cursor counter, range linear in n)\n";
  List.iter
    (fun n ->
      let steps = ref [] in
      for seed = 1 to 20 do
        let rng = Rng.create (seed * 7) in
        let inputs = List.init n (fun _ -> Rng.int rng 2) in
        let report =
          Protocol.run_once Counter_consensus.protocol ~inputs
            ~sched:(Sched.contention ~seed)
        in
        assert (Checker.ok report.Protocol.verdict);
        steps := float_of_int report.Protocol.result.Run.steps :: !steps
      done;
      let s = Stats.Summary.of_list !steps in
      Printf.printf
        "  n=%2d: objects = %d, steps mean = %6.0f, p90 = %6.0f (20 seeds, all safe)\n"
        n
        (Protocol.space Counter_consensus.protocol ~n)
        s.Stats.Summary.mean s.Stats.Summary.p90)
    [ 2; 4; 8 ];
  print_newline ();
  print_endline
    "Every run is consistent and valid; the counter's bounded range\n\
     [-4n, 4n] is never exercised modulo (the +-3n barriers plus one\n\
     pending move per process of staleness keep the cursor inside)."
