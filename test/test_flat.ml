(* Differential suite for the flat slab engines.  Three engine pairs
   must be observationally identical: the [`Flat] model-checking DFS
   against the closure reference (witness traces, verdicts, and every
   node/table counter), the [Interned] harness step engine against the
   closure walker (full outcomes, including drain-probe verdicts and
   crash bookkeeping), and the [`Flat] fuzz scenarios against their
   [`Closure] twins (same seed, same report, same replay verdict).
   Counter equality is the sharp edge: a transposition table that
   aliased its scratch key, or an intern id that conflated two
   consumed-histories, shows up here long before it corrupts a
   verdict. *)

open Consensus

let project (r : _ Mc.Explore.result) =
  ( (match r.violation with
    | None -> None
    | Some v ->
        Some
          ( (match v.kind with
            | `Inconsistent -> "inconsistent"
            | `Invalid -> "invalid"),
            Sim.Trace.to_string string_of_int v.trace )),
    r.visited,
    r.leaves,
    r.truncated,
    Robust.Budget.completeness_to_string r.completeness,
    r.max_depth_seen,
    r.table_hits,
    r.table_misses )

let smallest_n (p : Protocol.t) =
  let rec go n =
    if n > 8 then invalid_arg p.name
    else if p.supports_n n then n
    else go (n + 1)
  in
  go 2

let dedups = [ ("off", `Off); ("exact", `Exact); ("symmetric", `Symmetric) ]

(* Every registry protocol under every dedup mode: same witness trace,
   same verdict, same visited/leaves/table counters.  [max_states]
   truncation is deterministic (first k preorder nodes), so bounded
   searches compare exactly too.  An [identical] protocol also runs at
   inputs 0,1,0, where processes 0 and 2 share a root: [`Symmetric]
   sorts state ids only there (at 0,1 it keys exactly like [`Exact]),
   so both keyings meet the referee. *)
let test_search_registry_differential () =
  let check (p : Protocol.t) inputs =
    let n = List.length inputs in
    List.iter
      (fun (dname, dedup) ->
        let run state =
          project
            (Mc.Explore.search ~state ~dedup ~max_depth:9 ~max_states:20_000
               ~inputs:[ 0; 1 ]
               (Protocol.initial_config p ~inputs))
        in
        Alcotest.(check bool)
          (Printf.sprintf "%s n=%d %s: flat = closure" p.name n dname)
          true
          (run `Flat = run `Closure))
      dedups
  in
  List.iter
    (fun (p : Protocol.t) ->
      check p (List.init (smallest_n p) (fun i -> i land 1));
      if p.identical && p.supports_n 3 then begin
        let inputs = [ 0; 1; 0 ] in
        let flat =
          Sim.Flat.of_config ~roots:Sim.Flat.By_fp
            (Protocol.initial_config p ~inputs)
        in
        Alcotest.(check bool)
          (p.name ^ " 0,1,0: processes 0 and 2 share a root")
          true
          (Sim.Flat.sid flat 0 = Sim.Flat.sid flat 2);
        check p inputs
      end)
    Registry.all

(* The key-immutability regression (the packed table copies keys on
   insert; closure keys share arrays only with persistent configs).
   Searching the same physical configuration flat-then-closure-again
   must leave the configuration untouched and reproduce the first
   closure result bit for bit — if the flat DFS leaked mutation into
   the config, or a table entry aliased live scratch state, one of the
   three comparisons below breaks. *)
let test_key_immutability () =
  let p = Cas_consensus.protocol in
  let config = Protocol.initial_config p ~inputs:[ 0; 1; 1 ] in
  let objs0 = Array.copy config.Sim.Config.objects in
  let fps0 = Array.copy config.Sim.Config.fps in
  let run state =
    project
      (Mc.Explore.search ~state ~dedup:`Exact ~max_depth:10 ~inputs:[ 0; 1 ]
         config)
  in
  let closure1 = run `Closure in
  let flat = run `Flat in
  let closure2 = run `Closure in
  Alcotest.(check bool) "objects untouched" true
    (Array.for_all2 Sim.Value.equal objs0 config.Sim.Config.objects);
  Alcotest.(check bool) "fps untouched" true (fps0 = config.Sim.Config.fps);
  Alcotest.(check bool) "closure reproducible after flat" true
    (closure1 = closure2);
  Alcotest.(check bool) "flat = closure" true (flat = closure1)

(* Flattening a closure run's final configuration vs replaying its
   recorded schedule on the slab: per-slot fingerprints and decisions
   must coincide (the slab's ids refine fingerprints, never disagree
   with them). *)
let test_fingerprint_parity () =
  List.iter
    (fun seed ->
      let p = Counter_consensus.protocol in
      let config = Protocol.initial_config p ~inputs:[ 0; 1; 0 ] in
      let r = Sim.Run.exec ~max_steps:400 (Sim.Sched.random ~seed) config in
      let script = Fuzz.Schedule.of_trace r.Sim.Run.trace in
      let flat = Sim.Flat.of_config ~roots:Sim.Flat.Per_slot config in
      let fr = Sim.Flat_run.exec_script ~script flat in
      let final = r.Sim.Run.config in
      Alcotest.(check (list int))
        (Printf.sprintf "decisions seed=%d" seed)
        (Sim.Config.decisions final)
        (Sim.Flat.decisions fr.Sim.Flat_run.flat);
      Array.iteri
        (fun pid fp ->
          Alcotest.(check int)
            (Printf.sprintf "fp pid=%d seed=%d" pid seed)
            fp
            (Sim.Flat.fingerprint fr.Sim.Flat_run.flat pid))
        final.Sim.Config.fps)
    [ 1; 7; 42 ]

(* Interned harness engine vs the closure walker: identical outcomes —
   history, realized pids, crash and stuck sets — across schedule
   families (random, starving, and the fixed pid lists with crash points
   that lin fuzz scenarios drive), crash injections, coin-flipping
   procedures and the drain probe.  One shared runtime per
   implementation across all runs, as production uses it. *)
let test_harness_engine_differential () =
  let counter_ops = Objects.Counter.[ inc; dec; read ] in
  let impls =
    [
      ("collect", Objimpl.Counters.collect, 3, counter_ops);
      ("snapshot", Objimpl.Counters.snapshot, 3, counter_ops);
      ("locked", Objimpl.Locked_counter.locked, 3, counter_ops);
      ("leaky", Objimpl.Locked_counter.leaky, 3, counter_ops);
      ( "tas-rand",
        Objimpl.Tas_rand.implementation,
        2,
        Objects.Test_and_set.[ test_and_set; read ] );
      ( "consensus-swap",
        Objimpl.Consensus_obj.implementation,
        2,
        Objects.Sticky.[ propose_int 7; propose_int 9; read ] );
    ]
  in
  List.iter
    (fun (iname, impl, n, ops) ->
      let rt = Objimpl.Harness.runtime impl ~n in
      let check_run tag schedule ~coin_seed ~crashes ~probe ~seed =
        let go engine =
          Objimpl.Harness.run ~engine ~rt impl ~n
            ~workload:
              (Objimpl.Harness.random_workload ~n ~calls:4 ~ops ~seed)
            ~schedule ~coin_seed ~max_steps:2_000 ~crashes ~probe ()
        in
        Alcotest.(check bool)
          (Printf.sprintf "%s %s seed=%d" iname tag seed)
          true
          (go Objimpl.Harness.Interned = go Objimpl.Harness.Closure)
      in
      List.iter
        (fun seed ->
          check_run "random"
            (Objimpl.Harness.Random_sched seed)
            ~coin_seed:0 ~crashes:[] ~probe:true ~seed;
          check_run "starving"
            (Objimpl.Harness.Starving { victim = 1; seed; len = 200 })
            ~coin_seed:seed ~crashes:[] ~probe:true ~seed;
          check_run "crashing"
            (Objimpl.Harness.Random_sched seed)
            ~coin_seed:0
            ~crashes:[ (7, 0); (31, n - 1) ]
            ~probe:true ~seed;
          (* pid [n] is out of range: the entry ticks the crash clock
             without stepping anyone *)
          let pids =
            let rng = Sim.Rng.create (seed * 7919) in
            List.init 150 (fun _ -> Sim.Rng.int rng (n + 1))
          in
          check_run "fixed"
            (Objimpl.Harness.Fixed pids)
            ~coin_seed:seed ~crashes:[] ~probe:true ~seed;
          check_run "fixed crashing"
            (Objimpl.Harness.Fixed pids)
            ~coin_seed:seed
            ~crashes:[ (9, n - 1); (60, 0) ]
            ~probe:true ~seed)
        [ 1; 2; 3; 4; 5 ])
    impls

(* A runtime carries one implementation's procedures: handing it a
   different implementation with the same [n] must be refused, not
   silently run the runtime's own procedures. *)
let test_harness_runtime_impl_mismatch () =
  let n = 3 in
  let rt = Objimpl.Harness.runtime Objimpl.Counters.collect ~n in
  match
    Objimpl.Harness.run ~engine:Objimpl.Harness.Interned ~rt
      Objimpl.Counters.snapshot ~n
      ~workload:[ (0, [ Objects.Counter.inc ]) ]
      ~schedule:(Objimpl.Harness.Random_sched 1) ()
  with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "runtime for another implementation was accepted"

(* Fuzz scenarios: same seed, same drawn kind, identical run report
   (schedule + violation + steps) and identical replay verdict under
   both engines — consensus, linearizability (incl. the planted
   deadlock and the crashing kind), and a registry protocol routed
   through [find]. *)
let test_fuzz_engine_parity () =
  let names =
    [
      "flawed";
      "cas-1";
      "counter-3";
      "lin-collect-counter";
      "lin-consensus-swap";
      "lin-tas-rand";
      "lin-stuck-counter";
    ]
  in
  List.iter
    (fun name ->
      let sc e = Result.get_ok (Fuzz.Scenario.find ~engine:e name) in
      let c = sc `Closure and f = sc `Flat in
      let rc = Sim.Rng.create 42 and rf = Sim.Rng.create 42 in
      for i = 1 to 200 do
        let kc = Fuzz.Scenario.pick_kind Fuzz.Scenario.default_weights rc in
        let kf = Fuzz.Scenario.pick_kind Fuzz.Scenario.default_weights rf in
        Alcotest.(check string)
          (Printf.sprintf "%s kind %d" name i)
          (Fuzz.Scenario.kind_name kc)
          (Fuzz.Scenario.kind_name kf);
        let a = c.Fuzz.Scenario.gen rc kc in
        let b = f.Fuzz.Scenario.gen rf kf in
        Alcotest.(check bool)
          (Printf.sprintf "%s gen %d" name i)
          true (a = b);
        Alcotest.(check bool)
          (Printf.sprintf "%s replay %d" name i)
          true
          (c.Fuzz.Scenario.replay a.Fuzz.Scenario.schedule
          = f.Fuzz.Scenario.replay a.Fuzz.Scenario.schedule)
      done)
    names

let suite =
  [
    Alcotest.test_case "search: registry-wide flat = closure" `Quick
      test_search_registry_differential;
    Alcotest.test_case "search: key immutability under `Exact" `Quick
      test_key_immutability;
    Alcotest.test_case "flat fingerprints/decisions = closure replay" `Quick
      test_fingerprint_parity;
    Alcotest.test_case "harness: interned = closure outcomes" `Quick
      test_harness_engine_differential;
    Alcotest.test_case "harness: runtime refuses another implementation"
      `Quick test_harness_runtime_impl_mismatch;
    Alcotest.test_case "fuzz: flat = closure gen/replay" `Quick
      test_fuzz_engine_parity;
  ]
