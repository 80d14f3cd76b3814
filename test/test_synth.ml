(* The CEGIS synthesis loop: frontier goldens for both object styles,
   the soundness property that makes lemma pruning admissible (identical
   verdicts with the pool disabled), provenance of every pooled lemma,
   and the registry/codec round-trip of synthesized protocols. *)

module D = Consensus.Dtree
module Cegis = Synth.Cegis
module Lemma = Synth.Lemma

let search ?prune ?(procs = 4) ~style ~depth () =
  Cegis.search ?prune ~style ~registers:1 ~depth ~coins:false
    ~max_procs:procs ~seed:1 ()

let verdict_str (row : Cegis.row) = Cegis.verdict_to_string row.Cegis.verdict

(* rw registers, depth 1: consensus is impossible already at n = 2, and
   the loop proves it exhaustively over one pair per mirror orbit of
   E12's 49: (7 x 7 + 7) / 2 = 28 *)
let test_rw_depth1_frontier () =
  let r = search ~style:D.Rw ~depth:1 () in
  Alcotest.(check int) "trees" 14 r.Cegis.trees;
  Alcotest.(check int) "solo-valid 0 side" 7 r.Cegis.valid0;
  Alcotest.(check int) "solo-valid 1 side" 7 r.Cegis.valid1;
  Alcotest.(check int) "frontier" 1 r.Cegis.frontier;
  Alcotest.(check string) "exhaustive" "exhaustive"
    (Robust.Budget.completeness_to_string r.Cegis.completeness);
  match r.Cegis.rows with
  | [ row ] ->
      Alcotest.(check int) "one round stops at n=2" 2 row.Cegis.n;
      Alcotest.(check string) "unsatisfiable" "unsatisfiable" (verdict_str row);
      Alcotest.(check int) "all 28 orbits examined" 28 row.Cegis.candidates;
      Alcotest.(check int) "every pair rejected" 28
        (row.Cegis.pruned + row.Cegis.refuted);
      Alcotest.(check bool) "no witness" true (row.Cegis.witness = None)
  | rows -> Alcotest.failf "expected exactly one row, got %d" (List.length rows)

(* swap registers, depth 1: the one-swap adopt-the-first protocol solves
   n = 2 (consensus number 2, Ovens 2023) and nothing in the class
   survives n = 3 — the frontier the synthesizer must rediscover *)
let test_swap_depth1_frontier () =
  let r = search ~style:D.Swapping ~depth:1 ~procs:5 () in
  Alcotest.(check int) "frontier" 2 r.Cegis.frontier;
  Alcotest.(check string) "exhaustive" "exhaustive"
    (Robust.Budget.completeness_to_string r.Cegis.completeness);
  (match r.Cegis.rows with
  | [ row2; row3 ] ->
      Alcotest.(check string) "n=2 satisfiable" "satisfiable"
        (verdict_str row2);
      Alcotest.(check string) "n=3 unsatisfiable" "unsatisfiable"
        (verdict_str row3);
      Alcotest.(check bool) "n=2 witness present" true
        (row2.Cegis.witness <> None)
  | rows ->
      Alcotest.failf "expected rows for n=2 and n=3, got %d"
        (List.length rows));
  (* the witness really is a correct 2-process protocol: its mixed
     vector verifies exhaustively through the independent checker *)
  let row2 = List.hd r.Cegis.rows in
  let t0, t1 = Option.get row2.Cegis.witness in
  (match
     Mc.Enumerate.dtree_check_verdict ~style:D.Swapping ~registers:1 (t0, t1)
       [ 0; 1 ]
   with
  | `Correct -> ()
  | `Violating _ -> Alcotest.fail "witness violates on inputs 0,1"
  | `Unknown _ -> Alcotest.fail "witness check truncated");
  (* and violates at n = 3, consistently with the unsatisfiable row *)
  match
    Mc.Enumerate.dtree_check_verdict ~style:D.Swapping ~registers:1 (t0, t1)
      [ 0; 1; 1 ]
  with
  | `Violating _ -> ()
  | `Correct -> Alcotest.fail "witness should fail at n=3"
  | `Unknown _ -> Alcotest.fail "witness n=3 check truncated"

(* the synthesized name is a live registry entry: find resolves it, the
   protocol round-trips through its own name, and mc can check it *)
let test_registry_round_trip () =
  let r = search ~style:D.Swapping ~depth:1 ~procs:3 () in
  let row2 = List.hd r.Cegis.rows in
  let name = Option.get (Cegis.witness_name r row2) in
  match Consensus.Registry.find name with
  | None -> Alcotest.failf "registry cannot resolve %s" name
  | Some p ->
      Alcotest.(check string) "name round-trips" name
        p.Consensus.Protocol.name;
      Alcotest.(check bool) "identical processes" true
        p.Consensus.Protocol.identical;
      (* checked end-to-end by the generic model checker, like any
         packaged protocol *)
      let config = Consensus.Protocol.initial_config p ~inputs:[ 0; 1 ] in
      let result = Mc.Explore.search ~inputs:[ 0; 1 ] config in
      Alcotest.(check bool) "mc finds no violation" true
        (result.Mc.Explore.violation = None);
      let bad = Consensus.Protocol.initial_config p ~inputs:[ 0; 1; 1 ] in
      let result = Mc.Explore.search ~inputs:[ 0; 1; 1 ] bad in
      Alcotest.(check bool) "mc violates at n=3" true
        (result.Mc.Explore.violation <> None)

(* every pooled lemma must hit its own source: the pool only ever holds
   replayable counterexamples, which is the whole soundness argument *)
let test_lemma_provenance () =
  List.iter
    (fun (style, procs) ->
      let r = search ~style ~depth:1 ~procs () in
      Alcotest.(check bool) "pool is non-empty" true (r.Cegis.lemmas <> []);
      List.iter
        (fun (l : Lemma.t) ->
          match Consensus.Registry.find l.Lemma.source with
          | None -> Alcotest.failf "lemma source %s unresolvable" l.Lemma.source
          | Some p ->
              Alcotest.(check bool)
                (Printf.sprintf "lemma from %s hits its source"
                   l.Lemma.source)
                true (Lemma.hits l p))
        r.Cegis.lemmas)
    [ (D.Rw, 4); (D.Swapping, 5) ]

(* pruning is an optimization, not an oracle: with the pool disabled
   every row must reach the same verdict, witness and frontier (pruned
   candidates are simply paid for as refutations instead) *)
let test_prune_soundness () =
  List.iter
    (fun style ->
      let project (r : Cegis.result) =
        ( r.Cegis.frontier,
          Robust.Budget.completeness_to_string r.Cegis.completeness,
          List.map
            (fun (row : Cegis.row) ->
              ( row.Cegis.n,
                verdict_str row,
                row.Cegis.candidates,
                Option.map D.to_string (Option.map fst row.Cegis.witness),
                Option.map D.to_string (Option.map snd row.Cegis.witness) ))
            r.Cegis.rows )
      in
      let pruned = project (search ~style ~depth:1 ~procs:4 ()) in
      let unpruned = project (search ~prune:false ~style ~depth:1 ~procs:4 ()) in
      Alcotest.(check bool)
        "same rows, verdicts and witnesses without the pool" true
        (pruned = unpruned);
      let _, _, rows = pruned in
      List.iter
        (fun (n, _, _, _, _) -> Alcotest.(check bool) "n >= 2" true (n >= 2))
        rows)
    [ D.Rw; D.Swapping ]

(* the lemma text codec round-trips the pool the search actually built *)
let test_lemma_codec_round_trip () =
  let r = search ~style:D.Swapping ~depth:1 ~procs:5 () in
  let text = Lemma.to_text r.Cegis.lemmas in
  let back = Lemma.of_text text in
  Alcotest.(check int) "pool size survives" (List.length r.Cegis.lemmas)
    (List.length back);
  Alcotest.(check bool) "pool round-trips structurally" true
    (back = r.Cegis.lemmas);
  Alcotest.(check string) "re-encoding is byte-identical" text
    (Lemma.to_text back)

(* The pool prunes through [Lemma.hits_pair], whose tree kernel
   ([Dtree.replay] over a compiled schedule) shares its step semantics
   with [Dtree.to_proc] but restates [Run.exec_script]'s scheduling
   rules; these differential tests compare it with [Lemma.hits] on the
   compiled protocol over every (pair, lemma) the search replays and
   beyond. *)
let pool_mismatches ~style ~registers pool pairs =
  let pool = List.map Lemma.compile pool in
  List.fold_left
    (fun (replays, bad) pair ->
      let p = D.protocol ~style ~registers pair in
      List.fold_left
        (fun (replays, bad) (c : Lemma.compiled) ->
          ( replays + 1,
            if Lemma.hits_pair ~registers c pair = Lemma.hits c.Lemma.lemma p
            then bad
            else bad + 1 ))
        (replays, bad) pool)
    (0, 0) pairs

let check_mismatches what (replays, bad) =
  Alcotest.(check bool) (what ^ ": replays compared") true (replays > 0);
  Alcotest.(check int) (Printf.sprintf "%s: mismatches in %d" what replays) 0
    bad

(* every depth-1 pair of each style against that style's own pool *)
let test_kernel_depth1 () =
  List.iter
    (fun (what, style, coins, procs) ->
      let r =
        Cegis.search ~style ~registers:1 ~depth:1 ~coins ~max_procs:procs
          ~seed:1 ()
      in
      let trees = Mc.Enumerate.enumerate_dtrees ~style ~registers:1 ~coins 1 in
      let pairs =
        List.concat_map (fun t0 -> List.map (fun t1 -> (t0, t1)) trees) trees
      in
      check_mismatches what
        (pool_mismatches ~style ~registers:1 r.Cegis.lemmas pairs))
    [
      ("rw", D.Rw, false, 4);
      ("rw+coins", D.Rw, true, 3);
      ("swap", D.Swapping, false, 5);
    ]

(* 10^4 seeded depth-2 rw pairs against the depth-2 pool *)
let test_kernel_depth2 () =
  let r =
    Cegis.search
      ~budget:(Robust.Budget.make ~nodes:25_000 ())
      ~style:D.Rw ~registers:1 ~depth:2 ~coins:false ~max_procs:3 ~seed:1 ()
  in
  Alcotest.(check int) "depth-2 pool" 71 (List.length r.Cegis.lemmas);
  let trees =
    Array.of_list
      (Mc.Enumerate.enumerate_dtrees ~style:D.Rw ~registers:1 ~coins:false 2)
  in
  let rng = Random.State.make [| 2 |] in
  let pick () = trees.(Random.State.int rng (Array.length trees)) in
  let pairs = List.init 10_000 (fun _ -> (pick (), pick ())) in
  check_mismatches "rw depth 2"
    (pool_mismatches ~style:D.Rw ~registers:1 r.Cegis.lemmas pairs)

(* The kernel's verdict read-out ([Dtree.replay_violates]) against its
   referee: the [Checker] verdict on the decisions [Dtree.replay] reads
   off the same run. *)
let violates ~inputs decisions =
  not (Sim.Checker.ok (Sim.Checker.check ~inputs ~decisions))

(* Pools hold recorded traces, which never crash a process, name a bad
   pid or miss a coin; seeded scripts do, so every skip and fallback rule
   of [exec_script] — and [max_steps] — is compared on the decisions
   themselves, and the verdict on them, for coin-flipping trees of both
   styles. *)
let test_kernel_scripts () =
  let rng = Random.State.make [| 3 |] in
  let int lo hi = lo + Random.State.int rng (hi - lo + 1) in
  let bad = ref 0 in
  let runs = ref 0 in
  List.iter
    (fun (style, registers, depth) ->
      let trees =
        Array.of_list
          (Mc.Enumerate.enumerate_dtrees ~style ~registers ~coins:true depth)
      in
      let pick () = trees.(Random.State.int rng (Array.length trees)) in
      for _ = 1 to 3_000 do
        let n = int 1 3 in
        let inputs = List.init n (fun _ -> int 0 1) in
        let script =
          List.init (int 0 10) (fun _ ->
              let pid = int (-1) n in
              if int 0 5 = 0 then `Crash pid
              else
                `Step
                  ( pid,
                    match int 0 4 with
                    | 0 -> None
                    | k -> Some (k - 2) (* -1, 0, 1, 2 *) ))
        in
        let max_steps = if int 0 2 = 0 then int 0 3 else 100_000 in
        let pair = (pick (), pick ()) in
        let config =
          Consensus.Protocol.initial_config
            (D.protocol ~style ~registers pair)
            ~inputs
        in
        let generic =
          Sim.Config.decisions
            (Sim.Run.exec_script ~max_steps ~script config).Sim.Run.config
        in
        incr runs;
        let sched = D.compile script in
        let decisions = D.replay ~max_steps ~registers pair ~inputs sched in
        if decisions <> generic then incr bad;
        if
          D.replay_violates ~max_steps ~registers pair ~inputs sched
          <> violates ~inputs decisions
        then incr bad
      done)
    [ (D.Rw, 2, 1); (D.Swapping, 2, 1); (D.Rw, 1, 2) ];
  Alcotest.(check int) (Printf.sprintf "mismatches in %d scripts" !runs) 0 !bad

(* The scheduling layer is the one part of [Dtree.replay] that restates
   [Run.exec_script] — the tree semantics is shared with [Dtree.to_proc]
   — so it is pinned exhaustively: every depth-1 pair of both styles,
   coins included, on every script of up to two entries over pids out
   of range, bad coins and crashes.  [hits_pair] must equal [hits], and
   the decisions, and the verdict read off them, must agree under
   [max_steps] 0, 1 and the default. *)
let kernel_alphabet =
  [ `Step (-1, None); `Step (2, None); `Crash (-1); `Crash 2; `Crash 0; `Crash 1 ]
  @ List.concat_map
      (fun pid ->
        List.map
          (fun coin -> `Step (pid, coin))
          [ None; Some 0; Some 1; Some 2; Some (-1) ])
      [ 0; 1 ]

let rec scripts_upto len =
  if len = 0 then [ [] ]
  else
    []
    :: List.concat_map
         (fun e -> List.map (fun s -> e :: s) (scripts_upto (len - 1)))
         kernel_alphabet

let test_kernel_exhaustive () =
  let inputs = [ 0; 1 ] in
  let scripts = scripts_upto 2 in
  let runs = ref 0 and bad = ref 0 in
  List.iter
    (fun style ->
      let trees =
        Mc.Enumerate.enumerate_dtrees ~style ~registers:1 ~coins:true 1
      in
      List.iter
        (fun t0 ->
          List.iter
            (fun t1 ->
              let pair = (t0, t1) in
              let p = D.protocol ~style ~registers:1 pair in
              let config = Consensus.Protocol.initial_config p ~inputs in
              List.iter
                (fun script ->
                  let lemma = { Lemma.source = ""; inputs; schedule = script } in
                  let c = Lemma.compile lemma in
                  incr runs;
                  if Lemma.hits_pair ~registers:1 c pair <> Lemma.hits lemma p
                  then incr bad;
                  List.iter
                    (fun max_steps ->
                      let generic =
                        Sim.Config.decisions
                          (Sim.Run.exec_script ~max_steps ~script config)
                            .Sim.Run.config
                      in
                      let decisions =
                        D.replay ~max_steps ~registers:1 pair ~inputs
                          c.Lemma.sched
                      in
                      if decisions <> generic then incr bad;
                      if
                        D.replay_violates ~max_steps ~registers:1 pair ~inputs
                          c.Lemma.sched
                        <> violates ~inputs decisions
                      then incr bad)
                    [ 0; 1; 100_000 ])
                scripts)
            trees)
        trees)
    [ D.Rw; D.Swapping ];
  Alcotest.(check int) (Printf.sprintf "mismatches in %d scripts" !runs) 0 !bad

(* The committed rw depth-2 pools, each lemma as recorded and perturbed
   the ways a recorded trace never is: steps of out-of-range and
   negative pids (two too large to shift into a compiled entry, one of
   which would shift to pid 0), bad coins, crashes of processes that
   may already have decided or crashed, and [max_steps] cuts.  Against
   seeded pairs of the pool's own class, [hits_pair] must equal [hits]
   on every variant, and the kernel's decisions and verdict must equal
   [exec_script]'s under the cut. *)
let test_kernel_pools () =
  let rng = Random.State.make [| 36 |] in
  let int lo hi = lo + Random.State.int rng (hi - lo + 1) in
  let runs = ref 0 and hits = ref 0 and bad = ref 0 in
  let variants (l : Lemma.t) =
    let n = List.length l.Lemma.inputs in
    let insert e sched =
      let k = int 0 (List.length sched) in
      List.filteri (fun i _ -> i < k) sched
      @ (e :: List.filteri (fun i _ -> i >= k) sched)
    in
    let bad_coin = function
      | `Step (pid, _) -> `Step (pid, Some (if int 0 1 = 0 then 2 else -1))
      | e -> e
    in
    let sched = l.Lemma.schedule in
    [
      sched;
      insert (`Step (n, Some 1)) (insert (`Step (-1, None)) sched);
      insert (`Step (max_int, None)) (insert (`Crash (-3)) sched);
      insert (`Step (1 lsl 61, Some 1)) (insert (`Crash (1 lsl 61)) sched);
      List.map bad_coin sched;
      sched @ List.init n (fun pid -> `Crash pid);
      insert (`Crash (int 0 (n - 1))) (insert (`Crash (int 0 (n - 1))) sched);
    ]
  in
  List.iter
    (fun (file, coins) ->
      let pool =
        Lemma.load ~path:(Test_util.beside_test ("golden/" ^ file))
      in
      let trees =
        Array.of_list
          (Mc.Enumerate.enumerate_dtrees ~style:D.Rw ~registers:1 ~coins 2)
      in
      let pick () = trees.(Random.State.int rng (Array.length trees)) in
      for _ = 1 to 100 do
        let pair = (pick (), pick ()) in
        let p = D.protocol ~style:D.Rw ~registers:1 pair in
        List.iter
          (fun (l : Lemma.t) ->
            let inputs = l.Lemma.inputs in
            let config = Consensus.Protocol.initial_config p ~inputs in
            List.iter
              (fun script ->
                let lemma = { l with Lemma.schedule = script } in
                let c = Lemma.compile lemma in
                incr runs;
                let hit = Lemma.hits lemma p in
                if hit then incr hits;
                if Lemma.hits_pair ~registers:1 c pair <> hit then incr bad;
                let max_steps =
                  if int 0 1 = 0 then int 0 (List.length script) else 100_000
                in
                let decisions =
                  D.replay ~max_steps ~registers:1 pair ~inputs c.Lemma.sched
                in
                if
                  decisions
                  <> Sim.Config.decisions
                       (Sim.Run.exec_script ~max_steps ~script config)
                         .Sim.Run.config
                then incr bad;
                if
                  D.replay_violates ~max_steps ~registers:1 pair ~inputs
                    c.Lemma.sched
                  <> violates ~inputs decisions
                then incr bad)
              (variants l))
          pool
      done)
    [ ("synth-rw-d2.lemmas", false); ("synth-rw-d2-coins.lemmas", true) ];
  Alcotest.(check bool) "some replays hit" true (!hits > 0);
  Alcotest.(check int) (Printf.sprintf "mismatches in %d replays" !runs) 0 !bad

(* a node budget yields an unknown row and a truncated completeness —
   never a silently under-approximated unsatisfiable *)
let test_budget_trips_loudly () =
  let budget = Robust.Budget.make ~nodes:3 () in
  let r =
    Cegis.search ~budget ~style:D.Rw ~registers:1 ~depth:1 ~coins:false
      ~max_procs:4 ~seed:1 ()
  in
  Alcotest.(check int) "frontier stays at the verified floor" 1
    r.Cegis.frontier;
  (match r.Cegis.completeness with
  | `Truncated `Nodes -> ()
  | c ->
      Alcotest.failf "expected truncated (nodes), got %s"
        (Robust.Budget.completeness_to_string c));
  match r.Cegis.rows with
  | [ row ] -> (
      match row.Cegis.verdict with
      | `Unknown `Nodes -> ()
      | v -> Alcotest.failf "expected unknown:nodes row, got %s"
               (Cegis.verdict_to_string v))
  | rows -> Alcotest.failf "expected one row, got %d" (List.length rows)

(* CEGIS's rounds against the brute-force census ([Census_referee]):
   unanimity counts, verdicts and witnesses, n by n.  The census sweeps
   every pair with the model checker alone; CEGIS sweeps one pair per
   mirror orbit through its refuter pipeline, so this pins the mirror
   reduction (the witness must still be the first correct pair over all
   pairs) as well as the pipeline. *)
let check_rounds ~style ~registers ~coins ~depth ~max_procs =
  let cls = { Census_referee.style; registers; coins; depth } in
  let what =
    Printf.sprintf "%s r%d d%d coins %b" (D.style_to_string style) registers
      depth coins
  in
  let r =
    Cegis.search ~style ~registers ~depth ~coins ~max_procs ~seed:1 ()
  in
  let show (n, u0, u1, w) =
    Printf.sprintf "n=%d %d/%d %s" n u0 u1
      (match w with
      | None -> "unsatisfiable"
      | Some pair -> D.protocol_name ~style ~registers pair)
  in
  Alcotest.(check (list string))
    (what ^ ": rounds")
    (List.map show (Census_referee.rounds cls ~max_procs))
    (List.map
       (fun (row : Cegis.row) ->
         show (row.n, row.unanimous0, row.unanimous1, row.witness))
       r.Cegis.rows);
  List.iter
    (fun (row : Cegis.row) ->
      Alcotest.(check string)
        (Printf.sprintf "%s n=%d verdict" what row.n)
        (if row.witness = None then "unsatisfiable" else "satisfiable")
        (verdict_str row))
    r.Cegis.rows

(* every depth-1 class: both styles, one and two registers, with and
   without coins *)
let test_rounds_depth1 () =
  List.iter
    (fun (style, registers, coins) ->
      check_rounds ~style ~registers ~coins ~depth:1 ~max_procs:4)
    [
      (D.Rw, 1, false);
      (D.Rw, 1, true);
      (D.Rw, 2, false);
      (D.Rw, 2, true);
      (D.Swapping, 1, false);
      (D.Swapping, 1, true);
      (D.Swapping, 2, false);
      (D.Swapping, 2, true);
    ]

(* rw depth 2: the census checks all 1,418,481 pairs at n = 2 *)
let test_rounds_rw_depth2 () =
  check_rounds ~style:D.Rw ~registers:1 ~coins:false ~depth:2 ~max_procs:3

let suite =
  [
    Alcotest.test_case "rw depth-1 frontier: impossible at n=2" `Quick
      test_rw_depth1_frontier;
    Alcotest.test_case "swap depth-1 frontier: n=2" `Quick
      test_swap_depth1_frontier;
    Alcotest.test_case "synthesized protocol registry round-trip" `Quick
      test_registry_round_trip;
    Alcotest.test_case "every pooled lemma hits its source" `Quick
      test_lemma_provenance;
    Alcotest.test_case "pruning never changes verdicts" `Quick
      test_prune_soundness;
    Alcotest.test_case "lemma codec round-trip" `Quick
      test_lemma_codec_round_trip;
    Alcotest.test_case "budget trips loudly" `Quick test_budget_trips_loudly;
    Alcotest.test_case "tree kernel = exec_script: depth-1 pools" `Quick
      test_kernel_depth1;
    Alcotest.test_case "tree kernel = exec_script: depth-2 pool" `Quick
      test_kernel_depth2;
    Alcotest.test_case "tree kernel = exec_script: seeded scripts" `Quick
      test_kernel_scripts;
    Alcotest.test_case "tree kernel = exec_script: every short script" `Quick
      test_kernel_exhaustive;
    Alcotest.test_case "tree kernel = exec_script: committed d2 pools" `Quick
      test_kernel_pools;
    Alcotest.test_case "rounds = brute-force census: depth 1" `Quick
      test_rounds_depth1;
    Alcotest.test_case "rounds = brute-force census: rw depth 2" `Quick
      test_rounds_rw_depth2;
  ]
