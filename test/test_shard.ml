(* Differential suite for the sharded out-of-core engine ([Mc.Shard]),
   pinning its contract against the sequential referee (DESIGN.md §4j):

   - violation verdict and witness: identical to the closure referee
     [Explore.search ~state:`Closure] for every registry protocol, dedup
     mode, shard count and job count (violating drains delegate to the referee, so this holds
     field for field on flawed protocols);
   - under [`Off] on violation-free runs with non-binding caps: every
     result field identical (both engines count exactly the choice-tree
     nodes);
   - forced spills (tiny --table-mem-budget) change nothing about the
     verdict, and a cancelled drain leaves logs that reopen cleanly;
   - a steal storm (2 shards, 8 domains — six of them own nothing and
     can only steal) neither hangs (watchdog, mirroring [test_chaos])
     nor changes the verdict. *)

open Consensus

let shard_counts = [ 1; 2; 8 ]
let job_counts = [ 1; 2 ]

(* Same convention as test_chaos: a hang must become a loud exit, not a
   silent stuck test binary. *)
let with_watchdog ?(timeout = 120.) name f =
  let finished = Atomic.make false in
  let dog =
    Domain.spawn (fun () ->
        let deadline = Unix.gettimeofday () +. timeout in
        let rec wait () =
          if Atomic.get finished then ()
          else if Unix.gettimeofday () > deadline then begin
            Printf.eprintf "shard watchdog: %S hung (> %.0fs); aborting\n%!"
              name timeout;
            exit 124
          end
          else begin
            Unix.sleepf 0.05;
            wait ()
          end
        in
        wait ())
  in
  Fun.protect
    ~finally:(fun () ->
      Atomic.set finished true;
      Domain.join dog)
    f

let project_violation (r : _ Mc.Explore.result) =
  match r.Mc.Explore.violation with
  | None -> None
  | Some v ->
      Some
        ( (match v.Mc.Explore.kind with
          | `Inconsistent -> "inconsistent"
          | `Invalid -> "invalid"),
          Sim.Trace.to_string string_of_int v.Mc.Explore.trace )

let project_result (r : _ Mc.Explore.result) =
  ( project_violation r,
    r.Mc.Explore.visited,
    r.Mc.Explore.leaves,
    r.Mc.Explore.truncated,
    Robust.Budget.completeness_to_string r.Mc.Explore.completeness,
    r.Mc.Explore.max_depth_seen )

let find_exn name =
  match Registry.find name with
  | Some p -> p
  | None -> Alcotest.failf "protocol %S not in registry" name

let smallest_n (p : Protocol.t) =
  let rec go n =
    if n > 8 then invalid_arg p.name
    else if p.supports_n n then n
    else go (n + 1)
  in
  go 2

let fresh_dir =
  let ctr = ref 0 in
  fun tag ->
    incr ctr;
    let d =
      Filename.concat
        (Filename.get_temp_dir_name ())
        (Printf.sprintf "randsync-shard-%s-%d-%d" tag (Unix.getpid ()) !ctr)
    in
    d

(* ---- registry-wide parity ---- *)

let test_registry_parity () =
  with_watchdog ~timeout:600. "registry parity" @@ fun () ->
  List.iter
    (fun (p : Protocol.t) ->
      let n = smallest_n p in
      let inputs = List.init n (fun i -> i land 1) in
      let config () = Protocol.initial_config p ~inputs in
      List.iter
        (fun dedup ->
          let seq =
            Mc.Explore.search ~state:`Closure ~dedup ~max_depth:6
              ~max_states:500_000 ~inputs:[ 0; 1 ] (config ())
          in
          List.iter
            (fun shards ->
              List.iter
                (fun jobs ->
                  let sh =
                    Mc.Shard.search ~jobs ~shards ~dedup ~max_depth:6
                      ~max_states:500_000 ~inputs:[ 0; 1 ] (config ())
                  in
                  let label =
                    Printf.sprintf "%s dedup=%s shards=%d jobs=%d" p.name
                      (match dedup with
                      | `Off -> "off"
                      | `Exact -> "exact"
                      | `Symmetric -> "symmetric")
                      shards jobs
                  in
                  (* the violation verdict + witness are pinned for every
                     mode... *)
                  Alcotest.(check bool)
                    (label ^ ": violation parity")
                    true
                    (project_violation sh = project_violation seq);
                  (* ...and under `Off (no skips) every field is *)
                  if dedup = `Off then
                    Alcotest.(check bool)
                      (label ^ ": full parity under off")
                      true
                      (project_result sh = project_result seq))
                job_counts)
            shard_counts)
        [ `Off; `Exact; `Symmetric ])
    Registry.all

(* ---- flawed protocols: the referee makes violating runs identical ---- *)

let test_flawed_full_parity () =
  with_watchdog ~timeout:600. "flawed full parity" @@ fun () ->
  List.iter
    (fun (p : Protocol.t) ->
      let inputs = [ 0; 1 ] in
      let config () = Protocol.initial_config p ~inputs in
      List.iter
        (fun dedup ->
          let seq =
            Mc.Explore.search ~dedup ~max_depth:12 ~inputs:[ 0; 1 ] (config ())
          in
          Alcotest.(check bool) (p.name ^ ": is violating") true
            (seq.Mc.Explore.violation <> None);
          List.iter
            (fun shards ->
              List.iter
                (fun jobs ->
                  let sh =
                    Mc.Shard.search ~jobs ~shards ~dedup ~max_depth:12
                      ~inputs:[ 0; 1 ] (config ())
                  in
                  (* violating sharded runs return the referee's result
                     wholesale: every field matches, not just the witness *)
                  Alcotest.(check bool)
                    (Printf.sprintf "%s shards=%d jobs=%d: full parity" p.name
                       shards jobs)
                    true
                    (project_result sh = project_result seq))
                job_counts)
            shard_counts)
        [ `Off; `Exact; `Symmetric ])
    [
      Flawed.first_writer ~r:1;
      Flawed.unanimous ~style:Flawed.Rw ~r:1;
      Flawed.mixed ~r:2;
    ]

(* ---- forced spill: tiny mem budget, verdict unchanged ---- *)

let test_spill_parity () =
  with_watchdog "spill parity" @@ fun () ->
  let p = find_exn "counter-3" in
  let inputs = [ 0; 1; 0 ] in
  let config () = Protocol.initial_config p ~inputs in
  let seq =
    Mc.Explore.search ~dedup:`Symmetric ~max_depth:12 ~inputs:[ 0; 1 ]
      (config ())
  in
  let dir = fresh_dir "spill" in
  let obs = Obs.create () in
  let sh =
    Mc.Shard.search ~obs ~jobs:2 ~shards:4 ~dedup:`Symmetric ~max_depth:12
      ~table_dir:dir ~table_mem_budget:8_192 ~inputs:[ 0; 1 ] (config ())
  in
  let m = Obs.metrics obs in
  Alcotest.(check bool)
    "budget small enough to force spills" true
    (Obs.Metrics.counter m "mc/dtbl/spills" > 0);
  Alcotest.(check bool)
    "verdict survives the spills" true
    ( project_violation sh = project_violation seq
    && Robust.Budget.completeness_to_string sh.Mc.Explore.completeness
       = Robust.Budget.completeness_to_string seq.Mc.Explore.completeness );
  (* the logs a finished drain leaves behind reopen cleanly *)
  for k = 0 to 3 do
    let t =
      Mc.Dtbl.create ~path:(Filename.concat dir (Printf.sprintf "shard-%d.dtbl" k)) ()
    in
    let st = Mc.Dtbl.stats t in
    Alcotest.(check bool)
      (Printf.sprintf "shard %d log intact" k)
      true
      ((not st.Mc.Dtbl.lost_tail) && st.Mc.Dtbl.recovered > 0);
    Mc.Dtbl.close t
  done

(* ---- cancellation mid-drain: truncated verdict, recoverable logs ---- *)

let test_cancelled_leaves_clean_logs () =
  with_watchdog "cancelled drain" @@ fun () ->
  let p = find_exn "counter-3" in
  let config = Protocol.initial_config p ~inputs:[ 0; 1; 0 ] in
  let cancel = Robust.Cancel.create () in
  Robust.Cancel.set cancel;
  let budget = Robust.Budget.make ~cancel () in
  let dir = fresh_dir "cancel" in
  let r =
    Mc.Shard.search ~jobs:2 ~shards:2 ~dedup:`Exact ~max_depth:12 ~budget
      ~table_dir:dir ~table_mem_budget:8_192 ~inputs:[ 0; 1 ] config
  in
  Alcotest.(check string)
    "pre-set cancel token truncates" "truncated (cancelled)"
    (Robust.Budget.completeness_to_string r.Mc.Explore.completeness);
  (* even an immediately-abandoned drain closes its logs cleanly *)
  Array.iter
    (fun f ->
      let t = Mc.Dtbl.create ~path:(Filename.concat dir f) () in
      Alcotest.(check bool)
        (f ^ " reopens without tail loss")
        true
        (not (Mc.Dtbl.stats t).Mc.Dtbl.lost_tail);
      Mc.Dtbl.close t)
    (Sys.readdir dir)

(* ---- node budget: best-effort but sound ---- *)

let test_node_budget_trips () =
  with_watchdog "node budget" @@ fun () ->
  let p = find_exn "counter-3" in
  let config = Protocol.initial_config p ~inputs:[ 0; 1; 0 ] in
  let budget = Robust.Budget.make ~nodes:50 () in
  let r =
    Mc.Shard.search ~jobs:2 ~shards:4 ~max_depth:12 ~budget ~inputs:[ 0; 1 ]
      config
  in
  Alcotest.(check string)
    "node budget trips" "truncated (nodes)"
    (Robust.Budget.completeness_to_string r.Mc.Explore.completeness);
  Alcotest.(check bool)
    "visited stays near the allowance" true
    (r.Mc.Explore.visited <= 50)

(* ---- pool-default jobs: the path CI's RANDSYNC_JOBS matrix widens ---- *)

let test_env_default_jobs () =
  with_watchdog "env default jobs" @@ fun () ->
  let p = find_exn "counter-3" in
  let config () = Protocol.initial_config p ~inputs:[ 0; 1; 0 ] in
  let seq =
    Mc.Explore.search ~dedup:`Exact ~max_depth:10 ~inputs:[ 0; 1 ] (config ())
  in
  (* no ~jobs: Shard falls back to Par.default_jobs (), which reads
     RANDSYNC_JOBS — the verdict must not depend on what it says *)
  let sh =
    Mc.Shard.search ~shards:4 ~dedup:`Exact ~max_depth:10 ~inputs:[ 0; 1 ]
      (config ())
  in
  Alcotest.(check bool) "verdict parity at RANDSYNC_JOBS default" true
    (project_violation sh = project_violation seq)

(* ---- steal storm: 2 shards, 8 domains ---- *)

let test_steal_storm () =
  with_watchdog "steal storm" @@ fun () ->
  let p = find_exn "rw-3n" in
  let n = smallest_n p in
  let inputs = List.init n (fun i -> i land 1) in
  let config () = Protocol.initial_config p ~inputs in
  let seq =
    Mc.Explore.search ~dedup:`Exact ~max_depth:7 ~inputs:[ 0; 1 ] (config ())
  in
  for round = 1 to 3 do
    let obs = Obs.create () in
    let sh =
      Mc.Shard.search ~obs ~jobs:8 ~shards:2 ~dedup:`Exact ~max_depth:7
        ~inputs:[ 0; 1 ] (config ())
    in
    Alcotest.(check bool)
      (Printf.sprintf "storm round %d: verdict parity" round)
      true
      (project_violation sh = project_violation seq);
    (* six domains own no shard: any work they did was stolen *)
    ignore (Obs.Metrics.counter (Obs.metrics obs) "mc/shard/steals")
  done;
  (* and a violating storm still reports the canonical witness *)
  let flawed = Flawed.first_writer ~r:1 in
  let fconfig () = Protocol.initial_config flawed ~inputs:[ 0; 1 ] in
  let fseq =
    Mc.Explore.search ~dedup:`Exact ~max_depth:10 ~inputs:[ 0; 1 ] (fconfig ())
  in
  for _round = 1 to 3 do
    let fsh =
      Mc.Shard.search ~jobs:8 ~shards:2 ~dedup:`Exact ~max_depth:10
        ~inputs:[ 0; 1 ] (fconfig ())
    in
    Alcotest.(check bool) "storm witness parity" true
      (project_result fsh = project_result fseq)
  done

let suite =
  [
    Alcotest.test_case "registry verdict parity (shards x jobs x dedup)"
      `Quick test_registry_parity;
    Alcotest.test_case "flawed protocols: full field parity" `Quick
      test_flawed_full_parity;
    Alcotest.test_case "forced spill keeps the verdict" `Quick
      test_spill_parity;
    Alcotest.test_case "cancelled drain leaves recoverable logs" `Quick
      test_cancelled_leaves_clean_logs;
    Alcotest.test_case "node budget trips" `Quick test_node_budget_trips;
    Alcotest.test_case "pool-default jobs (RANDSYNC_JOBS)" `Quick
      test_env_default_jobs;
    Alcotest.test_case "steal storm (2 shards, 8 domains)" `Quick
      test_steal_storm;
  ]
