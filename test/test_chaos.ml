(* Chaos / fault-injection for the [Par] pool: raising tasks, slow
   stragglers, shutdown races and create/shutdown churn — every case at 2
   and at 8 domains — plus a cancelled governed search.

   The two invariants under attack are exactly the pool's contract:
   no hangs (every barrier fires, every shutdown returns) and
   lowest-index exception (a raising batch surfaces the same exception a
   sequential left-to-right run would).  Each case runs under a watchdog
   domain: a hang is precisely the bug this suite exists to catch, and a
   hung alcotest reports nothing — so the watchdog turns it into a loud
   nonzero exit instead. *)

exception Boom of int

let job_counts = [ 2; 8 ]

(* If [f] does not finish within [timeout] seconds, kill the whole test
   binary with exit 124 (the `timeout(1)` convention). *)
let with_watchdog ?(timeout = 60.) name f =
  let finished = Atomic.make false in
  let dog =
    Domain.spawn (fun () ->
        let deadline = Unix.gettimeofday () +. timeout in
        let rec wait () =
          if Atomic.get finished then ()
          else if Unix.gettimeofday () > deadline then begin
            Printf.eprintf "chaos watchdog: %S hung (> %.0fs); aborting\n%!"
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

let for_each_jobs name f =
  List.iter
    (fun jobs ->
      with_watchdog
        (Printf.sprintf "%s (jobs=%d)" name jobs)
        (fun () -> f jobs))
    job_counts

(* ---- raising tasks ---- *)

let test_lowest_index_exception () =
  for_each_jobs "lowest-index exception" @@ fun jobs ->
  Par.with_pool ~jobs @@ fun pool ->
  for round = 1 to 20 do
    (* several tasks raise; the survivor must be the lowest index, as in a
       sequential left-to-right run *)
    (match
       Par.map ~pool
         (fun i -> if i mod 7 = 3 then raise (Boom i) else i)
         (List.init 100 Fun.id)
     with
    | _ -> Alcotest.failf "round %d: exception swallowed" round
    | exception Boom i ->
        Alcotest.(check int)
          (Printf.sprintf "round %d: lowest index" round)
          3 i);
    (* the pool survives the raising batch and still computes *)
    Alcotest.(check (list int))
      (Printf.sprintf "round %d: pool survives" round)
      [ 0; 2; 4 ]
      (Par.map ~pool (fun i -> 2 * i) [ 0; 1; 2 ])
  done

let test_every_task_raises () =
  for_each_jobs "every task raises" @@ fun jobs ->
  Par.with_pool ~jobs @@ fun pool ->
  match Par.map ~pool (fun i -> raise (Boom i)) (List.init 64 Fun.id) with
  | _ -> Alcotest.fail "exception swallowed"
  | exception Boom 0 -> ()
  | exception Boom i -> Alcotest.failf "surfaced task %d, not 0" i

(* ---- stragglers ---- *)

let test_stragglers_preserve_order () =
  for_each_jobs "stragglers" @@ fun jobs ->
  Par.with_pool ~jobs @@ fun pool ->
  (* the earliest tasks are the slowest: late fast tasks finish first,
     order must come from slot indexing, not completion order *)
  let xs = List.init 40 Fun.id in
  let result =
    Par.map ~pool
      (fun i ->
        if i < 4 then Unix.sleepf 0.03;
        i * i)
      xs
  in
  Alcotest.(check (list int)) "order preserved" (List.map (fun i -> i * i) xs)
    result

(* ---- shutdown races ---- *)

let test_concurrent_double_shutdown () =
  for_each_jobs "double shutdown" @@ fun jobs ->
  let pool = Par.Pool.create ~jobs () in
  ignore (Par.map ~pool succ [ 1; 2; 3 ]);
  let d1 = Domain.spawn (fun () -> Par.Pool.shutdown pool) in
  let d2 = Domain.spawn (fun () -> Par.Pool.shutdown pool) in
  Domain.join d1;
  Domain.join d2;
  (* third call from the test domain: still returns *)
  Par.Pool.shutdown pool;
  (* a shut-down pool degrades to sequential execution, it never wedges a
     late caller *)
  Alcotest.(check (list int)) "degrades to sequential" [ 2; 3; 4 ]
    (Par.map ~pool succ [ 1; 2; 3 ])

let test_shutdown_during_batch () =
  for_each_jobs "shutdown during batch" @@ fun jobs ->
  let pool = Par.Pool.create ~jobs () in
  let shutter =
    Domain.spawn (fun () ->
        (* land in the middle of the in-flight batch below *)
        Unix.sleepf 0.02;
        Par.Pool.shutdown pool)
  in
  let xs = List.init 64 Fun.id in
  let result =
    Par.map ~pool
      (fun i ->
        Unix.sleepf 0.002;
        i + 1)
      xs
  in
  Domain.join shutter;
  (* the in-flight batch completes in full; later batches run degraded *)
  Alcotest.(check (list int)) "batch completed" (List.map succ xs) result;
  Alcotest.(check (list int)) "later batch sequential" [ 10 ]
    (Par.map ~pool (fun i -> 10 * i) [ 1 ])

let test_create_shutdown_churn () =
  for_each_jobs "create/shutdown churn" @@ fun jobs ->
  for seed = 1 to 15 do
    let result =
      Par.with_pool ~jobs (fun pool ->
          Par.map ~pool (fun i -> (seed * i) mod 97) (List.init 32 Fun.id))
    in
    Alcotest.(check (list int))
      (Printf.sprintf "churn round %d" seed)
      (List.init 32 (fun i -> (seed * i) mod 97))
      result
  done

(* ---- governed search under chaos ---- *)

let test_search_cancelled () =
  with_watchdog "search cancelled" @@ fun () ->
  (* a pre-cancelled token: the search must return (no hang), carry a
     cancelled verdict, and never claim exhaustiveness *)
  let cancel = Robust.Cancel.create () in
  Robust.Cancel.set cancel;
  let config =
    Consensus.Protocol.initial_config Consensus.Counter_consensus.protocol
      ~inputs:[ 0; 1; 1 ]
  in
  let r =
    Mc.Explore.search
      ~budget:(Robust.Budget.make ~cancel ())
      ~max_depth:20 ~inputs:[ 0; 1 ] config
  in
  Alcotest.(check bool) "not exhaustive" true r.Mc.Explore.truncated;
  Alcotest.(check string) "cancelled verdict" "truncated (cancelled)"
    (Robust.Budget.completeness_to_string r.Mc.Explore.completeness);
  Alcotest.(check bool) "no spurious violation" true
    (r.Mc.Explore.violation = None)

let suite =
  [
    Alcotest.test_case "lowest-index exception, pool survives" `Quick
      test_lowest_index_exception;
    Alcotest.test_case "every task raises" `Quick test_every_task_raises;
    Alcotest.test_case "stragglers preserve order" `Quick
      test_stragglers_preserve_order;
    Alcotest.test_case "concurrent double shutdown" `Quick
      test_concurrent_double_shutdown;
    Alcotest.test_case "shutdown during in-flight batch" `Quick
      test_shutdown_during_batch;
    Alcotest.test_case "create/shutdown churn" `Quick
      test_create_shutdown_churn;
    Alcotest.test_case "search cancelled" `Quick test_search_cancelled;
  ]
