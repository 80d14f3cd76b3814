(* Chaos suite for lib/serve.  In-process tests drive Serve.Server.run
   on a unix socket in a temp dir: admission/shedding, cancellation,
   client churn, malformed-frame isolation, drain-respools-queued-work,
   restart resume.  Subprocess tests pin the process-level contract of
   `randsync serve`: SIGTERM drains to exit 0 with the metrics file
   dumped and the in-flight mc job checkpointed; kill -9 mid-job loses
   nothing a restarted server can't replay to verdicts byte-identical
   to a direct `randsync mc` run. *)

let binary = Test_util.cli_binary

let contains = Test_util.contains

(* ---- scratch dirs and subprocess plumbing ---- *)

let mk_tmpdir () =
  let path = Filename.temp_file "randsync-serve" "" in
  Sys.remove path;
  Unix.mkdir path 0o700;
  path

let rec rm_rf path =
  match Sys.is_directory path with
  | true ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      (try Unix.rmdir path with Unix.Unix_error _ -> ())
  | false -> ( try Sys.remove path with Sys_error _ -> ())
  | exception Sys_error _ -> ()

type run = { code : int; out : string }

let run_cli args =
  let out_file = Filename.temp_file "randsync-serve-cli" ".out" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove out_file with Sys_error _ -> ())
    (fun () ->
      let cmd =
        Printf.sprintf "%s > %s 2>&1"
          (Filename.quote_command binary args)
          (Filename.quote out_file)
      in
      let code = Sys.command cmd in
      let ic = open_in_bin out_file in
      let out = really_input_string ic (in_channel_length ic) in
      close_in ic;
      { code; out })

let lines_of out =
  String.split_on_char '\n' out |> List.filter (fun l -> l <> "")

let await ?(timeout = 30.) ?(interval = 0.02) what pred =
  let deadline = Unix.gettimeofday () +. timeout in
  let rec go () =
    if pred () then ()
    else if Unix.gettimeofday () > deadline then
      Alcotest.failf "timed out waiting for %s" what
    else begin
      Thread.delay interval;
      go ()
    end
  in
  go ()

(* ---- job specs ---- *)

let mc_job ?(inputs = [ 0; 1 ]) ?(depth = 10) ?(max_states = 2_000_000)
    ?(dedup = `Off) ?max_nodes protocol =
  {
    Serve.Job.spec =
      Serve.Job.Mc
        {
          (Serve.Job.mc_defaults ~protocol) with
          Serve.Job.mc_inputs = inputs;
          mc_depth = depth;
          mc_max_states = max_states;
          mc_dedup = dedup;
          mc_max_nodes = max_nodes;
        };
    deadline = None;
  }

(* instant *)
let quick_job () = mc_job "counter-3"

(* effectively unbounded: only a cancel ends it *)
let endless_job () =
  mc_job ~inputs:[ 0; 1; 1; 0 ] ~depth:200 ~max_states:2_000_000_000
    "counter-3"

(* ~1.7s sequential (25M nodes, just past its 25M state cap:
   "truncated (states)", exit 0), checkpoints every few ms: the
   interrupt/resume prop.  It must outlast the drain and kill -9 tests'
   cut, so the interruption lands mid-search. *)
let resumable_job () = mc_job ~depth:22 ~max_states:25_000_000 "rw-3n"

let resumable_cli_args =
  [ "mc"; "rw-3n"; "--inputs"; "0,1"; "--depth"; "22"; "--max-states";
    "25000000" ]

let fuzz_job () =
  {
    Serve.Job.spec =
      Serve.Job.Fuzz
        {
          (Serve.Job.fuzz_defaults ~scenario:"flawed") with
          Serve.Job.fz_runs = 40;
          fz_seed = 3;
        };
    deadline = None;
  }

let attack_job ?(general = false) ?(seeds = 0) protocol =
  {
    Serve.Job.spec =
      Serve.Job.Attack
        { at_protocol = protocol; at_general = general; at_seeds = seeds };
    deadline = None;
  }

(* ---- client helpers ---- *)

let with_conn addr f =
  match Serve.Client.connect addr with
  | Error e -> Alcotest.failf "connect: %s" e
  | Ok c -> Fun.protect ~finally:(fun () -> Serve.Client.close c) (fun () -> f c)

let roundtrip addr req =
  with_conn addr @@ fun c ->
  Serve.Client.send c req;
  Serve.Client.recv c

(* A server process creates its socket file at [bind], before [listen],
   so the file's existence is no readiness signal: wait for a [Pong]. *)
let await_pong what addr =
  await what (fun () ->
      match Serve.Client.connect addr with
      | Error _ -> false
      | Ok c ->
          Fun.protect
            ~finally:(fun () -> Serve.Client.close c)
            (fun () ->
              try
                Serve.Client.send c Serve.Wire.Ping;
                match Serve.Client.recv c with
                | Ok Serve.Wire.Pong -> true
                | Ok _ | Error _ -> false
              with Unix.Unix_error _ | Sys_error _ -> false))

let submit_raw addr job =
  roundtrip addr (Serve.Wire.Submit { job; detach = true })

let submit_detached addr job =
  match submit_raw addr job with
  | Ok (Serve.Wire.Accepted { id }) -> id
  | Ok _ | Error _ -> Alcotest.fail "detached submit not accepted"

let cancel addr id =
  match roundtrip addr (Serve.Wire.Cancel { id }) with
  | Ok (Serve.Wire.Cancelled _) -> ()
  | Ok _ | Error _ -> Alcotest.failf "cancel of job %d failed" id

let job_state addr id =
  match roundtrip addr (Serve.Wire.Status { id = Some id }) with
  | Ok (Serve.Wire.Jobs { jobs = [ jl ]; _ }) -> Some jl.Serve.Wire.state
  | _ -> None

let drain addr =
  match roundtrip addr Serve.Wire.Drain with
  | Ok Serve.Wire.Draining -> ()
  | Ok _ | Error _ -> Alcotest.fail "drain not acknowledged"

(* ---- an in-process server on a throwaway unix socket ---- *)

let with_server ?(queue_limit = 64) ?(workers = 2) ?spool_dir ?obs f =
  let dir = mk_tmpdir () in
  let sock = Filename.concat dir "s.sock" in
  let cfg =
    {
      Serve.Server.address = `Unix sock;
      queue_limit;
      workers;
      spool_dir;
      obs;
      progress_interval = 0.05;
    }
  in
  let ready = Atomic.make false in
  let th =
    Thread.create
      (fun () ->
        Serve.Server.run ~on_ready:(fun _ -> Atomic.set ready true) cfg)
      ()
  in
  Fun.protect
    ~finally:(fun () ->
      (match Serve.Client.connect (`Unix sock) with
      | Ok c ->
          Serve.Client.send c Serve.Wire.Drain;
          ignore (Serve.Client.recv c);
          Serve.Client.close c
      | Error _ -> ());
      Thread.join th;
      rm_rf dir)
    (fun () ->
      await "server ready" (fun () -> Atomic.get ready);
      f (`Unix sock))

(* ---- in-process chaos ---- *)

(* served verdicts are the executor's verdicts are the CLI's verdicts *)
let test_round_trip_identity () =
  with_server @@ fun addr ->
  (match roundtrip addr Serve.Wire.Ping with
  | Ok Serve.Wire.Pong -> ()
  | Ok _ | Error _ -> Alcotest.fail "expected pong");
  let check_identity name job =
    let direct = Serve.Job.execute job in
    match Serve.Client.submit_and_wait addr job with
    | Error e -> Alcotest.failf "%s: %s" name e
    | Ok (status, lines) ->
        Alcotest.(check int) (name ^ " wire status = exit code")
          direct.Serve.Job.status status;
        Alcotest.(check (list string)) (name ^ " verdict lines")
          direct.Serve.Job.lines lines
  in
  check_identity "mc" (quick_job ());
  check_identity "fuzz" (fuzz_job ());
  (* ... and byte-identical to the binary *)
  let direct = Serve.Job.execute (quick_job ()) in
  let cli = run_cli [ "mc"; "counter-3"; "--inputs"; "0,1"; "--depth"; "10" ] in
  Alcotest.(check int) "cli exit code" direct.Serve.Job.status cli.code;
  Alcotest.(check (list string)) "cli lines" direct.Serve.Job.lines
    (lines_of cli.out);
  (* attack jobs, the failing one included (its line goes to stderr,
     which run_cli merges) *)
  List.iter
    (fun (name, job, args, status) ->
      check_identity name job;
      let direct = Serve.Job.execute job in
      Alcotest.(check int) (name ^ " status") status direct.Serve.Job.status;
      let cli = run_cli ("attack" :: args) in
      Alcotest.(check int) (name ^ " cli exit code") direct.Serve.Job.status
        cli.code;
      Alcotest.(check (list string)) (name ^ " cli lines")
        direct.Serve.Job.lines (lines_of cli.out))
    [
      ( "attack",
        attack_job "flawed-unanimous-rw-r2",
        [ "flawed-unanimous-rw-r2" ],
        2 );
      ( "attack --general",
        attack_job ~general:true "flawed-unanimous-rw-r2",
        [ "flawed-unanimous-rw-r2"; "--general" ],
        2 );
      ( "attack --seeds 3",
        attack_job ~seeds:3 "flawed-unanimous-rw-r2",
        [ "flawed-unanimous-rw-r2"; "--seeds"; "3" ],
        2 );
      ("attack cas-1", attack_job "cas-1", [ "cas-1" ], 4);
      ( "attack --general tas-2proc",
        attack_job ~general:true "tas-2proc",
        [ "tas-2proc"; "--general" ],
        4 );
    ]

(* A served deadline is relative to the job's start, as `mc --deadline`
   is: this search runs for seconds, and a 0.2 s deadline must cut it
   (status 3), not let it run to its depth bound (status 0). *)
let test_served_deadline () =
  with_server @@ fun addr ->
  let job =
    {
      (mc_job ~inputs:[ 0; 1; 0 ] ~depth:24 ~max_states:40_000_000 "rw-3n") with
      Serve.Job.deadline = Some 0.2;
    }
  in
  match Serve.Client.submit_and_wait addr job with
  | Error e -> Alcotest.failf "deadline job: %s" e
  | Ok (status, lines) ->
      Alcotest.(check int) "truncated status" 3 status;
      Alcotest.(check bool) "deadline verdict" true
        (List.mem "verdict: truncated (deadline)" lines)

(* One validator: a spec the JSON codec refuses, the executor refuses
   with the same message, and so do the CLI and submit, all with exit 1. *)
let test_spec_validation () =
  let fuzz_runs runs =
    {
      Serve.Job.spec =
        Serve.Job.Fuzz
          { (Serve.Job.fuzz_defaults ~scenario:"flawed") with fz_runs = runs };
      deadline = None;
    }
  in
  List.iter
    (fun (json, job, args, msg) ->
      (match Serve.Json.parse json with
      | Error e -> Alcotest.failf "%s: %s" json e
      | Ok j -> (
          match Serve.Job.of_json j with
          | Ok _ -> Alcotest.failf "of_json accepted %s" json
          | Error e -> Alcotest.(check string) (json ^ ": of_json") msg e));
      let direct = Serve.Job.execute job in
      Alcotest.(check int) (json ^ ": execute status") 1
        direct.Serve.Job.status;
      Alcotest.(check (list string)) (json ^ ": execute message") [ msg ]
        direct.Serve.Job.lines;
      let cli = run_cli args in
      Alcotest.(check int) (json ^ ": cli exit code") 1 cli.code;
      Alcotest.(check (list string)) (json ^ ": cli message") [ msg ]
        (lines_of cli.out);
      let sub =
        run_cli [ "submit"; "--socket"; "/nonexistent.sock"; "--job"; json ]
      in
      Alcotest.(check int) (json ^ ": submit exit code") 1 sub.code;
      Alcotest.(check (list string)) (json ^ ": submit message")
        [ "invalid job spec: " ^ msg ] (lines_of sub.out))
    [
      ( {|{"kind":"fuzz","scenario":"flawed","runs":0}|},
        fuzz_runs 0,
        [ "fuzz"; "flawed"; "--runs=0" ],
        "--runs must be >= 1" );
      ( {|{"kind":"fuzz","scenario":"flawed","runs":-3}|},
        fuzz_runs (-3),
        [ "fuzz"; "flawed"; "--runs=-3" ],
        "--runs must be >= 1" );
      ( {|{"kind":"mc","protocol":"cas-1","depth":-1}|},
        mc_job ~depth:(-1) "cas-1",
        [ "mc"; "cas-1"; "--depth=-1" ],
        "--depth must be >= 0" );
      (* one above the bound: refused before any path array exists *)
      ( Printf.sprintf {|{"kind":"mc","protocol":"cas-1","depth":%d}|}
          (Mc.Explore.max_depth_bound + 1),
        mc_job ~depth:(Mc.Explore.max_depth_bound + 1) "cas-1",
        [
          "mc"; "cas-1";
          Printf.sprintf "--depth=%d" (Mc.Explore.max_depth_bound + 1);
        ],
        Printf.sprintf "--depth must be <= %d" Mc.Explore.max_depth_bound );
      ( {|{"kind":"mc","protocol":"tas-2proc","inputs":[0,1,1]}|},
        mc_job ~inputs:[ 0; 1; 1 ] "tas-2proc",
        [ "mc"; "tas-2proc"; "--inputs"; "0,1,1" ],
        "protocol tas-2proc does not support 3 processes" );
      ( {|{"kind":"mc","protocol":"cas-1","inputs":[0,2]}|},
        mc_job ~inputs:[ 0; 2 ] "cas-1",
        [ "mc"; "cas-1"; "--inputs"; "0,2" ],
        "--inputs must be 0s and 1s" );
    ]

(* ... and a daemon refuses them at submission with the same message,
   rather than failing the job once a worker runs it *)
let test_served_spec_refusal () =
  with_server @@ fun addr ->
  List.iter
    (fun (job, msg) ->
      match Serve.Client.submit_and_wait ~attempts:1 addr job with
      | Ok (status, lines) ->
          Alcotest.failf "served %s: status %d, %s" msg status
            (String.concat " / " lines)
      | Error e ->
          Alcotest.(check bool) (msg ^ ": refusal names it") true
            (contains e msg))
    [
      ( mc_job ~inputs:[ 0; 1; 1 ] "tas-2proc",
        "protocol tas-2proc does not support 3 processes" );
      (mc_job ~inputs:[ 0; 2 ] "cas-1", "--inputs must be 0s and 1s");
    ]

(* The spool refuses what it cannot use, naming path and step: a regular
   file where its directory should be, a directory that cannot be
   listed. *)
let test_spool_refuses_non_directory () =
  let dir = mk_tmpdir () in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let refused what op f =
    match f () with
    | _ -> Alcotest.failf "%s accepted" what
    | exception Robust.Persist.Error e ->
        Alcotest.(check string) (what ^ ": op") op e.Robust.Persist.op
  in
  let file = Filename.concat dir "file" in
  Robust.Persist.write ~path:file "";
  refused "a regular file" "mkdir" (fun () -> Serve.Spool.create ~dir:file);
  let gone = Filename.concat dir "gone" in
  let spool = Serve.Spool.create ~dir:gone in
  Unix.rmdir gone;
  refused "a vanished directory" "readdir" (fun () -> Serve.Spool.recover spool)

(* Spool writes that fail (injected at the rename of the durable write)
   never take a thread down: a submit that cannot be spooled is refused
   with an error reply and not queued; a verdict that cannot be spooled
   still reaches its watcher, is counted, and the worker keeps serving. *)
let test_spool_write_failures () =
  let spool = mk_tmpdir () in
  let obs = Obs.create () in
  let module F = Robust.Persist.Fault in
  Fun.protect
    ~finally:(fun () ->
      Test_util.disarm_fault ();
      rm_rf spool)
  @@ fun () ->
  (with_server ~workers:1 ~spool_dir:spool ~obs @@ fun addr ->
   ignore (Test_util.arm_fault F.Rename ~nth:1 F.Eio);
   (match submit_raw addr (fuzz_job ()) with
   | Ok (Serve.Wire.Error { message }) ->
       Alcotest.(check bool) "reply names the spool failure" true
         (contains message "spool: " && contains message "rename")
   | Ok _ | Error _ -> Alcotest.fail "unspooled submit must be refused");
   Test_util.disarm_fault ();
   (match roundtrip addr (Serve.Wire.Status { id = None }) with
   | Ok (Serve.Wire.Jobs { jobs; _ }) ->
       Alcotest.(check int) "refused submit is not queued" 0
         (List.length jobs)
   | Ok _ | Error _ -> Alcotest.fail "expected a job list");
   (* rename 1 spools the job, rename 2 would spool its verdict *)
   let fired = Test_util.arm_fault F.Rename ~nth:2 F.Eio in
   let direct = Serve.Job.execute (fuzz_job ()) in
   (match Serve.Client.submit_and_wait addr (fuzz_job ()) with
   | Ok (status, lines) ->
       Alcotest.(check bool) "the verdict write failed" true !fired;
       Alcotest.(check int) "watcher still hears the status"
         direct.Serve.Job.status status;
       Alcotest.(check (list string)) "watcher still hears the lines"
         direct.Serve.Job.lines lines
   | Error e -> Alcotest.failf "verdict lost with the spool write: %s" e);
   Test_util.disarm_fault ();
   match Serve.Client.submit_and_wait addr (quick_job ()) with
   | Ok _ -> ()
   | Error e -> Alcotest.failf "worker died with the spool write: %s" e);
  Alcotest.(check int) "both failures counted" 2
    (Obs.Metrics.counter (Obs.metrics obs) "serve/spool-errors");
  Array.iter
    (fun f ->
      if Filename.check_suffix f ".tmp" then
        Alcotest.failf "temp file %s left in the spool" f)
    (Sys.readdir spool)

(* only a dedup-off search checkpoints: a spooled daemon answers a dedup
   job with the direct verdict and writes it no checkpoint, even when a
   node budget trips (the trip is where a checkpoint is written) *)
let test_dedup_job_not_checkpointed () =
  let spool = mk_tmpdir () in
  Fun.protect ~finally:(fun () -> rm_rf spool) @@ fun () ->
  with_server ~workers:1 ~spool_dir:spool @@ fun addr ->
  List.iter
    (fun dedup ->
      let job =
        mc_job ~inputs:[ 0; 1; 0 ] ~depth:12 ~dedup ~max_nodes:100 "counter-3"
      in
      let direct = Serve.Job.execute job in
      Alcotest.(check int) "the node budget trips" 3 direct.Serve.Job.status;
      match Serve.Client.submit_and_wait addr job with
      | Error e -> Alcotest.failf "dedup job lost: %s" e
      | Ok (status, lines) ->
          Alcotest.(check int) "served status" direct.Serve.Job.status status;
          Alcotest.(check (list string)) "served lines" direct.Serve.Job.lines
            lines)
    [ `Exact; `Symmetric ];
  Array.iter
    (fun f ->
      if Filename.check_suffix f ".ckpt" then
        Alcotest.failf "dedup job checkpointed: %s" f)
    (Sys.readdir spool)

(* a full admission queue sheds with an explicit reply; shedding is not
   sticky — capacity freed readmits *)
let test_shedding () =
  with_server ~queue_limit:1 ~workers:1 @@ fun addr ->
  let id1 = submit_detached addr (endless_job ()) in
  await "job 1 running" (fun () ->
      job_state addr id1 = Some Serve.Wire.Running);
  let id2 = submit_detached addr (endless_job ()) in
  (* Accepted is sent before the enqueue; wait until job 2 is visible *)
  await "job 2 queued" (fun () -> job_state addr id2 = Some Serve.Wire.Queued);
  (match submit_raw addr (endless_job ()) with
  | Ok (Serve.Wire.Overloaded { queued; limit }) ->
      Alcotest.(check int) "reported depth" 1 queued;
      Alcotest.(check int) "reported limit" 1 limit
  | Ok _ | Error _ -> Alcotest.fail "expected overloaded");
  cancel addr id2;
  (match submit_raw addr (quick_job ()) with
  | Ok (Serve.Wire.Accepted _) -> ()
  | Ok _ | Error _ -> Alcotest.fail "freed capacity should admit");
  cancel addr id1

let test_cancel () =
  with_server ~workers:1 @@ fun addr ->
  (* an mc search, and an attack: every solo search of the general
     construction is metered, so its cancel takes effect too *)
  List.iter
    (fun job ->
      let id = submit_detached addr job in
      await "job running" (fun () ->
          job_state addr id = Some Serve.Wire.Running);
      cancel addr id;
      await "job cancelled" (fun () ->
          job_state addr id = Some Serve.Wire.Cancelled);
      match Serve.Client.wait_result addr ~id with
      | Error e ->
          Alcotest.(check bool) "cancelled job is a loud error" true
            (contains e "cancelled")
      | Ok _ -> Alcotest.fail "cancelled job must not yield a verdict")
    [ endless_job (); attack_job ~general:true "anon-rw" ];
  (* unknown ids are loud too *)
  match roundtrip addr (Serve.Wire.Result { id = 999 }) with
  | Ok (Serve.Wire.Error { message }) ->
      Alcotest.(check bool) "names the missing job" true
        (contains message "no such job 999")
  | Ok _ | Error _ -> Alcotest.fail "expected an error reply"

(* a malformed frame costs its sender the connection — and nothing else *)
let test_malformed_frame_isolation () =
  with_server @@ fun addr ->
  let sock = match addr with `Unix p -> p | `Tcp _ -> assert false in
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX sock);
  let ic = Unix.in_channel_of_descr fd in
  let oc = Unix.out_channel_of_descr fd in
  output_string oc "{\"v\":1,\"type\":\"ping\"} trailing garbage\n";
  flush oc;
  (match input_line ic with
  | line -> (
      match Serve.Wire.decode_reply line with
      | Ok (Serve.Wire.Error { message }) ->
          Alcotest.(check bool) "reply names the bad frame" true
            (contains message "bad frame")
      | Ok _ | Error _ -> Alcotest.fail "expected an error reply")
  | exception End_of_file -> Alcotest.fail "no reply to the bad frame");
  (match input_line ic with
  | exception End_of_file -> ()
  | _ -> Alcotest.fail "sender should have been hung up on");
  (try Unix.close fd with Unix.Unix_error _ -> ());
  (* the server is unharmed and other clients are served normally *)
  let direct = Serve.Job.execute (quick_job ()) in
  match Serve.Client.submit_and_wait addr (quick_job ()) with
  | Error e -> Alcotest.failf "healthy client hurt by someone else: %s" e
  | Ok (status, lines) ->
      Alcotest.(check int) "status" direct.Serve.Job.status status;
      Alcotest.(check (list string)) "lines" direct.Serve.Job.lines lines

(* an abrupt disconnect cancels the dead client's attached jobs and only
   those; detached jobs ride out any churn *)
let test_client_churn_isolation () =
  with_server ~workers:1 @@ fun addr ->
  let sock = match addr with `Unix p -> p | `Tcp _ -> assert false in
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX sock);
  let ic = Unix.in_channel_of_descr fd in
  let oc = Unix.out_channel_of_descr fd in
  output_string oc
    (Serve.Wire.encode_request
       (Serve.Wire.Submit { job = endless_job (); detach = false }));
  output_char oc '\n';
  flush oc;
  let id1 =
    match input_line ic with
    | line -> (
        match Serve.Wire.decode_reply line with
        | Ok (Serve.Wire.Accepted { id }) -> id
        | Ok _ | Error _ -> Alcotest.fail "attached submit not accepted")
    | exception End_of_file -> Alcotest.fail "no accept reply"
  in
  await "attached job running" (fun () ->
      job_state addr id1 = Some Serve.Wire.Running);
  let id2 = submit_detached addr (quick_job ()) in
  (* die without so much as a goodbye *)
  Unix.close fd;
  await "attached job cancelled by churn" (fun () ->
      job_state addr id1 = Some Serve.Wire.Cancelled);
  let direct = Serve.Job.execute (quick_job ()) in
  match Serve.Client.wait_result addr ~id:id2 with
  | Error e -> Alcotest.failf "detached job lost to churn: %s" e
  | Ok (status, lines) ->
      Alcotest.(check int) "detached status" direct.Serve.Job.status status;
      Alcotest.(check (list string)) "detached lines" direct.Serve.Job.lines
        lines

(* drain leaves running work checkpointed and queued work untouched in
   the spool; a restarted server replays both to the verdicts an
   uninterrupted life would have produced *)
let test_drain_respools_and_restart_resumes () =
  let dir = mk_tmpdir () in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let spool = Filename.concat dir "spool" in
  let sock = Filename.concat dir "s.sock" in
  let cfg =
    {
      Serve.Server.address = `Unix sock;
      queue_limit = 64;
      workers = 1;
      spool_dir = Some spool;
      obs = None;
      progress_interval = 0.05;
    }
  in
  let start () =
    let ready = Atomic.make false in
    let th =
      Thread.create
        (fun () ->
          Serve.Server.run ~on_ready:(fun _ -> Atomic.set ready true) cfg)
        ()
    in
    await "server ready" (fun () -> Atomic.get ready);
    th
  in
  let th = start () in
  let id1 = submit_detached (`Unix sock) (resumable_job ()) in
  let id2 = submit_detached (`Unix sock) (quick_job ()) in
  await "first checkpoint written" (fun () ->
      Sys.file_exists (Filename.concat spool "job-1.ckpt"));
  (* drain mid-job; the same connection sees admission close *)
  (match Serve.Client.connect (`Unix sock) with
  | Error e -> Alcotest.failf "connect: %s" e
  | Ok c ->
      Serve.Client.send c Serve.Wire.Drain;
      (match Serve.Client.recv c with
      | Ok Serve.Wire.Draining -> ()
      | Ok _ | Error _ -> Alcotest.fail "drain not acknowledged");
      Serve.Client.send c
        (Serve.Wire.Submit { job = quick_job (); detach = true });
      (match Serve.Client.recv c with
      | Ok Serve.Wire.Draining -> ()
      | Ok _ | Error _ -> Alcotest.fail "submit during drain not refused");
      Serve.Client.close c);
  Thread.join th;
  let spooled name = Sys.file_exists (Filename.concat spool name) in
  Alcotest.(check bool) "interrupted job still spooled" true
    (spooled "job-1.json");
  Alcotest.(check bool) "interrupted job has no verdict" false
    (spooled "job-1.verdict");
  Alcotest.(check bool) "queued job still spooled" true (spooled "job-2.json");
  Alcotest.(check bool) "queued job has no verdict" false
    (spooled "job-2.verdict");
  (* restart: both jobs replay to their uninterrupted verdicts *)
  let th2 = start () in
  Fun.protect
    ~finally:(fun () ->
      drain (`Unix sock);
      Thread.join th2)
    (fun () ->
      let expect1 = Serve.Job.execute (resumable_job ()) in
      let expect2 = Serve.Job.execute (quick_job ()) in
      (match Serve.Client.wait_result (`Unix sock) ~id:id1 with
      | Error e -> Alcotest.failf "job 1 not replayed: %s" e
      | Ok (status, lines) ->
          Alcotest.(check int) "resumed status" expect1.Serve.Job.status status;
          Alcotest.(check (list string)) "resumed lines byte-identical"
            expect1.Serve.Job.lines lines);
      match Serve.Client.wait_result (`Unix sock) ~id:id2 with
      | Error e -> Alcotest.failf "job 2 not replayed: %s" e
      | Ok (status, lines) ->
          Alcotest.(check int) "queued job status" expect2.Serve.Job.status
            status;
          Alcotest.(check (list string)) "queued job lines"
            expect2.Serve.Job.lines lines)

(* ---- the retry/backoff schedule (pure) ---- *)

let test_backoff_schedule () =
  let base = 0.05 and cap = 1.0 in
  let rng = Sim.Rng.create 7 in
  for k = 0 to 9 do
    let d = Serve.Client.backoff_delay ~base ~cap ~rng k in
    let nominal = base *. (2. ** float_of_int k) in
    Alcotest.(check bool)
      (Printf.sprintf "delay %d within [nominal/2, nominal] clipped to cap" k)
      true
      (d >= Float.min cap (nominal /. 2.) && d <= Float.min cap nominal)
  done;
  (* same seed, same schedule: the jitter is deterministic *)
  let schedule seed =
    let rng = Sim.Rng.create seed in
    List.init 8 (fun k -> Serve.Client.backoff_delay ~base ~cap ~rng k)
  in
  Alcotest.(check (list (float 0.))) "deterministic per seed" (schedule 3)
    (schedule 3);
  (* with_retry: attempts are counted, sleeps follow the capped curve *)
  let calls = ref 0 and slept = ref 0. in
  (match
     Serve.Client.with_retry ~attempts:4 ~base:0.1 ~cap:0.2 ~seed:1
       ~sleep:(fun d -> slept := !slept +. d)
       (fun k ->
         Alcotest.(check int) "attempt index" !calls k;
         incr calls;
         Error (`Retry "still down"))
   with
  | Error msg ->
      Alcotest.(check bool) "gives up loudly" true
        (contains msg "gave up after 4 attempts")
  | Ok _ -> Alcotest.fail "retry cannot succeed here");
  Alcotest.(check int) "all attempts spent" 4 !calls;
  Alcotest.(check bool)
    (Printf.sprintf "total sleep %.3f within 3 caps" !slept)
    true
    (!slept <= (0.2 *. 3.) +. 1e-9);
  (* non-retryable errors fail fast; success passes through *)
  let calls = ref 0 in
  (match
     Serve.Client.with_retry ~sleep:ignore (fun _ ->
         incr calls;
         Error (`Fail "boom"))
   with
  | Error "boom" -> ()
  | Error e -> Alcotest.failf "unexpected error %S" e
  | Ok _ -> Alcotest.fail "cannot succeed");
  Alcotest.(check int) "fail-fast, one attempt" 1 !calls;
  match
    Serve.Client.with_retry ~sleep:ignore (fun k ->
        if k < 2 then Error (`Retry "later") else Ok k)
  with
  | Ok 2 -> ()
  | Ok k -> Alcotest.failf "succeeded on attempt %d, expected 2" k
  | Error e -> Alcotest.failf "retry gave up: %s" e

(* ---- subprocess: the process-level contract of `randsync serve` ---- *)

let spawn_server ~sock ~spool ?metrics ~log () =
  let args =
    [ "serve"; "--socket"; sock; "--spool"; spool ]
    @ match metrics with Some m -> [ "--metrics"; m ] | None -> []
  in
  let logfd =
    Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND ] 0o600
  in
  let pid =
    Unix.create_process binary
      (Array.of_list (binary :: args))
      Unix.stdin logfd logfd
  in
  Unix.close logfd;
  pid

let reap pid =
  try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ()

let slurp path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* SIGTERM mid-job: exit 0, metrics dumped, job checkpointed + pending *)
let test_sigterm_drains_to_exit_zero () =
  let dir = mk_tmpdir () in
  let sock = Filename.concat dir "s.sock" in
  let spool = Filename.concat dir "spool" in
  let metrics = Filename.concat dir "metrics.json" in
  let log = Filename.concat dir "serve.log" in
  let pid = spawn_server ~sock ~spool ~metrics ~log () in
  Fun.protect
    ~finally:(fun () ->
      reap pid;
      rm_rf dir)
    (fun () ->
      await_pong "server ready" (`Unix sock);
      let id = submit_detached (`Unix sock) (resumable_job ()) in
      Alcotest.(check int) "first job id" 1 id;
      await "checkpoint written" (fun () ->
          Sys.file_exists (Filename.concat spool "job-1.ckpt"));
      Unix.kill pid Sys.sigterm;
      (match Unix.waitpid [] pid with
      | _, Unix.WEXITED 0 -> ()
      | _, Unix.WEXITED n ->
          Alcotest.failf "drained server exited %d:\n%s" n (slurp log)
      | _, (Unix.WSIGNALED _ | Unix.WSTOPPED _) ->
          Alcotest.failf "drained server killed:\n%s" (slurp log));
      (* the metrics sink is flushed on the signal path, atomically *)
      let m = slurp metrics in
      Alcotest.(check bool) "metrics dump marks the drain" true
        (contains m {|"cmd":"serve"|} && contains m {|"drained":"true"|});
      Alcotest.(check bool) "interrupt counted" true
        (contains m {|"name":"serve/interrupted"|});
      Alcotest.(check bool) "job left pending in the spool" true
        (Sys.file_exists (Filename.concat spool "job-1.json")
        && not (Sys.file_exists (Filename.concat spool "job-1.verdict"))))

(* kill -9 mid-job, restart, and the verdict comes out byte-identical to
   a direct CLI run — the crash-safety acceptance pin *)
let test_kill9_restart_resumes_byte_identical () =
  let dir = mk_tmpdir () in
  let sock = Filename.concat dir "s.sock" in
  let spool = Filename.concat dir "spool" in
  let log = Filename.concat dir "serve.log" in
  let pid = ref (spawn_server ~sock ~spool ~log ()) in
  Fun.protect
    ~finally:(fun () ->
      reap !pid;
      rm_rf dir)
    (fun () ->
      await_pong "server ready" (`Unix sock);
      let id = submit_detached (`Unix sock) (resumable_job ()) in
      await "checkpoint written" (fun () ->
          Sys.file_exists (Filename.concat spool "job-1.ckpt"));
      Unix.kill !pid Sys.sigkill;
      (match Unix.waitpid [] !pid with
      | _, Unix.WSIGNALED s when s = Sys.sigkill -> ()
      | _, _ -> Alcotest.failf "expected the server killed:\n%s" (slurp log));
      (* the source of truth: the same parameters through the binary *)
      let cli = run_cli resumable_cli_args in
      Alcotest.(check int) "direct run exits clean" 0 cli.code;
      pid := spawn_server ~sock ~spool ~log ();
      await_pong "restarted server ready" (`Unix sock);
      (match Serve.Client.wait_result (`Unix sock) ~id with
      | Error e -> Alcotest.failf "resumed job lost: %s\n%s" e (slurp log)
      | Ok (status, lines) ->
          Alcotest.(check int) "resumed status = CLI exit code" cli.code
            status;
          Alcotest.(check (list string)) "resumed verdict byte-identical"
            (lines_of cli.out) lines);
      Unix.kill !pid Sys.sigterm;
      match Unix.waitpid [] !pid with
      | _, Unix.WEXITED 0 -> ()
      | _, _ -> Alcotest.failf "restarted server did not drain clean:\n%s"
                  (slurp log))

(* wire-text honesty for non-ASCII payloads: a label carrying an astral
   code point survives the encode/decode pair as UTF-8 (the printer
   emits a surrogate-pair escape, the parser folds it back), and a
   client frame with a lone surrogate is rejected, not smuggled *)
let test_wire_unicode () =
  let grin = "\xf0\x9f\x98\x80" (* U+1F600 *) in
  let v = Serve.Json.Obj [ ("label", Serve.Json.String grin) ] in
  let wire = Serve.Json.to_string v in
  Alcotest.(check bool) "astral escape on the wire" true
    (Test_util.contains wire {|\ud83d\ude00|});
  (match Serve.Json.parse wire with
  | Ok v' -> Alcotest.(check bool) "decodes back to UTF-8" true (v' = v)
  | Error e -> Alcotest.failf "own output refused: %s" e);
  match Serve.Json.parse {|{"label":"\ud83d"}|} with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "lone surrogate accepted"

let suite =
  [
    Alcotest.test_case "wire unicode round-trip" `Quick test_wire_unicode;
    Alcotest.test_case "round trip + verdict identity" `Quick
      test_round_trip_identity;
    Alcotest.test_case "served deadline truncates" `Quick test_served_deadline;
    Alcotest.test_case "one spec validator" `Quick test_spec_validation;
    Alcotest.test_case "served arity and inputs refused" `Quick
      test_served_spec_refusal;
    Alcotest.test_case "spool refuses a non-directory" `Quick
      test_spool_refuses_non_directory;
    Alcotest.test_case "served dedup job writes no checkpoint" `Quick
      test_dedup_job_not_checkpointed;
    Alcotest.test_case "bounded queue sheds" `Quick test_shedding;
    Alcotest.test_case "spool write failures answered, not fatal" `Quick
      test_spool_write_failures;
    Alcotest.test_case "cancel semantics" `Quick test_cancel;
    Alcotest.test_case "malformed frame isolation" `Quick
      test_malformed_frame_isolation;
    Alcotest.test_case "client churn isolation" `Quick
      test_client_churn_isolation;
    Alcotest.test_case "drain respools, restart resumes" `Quick
      test_drain_respools_and_restart_resumes;
    Alcotest.test_case "retry backoff schedule" `Quick test_backoff_schedule;
    Alcotest.test_case "SIGTERM drains to exit 0" `Quick
      test_sigterm_drains_to_exit_zero;
    Alcotest.test_case "kill -9 resume is byte-identical" `Quick
      test_kill9_restart_resumes_byte_identical;
  ]
