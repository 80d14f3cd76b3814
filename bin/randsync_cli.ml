(* randsync: the command-line multitool.

   Subcommands:
     list      enumerate packaged protocols
     run       execute one consensus run under a chosen scheduler
     attack    construct a lower-bound counterexample (Lemma 3.2 / 3.6)
     mc        exhaustively model-check a protocol instance
     fuzz      randomized schedule fuzzing with counterexample shrinking
     classify  print the object-algebra classification table
     sweep     regenerate one experiment table (e1..e14)
     synth     CEGIS search for bounded decision-tree consensus protocols
     trace     inspect a saved witness trace
     serve     run the verification daemon (lib/serve)
     submit    send a job to a running daemon and await its verdict

   attack, mc and fuzz parse their flags into a Serve.Job.t and run it
   through Serve.Job.execute, the executor the daemon's workers run, so a
   served job prints what the direct command prints.
*)

open Cmdliner

(* One exit-code vocabulary for every subcommand, Serve.Job.Status (README
   has the table): 0 clean, 1 bad arguments, 2 violation, 3 truncated by a
   budget, 4 attack failed, 5 progress violation.  Scripts can branch on
   "did it break" (2), "did it hang" (5) and "did it finish" (3) without
   parsing output.

   `submit` adds one client-side code on top of the shared vocabulary:
     6  the server could not be reached (connect failures exhausted the
        retry budget, or the server was draining/shedding to the end)
   Verdict-bearing replies reuse 0/2/3/5 verbatim — the wire status IS
   the exit code the same job would have produced locally. *)
module Exit_code = struct
  include Serve.Job.Status

  let unavailable = 6
end

(* A SIGTERM must not lose metrics or corrupt spools: it flips a Cancel
   token, the budget machinery trips cooperatively, and the run winds
   down through the normal report-dump-exit path (exit 3, "truncated
   (cancelled)") instead of dying mid-write. *)
let term_cancel () =
  let c = Robust.Cancel.create () in
  (try
     Sys.set_signal Sys.sigterm
       (Sys.Signal_handle (fun _ -> Robust.Cancel.set c))
   with Invalid_argument _ | Sys_error _ -> ());
  c

let find_protocol name =
  match Consensus.Registry.find name with
  | Some p -> Ok p
  | None ->
      Error
        (Printf.sprintf "unknown protocol %S; try `randsync list`" name)

let parse_inputs s =
  match
    String.split_on_char ',' s |> List.map String.trim
    |> List.map int_of_string
  with
  | inputs -> inputs
  | exception _ ->
      prerr_endline
        (Printf.sprintf "invalid --inputs %S (expected e.g. 0,1,1)" s);
      exit Exit_code.bad_args

(* Durations accept "2s", "300ms" or a bare float of seconds. *)
let duration_conv =
  let parse s =
    let drop k = String.sub s 0 (String.length s - k) in
    let v =
      if String.length s > 2 && Filename.check_suffix s "ms" then
        Option.map (fun f -> f /. 1000.) (float_of_string_opt (drop 2))
      else if String.length s > 1 && Filename.check_suffix s "s" then
        float_of_string_opt (drop 1)
      else float_of_string_opt s
    in
    match v with
    | Some f when f >= 0. -> Ok f
    | _ ->
        Error
          (`Msg
            (Printf.sprintf "invalid duration %S (expected 2s, 300ms or 1.5)" s))
  in
  Arg.conv (parse, fun ppf f -> Format.fprintf ppf "%gs" f)

let deadline_arg =
  let doc =
    "Best-effort wall-clock budget (e.g. 2s, 300ms).  On expiry the search \
     stops cooperatively, reports a truncated verdict and exits 3 (unless a \
     violation was already in hand)."
  in
  Arg.(
    value
    & opt (some duration_conv) None
    & info [ "deadline" ] ~docv:"DUR" ~doc)

let protocol_arg =
  let doc = "Protocol name (see `randsync list`)." in
  Arg.(required & pos 0 (some string) None & info [] ~docv:"PROTOCOL" ~doc)

let seed_arg =
  let doc = "PRNG seed for scheduler and coins." in
  Arg.(value & opt int 1 & info [ "seed" ] ~doc)

let jobs_arg =
  let doc =
    "Number of domains for parallel search (1 = sequential; 0 = one per \
     core).  Results are bit-identical for every value."
  in
  Arg.(value & opt (some int) None & info [ "jobs"; "j" ] ~docv:"N" ~doc)

(* A negative domain count is an argument error, not something to hand
   to the pool (where it raised an uncaught exception — exit 125 —
   or, worse, was silently accepted by paths that bypass pool
   creation).  Every --jobs consumer funnels through here. *)
let validate_jobs jobs =
  match jobs with
  | Some j when j < 0 ->
      prerr_endline "--jobs must be >= 0 (0 = one domain per core)";
      exit Exit_code.bad_args
  | _ -> ()

(* [None] → no pool (sequential); [Some 0] → recommended domain count. *)
let with_jobs ?obs jobs f =
  validate_jobs jobs;
  match jobs with
  | None -> f None
  | Some j ->
      let jobs = if j = 0 then None else Some j in
      Par.with_pool ?jobs ?obs (fun pool -> f (Some pool))

(* ---- observability plumbing shared by attack / mc / fuzz ---- *)

let metrics_arg =
  let doc =
    "Dump counters, watermarks, histograms and spans as line-JSON to FILE \
     (written once on exit, durably; exit 1 if unwritable).  Counter values \
     equal the numbers printed on stdout."
  in
  Arg.(value & opt (some string) None & info [ "metrics" ] ~docv:"FILE" ~doc)

let progress_arg =
  let doc =
    "Print a heartbeat line to stderr (at most once per second), driven by \
     the budget's poll boundaries.  Without any budget dimension the search \
     is never polled and no heartbeat appears."
  in
  Arg.(value & flag & info [ "progress" ] ~doc)

let make_obs metrics =
  Option.map (fun path -> Obs.create ~sink:(Obs.Sink.file path) ()) metrics

let dump_metrics ?(extra = []) obs =
  Option.iter (fun o -> Obs.dump ~extra o) obs

let progress_hook enabled label =
  if not enabled then None
  else
    Some
      (Obs.Progress.heartbeat
         ~render:(fun ~nodes ~steps ->
           Printf.sprintf "%s: nodes=%d steps=%d" label nodes steps)
         ())

(* Run the [cmd] job, print its lines (stderr for an outcome without a
   verdict: bad input, failed attack), dump --metrics and exit with its
   status.  [after] runs between the lines and the dump. *)
let run_job ?obs ?pool ?checkpoint ?checkpoint_every ?resume ?on_witness
    ?(after = ignore) ~cmd ~extra ~progress job =
  let on_poll = progress_hook progress cmd in
  let o =
    Serve.Job.execute ?obs ?pool ~cancel:(term_cancel ()) ?on_poll ?checkpoint
      ?checkpoint_every ?resume ?on_witness job
  in
  let code = o.Serve.Job.status in
  let verdictless =
    code = Exit_code.bad_args || code = Exit_code.attack_failed
  in
  List.iter
    (if verdictless then prerr_endline else print_endline)
    o.Serve.Job.lines;
  after ();
  if code <> Exit_code.bad_args then
    dump_metrics obs ~extra:(("cmd", cmd) :: extra);
  if code <> 0 then exit code

(* ------------------------------------------------------------------ list *)

let list_cmd =
  let run () =
    let t =
      Stats.Table.create ~header:[ "name"; "kind"; "identical"; "objects @n=8" ]
    in
    List.iter
      (fun (p : Consensus.Protocol.t) ->
        let n = if p.Consensus.Protocol.supports_n 8 then 8 else 2 in
        Stats.Table.add_row t
          [
            p.Consensus.Protocol.name;
            (match p.Consensus.Protocol.kind with
            | `Deterministic -> "deterministic"
            | `Randomized -> "randomized");
            string_of_bool p.Consensus.Protocol.identical;
            string_of_int (Consensus.Protocol.space p ~n);
          ])
      Consensus.Registry.all;
    Stats.Table.print t
  in
  Cmd.v (Cmd.info "list" ~doc:"Enumerate packaged protocols")
    Term.(const run $ const ())

(* ------------------------------------------------------------------- run *)

let run_cmd =
  let inputs_arg =
    let doc = "Comma-separated binary inputs, one per process (e.g. 0,1,1)." in
    Arg.(value & opt string "0,1" & info [ "inputs" ] ~doc ~docv:"INPUTS")
  in
  let sched_arg =
    let doc = "Scheduler: random, round-robin or contention." in
    Arg.(value & opt string "random" & info [ "sched" ] ~doc)
  in
  let trace_arg =
    let doc = "Print the full execution trace." in
    Arg.(value & flag & info [ "trace" ] ~doc)
  in
  let run name inputs sched_name seed show_trace =
    match find_protocol name with
    | Error e ->
        prerr_endline e;
        exit Exit_code.bad_args
    | Ok p ->
        let inputs = parse_inputs inputs in
        let sched =
          match sched_name with
          | "random" -> Sim.Sched.random ~seed
          | "round-robin" -> Sim.Sched.round_robin ~seed ()
          | "contention" -> Sim.Sched.contention ~seed
          | s ->
              prerr_endline ("unknown scheduler " ^ s);
              exit Exit_code.bad_args
        in
        let report = Consensus.Protocol.run_once p ~inputs ~sched in
        if show_trace then
          print_endline
            (Sim.Trace.to_string string_of_int
               report.Consensus.Protocol.result.Sim.Run.trace);
        Fmt.pr "protocol=%s n=%d sched=%s seed=%d@." name (List.length inputs)
          sched_name seed;
        Fmt.pr "outcome=%s steps=%d@."
          (Sim.Run.outcome_to_string
             report.Consensus.Protocol.result.Sim.Run.outcome)
          report.Consensus.Protocol.result.Sim.Run.steps;
        Fmt.pr "verdict: %a@." Sim.Checker.pp report.Consensus.Protocol.verdict;
        if not (Sim.Checker.ok report.Consensus.Protocol.verdict) then
          exit Exit_code.violation
  in
  Cmd.v
    (Cmd.info "run" ~doc:"Execute one consensus run under a scheduler")
    Term.(const run $ protocol_arg $ inputs_arg $ sched_arg $ seed_arg $ trace_arg)

(* ---------------------------------------------------------------- attack *)

let attack_cmd =
  let general_arg =
    let doc =
      "Use the general historyless construction (Lemma 3.6) instead of the \
       identical-process one (Lemma 3.2)."
    in
    Arg.(value & flag & info [ "general" ] ~doc)
  in
  let trace_arg =
    let doc = "Print the counterexample execution." in
    Arg.(value & flag & info [ "trace" ] ~doc)
  in
  let certify_arg =
    let doc =
      "After the identical-process attack, certify the witness by fresh-start \
       replay with clones shadowing their origins lock-step."
    in
    Arg.(value & flag & info [ "certify" ] ~doc)
  in
  let save_arg =
    let doc =
      "Save the counterexample trace to FILE (checksummed, durable; exit 1 \
       if unwritable)."
    in
    Arg.(value & opt (some string) None & info [ "save" ] ~docv:"FILE" ~doc)
  in
  let seeds_arg =
    let doc =
      "Run the identical-process attack once per seed in 1..N (each seed \
       randomizes the solo witness search), in parallel under --jobs, and \
       keep the shortest successful witness."
    in
    Arg.(value & opt int 0 & info [ "seeds" ] ~docv:"N" ~doc)
  in
  let run name general show_trace do_certify save seeds deadline jobs metrics
      progress =
    let obs = make_obs metrics in
    let witness = ref None in
    (* the CLI-only flags act on the witness after the verdict lines *)
    let show trace =
      Option.iter
        (fun path ->
          Sim.Trace_io.save_int ~path trace;
          Fmt.pr "witness saved to %s@." path)
        save;
      if show_trace then print_endline (Sim.Trace.to_string string_of_int trace)
    in
    let after () =
      match !witness with
      | Some (Serve.Job.Attack_witness (p, o)) -> (
          show o.Lowerbound.Attack.trace;
          if do_certify then
            match Lowerbound.Attack.certify p o with
            | Ok (trace, verdict) ->
                Fmt.pr "certified fresh-start replay: %d steps, verdict: %a@."
                  (Sim.Trace.steps trace) Sim.Checker.pp verdict
            | Error msg -> Fmt.pr "certification failed: %s@." msg)
      | Some (Serve.Job.General_witness o) ->
          show o.Lowerbound.General_attack.trace
      | Some (Serve.Job.Fuzz_witness _) | None -> ()
    in
    with_jobs ?obs jobs @@ fun pool ->
    run_job ?obs ?pool ~progress
      ~on_witness:(fun w -> witness := Some w)
      ~after ~cmd:"attack"
      ~extra:[ ("protocol", name); ("general", string_of_bool general) ]
      {
        Serve.Job.spec =
          Serve.Job.Attack
            { at_protocol = name; at_general = general; at_seeds = seeds };
        deadline;
      }
  in
  Cmd.v
    (Cmd.info "attack"
       ~doc:"Construct a lower-bound counterexample against a protocol")
    Term.(
      const run $ protocol_arg $ general_arg $ trace_arg $ certify_arg
      $ save_arg $ seeds_arg $ deadline_arg $ jobs_arg $ metrics_arg
      $ progress_arg)

(* -------------------------------------------------------------------- mc *)

let mc_cmd =
  let run name inputs depth max_states dedup max_nodes deadline
      checkpoint checkpoint_every resume jobs metrics progress =
    let inputs = parse_inputs inputs in
    let mc_dedup =
      match Serve.Job.dedup_of_name dedup with
      | Ok d -> d
      | Error _ ->
          prerr_endline
            (Printf.sprintf
               "unknown --dedup %S (expected off | exact | symmetric)" dedup);
          exit Exit_code.bad_args
    in
    (* accepted and validated like every other --jobs, but there is
       only one mc search and it is sequential *)
    validate_jobs jobs;
    let m =
      {
        Serve.Job.mc_protocol = name;
        mc_inputs = inputs;
        mc_depth = depth;
        mc_max_states = max_states;
        mc_dedup;
        mc_max_nodes = max_nodes;
      }
    in
    (* the scenario stamp refuses resumes against a different search:
       same protocol, inputs, depth and dedup or nothing *)
    let resume =
      Option.map
        (fun path ->
          let saved, state = Mc.Checkpoint.load ~path in
          if saved <> Serve.Job.mc_stamp m then begin
            Fmt.epr
              "checkpoint %s was taken for a different search:@.  \
               checkpoint: %s@.  requested:  %s@."
              path saved (Serve.Job.mc_stamp m);
            exit Exit_code.bad_args
          end;
          state)
        resume
    in
    run_job ?obs:(make_obs metrics) ?checkpoint ~checkpoint_every ?resume
      ~progress ~cmd:"mc"
      ~extra:
        [
          ("protocol", name);
          ("inputs", String.concat "," (List.map string_of_int inputs));
          ("dedup", dedup);
        ]
      { Serve.Job.spec = Serve.Job.Mc m; deadline }
  in
  Cmd.v
    (Cmd.info "mc" ~doc:"Exhaustively model-check a protocol instance")
    Term.(
      const run $ protocol_arg
      $ Arg.(value & opt string "0,1" & info [ "inputs" ] ~doc:"inputs")
      $ Arg.(
          value & opt int 40
          & info [ "depth" ]
              ~doc:
                (Printf.sprintf "Depth bound, 0 to %d."
                   Mc.Explore.max_depth_bound))
      $ Arg.(
          value
          & opt int 2_000_000
          & info [ "max-states" ] ~docv:"N"
              ~doc:"Structural cap on visited configurations.")
      $ Arg.(
          value
          & opt string "off"
          & info [ "dedup" ]
              ~doc:
                "transposition-table dedup: off, exact, or symmetric \
                 (symmetric additionally collapses permutations of \
                 interchangeable processes)")
      $ Arg.(
          value
          & opt (some int) None
          & info [ "max-nodes" ] ~docv:"K"
              ~doc:
                "Deterministic node budget: visit exactly the first K DFS \
                 nodes (counted from the search's start, also under \
                 --resume), then report a truncated verdict and exit 3.")
      $ deadline_arg
      $ Arg.(
          value
          & opt (some string) None
          & info [ "checkpoint" ] ~docv:"FILE"
              ~doc:
                "Periodically save the DFS frontier to FILE (checksummed, \
                 durable; exit 1 if unwritable), and once more if a budget \
                 trips.")
      $ Arg.(
          value
          & opt int 50_000
          & info [ "checkpoint-every" ] ~docv:"N"
              ~doc:"Checkpoint every N visited nodes (with --checkpoint).")
      $ Arg.(
          value
          & opt (some string) None
          & info [ "resume" ] ~docv:"FILE"
              ~doc:
                "Resume a search from a checkpoint FILE; the stored \
                 scenario must match the protocol/inputs/depth/dedup given \
                 here.")
      $ Arg.(
          value
          & opt (some int) None
          & info [ "jobs"; "j" ] ~docv:"N"
              ~doc:
                "Accepted for symmetry with the other subcommands and \
                 validated (N >= 0), but mc runs one sequential search: \
                 its output is the same for every N.")
      $ metrics_arg $ progress_arg)

(* ------------------------------------------------------------------ fuzz *)

let fuzz_cmd =
  let scenario_arg =
    let doc =
      "Scenario: a builtin (flawed, lin-collect-counter, \
       lin-snapshot-counter, lin-lock-counter, lin-stuck-counter, \
       lin-consensus-swap, lin-tas-rand, mutex-peterson-2, \
       mutex-naive-flag, mutex-swap-lock) or any protocol name from \
       `randsync list`."
    in
    Arg.(required & pos 0 (some string) None & info [] ~docv:"SCENARIO" ~doc)
  in
  let run scenario inputs engine runs seed jobs shrink max_candidates out
      deadline max_runs metrics progress =
    let inputs = Option.map parse_inputs inputs in
    let fz_engine =
      match Serve.Job.engine_of_name engine with
      | Ok e -> e
      | Error _ ->
          Fmt.epr "unknown --engine %S (expected flat or closure)@." engine;
          exit Exit_code.bad_args
    in
    let obs = make_obs metrics in
    let cex = ref None in
    let after () =
      match (!cex, out) with
      | Some (Serve.Job.Fuzz_witness c), Some path ->
          Robust.Persist.write ~path c.Fuzz.Campaign.artifact;
          Fmt.pr "counterexample saved to %s@." path
      | _ -> ()
    in
    with_jobs ?obs jobs @@ fun pool ->
    run_job ?obs ?pool ~progress
      ~on_witness:(fun w -> cex := Some w)
      ~after ~cmd:"fuzz"
      ~extra:[ ("scenario", scenario); ("seed", string_of_int seed) ]
      {
        Serve.Job.spec =
          Serve.Job.Fuzz
            {
              fz_scenario = scenario;
              fz_inputs = inputs;
              fz_engine;
              fz_runs = runs;
              fz_seed = seed;
              fz_shrink = shrink;
              fz_max_candidates = max_candidates;
              fz_max_runs = max_runs;
            };
        deadline;
      }
  in
  Cmd.v
    (Cmd.info "fuzz"
       ~doc:
         "Stress a scenario under weighted adversarial schedules and shrink \
          any counterexample")
    Term.(
      const run $ scenario_arg
      $ Arg.(
          value
          & opt (some string) None
          & info [ "inputs" ] ~docv:"INPUTS"
              ~doc:"Consensus inputs (default 0,1); ignored by builtins.")
      $ Arg.(
          value
          & opt string "flat"
          & info [ "engine" ]
              ~doc:
                "execution engine: flat (interned slab/harness states, the \
                 default) or closure (the reference closure-tree engine).  \
                 Identical schedules and verdicts per seed; mutex \
                 scenarios always run closure-side.")
      $ Arg.(
          value
          & opt int 200
          & info [ "runs" ] ~docv:"N" ~doc:"Number of stress runs.")
      $ seed_arg $ jobs_arg
      $ Arg.(
          value & flag
          & info [ "shrink" ]
              ~doc:
                "Delta-debug the first failing schedule to a minimal \
                 replayable counterexample.")
      $ Arg.(
          value
          & opt int 4000
          & info [ "max-candidates" ] ~docv:"K"
              ~doc:"Cap on shrink candidate replays.")
      $ Arg.(
          value
          & opt (some string) None
          & info [ "out" ] ~docv:"FILE"
              ~doc:
                "Save the shrunk counterexample (checksummed, durable; exit 1 \
                 if unwritable): a trace for consensus/mutex scenarios (see \
                 `randsync trace`), a fuzz-schedule file for lin ones.")
      $ deadline_arg
      $ Arg.(
          value
          & opt (some int) None
          & info [ "max-runs" ] ~docv:"K"
              ~doc:
                "Deterministic node budget: admit exactly the first K runs \
                 (bit-identical under any --jobs), then report truncated.")
      $ metrics_arg $ progress_arg)

(* ----------------------------------------------------------------- trace *)

let trace_cmd =
  let run path =
    let trace = Sim.Trace_io.load_int ~path in
    print_endline (Sim.Trace.to_string string_of_int trace);
    let decisions = List.map snd (Sim.Trace.decisions trace) in
    Fmt.pr "--@.steps=%d pids=[%a] decisions=[%a]%s@."
      (Sim.Trace.steps trace)
      Fmt.(list ~sep:(any ";") int)
      (Sim.Trace.pids trace)
      Fmt.(list ~sep:(any ";") int)
      decisions
      (if Sim.Checker.inconsistent ~decisions then "  INCONSISTENT" else "")
  in
  Cmd.v
    (Cmd.info "trace" ~doc:"Inspect a saved witness trace (see attack --save)")
    Term.(
      const run
      $ Arg.(required & pos 0 (some string) None & info [] ~docv:"FILE"))

(* -------------------------------------------------------------- classify *)

let classify_cmd =
  let run () = Stats.Table.print (Experiments.E7_classify.table ()) in
  Cmd.v
    (Cmd.info "classify" ~doc:"Print the object-algebra classification table")
    Term.(const run $ const ())

(* ----------------------------------------------------------------- sweep *)

let sweep_cmd =
  let run id quick jobs =
    match Experiments.All.find id with
    | None ->
        prerr_endline ("unknown experiment " ^ id ^ " (known: e1..e14)");
        exit Exit_code.bad_args
    | Some s ->
        Fmt.pr "=== %s: %s ===@.@." (String.uppercase_ascii s.Experiments.All.id)
          s.Experiments.All.title;
        Stats.Table.print
          (with_jobs jobs (fun pool -> s.Experiments.All.run ~pool ~quick))
  in
  Cmd.v
    (Cmd.info "sweep" ~doc:"Regenerate one experiment table (e1..e14)")
    Term.(
      const run
      $ Arg.(required & pos 0 (some string) None & info [] ~docv:"EXPERIMENT")
      $ Arg.(value & flag & info [ "quick" ] ~doc:"smaller parameters")
      $ jobs_arg)

(* ----------------------------------------------------------------- serve *)

let parse_tcp s =
  match String.rindex_opt s ':' with
  | Some i -> (
      let host = String.sub s 0 i in
      let port = String.sub s (i + 1) (String.length s - i - 1) in
      match int_of_string_opt port with
      | Some p when p >= 0 && host <> "" -> Ok (host, p)
      | _ -> Error (Printf.sprintf "invalid --tcp %S (expected HOST:PORT)" s))
  | None -> Error (Printf.sprintf "invalid --tcp %S (expected HOST:PORT)" s)

let socket_arg =
  let doc = "Unix-domain socket path (ignored when --tcp is given)." in
  Arg.(value & opt string "randsync.sock" & info [ "socket" ] ~docv:"PATH" ~doc)

let tcp_arg =
  let doc = "Listen on / connect to HOST:PORT instead of a Unix socket." in
  Arg.(value & opt (some string) None & info [ "tcp" ] ~docv:"HOST:PORT" ~doc)

let resolve_addr socket tcp =
  match tcp with
  | None -> `Unix socket
  | Some s -> (
      match parse_tcp s with
      | Ok (h, p) -> `Tcp (h, p)
      | Error e ->
          prerr_endline e;
          exit Exit_code.bad_args)

let serve_cmd =
  let run socket tcp queue_limit workers spool metrics =
    let address = resolve_addr socket tcp in
    let obs = make_obs metrics in
    let cfg =
      {
        Serve.Server.address;
        queue_limit;
        workers;
        spool_dir = spool;
        obs;
        progress_interval = 1.0;
      }
    in
    Serve.Server.run
      ~on_ready:(fun a ->
        (match a with
        | `Unix path -> Fmt.pr "listening on unix:%s@." path
        | `Tcp (host, port) -> Fmt.pr "listening on tcp:%s:%d@." host port);
        (* scripts wait for this line; make sure it is out *)
        flush stdout)
      cfg;
    Fmt.pr "drained@."
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the verification daemon: accepts mc/fuzz/attack jobs over a \
          line-JSON socket protocol, with bounded admission, graceful \
          SIGTERM drain and crash-safe resume from --spool")
    Term.(
      const run $ socket_arg $ tcp_arg
      $ Arg.(
          value
          & opt int Serve.Server.default_queue_limit
          & info [ "queue-limit" ] ~docv:"N"
              ~doc:
                "Bounded admission queue: a submit arriving with N jobs \
                 already queued is shed with an explicit overloaded reply.")
      $ Arg.(
          value
          & opt int Serve.Server.default_workers
          & info [ "workers" ] ~docv:"N" ~doc:"Concurrent job executors.")
      $ Arg.(
          value
          & opt (some string) None
          & info [ "spool" ] ~docv:"DIR"
              ~doc:
                "Persist accepted jobs (and mc checkpoints) under DIR; a \
                 restarted server re-runs everything unfinished to the \
                 same verdicts.")
      $ metrics_arg)

(* ---------------------------------------------------------------- submit *)

let submit_cmd =
  let run socket tcp job detach wait_id result_id status cancel_id drain ping
      attempts seed =
    (* with attempts < 1 the retry loop made zero connection attempts
       and reported the server unreachable (exit 6) without ever trying
       — an argument error masquerading as an outage *)
    (if attempts < 1 then begin
       prerr_endline "--attempts must be >= 1";
       exit Exit_code.bad_args
     end);
    let addr = resolve_addr socket tcp in
    let retry_opts f = f ?attempts:(Some attempts) ?seed:(Some seed) in
    let unavailable msg =
      prerr_endline msg;
      exit Exit_code.unavailable
    in
    let print_outcome (code, lines) =
      List.iter print_endline lines;
      if code <> 0 then exit code
    in
    (* one-shot request/reply over a fresh connection, with retries *)
    let roundtrip req =
      let r =
        retry_opts (fun ?attempts ?seed () ->
            Serve.Client.with_retry ?attempts ?seed @@ fun _ ->
            match Serve.Client.connect addr with
            | Error e -> Error (`Retry ("connect: " ^ e))
            | Ok conn ->
                let r =
                  match
                    Serve.Client.send conn req;
                    Serve.Client.recv conn
                  with
                  | exception Sys_error e -> Error (`Retry e)
                  | Ok reply -> Ok reply
                  | Error e -> Error (`Fail ("bad reply: " ^ e))
                in
                Serve.Client.close conn;
                r)
          ()
      in
      match r with Ok reply -> reply | Error e -> unavailable e
    in
    if ping then begin
      match roundtrip Serve.Wire.Ping with
      | Serve.Wire.Pong -> print_endline "pong"
      | _ ->
          prerr_endline "unexpected reply to ping";
          exit Exit_code.unavailable
    end
    else if drain then begin
      match roundtrip Serve.Wire.Drain with
      | Serve.Wire.Draining -> print_endline "draining"
      | _ ->
          prerr_endline "unexpected reply to drain";
          exit Exit_code.unavailable
    end
    else if status then begin
      match roundtrip (Serve.Wire.Status { id = None }) with
      | Serve.Wire.Jobs { draining; jobs } ->
          Fmt.pr "draining=%b jobs=%d@." draining (List.length jobs);
          List.iter
            (fun (jl : Serve.Wire.job_line) ->
              Fmt.pr "job %d [%s]: %s@." jl.Serve.Wire.id jl.Serve.Wire.label
                (match jl.Serve.Wire.state with
                | Serve.Wire.Queued -> "queued"
                | Serve.Wire.Running -> "running"
                | Serve.Wire.Done code -> Printf.sprintf "done status=%d" code
                | Serve.Wire.Cancelled -> "cancelled"
                | Serve.Wire.Interrupted -> "interrupted"))
            jobs
      | _ ->
          prerr_endline "unexpected reply to status";
          exit Exit_code.unavailable
    end
    else
      match (cancel_id, result_id, wait_id, job) with
      | Some id, _, _, _ -> (
          match roundtrip (Serve.Wire.Cancel { id }) with
          | Serve.Wire.Cancelled _ -> Fmt.pr "cancelled %d@." id
          | Serve.Wire.Error { message } ->
              prerr_endline message;
              exit Exit_code.bad_args
          | _ ->
              prerr_endline "unexpected reply to cancel";
              exit Exit_code.unavailable)
      | None, Some id, _, _ -> (
          match roundtrip (Serve.Wire.Result { id }) with
          | Serve.Wire.Verdict { status; lines; _ } ->
              print_outcome (status, lines)
          | Serve.Wire.Cancelled _ ->
              prerr_endline (Printf.sprintf "job %d was cancelled" id);
              exit Exit_code.bad_args
          | Serve.Wire.Error { message } ->
              prerr_endline message;
              exit Exit_code.bad_args
          | _ ->
              prerr_endline "unexpected reply to result";
              exit Exit_code.unavailable)
      | None, None, Some id, _ -> (
          match
            retry_opts
              (fun ?attempts ?seed () ->
                Serve.Client.wait_result ?attempts ?seed addr ~id)
              ()
          with
          | Ok outcome -> print_outcome outcome
          | Error e -> unavailable e)
      | None, None, None, Some spec -> (
          match Serve.Json.parse spec with
          | Error e ->
              prerr_endline ("invalid --job JSON: " ^ e);
              exit Exit_code.bad_args
          | Ok j -> (
              match Serve.Job.of_json j with
              | Error e ->
                  prerr_endline ("invalid job spec: " ^ e);
                  exit Exit_code.bad_args
              | Ok job -> (
                  match
                    retry_opts
                      (fun ?attempts ?seed () ->
                        Serve.Client.submit_and_wait ?attempts ?seed ~detach
                          addr job)
                      ()
                  with
                  | Ok outcome -> print_outcome outcome
                  | Error e -> unavailable e)))
      | None, None, None, None ->
          prerr_endline
            "nothing to do: pass --job, --wait, --result, --cancel, --status, \
             --drain or --ping";
          exit Exit_code.bad_args
  in
  Cmd.v
    (Cmd.info "submit"
       ~doc:
         "Talk to a randsync serve daemon: submit a job and await its \
          verdict (exit code = wire status), or poll/cancel/drain.  \
          Connection failures and overload shedding are retried with \
          capped exponential backoff + jitter; exit 6 when the server \
          stays unreachable.")
    Term.(
      const run $ socket_arg $ tcp_arg
      $ Arg.(
          value
          & opt (some string) None
          & info [ "job" ] ~docv:"JSON"
              ~doc:
                "Job spec, e.g. \
                 '{\"kind\":\"mc\",\"protocol\":\"counter-2\",\"depth\":14}'.")
      $ Arg.(
          value & flag
          & info [ "detach" ]
              ~doc:
                "Return as soon as the job is accepted (prints id=N); the \
                 job then survives this client and is polled with --wait.")
      $ Arg.(
          value
          & opt (some int) None
          & info [ "wait" ] ~docv:"ID"
              ~doc:"Poll job ID until it finishes, then print its verdict.")
      $ Arg.(
          value
          & opt (some int) None
          & info [ "result" ] ~docv:"ID"
              ~doc:"Fetch the verdict of a finished job.")
      $ Arg.(value & flag & info [ "status" ] ~doc:"List the server's jobs.")
      $ Arg.(
          value
          & opt (some int) None
          & info [ "cancel" ] ~docv:"ID" ~doc:"Cancel a queued/running job.")
      $ Arg.(
          value & flag
          & info [ "drain" ] ~doc:"Ask the server to drain (like SIGTERM).")
      $ Arg.(value & flag & info [ "ping" ] ~doc:"Health check.")
      $ Arg.(
          value & opt int 5
          & info [ "attempts" ] ~docv:"N"
              ~doc:"Total connection/overload retry attempts.")
      $ Arg.(
          value & opt int 1
          & info [ "retry-seed" ] ~docv:"K"
              ~doc:"Seed for the deterministic backoff jitter."))

(* ----------------------------------------------------------------- synth *)

let synth_cmd =
  let run registers procs depth coins objects seed jobs max_nodes deadline
      lemmas_out metrics progress =
    let style =
      match Consensus.Dtree.style_of_string objects with
      | Some s -> s
      | None ->
          prerr_endline
            (Printf.sprintf "unknown --objects %S (expected rw | swap)"
               objects);
          exit Exit_code.bad_args
    in
    (if registers < 1 then begin
       prerr_endline "--registers must be >= 1";
       exit Exit_code.bad_args
     end);
    (if depth < 0 then begin
       prerr_endline "--depth must be >= 0";
       exit Exit_code.bad_args
     end);
    (if procs < 2 then begin
       prerr_endline "--procs must be >= 2 (consensus starts at two)";
       exit Exit_code.bad_args
     end);
    let obs = make_obs metrics in
    let on_poll = progress_hook progress "synth" in
    let cancel = term_cancel () in
    let budget =
      Some (Robust.Budget.make ?nodes:max_nodes ?deadline ~cancel ?on_poll ())
    in
    let result =
      with_jobs ?obs jobs (fun pool ->
          Synth.Cegis.search ?obs ?pool ?budget ~style ~registers ~depth
            ~coins ~max_procs:procs ~seed ())
    in
    List.iter print_endline (Synth.Cegis.report result);
    Option.iter
      (fun path ->
        Synth.Lemma.save ~path result.Synth.Cegis.lemmas;
        Fmt.pr "lemmas saved to %s@." path)
      lemmas_out;
    dump_metrics obs
      ~extra:
        [
          ("cmd", "synth");
          ("objects", objects);
          ("registers", string_of_int registers);
          ("depth", string_of_int depth);
          ("seed", string_of_int seed);
        ];
    match result.Synth.Cegis.completeness with
    | `Exhaustive -> ()
    | `Truncated _ -> exit Exit_code.truncated
  in
  Cmd.v
    (Cmd.info "synth"
       ~doc:
         "CEGIS over bounded decision-tree protocols: find the largest \
          process count with a correct consensus protocol over the given \
          objects, learning pruning lemmas from every counterexample.  \
          Both answers are clean exits (0): a synthesized protocol (its \
          synth: name is usable with mc/fuzz/run) or an exhaustive \
          impossibility; a tripped budget exits 3.")
    Term.(
      const run
      $ Arg.(
          value & opt int 1
          & info [ "registers" ] ~docv:"R"
              ~doc:"Number of shared objects the trees may address.")
      $ Arg.(
          value & opt int 4
          & info [ "procs" ] ~docv:"N"
              ~doc:
                "Largest process count to attempt.  Rounds stop early at \
                 the first unsatisfiable n: correctness is monotone \
                 downward in n, so larger rounds are settled without being \
                 run.")
      $ Arg.(
          value & opt int 1
          & info [ "depth" ] ~docv:"D"
              ~doc:"Decision-tree depth bound (operations per solo path).")
      $ Arg.(
          value & flag
          & info [ "coins" ]
              ~doc:"Offer internal fair-coin flips to the candidate trees.")
      $ Arg.(
          value & opt string "rw"
          & info [ "objects" ]
              ~doc:
                "Object style: rw (read/write registers) or swap \
                 (swap-registers, consensus number 2).")
      $ seed_arg $ jobs_arg
      $ Arg.(
          value
          & opt (some int) None
          & info [ "max-nodes" ] ~docv:"K"
              ~doc:
                "Deterministic budget: admit exactly K unanimity checks + \
                 candidate pairs (bit-identical under any --jobs), then \
                 report truncated rows and exit 3.")
      $ deadline_arg
      $ Arg.(
          value
          & opt (some string) None
          & info [ "lemmas" ] ~docv:"FILE"
              ~doc:
                "Save the final lemma pool to FILE (checksummed, durable; \
                 exit 1 if unwritable).  Byte-identical across --jobs; CI \
                 diffs it.")
      $ metrics_arg $ progress_arg)

let main =
  let doc = "Randomized synchronization space-complexity toolkit (Fich-Herlihy-Shavit, PODC'93)" in
  Cmd.group (Cmd.info "randsync" ~doc)
    [
      list_cmd; run_cmd; attack_cmd; mc_cmd; fuzz_cmd; classify_cmd; sweep_cmd;
      synth_cmd; trace_cmd; serve_cmd; submit_cmd;
    ]

(* The one handler for file failures: a file that cannot be read, written
   or parsed exits 1 naming the path, over any verdict already printed
   (DESIGN.md §4d).  Anything else keeps cmdliner's internal-error exit. *)
let () =
  match Cmd.eval ~catch:false main with
  | code -> exit code
  | exception (Robust.Persist.Error _ | Sim.Trace_io.Parse_error _ as e) ->
      prerr_endline ("randsync: " ^ Printexc.to_string e);
      exit Exit_code.bad_args
  | exception e ->
      prerr_endline ("randsync: internal error:\n" ^ Printexc.to_string e);
      exit Cmd.Exit.internal_error
