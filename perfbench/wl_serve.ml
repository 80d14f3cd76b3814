(* The served layers, measured in the traced run of synth-rw-d2: a
   separately spawned [randsync serve] daemon with a spool and two
   workers, fed an open-loop stream of attached submits over one
   connection — the path users hit with [randsync submit].  Its latency
   spreads too widely between runs on a shared machine to carry a
   regression bound, so it is measured here rather than as a workload;
   see NOTES.md.

   One generator thread sends each job's Submit frame at its due time;
   one receiver thread matches Accepted frames to submits (the server
   answers a connection's requests in order) and Verdict frames to jobs
   by id.  Latency runs from the due time, so a stalled generator or a
   slow accept is charged to the jobs behind it.  The daemon runs in its
   own process: its workers are systhreads of one domain, and sharing a
   runtime lock with the generator would measure the benchmark, not the
   server.

   The seed draws the stream: arrival times and the order of the jobs.
   Every verdict is compared with an in-process [Serve.Job.execute] of
   the same spec, computed once per spec before the stream starts. *)

open Common
module J = Serve.Job

(* the repo's mutex-protocol library shadows the stdlib module *)
module Mutex = Stdlib.Mutex

let rate = 40. (* jobs/s *)
let slo = 0.100 (* s, due time to verdict *)
let workers = 2

(* how long stragglers may take after the last due time *)
let grace = 10.

(* ---- the job mix ---- *)

let job spec = { J.spec; deadline = None }

let mc protocol inputs depth dedup =
  job
    (J.Mc
       {
         (J.mc_defaults ~protocol) with
         J.mc_inputs = inputs;
         mc_depth = depth;
         mc_dedup = dedup;
       })

let fuzz ?(shrink = false) scenario runs seed =
  job
    (J.Fuzz
       {
         (J.fuzz_defaults ~scenario) with
         J.fz_runs = runs;
         fz_seed = seed;
         fz_shrink = shrink;
       })

let attack protocol =
  job (J.Attack { J.at_protocol = protocol; at_general = false; at_seeds = 0 })

(* 50% small mc (run by the daemon on the checkpointing engine), 35%
   fuzz, 15% attack *)
let mc_jobs =
  [|
    mc "counter-3" [ 0; 1 ] 14 `Off;
    mc "counter-3" [ 0; 1 ] 18 `Exact;
    mc "counter-3" [ 0; 1; 0 ] 12 `Exact;
    mc "flawed-unanimous-rw-r2" [ 0; 1 ] 40 `Exact;
  |]

(* 500 runs keep a fuzz job near the mc jobs' few milliseconds.  At
   1500 (about 10 ms a job) the daemon ran a third busy, queueing
   amplified every slowdown of the machine, and the median latency of
   runs made side by side was 1.4 to 2.4 times that at 500. *)
let fuzz_families =
  [
    (fun seed -> fuzz "lin-tas-rand" 500 seed);
    (fun seed -> fuzz ~shrink:true "lin-collect-counter" 500 seed);
    (fun seed -> fuzz "mutex-peterson-2" 500 seed);
  ]

let attack_jobs =
  [| attack "flawed-unanimous-rw-r2"; attack "flawed-first-writer-r2" |]

type slot = {
  due : float;  (** seconds after the stream's start *)
  job : J.t;
  frame : string;
  mutable sent : float;
  mutable accepted : float;
  mutable verdict : float;
  mutable reply : [ `None | `Verdict of int * string list | `Refused of string ];
}

let fuzz_jobs =
  Array.of_list
    (List.concat_map (fun f -> List.map f [ 1; 2; 3 ]) fuzz_families)

(* [n] arrivals at sorted uniform times over [seconds]: a Poisson stream
   conditioned on its count, so every seed offers exactly [rate] jobs/s.
   The jobs are a shuffled deck with exact class shares, each class
   cycling through its specs, so every seed sends the same multiset of
   work and only its order and timing vary. *)
let stream rng ~seconds =
  let n = int_of_float (Float.round (rate *. seconds)) in
  let n_mc = n / 2 and n_fuzz = n * 35 / 100 in
  let deck =
    Array.init n (fun i ->
        if i < n_mc then mc_jobs.(i mod Array.length mc_jobs)
        else if i < n_mc + n_fuzz then
          fuzz_jobs.((i - n_mc) mod Array.length fuzz_jobs)
        else attack_jobs.((i - n_mc - n_fuzz) mod Array.length attack_jobs))
  in
  for i = n - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let x = deck.(i) in
    deck.(i) <- deck.(j);
    deck.(j) <- x
  done;
  let dues = Array.init n (fun _ -> Random.State.float rng seconds) in
  Array.sort compare dues;
  Array.mapi
    (fun i due ->
      let job = deck.(i) in
      {
        due;
        job;
        frame =
          Serve.Wire.encode_request (Serve.Wire.Submit { job; detach = false });
        sent = nan;
        accepted = nan;
        verdict = nan;
        reply = `None;
      })
    dues

let distinct_jobs slots =
  Array.fold_left
    (fun acc s -> if List.mem s.job acc then acc else s.job :: acc)
    [] slots
  |> List.rev

(* ---- the daemon ---- *)

type daemon = {
  pid : int;
  sock : string;
  spool : string;
  metrics : string;
  stdout : Unix.file_descr;  (** read end of the daemon's stdout *)
  mutable live : bool;
}

let connect sock =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  match Unix.connect fd (Unix.ADDR_UNIX sock) with
  | () -> Some fd
  | exception Unix.Unix_error _ ->
      Unix.close fd;
      None

(* One request, one reply, on a fresh connection. *)
let exchange sock req =
  match connect sock with
  | None -> None
  | Some fd -> (
      Fun.protect ~finally:(fun () -> Unix.close fd) @@ fun () ->
      let ic = Unix.in_channel_of_descr fd
      and oc = Unix.out_channel_of_descr fd in
      output_string oc (Serve.Wire.encode_request req);
      output_char oc '\n';
      flush oc;
      match input_line ic with
      | line -> Result.to_option (Serve.Wire.decode_reply line)
      | exception (End_of_file | Sys_error _) -> None)

(* Waits for the daemon to exit, killing it after [timeout] seconds. *)
let reap ?(timeout = 15.) d =
  if d.live then begin
    let t_end = now () +. timeout in
    let rec go () =
      match Unix.waitpid [ Unix.WNOHANG ] d.pid with
      | 0, _ when now () < t_end ->
          Unix.sleepf 0.005;
          go ()
      | 0, _ ->
          Unix.kill d.pid Sys.sigkill;
          ignore (Unix.waitpid [] d.pid)
      | _ -> ()
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
    in
    go ();
    Unix.close d.stdout;
    d.live <- false
  end

(* Spawns the daemon and returns once it has answered a Ping. *)
let spawn ~cli ~dir =
  mkdir_p dir;
  let sock = Filename.concat dir "s.sock"
  and spool = Filename.concat dir "spool"
  and metrics = Filename.concat dir "metrics.jsonl" in
  (* the daemon announces its bound socket on stdout; reading that line
     waits exactly as long as start-up takes, where polling the socket
     would add its poll interval *)
  let out_r, out_w = Unix.pipe ~cloexec:true () in
  let pid =
    Unix.create_process cli
      [|
        cli; "serve"; "--socket"; sock; "--spool"; spool; "--workers";
        string_of_int workers; "--metrics"; metrics;
      |]
      Unix.stdin out_w Unix.stderr
  in
  Unix.close out_w;
  let d = { pid; sock; spool; metrics; stdout = out_r; live = true } in
  let ready =
    match input_line (Unix.in_channel_of_descr out_r) with
    | line -> String.starts_with ~prefix:"listening on" line
    | exception End_of_file -> false
  in
  if ready && exchange sock Serve.Wire.Ping = Some Serve.Wire.Pong then d
  else begin
    reap ~timeout:0. d;
    failwith "randsync serve did not start"
  end

(* Drain: the daemon finishes or cuts running jobs, dumps its metrics
   and exits 0. *)
let drain d =
  (match exchange d.sock Serve.Wire.Drain with
  | Some _ -> ()
  | None -> if d.live then Unix.kill d.pid Sys.sigterm);
  reap d

(* Counters, watermarks, and the job-seconds histogram's mean, from the
   daemon's metrics dump. *)
let read_metrics path =
  let values = Hashtbl.create 16 in
  let job_s = ref 0. in
  (if Sys.file_exists path then
     let ic = open_in path in
     Fun.protect ~finally:(fun () -> close_in ic) @@ fun () ->
     try
       while true do
         match Serve.Json.parse (input_line ic) with
         | Ok j -> (
             match (Serve.Json.str "type" j, Serve.Json.str "name" j) with
             | Ok ("counter" | "watermark"), Ok name -> (
                 match Serve.Json.int "value" j with
                 | Ok v -> Hashtbl.replace values name (float_of_int v)
                 | Error _ -> ())
             | Ok "histogram", Ok "serve/job-seconds" -> (
                 match (Serve.Json.num "sum" j, Serve.Json.int "count" j) with
                 | Ok sum, Ok count when count > 0 ->
                     job_s := sum /. float_of_int count
                 | _ -> ())
             | _ -> ())
         | Error _ -> ()
       done
     with End_of_file -> ());
  ((fun name -> Option.value ~default:0. (Hashtbl.find_opt values name)), !job_s)

(* ---- one stream over one connection ---- *)

(* Sends [slots] on schedule and collects their replies; returns the
   stream's start time and (with [keep]) every reply line received. *)
let run_stream d slots ~keep =
  let fd =
    match connect d.sock with
    | Some fd -> fd
    | None -> failwith "cannot connect to randsync serve"
  in
  Fun.protect ~finally:(fun () -> Unix.close fd) @@ fun () ->
  (* a receive timeout lets the receiver notice the grace deadline *)
  Unix.setsockopt_float fd Unix.SO_RCVTIMEO 0.25;
  let ic = Unix.in_channel_of_descr fd and oc = Unix.out_channel_of_descr fd in
  let n = Array.length slots in
  let unanswered = Queue.create () and lock = Mutex.create () in
  let ids = Hashtbl.create n in
  let lines = ref [] in
  let t0 = now () +. 0.05 in
  let last_due = if n = 0 then 0. else slots.(n - 1).due in
  let give_up = t0 +. last_due +. grace in
  let generator () =
    try
      Array.iteri
        (fun k s ->
          let wait = t0 +. s.due -. now () in
          if wait > 0. then Thread.delay wait;
          s.sent <- now ();
          Mutex.protect lock (fun () -> Queue.push k unanswered);
          output_string oc s.frame;
          output_char oc '\n';
          flush oc)
        slots
    with Sys_error _ -> ()
  in
  let receiver () =
    let remaining = ref n in
    let next_unanswered () =
      Mutex.protect lock (fun () -> Queue.take_opt unanswered)
    in
    let finish k reply =
      slots.(k).reply <- reply;
      decr remaining
    in
    let handle t line =
      match Serve.Wire.decode_reply line with
      | Ok (Serve.Wire.Accepted { id }) -> (
          match next_unanswered () with
          | Some k ->
              slots.(k).accepted <- t;
              Hashtbl.replace ids id k
          | None -> ())
      | Ok (Serve.Wire.Overloaded _ | Serve.Wire.Draining | Serve.Wire.Error _)
        ->
          Option.iter (fun k -> finish k (`Refused line)) (next_unanswered ())
      | Ok (Serve.Wire.Verdict { id; status; lines }) ->
          Option.iter
            (fun k ->
              slots.(k).verdict <- t;
              finish k (`Verdict (status, lines)))
            (Hashtbl.find_opt ids id)
      | Ok (Serve.Wire.Cancelled { id }) ->
          Option.iter (fun k -> finish k (`Refused line)) (Hashtbl.find_opt ids id)
      | Ok _ | Error _ -> ()
    in
    let rec loop () =
      if !remaining > 0 then
        match input_line ic with
        | line ->
            handle (now ()) line;
            if keep then lines := line :: !lines;
            loop ()
        (* a receive timeout surfaces as Sys_blocked_io (EAGAIN) *)
        | exception (Sys_error _ | Sys_blocked_io) ->
            if now () < give_up then loop ()
        | exception End_of_file -> ()
    in
    loop ()
  in
  let g = Thread.create generator () and r = Thread.create receiver () in
  Thread.join g;
  Thread.join r;
  (t0, List.rev !lines)

(* ---- verdicts and the end-to-end numbers ---- *)

let check goldens s =
  let g : J.outcome = Hashtbl.find goldens s.job in
  let g_lines =
    if !wrong_golden then g.J.lines @ [ "(wrong golden)" ] else g.J.lines
  in
  let ok =
    match s.reply with
    | `Verdict (status, lines) when status = g.J.status && lines = g_lines -> `Ok
    | `Verdict (status, _) ->
        `Wrong
          (Printf.sprintf
             "served status %d / lines differ from the in-process run (status \
              %d)"
             status g.J.status)
    | `Refused line -> `Failed line
    | `None -> `Failed "no verdict"
  in
  record (J.label s.job) ok

let ms x = x *. 1e3

let answered slots =
  List.filter (fun s -> Float.is_finite s.verdict) (Array.to_list slots)

(* Seconds from each answered job's due time to its Verdict frame. *)
let latencies ~t0 slots =
  List.map (fun s -> s.verdict -. (t0 +. s.due)) (answered slots)

(* ---- per-layer probes, in process, after the daemon is gone ---- *)

(* Microseconds per call of [f] over [xs], [reps] times over. *)
let per_us reps f xs =
  let (), dt =
    timed (fun () ->
        for _ = 1 to reps do
          List.iter (fun x -> ignore (Sys.opaque_identity (f x))) xs
        done)
  in
  dt /. float_of_int (max 1 (reps * List.length xs)) *. 1e6

let mean_ms f xs = per_us 1 f xs /. 1e3

let layer_probes ~root ~goldens slots reply_lines =
  let jobs = distinct_jobs slots in
  let kind p = List.filter (fun j -> p j.J.spec) jobs in
  let mcs = kind (function J.Mc _ -> true | _ -> false)
  and fuzzes = kind (function J.Fuzz _ -> true | _ -> false)
  and attacks = kind (function J.Attack _ -> true | _ -> false) in
  let execute j = J.execute j in
  let requests =
    List.map
      (fun s -> Serve.Wire.Submit { job = s.job; detach = false })
      (Array.to_list slots)
  in
  let encode_us = per_us 20 Serve.Wire.encode_request requests in
  let decode_us = per_us 20 Serve.Wire.decode_reply reply_lines in
  (* the spool's own calls, on a scratch spool *)
  let spool = Serve.Spool.create ~dir:(Filename.concat root "scratch-spool") in
  let ided = List.mapi (fun i s -> (i + 1, s.job)) (Array.to_list slots) in
  let add_us = per_us 1 (fun (id, job) -> Serve.Spool.add spool ~id job) ided in
  let record_us =
    per_us 1
      (fun (id, job) ->
        Serve.Spool.record_verdict spool ~id (Hashtbl.find goldens job))
      ided
  in
  (* mc on the checkpointing engine the daemon uses, against the flat
     engine of the CLI *)
  let ckpt = Filename.concat root "probe.ckpt" in
  let with_ckpt j =
    rm_rf ckpt;
    J.execute ~checkpoint:ckpt j
  in
  let flat_ms = ref [] and ckpt_ms = ref [] in
  for _ = 1 to 5 do
    flat_ms := Span.run "serve.job.mc_flat" (fun () -> mean_ms execute mcs) :: !flat_ms;
    ckpt_ms :=
      Span.run "serve.job.mc_ckpt" (fun () -> mean_ms with_ckpt mcs) :: !ckpt_ms
  done;
  rm_rf ckpt;
  let fuzz_ms = Span.run "serve.job.fuzz" (fun () -> mean_ms execute fuzzes) in
  let attack_ms =
    Span.run "serve.job.attack" (fun () -> mean_ms execute attacks)
  in
  (* the fuzz layers' own counters, for the stream's fuzz specs *)
  let obs = Obs.create () in
  List.iter
    (fun j ->
      match j.J.spec with
      | J.Fuzz f -> (
          match
            Fuzz.Scenario.find ?inputs:f.J.fz_inputs ~engine:f.J.fz_engine
              f.J.fz_scenario
          with
          | Ok sc ->
              ignore
                (Fuzz.Campaign.run ~obs ~shrink:f.J.fz_shrink
                   ~max_candidates:f.J.fz_max_candidates ~runs:f.J.fz_runs
                   ~seed:f.J.fz_seed sc)
          | Error _ -> ())
      | _ -> ())
    fuzzes;
  [
    m "serve.wire.encode_us" "us" encode_us;
    m "serve.wire.decode_us" "us" decode_us;
    m "serve.spool.add_us" "us" add_us;
    m "serve.spool.record_verdict_us" "us" record_us;
    m "serve.job.mc_flat_ms" "ms" (median !flat_ms);
    m "serve.job.mc_ckpt_ms" "ms" (median !ckpt_ms);
    m "serve.job.fuzz_ms" "ms" fuzz_ms;
    m "serve.job.attack_ms" "ms" attack_ms;
    m "fuzz.campaign.runs" "count" (counter obs "fuzz/runs");
    m "fuzz.campaign.steps" "count" (counter obs "fuzz/steps");
    m "fuzz.shrink.candidates" "count" (counter obs "fuzz/shrink/candidates");
    m "fuzz.shrink.accepted" "count" (counter obs "fuzz/shrink/accepted");
  ]

(* Spans rebuilt from the frame timestamps, one pass id per job. *)
let record_spans ~t0 slots =
  Array.iteri
    (fun k s ->
      if Float.is_finite s.verdict then begin
        let due = t0 +. s.due in
        let req =
          Span.add ~name:"serve.request" ~parent:(-1) ~pass:k ~start:due
            ~stop:s.verdict
        in
        ignore
          (Span.add ~name:"serve.accept" ~parent:req ~pass:k ~start:due
             ~stop:s.accepted);
        ignore
          (Span.add ~name:"serve.server.inside" ~parent:req ~pass:k
             ~start:s.accepted ~stop:s.verdict)
      end)
    slots

(* The served layers, for [seconds]: one daemon, two half-length streams
   (the first untraced, the second traced, for [serve.trace_overhead]),
   then in-process probes of the layers the daemon runs. *)
let layers ~cli ~seed ~seconds =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let root = fresh_dir "serve" in
  let daemon = ref None in
  Fun.protect
    ~finally:(fun () ->
      Option.iter (reap ~timeout:0.) !daemon;
      rm_rf root)
  @@ fun () ->
  let rng = Random.State.make [| seed; 0x5e7e |] in
  let plain = stream rng ~seconds:(seconds /. 2.) in
  let slots = stream rng ~seconds:(seconds /. 2.) in
  let goldens = Hashtbl.create 32 in
  List.iter
    (fun j -> if not (Hashtbl.mem goldens j) then Hashtbl.add goldens j (J.execute j))
    (distinct_jobs plain @ distinct_jobs slots);
  let d = spawn ~cli ~dir:(Filename.concat root "d") in
  daemon := Some d;
  let t0p, _ = run_stream d plain ~keep:false in
  let t0, lines = run_stream d slots ~keep:true in
  let rss = vm_hwm_mb (string_of_int d.pid) in
  let ok = Array.map (check goldens) plain in
  Array.iter (fun s -> ignore (check goldens s)) slots;
  drain d;
  let spool_bytes, spool_files = du d.spool in
  let stat, job_s = read_metrics d.metrics in
  Span.traced (fun () -> record_spans ~t0 slots);
  let p50 l = if l = [] then 0. else median l in
  let over t0 f xs = List.map (fun s -> ms (f t0 s)) xs in
  let traced = answered slots in
  let plain_ms = List.map ms (latencies ~t0:t0p plain) in
  let traced_ms = List.map ms (latencies ~t0 slots) in
  let late =
    Array.to_list slots
    |> List.map (fun s -> ms (s.sent -. (t0 +. s.due)))
    |> List.filter Float.is_finite
  in
  [
    m "serve.accept_ms" "ms"
      (p50 (over t0 (fun t0 s -> s.accepted -. (t0 +. s.due)) traced));
    m "serve.server.inside_ms" "ms"
      (p50 (over t0 (fun _ s -> s.verdict -. s.accepted) traced));
    m "serve.server.job_ms" "ms" (ms job_s);
    m "serve.server.queue_depth_max" "count" (stat "serve/queue-depth");
    m "serve.server.in_flight_max" "count" (stat "serve/in-flight");
    m "serve.server.shed" "count" (stat "serve/shed");
    m "serve.server.done" "count" (stat "serve/done");
    m "serve.spool.bytes" "B" (float_of_int spool_bytes);
    m "serve.spool.files" "count" (float_of_int spool_files);
    m "serve.peak_rss_mb" "MB" rss;
    m "bench.gen_late_p99_ms" "ms" (if late = [] then 0. else quantile 0.99 late);
    (* the median over the untraced half-stream: the served p50 *)
    m "serve.latency_p50_ms" "ms" (p50 plain_ms);
    (* over both half-streams: the traced one differs only in spans
       rebuilt afterwards from its timestamps *)
    m "serve.latency_p99_ms" "ms"
      (match plain_ms @ traced_ms with [] -> 0. | all -> quantile 0.99 all);
    m "serve.slo_ok_ratio" "ratio"
      (ratio
         (float_of_int
            (List.length
               (List.filteri
                  (fun k s -> ok.(k) && s.verdict -. (t0p +. s.due) <= slo)
                  (Array.to_list plain))))
         (float_of_int (Array.length plain)));
    m "serve.jobs_per_s" "1/s"
      (ratio
         (float_of_int (List.length plain_ms))
         (List.fold_left (fun a s -> Float.max a s.verdict) t0p (answered plain) -. t0p));
    m "serve.trace_overhead" "x" (ratio (p50 traced_ms) (p50 plain_ms));
  ]
  @ Span.traced (fun () -> layer_probes ~root ~goldens slots lines)
