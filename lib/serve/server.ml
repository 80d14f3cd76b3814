(* The serve daemon.  Threading model: one accept loop (the calling
   thread), one reader thread per connection, [workers] worker threads
   draining the admission queue.  All shared state lives in [t] behind
   one mutex; replies go out under a per-connection write lock so a slow
   client can only ever block its own frames.  The Obs handle is
   single-domain by contract, and here additionally single-threaded by
   the state mutex. *)

(* the repo's [mutex] library (mutual-exclusion protocols, pulled in via
   fuzz) shadows the stdlib Mutex unit in this scope; re-alias the real
   one through the Stdlib namespace *)
module Mutex = Stdlib.Mutex

type address = [ `Unix of string | `Tcp of string * int ]

type config = {
  address : address;
  queue_limit : int;
  workers : int;
  spool_dir : string option;
  obs : Obs.t option;
  progress_interval : float;
}

let default_queue_limit = 64

let default_workers = 2

type conn = {
  fd : Unix.file_descr;
  oc : out_channel;
  olock : Mutex.t;
  mutable alive : bool;
  mutable attached : int list;  (* job ids whose fate is tied to us *)
}

type jstate =
  | Queued
  | Running
  | Done of Job.outcome
  | Cancelled_j
  | Interrupted

type jrec = {
  id : int;
  job : Job.t;
  cancel : Robust.Cancel.t;
  mutable state : jstate;
  mutable origin : [ `None | `Client | `Drain ];  (* who set [cancel] *)
  mutable watchers : conn list;
  mutable last_progress : float;
  detached : bool;
}

type t = {
  cfg : config;
  m : Mutex.t;
  work : Condition.t;  (* signalled on enqueue and on drain *)
  queue : int Queue.t;
  jobs : (int, jrec) Hashtbl.t;
  mutable next_id : int;
  mutable draining : bool;
  mutable in_flight : int;
  spool : Spool.t option;
  drain_flag : bool Atomic.t;  (* set from the signal handler *)
}

let locked t f =
  Mutex.lock t.m;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.m) f

(* obs is only ever touched under t.m *)
let obs_incr t name = Obs.incr t.cfg.obs name

let obs_gauges t =
  Obs.record_max t.cfg.obs "serve/queue-depth" (Queue.length t.queue);
  Obs.record_max t.cfg.obs "serve/in-flight" t.in_flight

(* ---- replies ---- *)

let send conn reply =
  Mutex.lock conn.olock;
  Fun.protect ~finally:(fun () -> Mutex.unlock conn.olock) @@ fun () ->
  if conn.alive then
    try
      output_string conn.oc (Wire.encode_reply reply);
      output_char conn.oc '\n';
      flush conn.oc
    with Sys_error _ | Unix.Unix_error _ -> conn.alive <- false

let notify jr reply = List.iter (fun c -> send c reply) jr.watchers

(* under t.m.  A failed spool write is reported and counted, never
   raised: a lost verdict or cancel marker still reaches the watchers,
   and a restart merely re-runs that job to the same verdict. *)
let spool_failed t e =
  let msg = "spool: " ^ Robust.Persist.error_message e in
  prerr_endline ("randsync serve: " ^ msg);
  obs_incr t "serve/spool-errors";
  msg

let spool_record t f =
  try Option.iter f t.spool
  with Robust.Persist.Error e -> ignore (spool_failed t e)

(* under t.m *)
let mark_cancelled t jr =
  jr.state <- Cancelled_j;
  spool_record t (fun s -> Spool.mark_cancelled s ~id:jr.id);
  obs_incr t "serve/cancelled";
  notify jr (Wire.Cancelled { id = jr.id })

(* ---- cancellation paths ---- *)

(* under t.m *)
let cancel_job t jr ~origin =
  match jr.state with
  | Queued ->
      (* surgically drop it from the admission queue *)
      let keep = Queue.create () in
      Queue.iter (fun i -> if i <> jr.id then Queue.add i keep) t.queue;
      Queue.clear t.queue;
      Queue.transfer keep t.queue;
      jr.origin <- origin;
      mark_cancelled t jr
  | Running ->
      (* the worker owns the epilogue; we just flip the token *)
      if jr.origin = `None then jr.origin <- origin;
      Robust.Cancel.set jr.cancel
  | Done _ | Cancelled_j | Interrupted -> ()

(* A connection died (EOF, malformed frame, write error): its attached
   jobs go with it — and nothing else does. *)
let cleanup_conn t conn =
  locked t @@ fun () ->
  if conn.alive then conn.alive <- false;
  List.iter
    (fun id ->
      match Hashtbl.find_opt t.jobs id with
      | None -> ()
      | Some jr ->
          jr.watchers <- List.filter (fun c -> c != conn) jr.watchers;
          if jr.watchers = [] && not jr.detached then
            cancel_job t jr ~origin:`Client)
    conn.attached;
  conn.attached <- [];
  (try Unix.close conn.fd with Unix.Unix_error _ -> ())

(* ---- the worker epilogue: classify how a job ended ---- *)

let interrupted_line = "verdict: truncated (cancelled)"

let finish_job t jr (outcome : Job.outcome) =
  locked t @@ fun () ->
  t.in_flight <- t.in_flight - 1;
  let cut_by_cancel = List.mem interrupted_line outcome.Job.lines in
  (match (jr.origin, cut_by_cancel) with
  | `Drain, true ->
      (* drained mid-run: the checkpoint (if any) holds the cursor and the
         spool still holds the spec — a restart finishes the job *)
      jr.state <- Interrupted;
      obs_incr t "serve/interrupted"
  | `Client, true -> mark_cancelled t jr
  | _ ->
      (* completed on merit (possibly outrunning a late cancel) *)
      jr.state <- Done outcome;
      spool_record t (fun s -> Spool.record_verdict s ~id:jr.id outcome);
      obs_incr t "serve/done";
      notify jr
        (Wire.Verdict
           { id = jr.id; status = outcome.Job.status; lines = outcome.Job.lines }));
  obs_gauges t

let worker_loop t =
  let rec next () =
    Mutex.lock t.m;
    while Queue.is_empty t.queue && not t.draining do
      Condition.wait t.work t.m
    done;
    if t.draining then begin
      (* draining: anything still queued stays pending in the spool for
         the next server; only running jobs are finished or cut *)
      Mutex.unlock t.m;
      ()
    end
    else begin
      let id = Queue.pop t.queue in
      match Hashtbl.find_opt t.jobs id with
      | None ->
          Mutex.unlock t.m;
          next ()
      | Some jr ->
          jr.state <- Running;
          t.in_flight <- t.in_flight + 1;
          obs_gauges t;
          Mutex.unlock t.m;
          let on_poll ~nodes ~steps =
            let now = Unix.gettimeofday () in
            let due =
              locked t @@ fun () ->
              if now -. jr.last_progress >= t.cfg.progress_interval then begin
                jr.last_progress <- now;
                true
              end
              else false
            in
            if due then
              notify jr (Wire.Progress { id = jr.id; nodes; steps })
          in
          let checkpoint =
            match t.spool with
            | Some s when Job.checkpoints jr.job ->
                Some (Spool.checkpoint_path s ~id:jr.id)
            | _ -> None
          in
          let t0 = Unix.gettimeofday () in
          let outcome =
            try
              (* a missing, damaged or foreign checkpoint: the same
                 verdict from a fresh run, at the cost of redone work *)
              let resume =
                Option.bind checkpoint (fun path ->
                    Result.to_option (Job.load_checkpoint jr.job ~path))
              in
              Job.execute ~cancel:jr.cancel ~on_poll ?checkpoint ?resume
                jr.job
            with exn ->
              (* a job must never take a worker down with it *)
              {
                Job.status = Job.Status.bad_args;
                lines = [ "job failed: " ^ Printexc.to_string exn ];
              }
          in
          let dt = Unix.gettimeofday () -. t0 in
          locked t (fun () ->
              Obs.observe t.cfg.obs "serve/job-seconds" dt);
          finish_job t jr outcome;
          next ()
    end
  in
  next ()

(* ---- request handling (reader threads) ---- *)

let handle_request t conn = function
  | Wire.Ping -> send conn Wire.Pong
  | Wire.Drain ->
      Atomic.set t.drain_flag true;
      send conn Wire.Draining
  | Wire.Status { id } ->
      let reply =
        locked t @@ fun () ->
        let line jr =
          {
            Wire.id = jr.id;
            label = Job.label jr.job;
            state =
              (match jr.state with
              | Queued -> Wire.Queued
              | Running -> Wire.Running
              | Done o -> Wire.Done o.Job.status
              | Cancelled_j -> Wire.Cancelled
              | Interrupted -> Wire.Interrupted);
          }
        in
        let jobs =
          match id with
          | Some id -> (
              match Hashtbl.find_opt t.jobs id with
              | Some jr -> [ line jr ]
              | None -> [])
          | None ->
              Hashtbl.fold (fun _ jr acc -> line jr :: acc) t.jobs []
              |> List.sort (fun a b -> compare a.Wire.id b.Wire.id)
        in
        Wire.Jobs { draining = t.draining; jobs }
      in
      send conn reply
  | Wire.Result { id } ->
      let reply =
        locked t @@ fun () ->
        match Hashtbl.find_opt t.jobs id with
        | None -> Wire.Error { message = Printf.sprintf "no such job %d" id }
        | Some jr -> (
            match jr.state with
            | Done o ->
                Wire.Verdict { id; status = o.Job.status; lines = o.Job.lines }
            | Cancelled_j -> Wire.Cancelled { id }
            | Queued | Running | Interrupted ->
                Wire.Error
                  { message = Printf.sprintf "job %d is not finished" id })
      in
      send conn reply
  | Wire.Cancel { id } ->
      let found =
        locked t @@ fun () ->
        match Hashtbl.find_opt t.jobs id with
        | None -> false
        | Some jr ->
            cancel_job t jr ~origin:`Client;
            true
      in
      if not found then
        send conn (Wire.Error { message = Printf.sprintf "no such job %d" id })
      else send conn (Wire.Cancelled { id })
  | Wire.Submit { job; detach } -> (
      let decision =
        locked t @@ fun () ->
        if t.draining || Atomic.get t.drain_flag then `Draining
        else if Queue.length t.queue >= t.cfg.queue_limit then begin
          obs_incr t "serve/shed";
          `Shed (Queue.length t.queue)
        end
        else begin
          let id = t.next_id in
          t.next_id <- id + 1;
          `Admit id
        end
      in
      match decision with
      | `Draining -> send conn Wire.Draining
      | `Shed queued ->
          send conn (Wire.Overloaded { queued; limit = t.cfg.queue_limit })
      | `Admit id -> (
          (* on disk before the accepted reply: a crash after this point
             cannot lose an admitted job, and a job that cannot be put on
             disk is refused rather than queued *)
          match Option.iter (fun s -> Spool.add s ~id job) t.spool with
          | exception Robust.Persist.Error e ->
              let message = locked t (fun () -> spool_failed t e) in
              send conn (Wire.Error { message })
          | () ->
              let jr =
                {
                  id;
                  job;
                  cancel = Robust.Cancel.create ();
                  state = Queued;
                  origin = `None;
                  watchers = (if detach then [] else [ conn ]);
                  last_progress = 0.;
                  detached = detach;
                }
              in
              send conn (Wire.Accepted { id });
              locked t (fun () ->
                  Hashtbl.replace t.jobs id jr;
                  if not detach then conn.attached <- id :: conn.attached;
                  Queue.add id t.queue;
                  obs_incr t "serve/submitted";
                  obs_gauges t;
                  Condition.signal t.work)))

let reader_loop t conn =
  let ic = Unix.in_channel_of_descr conn.fd in
  let rec go () =
    match input_line ic with
    | line -> (
        match Wire.decode_request line with
        | Ok req ->
            handle_request t conn req;
            if conn.alive then go ()
        | Error msg ->
            (* malformed frame: tell them why, then hang up on them —
               their jobs die with the connection, nobody else's do *)
            locked t (fun () -> obs_incr t "serve/malformed");
            send conn (Wire.Error { message = "bad frame: " ^ msg }))
    | exception (End_of_file | Sys_error _ | Unix.Unix_error _) -> ()
  in
  go ();
  cleanup_conn t conn

(* ---- lifecycle ---- *)

let bind_listen address =
  match address with
  | `Unix path ->
      if Sys.file_exists path then Unix.unlink path;
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Unix.bind fd (Unix.ADDR_UNIX path);
      Unix.listen fd 64;
      (fd, address)
  | `Tcp (host, port) ->
      let addr =
        try (Unix.gethostbyname host).Unix.h_addr_list.(0)
        with Not_found -> Unix.inet_addr_loopback
      in
      let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
      Unix.setsockopt fd Unix.SO_REUSEADDR true;
      Unix.bind fd (Unix.ADDR_INET (addr, port));
      Unix.listen fd 64;
      let actual =
        match Unix.getsockname fd with
        | Unix.ADDR_INET (_, p) -> `Tcp (host, p)
        | _ -> address
      in
      (fd, actual)

let run ?on_ready cfg =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let drain_flag = Atomic.make false in
  let on_term = Sys.Signal_handle (fun _ -> Atomic.set drain_flag true) in
  Sys.set_signal Sys.sigterm on_term;
  Sys.set_signal Sys.sigint on_term;
  let spool = Option.map (fun dir -> Spool.create ~dir) cfg.spool_dir in
  let t =
    {
      cfg;
      m = Mutex.create ();
      work = Condition.create ();
      queue = Queue.create ();
      jobs = Hashtbl.create 64;
      next_id = 1;
      draining = false;
      in_flight = 0;
      spool;
      drain_flag;
    }
  in
  (* recovery: terminal jobs come back queryable, everything else is
     owed a (re-)run *)
  Option.iter
    (fun s ->
      let r = Spool.recover s in
      t.next_id <- r.Spool.next_id;
      List.iter
        (fun (e : Spool.entry) ->
          let state, requeue =
            match e.Spool.fate with
            | `Finished outcome -> (Done outcome, false)
            | `Cancelled -> (Cancelled_j, false)
            | `Pending -> (Queued, true)
          in
          let jr =
            {
              id = e.Spool.id;
              job = e.Spool.job;
              cancel = Robust.Cancel.create ();
              state;
              origin = `None;
              watchers = [];
              last_progress = 0.;
              detached = true;  (* no live client owns a recovered job *)
            }
          in
          Hashtbl.replace t.jobs jr.id jr;
          if requeue then begin
            Queue.add jr.id t.queue;
            Obs.incr cfg.obs "serve/recovered"
          end)
        r.Spool.entries)
    spool;
  let listen_fd, actual = bind_listen cfg.address in
  let workers = List.init cfg.workers (fun _ -> Thread.create worker_loop t) in
  Option.iter (fun f -> f actual) on_ready;
  (* accept loop: select with a timeout so the drain flag set by the
     signal handler is noticed promptly even with no traffic *)
  let rec accept_loop () =
    if Atomic.get drain_flag then ()
    else begin
      match Unix.select [ listen_fd ] [] [] 0.2 with
      | [], _, _ -> accept_loop ()
      | _ :: _, _, _ -> (
          match Unix.accept listen_fd with
          | fd, _ ->
              (* a reply to a non-reading client must not wedge a worker:
                 writes time out and the connection is declared dead *)
              (try Unix.setsockopt_float fd Unix.SO_SNDTIMEO 5.0
               with Unix.Unix_error _ -> ());
              let conn =
                {
                  fd;
                  oc = Unix.out_channel_of_descr fd;
                  olock = Mutex.create ();
                  alive = true;
                  attached = [];
                }
              in
              ignore (Thread.create (fun () -> reader_loop t conn) ());
              accept_loop ()
          | exception Unix.Unix_error _ -> accept_loop ())
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> accept_loop ()
    end
  in
  accept_loop ();
  (* ---- drain ---- *)
  (try Unix.close listen_fd with Unix.Unix_error _ -> ());
  (match cfg.address with
  | `Unix path -> ( try Unix.unlink path with Unix.Unix_error _ -> ())
  | `Tcp _ -> ());
  locked t (fun () ->
      t.draining <- true;
      Hashtbl.iter
        (fun _ jr ->
          if jr.state = Running then begin
            if jr.origin = `None then jr.origin <- `Drain;
            Robust.Cancel.set jr.cancel
          end)
        t.jobs;
      Condition.broadcast t.work);
  List.iter Thread.join workers;
  (* the metrics file is written on the drain path, atomically, before
     the process exits — a SIGTERM never truncates it mid-line *)
  Option.iter
    (fun obs ->
      Obs.dump obs ~extra:[ ("cmd", "serve"); ("drained", "true") ])
    cfg.obs
