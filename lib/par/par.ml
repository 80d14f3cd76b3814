(* A small domain pool tuned for the workloads in this repo: batches of a
   few dozen to a few thousand coarse, pure tasks (one adversary
   construction, one synth candidate, one experiment cell).

   Shape: [jobs - 1] persistent worker domains plus the submitting domain
   all drain the same batch.  A batch is an atomic cursor over task
   indices; workers claim [chunk] indices at a time with [fetch_and_add],
   so there is no per-task locking and no work-stealing machinery — for
   coarse tasks a shared cursor is contention-free enough and keeps the
   whole scheduler small enough to audit.

   Determinism: the pool never decides *what* a task computes, only *when*
   it runs.  Task [i] writes slot [i]; reductions happen after the barrier
   in index order; seeded tasks receive generators derived before
   dispatch.  Failure: task bodies passed to [for_] are wrapped so a raise
   marks the slot and never escapes a worker domain (an escaped exception
   would kill the domain and hang every later barrier); after the barrier
   the lowest-indexed failure is re-raised on the caller. *)

let default_jobs () =
  match Sys.getenv_opt "RANDSYNC_JOBS" with
  | Some s -> (
      match int_of_string_opt (String.trim s) with
      | Some j when j >= 1 -> j
      | Some _ | None -> Domain.recommended_domain_count ())
  | None -> Domain.recommended_domain_count ()

module Pool = struct
  type batch = {
    n : int;
    body : int -> unit;  (* never raises: wrapped by [for_] *)
    chunk : int;
    next : int Atomic.t;  (* the work queue: next unclaimed task index *)
    completed : int Atomic.t;
  }

  (* Per-domain instrumentation slot.  Written only by its owning domain
     while a batch is in flight; the submitter reads the slots after the
     barrier, so the worker's [fetch_and_add] on [completed] followed by
     the submitter's read of [completed] orders the plain writes before
     the plain reads (standard message-passing publication).  Untouched
     when the pool carries no [obs]. *)
  type slot = { mutable chunks : int; mutable tasks : int }

  type t = {
    jobs : int;
    mutex : Mutex.t;
    work_ready : Condition.t;
    work_done : Condition.t;
    mutable generation : int;  (* bumped once per batch *)
    mutable current : batch option;  (* the in-flight batch, if any *)
    mutable stopping : bool;
    mutable workers : unit Domain.t list;
    obs : Obs.t option;
    slots : slot array;  (* length [jobs]; slot 0 = the submitting domain *)
  }

  let jobs t = t.jobs

  let reset_slots t =
    if t.obs <> None then
      Array.iter
        (fun s ->
          s.chunks <- 0;
          s.tasks <- 0)
        t.slots

  (* Merge the per-domain slots into the metrics — submitter only, after
     the barrier.  The per-domain split is scheduling observability and is
     of course jobs-variant; engine-level counters stay jobs-invariant
     because engines record from merged results, never from here. *)
  let flush_slots t =
    if t.obs <> None then begin
      Obs.incr t.obs "par/batches";
      Array.iteri
        (fun i s ->
          Obs.add t.obs (Printf.sprintf "par/chunks/domain%d" i) s.chunks;
          Obs.add t.obs (Printf.sprintf "par/tasks/domain%d" i) s.tasks)
        t.slots
    end

  (* Claim and run chunks until the batch cursor is exhausted.  Runs on
     workers and on the submitting domain alike. *)
  let drain t ~slot b =
    let instrumented = t.obs <> None in
    let rec loop () =
      let k = Atomic.fetch_and_add b.next b.chunk in
      if k < b.n then begin
        let hi = min b.n (k + b.chunk) in
        if instrumented then begin
          let s = t.slots.(slot) in
          s.chunks <- s.chunks + 1;
          s.tasks <- s.tasks + (hi - k)
        end;
        for i = k to hi - 1 do
          b.body i
        done;
        ignore (Atomic.fetch_and_add b.completed (hi - k));
        loop ()
      end
    in
    loop ();
    if Atomic.get b.completed >= b.n then begin
      (* possibly the last finisher: wake the submitter *)
      Mutex.lock t.mutex;
      Condition.broadcast t.work_done;
      Mutex.unlock t.mutex
    end

  let rec worker t ~slot last_generation =
    Mutex.lock t.mutex;
    while (not t.stopping) && t.generation = last_generation do
      Condition.wait t.work_ready t.mutex
    done;
    let stop = t.stopping in
    let generation = t.generation in
    let b = t.current in
    Mutex.unlock t.mutex;
    if not stop then begin
      (match b with Some b -> drain t ~slot b | None -> ());
      worker t ~slot generation
    end

  let create ?jobs:j ?obs () =
    let jobs = match j with Some j -> max 1 j | None -> default_jobs () in
    let t =
      {
        jobs;
        mutex = Mutex.create ();
        work_ready = Condition.create ();
        work_done = Condition.create ();
        generation = 0;
        current = None;
        stopping = false;
        workers = [];
        obs;
        slots = Array.init jobs (fun _ -> { chunks = 0; tasks = 0 });
      }
    in
    t.workers <-
      List.init (jobs - 1) (fun i ->
          Domain.spawn (fun () -> worker t ~slot:(i + 1) 0));
    t

  (* [body] must not raise (enforced by [for_]'s wrapper). *)
  let run_exn_free t ~n body =
    if n > 0 then begin
      if t.jobs = 1 || n = 1 || t.stopping then begin
        reset_slots t;
        for i = 0 to n - 1 do
          body i
        done;
        if t.obs <> None then begin
          let s = t.slots.(0) in
          s.chunks <- 1;
          s.tasks <- n
        end;
        flush_slots t
      end
      else begin
        let chunk = max 1 (n / (t.jobs * 4)) in
        let b =
          { n; body; chunk; next = Atomic.make 0; completed = Atomic.make 0 }
        in
        reset_slots t;
        Mutex.lock t.mutex;
        t.current <- Some b;
        t.generation <- t.generation + 1;
        Condition.broadcast t.work_ready;
        Mutex.unlock t.mutex;
        drain t ~slot:0 b;
        Mutex.lock t.mutex;
        (* Barrier wait: time the submitter spends with its own share
           drained, waiting for straggler domains — the load-imbalance
           histogram.  Clock reads only when somebody is looking. *)
        let wait0 = if t.obs <> None then Unix.gettimeofday () else 0. in
        while Atomic.get b.completed < b.n do
          Condition.wait t.work_done t.mutex
        done;
        if t.obs <> None then
          Obs.observe t.obs "par/barrier-wait-seconds"
            (Unix.gettimeofday () -. wait0);
        t.current <- None;
        Mutex.unlock t.mutex;
        flush_slots t
      end
    end

  let for_ t ~n body =
    (* first failing task by index, so the surfaced exception matches a
       sequential left-to-right run no matter which domain hit it first *)
    let failure = Atomic.make None in
    let rec record i exn bt =
      let seen = Atomic.get failure in
      let better =
        match seen with None -> true | Some (j, _, _) -> i < j
      in
      if better && not (Atomic.compare_and_set failure seen (Some (i, exn, bt)))
      then record i exn bt
    in
    run_exn_free t ~n (fun i ->
        try body i
        with exn -> record i exn (Printexc.get_raw_backtrace ()));
    match Atomic.get failure with
    | None -> ()
    | Some (_, exn, bt) -> Printexc.raise_with_backtrace exn bt

  let shutdown t =
    (* Swap the worker list out under the mutex so that two concurrent
       [shutdown] calls cannot both try to join the same domains — the
       loser of the race sees [] and returns immediately. *)
    Mutex.lock t.mutex;
    t.stopping <- true;
    let workers = t.workers in
    t.workers <- [];
    Condition.broadcast t.work_ready;
    Mutex.unlock t.mutex;
    List.iter Domain.join workers
end

let with_pool ?jobs ?obs f =
  let pool = Pool.create ?jobs ?obs () in
  Fun.protect ~finally:(fun () -> Pool.shutdown pool) (fun () -> f pool)

let for_tasks ?pool ~n body =
  match pool with
  | None ->
      (* sequential baseline: plain loop, exceptions propagate at the
         first failing index — exactly what [Pool.for_] reproduces *)
      for i = 0 to n - 1 do
        body i
      done
  | Some p -> Pool.for_ p ~n body

let mapi_array ?pool f xs =
  let n = Array.length xs in
  let out = Array.make n None in
  for_tasks ?pool ~n (fun i -> out.(i) <- Some (f i xs.(i)));
  Array.map
    (function Some y -> y | None -> assert false (* all slots filled *))
    out

let map_array ?pool f xs = mapi_array ?pool (fun _ x -> f x) xs

let mapi ?pool f xs = Array.to_list (mapi_array ?pool f (Array.of_list xs))
let map ?pool f xs = mapi ?pool (fun _ x -> f x) xs

let map_reduce ?pool ~map ~reduce ~init xs =
  let mapped = map_array ?pool map (Array.of_list xs) in
  Array.fold_left reduce init mapped

let map_seeded ?pool ~seed f xs =
  let arr = Array.of_list xs in
  let rngs = Sim.Rng.split_n (Sim.Rng.create seed) (Array.length arr) in
  Array.to_list (mapi_array ?pool (fun i x -> f rngs.(i) x) arr)

module Wsq = struct
  (* A mutex-guarded growable ring with both-end removal.  The sharded
     model checker ([Mc.Shard]) keeps one per shard: the owning domain
     pushes and pops at the bottom (LIFO keeps the frontier shallow and
     cache-warm), thieves take from the top (FIFO steals the oldest —
     widest — items, the classic work-stealing heuristic).  Contention is
     coarse by design: every operation takes the lock.  The queues hold
     whole work items (hundreds of nodes of replay each), so the lock is
     a vanishing fraction of item cost; a Chase–Lev ring would buy
     nothing measurable here and costs a memory-model argument. *)

  type 'a t = {
    mutable buf : 'a option array;
    mutable head : int;  (* index of oldest element *)
    mutable len : int;
    lock : Mutex.t;
  }

  let create () = { buf = Array.make 16 None; head = 0; len = 0; lock = Mutex.create () }

  let grow t =
    let cap = Array.length t.buf in
    let buf' = Array.make (cap * 2) None in
    for i = 0 to t.len - 1 do
      buf'.(i) <- t.buf.((t.head + i) mod cap)
    done;
    t.buf <- buf';
    t.head <- 0

  let with_lock t f =
    Mutex.lock t.lock;
    Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

  let push t x =
    with_lock t @@ fun () ->
    if t.len = Array.length t.buf then grow t;
    let cap = Array.length t.buf in
    t.buf.((t.head + t.len) mod cap) <- Some x;
    t.len <- t.len + 1

  let take t i =
    let cap = Array.length t.buf in
    let j = (t.head + i) mod cap in
    let x = t.buf.(j) in
    t.buf.(j) <- None;
    x

  let pop t =
    with_lock t @@ fun () ->
    if t.len = 0 then None
    else begin
      t.len <- t.len - 1;
      take t t.len
    end

  let steal t =
    with_lock t @@ fun () ->
    if t.len = 0 then None
    else begin
      let x = take t 0 in
      t.head <- (t.head + 1) mod Array.length t.buf;
      t.len <- t.len - 1;
      x
    end

  let length t = with_lock t @@ fun () -> t.len
end
