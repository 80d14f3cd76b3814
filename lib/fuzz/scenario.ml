(* Fuzzable scenarios: a uniform face over the three workload families the
   repo simulates — consensus protocols (agreement/validity via
   [Sim.Checker]), mutual exclusion (occupancy invariant), and object
   implementations (linearizability via [Objimpl.Linearize]).

   Each scenario knows how to (a) run once under a randomly drawn
   adversarial schedule, recording the schedule it used, and (b) replay
   any schedule deterministically and judge it.  The shrinker only ever
   talks to [replay], so shrink soundness — a shrunk schedule still
   witnesses the same violation — holds by construction: candidates are
   accepted only when their own replay reproduces the violation kind. *)

open Sim

type violation = Inconsistent | Invalid | Not_linearizable | Exclusion | Stuck

let violation_to_string = function
  | Inconsistent -> "inconsistent"
  | Invalid -> "invalid"
  | Not_linearizable -> "not-linearizable"
  | Exclusion -> "exclusion"
  | Stuck -> "stuck"

(* The weighted adversarial schedule families.  [Crashing] degrades to
   [Uniform] for scenarios without crash machinery (the linearizability
   harness). *)
type sched_kind = Uniform | Starving | Crashing

let all_kinds = [ Uniform; Starving; Crashing ]

let kind_name = function
  | Uniform -> "uniform"
  | Starving -> "starve"
  | Crashing -> "crash"

let default_weights = [ (Uniform, 0.5); (Starving, 0.25); (Crashing, 0.25) ]

let pick_kind weights rng =
  let total = List.fold_left (fun acc (_, w) -> acc +. Float.max 0. w) 0. weights in
  if total <= 0. then Uniform
  else
    let r = Rng.float rng *. total in
    let rec go acc = function
      | [] -> Uniform
      | (k, w) :: rest ->
          let acc = acc +. Float.max 0. w in
          if r < acc then k else go acc rest
    in
    go 0. weights

type run_report = {
  schedule : Schedule.t;
  violation : violation option;
  steps : int;
}

type t = {
  name : string;
  describe : string;
  gen : Rng.t -> sched_kind -> run_report;
  replay : Schedule.t -> violation option;
  artifact : Schedule.t -> string;
}

(* Which execution engine a scenario's gen/replay use.  [`Flat] (the
   default) runs consensus scenarios over the in-place slab executors
   ({!Sim.Flat_run}) and linearizability scenarios over the interned
   harness engine plus a per-domain verdict memo; [`Closure] keeps the
   original closure-tree execution — the reference the differential
   suite compares against.  Both draw RNGs in identical order, so a
   seed names the same run under either engine.  Engine state (intern
   tables, slabs, memo tables) lives in [Domain.DLS] so campaigns may
   fan gen out over a [Par] pool: per-domain state only affects speed,
   never results, preserving the jobs-invariance contract.  Mutex
   scenarios always execute closure-side: the occupancy invariant is
   judged on full event traces, which the slab has interned away. *)
type engine = [ `Closure | `Flat ]

let seed_of rng = 1 + Rng.int rng 0x3FFFFFFF

(* ---- consensus ---------------------------------------------------- *)

let consensus_verdict ~inputs config =
  let v = Checker.of_config ~inputs config in
  if not v.Checker.consistent then Some Inconsistent
  else if not v.Checker.valid then Some Invalid
  else None

(* random crash injection: up to n-1 crash points early in the run, so
   decided survivors still owe agreement *)
let gen_crashes rng ~n =
  let count = 1 + Rng.int rng (max 1 (n - 1)) in
  List.init count (fun _ -> (Rng.int rng 64, Rng.int rng n))

let config_run config ~inputs:_ ~max_steps rng kind =
  let seed = seed_of rng in
  let n = Config.n_procs config in
  let sched, crashes =
    match kind with
    | Uniform -> (Sched.random ~seed, [])
    | Starving -> (Sched.starving ~victim:(Rng.int rng n) ~seed, [])
    | Crashing -> (Sched.random ~seed, gen_crashes rng ~n)
  in
  Run.exec ~max_steps ~crashes sched config

let consensus ?(engine = `Flat) ?(inputs = [ 0; 1 ]) ?(max_steps = 4096)
    (p : Consensus.Protocol.t) =
  let initial () = Consensus.Protocol.initial_config p ~inputs in
  let judge_decisions decisions =
    let v = Checker.check ~inputs ~decisions in
    if not v.Checker.consistent then Some Inconsistent
    else if not v.Checker.valid then Some Invalid
    else None
  in
  let judge (result : int Run.result) =
    consensus_verdict ~inputs result.Run.config
  in
  let replay_result schedule =
    Run.exec_script ~max_steps ~script:schedule (initial ())
  in
  (* Flat-engine state, one per domain: a pristine template slab plus a
     work slab sharing the intern runtime.  A run is [blit] reset + an
     in-place executor; the runtime is rebuilt when its id space nears
     capacity (unbounded campaigns over history-divergent protocols). *)
  let dls =
    Domain.DLS.new_key (fun () ->
        let template = Flat.of_config (initial ()) in
        ref (template, Flat.clone template))
  in
  let flat_work () =
    let cell = Domain.DLS.get dls in
    let template, work = !cell in
    if Intern.near_capacity (Flat.rt template) then begin
      let template = Flat.of_config (initial ()) in
      let work = Flat.clone template in
      cell := (template, work);
      work
    end
    else begin
      Flat.blit ~src:template ~dst:work;
      work
    end
  in
  (* identical rng draw order to [config_run]: seed first, then the
     kind's own draws — a seed names the same run under either engine *)
  let gen_flat rng kind =
    let seed = seed_of rng in
    let work = flat_work () in
    let n = Flat.n_procs work in
    let r =
      match kind with
      | Uniform -> Flat_run.exec_random ~max_steps ~rng:(Rng.create seed) work
      | Starving ->
          let victim = Rng.int rng n in
          Flat_run.exec_starving ~max_steps ~victim ~rng:(Rng.create seed) work
      | Crashing ->
          let crashes = gen_crashes rng ~n in
          Flat_run.exec_random ~max_steps ~crashes ~rng:(Rng.create seed) work
    in
    {
      schedule = r.Flat_run.schedule;
      violation = judge_decisions (Flat.decisions work);
      steps = r.Flat_run.steps;
    }
  in
  let replay_flat schedule =
    let work = flat_work () in
    let _ = Flat_run.exec_script ~max_steps ~script:schedule work in
    judge_decisions (Flat.decisions work)
  in
  {
    name = p.Consensus.Protocol.name;
    describe =
      Printf.sprintf "consensus %s inputs=%s" p.Consensus.Protocol.name
        (String.concat "," (List.map string_of_int inputs));
    gen =
      (match engine with
      | `Flat -> gen_flat
      | `Closure ->
          fun rng kind ->
            let result = config_run (initial ()) ~inputs ~max_steps rng kind in
            {
              schedule = Schedule.of_trace result.Run.trace;
              violation = judge result;
              steps = result.Run.steps;
            });
    replay =
      (match engine with
      | `Flat -> replay_flat
      | `Closure -> fun schedule -> judge (replay_result schedule));
    (* artifacts are full event traces, which only the closure replay
       can reconstruct; they are built once per minimized counterexample *)
    artifact =
      (fun schedule ->
        Trace_io.to_text_int (replay_result schedule).Run.trace);
  }

(* ---- mutual exclusion --------------------------------------------- *)

(* The occupancy invariant, recomputed from a trace: ENTER/LEAVE on the
   instrumented counter bracket the critical section, so two processes
   inside at once show up as occupancy 2 at some prefix. *)
let exclusion_violated ~cs_obj trace =
  let enter = Mutex.enter.Op.name and leave = Mutex.leave.Op.name in
  let rec go occ = function
    | [] -> false
    | Event.Applied { obj; op; _ } :: rest when obj = cs_obj ->
        if op.Op.name = enter then occ + 1 >= 2 || go (occ + 1) rest
        else if op.Op.name = leave then go (max 0 (occ - 1)) rest
        else go occ rest
    | _ :: rest -> go occ rest
  in
  go 0 (Trace.events trace)

let mutex ?(n = 2) ?(max_steps = 512) (m : Mutex.t) =
  let initial () =
    Config.make ~optypes:(m.Mutex.optypes ~n)
      ~procs:(List.init n (fun pid -> m.Mutex.code ~n ~pid))
  in
  let judge (result : int Run.result) =
    if exclusion_violated ~cs_obj:m.Mutex.cs_obj result.Run.trace then
      Some Exclusion
    else None
  in
  let replay_result schedule =
    Run.exec_script ~max_steps ~script:schedule (initial ())
  in
  {
    name = Printf.sprintf "mutex-%s" m.Mutex.name;
    describe = Printf.sprintf "mutex %s n=%d" m.Mutex.name n;
    gen =
      (fun rng kind ->
        let result = config_run (initial ()) ~inputs:[] ~max_steps rng kind in
        {
          schedule = Schedule.of_trace result.Run.trace;
          violation = judge result;
          steps = result.Run.steps;
        });
    replay = (fun schedule -> judge (replay_result schedule));
    artifact =
      (fun schedule ->
        Trace_io.to_text_int (replay_result schedule).Run.trace);
  }

(* ---- linearizability ----------------------------------------------- *)

(* Verdict-memo table keyed on whole histories.  The polymorphic
   [Hashtbl.hash] samples only ~10 nodes — a shared prefix for most
   histories of one workload, collapsing the table into a few buckets of
   deep structural compares — so hash with a node budget that covers the
   whole history.  Keys are pure data (ints, strings, values), so
   structural equality is sound. *)
module Htbl = Hashtbl.Make (struct
  type t = Objimpl.History.t

  let equal = ( = )
  let hash h = Hashtbl.hash_param 1024 1024 h
end)

(* Implementations are driven through [Objimpl.Harness] with a *fixed*
   workload and a fuzzer-chosen pid schedule, so the schedule alone
   determines the run (Fixed schedules resolve coins from a pinned seed;
   [`Crash p] entries map to harness crash points at their tick).  Every
   recorded history is judged by BOTH linearizability oracles through
   {!Lin.Cross} — a decisive disagreement raises [Lin.Cross.Divergence]
   rather than picking a side — and the drain probe turns residual
   in-flight calls into a [Stuck] verdict.  A [Blocking] implementation
   is excused from [Stuck] only when a crash happened: a deadlock with
   everyone alive violates even deadlock-freedom. *)
let lin ~name ?(engine = `Flat) ?(n = 3) ?(len = 160) ?(max_steps = 10_000)
    impl ~workload =
  let split schedule =
    (* Fixed pid list + harness crash points; a [`Crash p] fires before
       the schedule entry that follows it (tick = Steps seen so far) *)
    let rec go ticks pids crashes = function
      | [] -> (List.rev pids, List.rev crashes)
      | `Step (pid, _) :: rest -> go (ticks + 1) (pid :: pids) crashes rest
      | `Crash p :: rest -> go ticks pids ((ticks, p) :: crashes) rest
    in
    go 0 [] [] schedule
  in
  let spec = impl.Objimpl.Implementation.spec in
  let lin_violates history =
    match Lin.Cross.verdict spec history with
    | Objimpl.Linearize.Not_linearizable | Objimpl.Linearize.Malformed _ ->
        true
    | Objimpl.Linearize.Linearizable _ | Objimpl.Linearize.Unknown -> false
  in
  let finish (outcome : Objimpl.Harness.outcome) bad =
    if bad then Some Not_linearizable
    else
      let excused =
        impl.Objimpl.Implementation.progress = Objimpl.Implementation.Blocking
        && outcome.Objimpl.Harness.crashed <> []
      in
      if outcome.Objimpl.Harness.stuck <> [] && not excused then Some Stuck
      else None
  in
  (* Flat-engine state, one per domain: the interned harness runtime plus
     a verdict memo.  The memo is keyed on the recorded history itself
     (pure data, so structural hashing is sound) and caches only the
     oracle-pair answer — a deterministic function of the history —
     never the stuck/crash judgement, which depends on the run.  Short
     fixed workloads revisit the same few hundred histories across
     thousands of schedules, so most replays skip both oracles. *)
  let dls =
    Domain.DLS.new_key (fun () ->
        (Objimpl.Harness.runtime impl ~n, Htbl.create 1024))
  in
  let memo_cap = 1 lsl 16 in
  let judge_parts pids crashes =
    match engine with
    | `Closure ->
        let outcome =
          Objimpl.Harness.run impl ~n ~workload
            ~schedule:(Objimpl.Harness.Fixed pids) ~max_steps ~crashes
            ~probe:true ()
        in
        finish outcome (lin_violates outcome.Objimpl.Harness.history)
    | `Flat ->
        let rt, memo = Domain.DLS.get dls in
        let outcome =
          Objimpl.Harness.run ~engine:Objimpl.Harness.Interned ~rt impl ~n
            ~workload ~schedule:(Objimpl.Harness.Fixed pids) ~max_steps
            ~crashes ~probe:true ()
        in
        let history = outcome.Objimpl.Harness.history in
        let bad =
          match Htbl.find_opt memo history with
          | Some b -> b
          | None ->
              let b = lin_violates history in
              if Htbl.length memo >= memo_cap then Htbl.reset memo;
              Htbl.add memo history b;
              b
        in
        finish outcome bad
  in
  let judge schedule =
    let pids, crashes = split schedule in
    judge_parts pids crashes
  in
  (* single-pass schedule builders: one cons per entry, the [Fixed] pid
     list built alongside so the crash-free gen path skips [split] *)
  let gen_uniform rng =
    let rec go i sched pids =
      if i = 0 then (sched, pids)
      else
        let pid = Rng.int rng n in
        go (i - 1) (`Step (pid, None) :: sched) (pid :: pids)
    in
    go len [] []
  in
  let gen_starving rng =
    let victim = Rng.int rng n in
    let rec go i sched pids =
      if i = 0 then (sched, pids)
      else
        let pid =
          if n > 1 && Rng.int rng 8 < 7 then
            (victim + 1 + Rng.int rng (n - 1)) mod n
          else victim
        in
        go (i - 1) (`Step (pid, None) :: sched) (pid :: pids)
    in
    go len [] []
  in
  let gen_crashing rng : Schedule.t =
    (* up to n-1 crash points at random ticks, survivors keep going *)
    let steps, _ = gen_uniform rng in
    let crashes = gen_crashes rng ~n in
    List.fold_left
      (fun sched (at, p) ->
        let at = min at (List.length sched) in
        let rec insert i = function
          | rest when i = 0 -> `Crash p :: rest
          | [] -> [ `Crash p ]
          | e :: rest -> e :: insert (i - 1) rest
        in
        insert at sched)
      steps crashes
  in
  {
    name;
    describe =
      Printf.sprintf "linearizability %s n=%d calls=%d" impl.Objimpl.Implementation.name
        n
        (List.fold_left (fun acc (_, ops) -> acc + List.length ops) 0 workload);
    gen =
      (fun rng kind ->
        match kind with
        | Uniform ->
            let schedule, pids = gen_uniform rng in
            { schedule; violation = judge_parts pids []; steps = len }
        | Starving ->
            let schedule, pids = gen_starving rng in
            { schedule; violation = judge_parts pids []; steps = len }
        | Crashing ->
            let schedule = gen_crashing rng in
            {
              schedule;
              violation = judge schedule;
              steps = Schedule.steps schedule;
            });
    replay = judge;
    artifact = (fun schedule -> Schedule.to_text schedule);
  }

(* ---- the packaged scenario table ----------------------------------- *)

let counter_workload =
  (* increments and decrements racing a reader — the mix under which the
     single-collect counter is not linearizable (Corollary 4.3): a dec
     landing inside a reader's collect window makes the reader return a
     value the counter never held *)
  [
    (0, [ Objects.Counter.inc ]);
    (1, [ Objects.Counter.read; Objects.Counter.dec ]);
    (2, [ Objects.Counter.read ]);
  ]

let builtins_with engine =
  [
    (* the canonical planted bug: the textbook broken register consensus *)
    consensus ~engine ~inputs:[ 0; 1 ] (Consensus.Flawed.first_writer ~r:1)
    |> (fun s -> { s with name = "flawed" });
    lin ~name:"lin-collect-counter" ~engine Objimpl.Counters.collect
      ~workload:counter_workload;
    lin ~name:"lin-snapshot-counter" ~engine Objimpl.Counters.snapshot
      ~workload:counter_workload;
    (* correct lock-based counter: Blocking, so crash-induced residue is
       excused, but a no-crash deadlock would still be Stuck *)
    lin ~name:"lin-lock-counter" ~engine Objimpl.Locked_counter.locked
      ~workload:counter_workload;
    (* the planted deadlock: release leaves the lock held, so any later
       acquire spins forever even solo — the Stuck specimen *)
    lin ~name:"lin-stuck-counter" ~engine Objimpl.Locked_counter.leaky
      ~workload:counter_workload;
    lin ~name:"lin-consensus-swap" ~engine ~n:2
      Objimpl.Consensus_obj.implementation
      ~workload:
        [
          (0, [ Objects.Sticky.propose_int 7; Objects.Sticky.read ]);
          (1, [ Objects.Sticky.propose_int 9; Objects.Sticky.read ]);
        ];
    lin ~name:"lin-tas-rand" ~engine ~n:2 Objimpl.Tas_rand.implementation
      ~workload:
        [
          (0, [ Objects.Test_and_set.test_and_set; Objects.Test_and_set.read ]);
          (1, [ Objects.Test_and_set.test_and_set; Objects.Test_and_set.read ]);
        ];
    mutex ~n:2 Mutex.peterson;
    mutex ~n:2 Mutex.naive_flag;
    mutex ~n:3 Mutex.tas_lock;
  ]

let builtins = builtins_with `Flat

let find ?inputs ?(engine = `Flat) name =
  let builtins = if engine = `Flat then builtins else builtins_with engine in
  match List.find_opt (fun s -> s.name = name) builtins with
  | Some s -> Ok s
  | None -> (
      match Consensus.Registry.find name with
      | Some p -> Ok (consensus ~engine ?inputs p)
      | None ->
          Error
            (Printf.sprintf
               "unknown scenario %S (builtins: %s; or any protocol from \
                `randsync list`)"
               name
               (String.concat ", " (List.map (fun s -> s.name) builtins))))
