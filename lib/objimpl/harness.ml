(* Driving implementations with concurrent workloads and recording the
   history of invocations and responses.

   Each process is given a planned sequence of operations on the
   implemented object; the harness interleaves the *base-object steps* of
   the procedures under a seeded random, fixed, or starving schedule,
   recording an invocation event when a call starts and a response event
   when its procedure decides.  The recorded {!History.t} is then judged
   by {!Linearize.check} against the implementation's sequential spec.

   Progress is judged by the {e drain probe} (Lowe's progress-testing
   idea): after the adversarial schedule ends, every in-flight call of a
   surviving process is repeatedly offered a solo run — its own steps
   only, coins resolved from deterministic streams — and completions keep
   their effects, so a call that can only be unblocked by {e another}
   pending call finishing first (a lock holder still inside its critical
   section) is found by the fixpoint.  Calls that no iteration can finish
   are reported in [stuck]: with nobody crashed that is a deadlock, which
   even a [Blocking] implementation must not exhibit. *)

open Sim

type outcome = {
  history : History.t;
  steps : int;
  completed : bool;  (** every planned call responded *)
  pids : int list;
      (** the pids actually stepped, in order — replaying them as [Fixed]
          with the same [coin_seed] and [crashes] reproduces the run *)
  crashed : int list;  (** pids killed by [crashes], ascending *)
  stuck : (int * int) list;
      (** (pid, call id) of surviving in-flight calls the drain probe
          could not finish; empty unless [probe] was set *)
}

type schedule =
  | Random_sched of int  (** seed *)
  | Fixed of int list
  | Starving of { victim : int; seed : int; len : int }
      (** the victim moves only when no other process is active — the
          {!Sim.Sched.starving} adversary, transplanted to the harness *)

(* The two step engines.  [Closure] walks the procedure closure trees
   directly — the reference semantics.  [Interned] steps {!Sim.Intern}
   state ids: object values become dense ints, every procedure step a
   memoized table lookup, and a shared {!runtime} keeps the forced states
   across runs — the fuzzer's hot path.  Both run under the one driver
   below, so they draw from their RNGs in identical order and record
   identical histories by construction; the differential suite pins
   that the two step functions agree. *)
type engine = Closure | Interned

(* What an engine gives the driver: procedure states ['st] over object
   values ['o].  [step objects coins st] takes one step of a call in
   state [st] — a base-object operation on [objects] or a coin drawn from
   [coins] — and returns [idle] when [st] has decided, after which the
   driver reads the value with [decision].  One indirect call per step,
   no allocation of its own. *)
type ('o, 'st) semantics = {
  objects : 'o array;  (* this run's initial object values, fresh *)
  root : int -> Op.t -> 'st;  (* the state a call of [op] by [pid] starts in *)
  idle : 'st;  (* no call in flight; compared physically *)
  step : 'o array -> Rng.t -> 'st -> 'st;
  decision : 'st -> Value.t option;
}

(* per-process driver state *)
type 'st slot = {
  mutable st : 'st;  (** in-flight call's state, [idle] when none *)
  mutable call_id : int;  (** id of the in-flight call *)
  mutable remaining : Op.t list;
  mutable crashed : bool;
}

(* own-steps the drain probe grants one solo attempt *)
let solo_bound = 4096

let drive sem ~n ~workload ~schedule ~coin_seed ~max_steps ~crashes ~probe =
  let idle = sem.idle and objects = sem.objects in
  let slots =
    Array.init n (fun pid ->
        {
          st = idle;
          call_id = -1;
          remaining =
            (match List.assoc_opt pid workload with Some ops -> ops | None -> []);
          crashed = false;
        })
  in
  let busy slot = slot.st != idle && not slot.crashed in
  let history = ref [] in
  let next_call_id = ref 0 in
  let respond pid slot value =
    history := History.Res { call = slot.call_id; pid; value } :: !history;
    slot.st <- idle
  in
  (* [Fixed] and [Starving] schedules resolve internal coin flips from
     [coin_seed] (default 0), so a fixed pid list — or the [pids] a
     starving run realized — is a complete, replayable record of the run:
     the property the fuzzer's shrinker relies on.  [Random_sched] keeps
     its historical contract of one rng shared by scheduling and coins. *)
  let rng =
    match schedule with
    | Random_sched seed -> Rng.create seed
    | Fixed _ | Starving _ -> Rng.create coin_seed
  in
  let sched_rng =
    match schedule with Starving { seed; _ } -> Rng.create seed | _ -> rng
  in
  let fixed = ref (match schedule with Fixed pids -> pids | _ -> []) in
  (* start the next call of [pid] if idle and work remains *)
  let refill pid =
    let slot = slots.(pid) in
    if slot.st == idle && not slot.crashed then
      match slot.remaining with
      | op :: rest ->
          let id = !next_call_id in
          incr next_call_id;
          slot.st <- sem.root pid op;
          slot.call_id <- id;
          slot.remaining <- rest;
          history := History.Inv { call = id; pid; op } :: !history
      | [] -> ()
  in
  Array.iteri (fun pid _ -> refill pid) slots;
  let active () =
    List.filter (fun pid -> busy slots.(pid)) (List.init n Fun.id)
  in
  let steps = ref 0 in
  (* schedule entries consumed so far — the clock crash points count
     against (a Fixed entry that finds its pid idle still ticks, so crash
     indices survive replay of the same pid list) *)
  let ticks = ref 0 in
  let realized = ref [] in
  let crash_list = ref (List.sort compare crashes) in
  let rec fire_due_crashes () =
    match !crash_list with
    | (at, pid) :: rest when at <= !ticks ->
        crash_list := rest;
        if pid >= 0 && pid < n && not slots.(pid).crashed then (
          let slot = slots.(pid) in
          slot.crashed <- true;
          (* the in-flight call never responds; planned work is lost *)
          slot.remaining <- []);
        fire_due_crashes ()
    | _ -> ()
  in
  let step pid =
    let slot = slots.(pid) in
    if busy slot then begin
      incr steps;
      realized := pid :: !realized;
      let st = slot.st in
      let st' = sem.step objects rng st in
      if st' == idle then begin
        respond pid slot (Option.get (sem.decision st));
        refill pid
      end
      else slot.st <- st'
    end
  in
  let rec loop () =
    fire_due_crashes ();
    if !steps >= max_steps then ()
    else
      match schedule with
      | Fixed _ -> (
          match !fixed with
          | [] -> ()
          | pid :: rest ->
              fixed := rest;
              incr ticks;
              if pid >= 0 && pid < n then step pid;
              loop ())
      | Random_sched _ -> (
          match active () with
          | [] -> ()
          | pids ->
              incr ticks;
              step (List.nth pids (Rng.int rng (List.length pids)));
              loop ())
      | Starving { victim; len; _ } -> (
          if !ticks >= len then ()
          else
            match active () with
            | [] -> ()
            | pids -> (
                incr ticks;
                match List.filter (fun p -> p <> victim) pids with
                | [] -> step victim; loop ()
                | others ->
                    step (List.nth others (Rng.int sched_rng (List.length others)));
                    loop ()))
  in
  loop ();
  (* drain: a decided call whose response has not been consumed yet
     still responds *)
  Array.iteri
    (fun pid slot ->
      if busy slot then
        match sem.decision slot.st with
        | Some value -> respond pid slot value
        | None -> ())
    slots;
  (* The drain probe.  Each surviving in-flight call gets solo runs of up
     to [solo_bound] own-steps with coins from deterministic per-attempt
     streams; a completion keeps its object effects (that is what
     "unblocked" means — the lock holder finishing its critical section
     frees the waiter), a failure reverts them.  Iterate to a fixpoint so
     chains of dependent calls drain in any order. *)
  let stuck = ref [] in
  if probe then begin
    let attempts = 3 in
    let try_solo pid attempt =
      let slot = slots.(pid) in
      let coins = Rng.create (coin_seed + (31 * pid) + (1009 * (attempt + 1))) in
      let snapshot = Array.copy objects in
      let rec go st k =
        if k > solo_bound then None
        else
          let st' = sem.step objects coins st in
          if st' == idle then sem.decision st else go st' (k + 1)
      in
      match go slot.st 0 with
      | Some value ->
          respond pid slot value;
          true
      | None ->
          Array.blit snapshot 0 objects 0 (Array.length objects);
          false
    in
    let progress = ref true in
    while !progress do
      progress := false;
      Array.iteri
        (fun pid slot ->
          if busy slot then
            let rec attempt a =
              if a < attempts then
                if try_solo pid a then progress := true else attempt (a + 1)
            in
            attempt 0)
        slots
    done;
    Array.iteri
      (fun pid slot -> if busy slot then stuck := (pid, slot.call_id) :: !stuck)
      slots
  end;
  {
    history = List.rev !history;
    steps = !steps;
    completed =
      Array.for_all (fun slot -> slot.st == idle && slot.remaining = []) slots;
    pids = List.rev !realized;
    crashed =
      Array.to_list slots
      |> List.mapi (fun pid slot -> (pid, slot.crashed))
      |> List.filter_map (fun (pid, c) -> if c then Some pid else None);
    stuck = List.rev !stuck;
  }

(* ---- the closure engine --------------------------------------------- *)

(* never returned by a procedure continuation, so [==] tells it apart *)
let closure_idle : Value.t Proc.t =
  Proc.Choose { n = 0; k = (fun _ -> invalid_arg "Harness: idle slot stepped") }

let closure (impl : Implementation.t) ~n =
  let optypes = Array.of_list (impl.Implementation.base ~n) in
  {
    objects = Array.map (fun (ot : Optype.t) -> ot.Optype.init) optypes;
    root = (fun pid op -> impl.Implementation.procedure ~n ~pid op);
    idle = closure_idle;
    step =
      (fun objects coins proc ->
        match proc with
        | Proc.Decide _ -> closure_idle
        | Proc.Apply { obj; op; k } ->
            let value', resp = Optype.apply optypes.(obj) objects.(obj) op in
            objects.(obj) <- value';
            k resp
        | Proc.Choose { n = outcomes; k } -> k (Rng.int coins outcomes));
    decision = (function Proc.Decide value -> Some value | _ -> None);
  }

(* ---- the interned engine -------------------------------------------- *)

(* Long-lived interning state shared across runs of one implementation:
   the {!Sim.Intern} table (procedure states forced at most once per
   distinct consumed-history), the root state id of each (pid, op)
   procedure, and the initial object value ids.  [run] rebuilds it
   transparently when the id space nears capacity. *)
type runtime = {
  impl : Implementation.t;
  n : int;
  mutable rt : Value.t Intern.t;
  mutable roots : (int * Op.t, int) Hashtbl.t;  (* (pid, op) -> root sid *)
  mutable obj_init : int array;  (* initial object value ids *)
}

let fresh_tables (impl : Implementation.t) ~n =
  let optypes = Array.of_list (impl.Implementation.base ~n) in
  let rt = Intern.create ~optypes in
  let obj_init =
    Array.map (fun (ot : Optype.t) -> Intern.value_id rt ot.Optype.init) optypes
  in
  (rt, obj_init)

let runtime (impl : Implementation.t) ~n =
  let rt, obj_init = fresh_tables impl ~n in
  { impl; n; rt; roots = Hashtbl.create 64; obj_init }

let rebuild u =
  let rt, obj_init = fresh_tables u.impl ~n:u.n in
  u.rt <- rt;
  u.roots <- Hashtbl.create 64;
  u.obj_init <- obj_init

(* Root sid of [pid] running [op]: forced once per distinct (pid, op) for
   the runtime's lifetime.  Keyed on the operation itself (pure data), so
   a runtime serves any workload over the implementation. *)
let root_sid u ~pid op =
  match Hashtbl.find_opt u.roots (pid, op) with
  | Some sid -> sid
  | None ->
      let sid =
        Intern.root_fresh u.rt ~fp:0
          (u.impl.Implementation.procedure ~n:u.n ~pid op)
      in
      Hashtbl.add u.roots (pid, op) sid;
      sid

(* Sids over value ids; [-1] is idle.  The coin draw sits exactly where
   the closure engine draws, one per [Choose] step. *)
let interned u =
  if Intern.near_capacity u.rt then rebuild u;
  let rt = u.rt in
  {
    objects = Array.copy u.obj_init;
    root = (fun pid op -> root_sid u ~pid op);
    idle = -1;
    step =
      (fun objects coins sid ->
        let code = Intern.code rt sid in
        let tag = code land 3 in
        if tag = Intern.tag_apply then begin
          let obj = code lsr 2 in
          let packed =
            Intern.apply_packed rt ~sid ~vid:(Array.unsafe_get objects obj)
          in
          Array.unsafe_set objects obj (Intern.vid_of packed);
          Intern.sid_of packed
        end
        else if tag = Intern.tag_choose then
          Intern.choose rt ~sid ~outcome:(Rng.int coins (code lsr 2))
        else -1);
    decision = Intern.decision rt;
  }

(* [Closure] (the default for bare calls) needs no state; [Interned] uses
   [rt] when given — sharing forced states across runs, the whole point —
   or a throwaway runtime otherwise. *)
let run ?(engine = Closure) ?rt (impl : Implementation.t) ~n ~workload
    ~schedule ?(coin_seed = 0) ?(max_steps = 100_000) ?(crashes = [])
    ?(probe = false) () =
  match engine with
  | Closure ->
      drive (closure impl ~n) ~n ~workload ~schedule ~coin_seed ~max_steps
        ~crashes ~probe
  | Interned ->
      let u = match rt with Some u -> u | None -> runtime impl ~n in
      if u.impl != impl then
        invalid_arg "Harness.run: runtime built for a different implementation";
      if u.n <> n then invalid_arg "Harness.run: runtime built for a different n";
      drive (interned u) ~n ~workload ~schedule ~coin_seed ~max_steps ~crashes
        ~probe

(** Run and check in one go: the verdict of {!Linearize.check} on the
    recorded history (complete calls only). *)
let run_and_check ?engine ?rt impl ~n ~workload ~schedule ?coin_seed ?max_steps
    ?crashes ?probe () =
  let outcome =
    run ?engine ?rt impl ~n ~workload ~schedule ?coin_seed ?max_steps ?crashes
      ?probe ()
  in
  (outcome, Linearize.check impl.Implementation.spec outcome.history)

(** A random mixed workload: [calls] operations per process drawn from
    [ops] (by index). *)
let random_workload ~n ~calls ~ops ~seed =
  let rng = Rng.create seed in
  List.init n (fun pid ->
      ( pid,
        List.init calls (fun _ -> List.nth ops (Rng.int rng (List.length ops)))
      ))
