(* Executing configurations.

   The step rule is written once, in place ([step_in]).  [step] wraps it
   on a copy: the *pure* single-step function, so callers (model
   checker, lower-bound adversaries) can keep the old configuration.
   [exec] drives a scheduler, with optional crash injection, over the
   in-place rule on a private copy; [exec_script] replays a recorded
   schedule the same way.  [solo_search] finds a finite solo execution
   (the paper's nondeterministic solo termination) over pure steps. *)

type outcome = All_decided | Max_steps | Scheduler_stopped

let outcome_to_string = function
  | All_decided -> "all-decided"
  | Max_steps -> "max-steps"
  | Scheduler_stopped -> "scheduler-stopped"

type 'a result = {
  config : 'a Config.t;
  trace : 'a Trace.t;
  steps : int;
  outcome : outcome;
}

exception Step_disabled of int

(* The step rule: move process [pid] of [config] in place and return the
   events of that step — the step itself, plus [Decided] if the process
   just decided.  The process's consumed-history fingerprint (see
   [Fingerprint]) mixes in the response on [Apply], the outcome on
   [Choose]. *)
let step_in (config : 'a Config.t) ~pid ~coin =
  let proc', ev =
    match config.procs.(pid) with
    | Proc.Decide _ -> raise (Step_disabled pid)
    | Proc.Apply { obj; op; k } ->
        let value, resp =
          Optype.apply config.optypes.(obj) config.objects.(obj) op
        in
        config.objects.(obj) <- value;
        config.fps.(pid) <-
          Fingerprint.mix config.fps.(pid) (Fingerprint.value_hash resp);
        (k resp, Event.Applied { pid; obj; op; resp })
    | Proc.Choose { n; k } ->
        let outcome = coin n in
        if outcome < 0 || outcome >= n then
          invalid_arg "Run.step: coin outcome out of range";
        config.fps.(pid) <- Fingerprint.mix config.fps.(pid) outcome;
        (k outcome, Event.Coin { pid; n; outcome })
  in
  config.procs.(pid) <- proc';
  match Proc.decision proc' with
  | Some value -> [ ev; Event.Decided { pid; value } ]
  | None -> [ ev ]

(** Pure step: returns the successor configuration and the events emitted.
    Raises [Step_disabled] on a decided process and ignores [halted]
    flags — the caller decides who is allowed to move. *)
let step (config : 'a Config.t) ~pid ~coin =
  let config' = Config.copy config in
  let events = step_in config' ~pid ~coin in
  (config', events)

let finish config rev_trace steps outcome =
  { config; trace = List.rev rev_trace; steps; outcome }

(** Drive [sched] from a private copy of [config] for at most [max_steps]
    steps.  [crashes] maps step indices to pids halted just before that
    step — the paper's "a process may become faulty at a given point in
    an execution" — at most one per iteration, recorded as [Halted]
    events. *)
let exec ?(max_steps = 100_000) ?(crashes = []) (sched : 'a Sched.t)
    (config : 'a Config.t) =
  let config = Config.copy config in
  let rev_trace = ref [] in
  let steps = ref 0 in
  let remaining = ref (List.sort compare crashes) in
  let rec go () =
    (match !remaining with
    | (at, pid) :: rest when at <= !steps ->
        remaining := rest;
        if Config.is_enabled config pid then begin
          config.Config.halted.(pid) <- true;
          rev_trace := Event.Halted { pid } :: !rev_trace
        end
    | _ -> ());
    if Config.all_decided config then All_decided
    else if !steps >= max_steps then Max_steps
    else
      match sched.Sched.choose config ~step:!steps with
      | None -> Scheduler_stopped
      | Some pid ->
          let events =
            step_in config ~pid ~coin:(fun n -> sched.Sched.coin ~pid ~n)
          in
          rev_trace := List.rev_append events !rev_trace;
          incr steps;
          go ()
  in
  let outcome = go () in
  finish config !rev_trace !steps outcome

(** Deterministically replay a recorded schedule script (see [Fuzz.Schedule]
    for the recording side).  Each element either crashes a process
    ([`Crash pid], a no-op when the pid is out of range or already
    disabled) or steps one ([`Step (pid, coin)]), where [coin] supplies
    the outcome if the process is poised at an internal flip — [None] or
    an out-of-range outcome falls back to 0, so a script spliced by the
    shrinker can never desynchronize the replay into an error.  Elements
    whose pid is disabled are skipped rather than rejected: deleting
    earlier script elements may change who is still enabled, and total
    replays are exactly what makes delta-debugging candidates cheap to
    evaluate. *)
let exec_script ?(max_steps = 100_000) ~script (config : 'a Config.t) =
  let config = Config.copy config in
  let n = Config.n_procs config in
  let rev_trace = ref [] in
  let steps = ref 0 in
  let rec go script =
    if Config.all_decided config then All_decided
    else if !steps >= max_steps then Max_steps
    else
      match script with
      | [] -> Scheduler_stopped
      | `Crash pid :: rest ->
          if pid >= 0 && pid < n && Config.is_enabled config pid then begin
            config.Config.halted.(pid) <- true;
            rev_trace := Event.Halted { pid } :: !rev_trace
          end;
          go rest
      | `Step (pid, coin) :: rest ->
          if pid >= 0 && pid < n && Config.is_enabled config pid then begin
            let coin k =
              match coin with Some c when c >= 0 && c < k -> c | _ -> 0
            in
            let events = step_in config ~pid ~coin in
            rev_trace := List.rev_append events !rev_trace;
            incr steps
          end;
          go rest
  in
  let outcome = go script in
  finish config !rev_trace !steps outcome

(* Nondeterministic solo termination, made effective.

   The property (Section 2): from every configuration, every process has
   *some* finite solo execution that completes its operation.  The proofs
   use it purely existentially; the executable adversaries need
   witnesses, so we search: depth-first over the process's internal coin
   outcomes (solo applies are deterministic), bounded by path length and
   total nodes.  A protocol for which the search fails within the budget
   is reported as such, never silently treated as terminating.

   [stop] generalizes the goal, e.g. Lemma 3.4 runs a process "until it
   has decided or is poised at an object in V-bar": pass a predicate that
   holds when the process's pending nontrivial operation lies outside V. *)

type 'a solo = {
  coins : int list;  (** coin outcomes along the found path, in order *)
  decision : 'a option;  (** [Some v] if the goal state has pid decided *)
  solo_steps : int;  (** solo steps on the found path *)
}

let solo_search ?(max_steps = 2_000) ?(max_nodes = 200_000) ?meter
    ?(stop = fun _config _pid -> false) ?rng (config : 'a Config.t) ~pid =
  let nodes = ref 0 in
  (* [meter] is the caller's budget (deadline/cancellation/global step
     cap) layered over the local [max_steps]/[max_nodes] bounds: local
     exhaustion means "no witness found" and the search backtracks, while
     a metered trip means "stop everything" and unwinds the whole
     construction via [Robust.Budget.Exhausted]. *)
  let guard () =
    match meter with
    | None -> ()
    | Some m -> Robust.Budget.Meter.guard_step m
  in
  (* With [rng], coin outcomes at each Choose node are tried in a
     shuffled order instead of 0..n-1: a randomized restart of the same
     complete search.  Different seeds reach different witnesses (and can
     escape pathological corners of the tree); a fixed seed is fully
     deterministic, which is what the parallel seed sweeps rely on. *)
  let outcome_order n =
    match rng with
    | None -> Array.init n Fun.id
    | Some rng ->
        let order = Array.init n Fun.id in
        Rng.shuffle rng order;
        order
  in
  (* rev_coins accumulates outcomes; returns the goal description *)
  let rec go config rev_coins steps =
    guard ();
    incr nodes;
    if !nodes > max_nodes || steps > max_steps then None
    else if Config.is_decided config pid then
      Some
        {
          coins = List.rev rev_coins;
          decision = Config.decision config pid;
          solo_steps = steps;
        }
    else if stop config pid then
      Some { coins = List.rev rev_coins; decision = None; solo_steps = steps }
    else
      match config.Config.procs.(pid) with
      | Proc.Decide _ -> assert false
      | Proc.Apply _ ->
          let config', _ = step config ~pid ~coin:(fun _ -> 0) in
          go config' rev_coins (steps + 1)
      | Proc.Choose { n; _ } ->
          let order = outcome_order n in
          let rec try_outcome idx =
            if idx >= n then None
            else
              let o = order.(idx) in
              let config', _ = step config ~pid ~coin:(fun _ -> o) in
              match go config' (o :: rev_coins) (steps + 1) with
              | Some _ as found -> found
              | None -> try_outcome (idx + 1)
          in
          try_outcome 0
  in
  go config [] 0
