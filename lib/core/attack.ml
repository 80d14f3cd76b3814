(* Lemma 3.2, as a program: the adversary for identical-process consensus
   over read-write registers (and any objects whose nontrivial operations
   the protocol uses like writes).

   Given a protocol with identical process code and nondeterministic solo
   termination, construct an execution that decides both 0 and 1:

   1. Search terminating solo executions: alpha for a process with input 0
      (decides 0) and beta for input 1 (decides 1).
   2. If one of them performs no nontrivial operation at all, simply run it
      to completion and then run the other — the first left no trace in the
      objects, so the second replays its solo behaviour.  Inconsistent.
   3. Otherwise run both read/coin prefixes up to (but excluding) the first
      writes; these commute and leave every object untouched.  The two
      processes are now poised at their first-write registers: invoke
      {!Combine.combine} with V = {alpha's register}, W = {beta's}.

   The returned execution is a genuine execution of the protocol — every
   step went through {!Sim.Run.step} — and the verdict is recomputed
   independently by {!Sim.Checker}. *)

open Sim

type outcome = {
  trace : int Trace.t;
  config : int Config.t;
  verdict : Checker.verdict;
  inputs : int list;  (** inputs of all processes, clones included *)
  processes_used : int;
  registers : int;
  genealogy : Builder.lineage list;  (** how each clone came to be *)
  nominal_n : int;  (** the n the protocol code was instantiated with *)
}

type error =
  | Not_identical
  | No_solo_termination of { pid : int; procs : int }
      (** the pid whose solo search failed, and the process count *)
  | Solo_decides_wrong of { pid : int; expected : int; got : int }
  | Construction_failed of string
  | Budget_exhausted of Robust.Budget.reason

let error_to_string = function
  | Not_identical -> "protocol does not have identical process code"
  | No_solo_termination { pid; procs } ->
      Printf.sprintf "no terminating solo execution found for P%d (%s)" pid
        (Combine.solo_bound ~procs)
  | Solo_decides_wrong { pid; expected; got } ->
      Printf.sprintf "P%d solo decided %d, expected its own input %d" pid got
        expected
  | Construction_failed msg -> "construction failed: " ^ msg
  | Budget_exhausted reason ->
      Printf.sprintf "budget exhausted (%s) before the construction finished"
        (Robust.Budget.reason_to_string reason)

(* Run [pid]'s witness up to (excluding) its first nontrivial operation;
   returns remaining coins, or None if it decided without one. *)
let run_prefix b ~pid ~coins =
  let coins_left =
    Builder.run_coins b ~pid ~coins
      ~stop:(fun config p -> Solo.poised_anywhere config p)
      ()
  in
  if Config.is_decided (Builder.config b) pid then None else Some coins_left

let finish b ~n_objects ~nominal_n =
  {
    trace = Builder.trace b;
    config = Builder.config b;
    verdict = Builder.verdict b;
    inputs = Builder.inputs b;
    processes_used = Builder.n_procs b;
    registers = n_objects;
    genealogy = Builder.genealogy b;
    nominal_n;
  }

let run ?budget ?(nominal_n = 64) ?rng (p : Consensus.Protocol.t) =
  if not p.Consensus.Protocol.identical then Error Not_identical
  else begin
    let optypes = p.Consensus.Protocol.optypes ~n:nominal_n in
    let n_objects = List.length optypes in
    let code input = p.Consensus.Protocol.code ~n:nominal_n ~pid:0 ~input in
    let config = Config.make ~optypes ~procs:[ code 0; code 1 ] in
    let solo pid expected =
      match Combine.solo_search ?rng config ~pid with
      | None ->
          Error (No_solo_termination { pid; procs = Config.n_procs config })
      | Some { decision = Some d; _ } when d <> expected ->
          Error (Solo_decides_wrong { pid; expected; got = d })
      | Some ({ decision = Some _; _ } as f) -> Ok f
      | Some { decision = None; _ } -> assert false
    in
    let construct () =
      match (solo 0 0, solo 1 1) with
      | Error e, _ | _, Error e -> Error e
      | Ok alpha, Ok beta ->
          let b = Builder.create ~config ~inputs:[ 0; 1 ] in
          (match run_prefix b ~pid:0 ~coins:alpha.Run.coins with
          | None ->
              (* alpha wrote nothing: run it, then beta replays solo *)
              let _ = Builder.run_coins b ~pid:1 ~coins:beta.Run.coins () in
              ()
          | Some acoins -> (
              match run_prefix b ~pid:1 ~coins:beta.Run.coins with
              | None ->
                  (* beta wrote nothing and already decided during its
                     prefix; alpha's continuation still replays because
                     nothing was written *)
                  let _ = Builder.run_coins b ~pid:0 ~coins:acoins () in
                  ()
              | Some bcoins ->
                  let r_p =
                    match Triviality.poised_write (Builder.config b) 0 with
                    | Some (obj, _) -> obj
                    | None -> Combine.fail "P0 neither decided nor poised"
                  in
                  let r_q =
                    match Triviality.poised_write (Builder.config b) 1 with
                    | Some (obj, _) -> obj
                    | None -> Combine.fail "P1 neither decided nor poised"
                  in
                  let pside =
                    Side.make ~regs:[ r_p ]
                      ~writers:[ (r_p, 0) ]
                      ~runner:0 ~coins:acoins ~decides:0
                  in
                  let qside =
                    Side.make ~regs:[ r_q ]
                      ~writers:[ (r_q, 1) ]
                      ~runner:1 ~coins:bcoins ~decides:1
                  in
                  Combine.combine b pside qside));
          Ok (finish b ~n_objects ~nominal_n)
    in
    match Combine.governed budget construct with
    | Ok result -> result
    | Error (`Failed msg) -> Error (Construction_failed msg)
    | Error (`Exhausted reason) -> Error (Budget_exhausted reason)
  end

(** Did the attack produce a genuine violation? *)
let succeeded outcome = not outcome.verdict.Checker.consistent

(* ------------------------------------------------------------------ *)
(* Seed sweeps.

   The construction itself is sequential; what parallelizes is the search
   *around* it: randomized-restart seeds for the solo witness searches
   (each seed shuffles the coin-outcome order and can land on a different,
   often shorter, witness).  Seeds are independent — the construction's
   meter is domain-local — and results come back in seed order, so a
   sweep's output is bit-identical for any [?pool]. *)

let seed_sweep ?pool ?budget ?nominal_n ~seeds p =
  Par.map ?pool
    (fun seed -> (seed, run ?budget ?nominal_n ~rng:(Rng.create seed) p))
    seeds

let best_witness results =
  List.fold_left
    (fun best (seed, result) ->
      match result with
      | Ok o when succeeded o -> (
          let len = Trace.steps o.trace in
          match best with
          | Some (_, best_len) when best_len <= len -> best
          | _ -> Some ((seed, o), len))
      | Ok _ | Error _ -> best)
    None results
  |> Option.map fst

(* ------------------------------------------------------------------ *)
(* Certification: realize the attack's execution from a *fresh* start.

   The attack introduces clones mid-run as state snapshots.  For identical
   processes over read-write registers the snapshots are realizable: a
   clone with the same input, scheduled lock-step immediately after its
   origin, passes through exactly the origin's states (reads return the
   same values because nothing intervenes; writes acknowledge with Unit;
   coins are given the same outcomes).  [certify] replays the attack's
   trace from a fresh configuration with *all* processes present,
   inserting those shadow steps, and re-checks the decisions.  A shadow
   step whose response differs from the origin's (e.g. a SWAP, whose
   response reveals history) is reported as unrealizable — which is
   precisely why Section 3.1 is stated for read-write registers. *)

let certify (p : Consensus.Protocol.t) (o : outcome) =
  let config =
    Config.make
      ~optypes:(p.Consensus.Protocol.optypes ~n:o.nominal_n)
      ~procs:(Consensus.Protocol.procs p ~n:o.nominal_n ~inputs:o.inputs)
  in
  let shadows = Hashtbl.create 8 in
  List.iter
    (fun { Builder.clone; origin; cutoff } ->
      Hashtbl.replace shadows origin
        ((clone, cutoff) :: (try Hashtbl.find shadows origin with Not_found -> [])))
    o.genealogy;
  let counts = Hashtbl.create 8 in
  let count pid = try Hashtbl.find counts pid with Not_found -> 0 in
  let config = ref config in
  let rev_trace = ref [] in
  let exception Unrealizable of string in
  (* one step of [pid]; returns the response of an Apply step, if any *)
  let raw_step pid coin =
    let config', events =
      Run.step !config ~pid
        ~coin:(fun _ ->
          match coin with
          | Some c -> c
          | None -> raise (Unrealizable "coin flip where the trace had none"))
    in
    config := config';
    rev_trace := List.rev_append events !rev_trace;
    Hashtbl.replace counts pid (count pid + 1);
    List.find_map
      (function
        | Event.Applied { resp; _ } -> Some resp | _ -> None)
      events
  in
  (* step [pid], then recursively step every clone still shadowing it *)
  let rec step_with_shadows pid coin =
    let resp = raw_step pid coin in
    let idx = count pid - 1 in
    List.iter
      (fun (clone, cutoff) ->
        if idx < cutoff then begin
          let clone_resp = step_with_shadows clone coin in
          match (resp, clone_resp) with
          | Some r, Some r' when not (Value.equal r r') ->
              raise
                (Unrealizable
                   (Printf.sprintf
                      "P%d's shadow P%d observed a different response — \
                       cloning is not realizable over this object type"
                      pid clone))
          | _ -> ()
        end)
      (try Hashtbl.find shadows pid with Not_found -> []);
    resp
  in
  try
    List.iter
      (fun ev ->
        match ev with
        | Event.Applied { pid; _ } -> ignore (step_with_shadows pid None)
        | Event.Coin { pid; outcome; _ } ->
            ignore (step_with_shadows pid (Some outcome))
        | Event.Decided _ | Event.Halted _ -> ())
      (Trace.events o.trace);
    let verdict = Checker.of_config ~inputs:o.inputs !config in
    if Checker.inconsistent ~decisions:(Config.decisions !config) then
      Ok (List.rev !rev_trace, verdict)
    else Error "certified replay did not reproduce the inconsistency"
  with
  | Unrealizable msg -> Error msg
  | Run.Step_disabled pid ->
      Error (Printf.sprintf "replay diverged: P%d already decided" pid)
