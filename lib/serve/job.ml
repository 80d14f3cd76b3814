(* Job specs, their JSON codec, and the executor.  See job.mli: the
   server and the CLI's mc/fuzz/attack subcommands both run jobs through
   [execute], so a served verdict is byte-identical to the direct run's
   output. *)

type mc = {
  mc_protocol : string;
  mc_inputs : int list;
  mc_depth : int;
  mc_max_states : int;
  mc_dedup : [ `Off | `Exact | `Symmetric ];
  mc_max_nodes : int option;
}

type fuzz = {
  fz_scenario : string;
  fz_inputs : int list option;
  fz_engine : [ `Flat | `Closure ];
  fz_runs : int;
  fz_seed : int;
  fz_shrink : bool;
  fz_max_candidates : int;
  fz_max_runs : int option;
}

type attack = { at_protocol : string; at_general : bool; at_seeds : int }

type spec = Mc of mc | Fuzz of fuzz | Attack of attack

type t = { spec : spec; deadline : float option }

let mc_defaults ~protocol =
  {
    mc_protocol = protocol;
    mc_inputs = [ 0; 1 ];
    mc_depth = 40;
    mc_max_states = 2_000_000;
    mc_dedup = `Off;
    mc_max_nodes = None;
  }

let fuzz_defaults ~scenario =
  {
    fz_scenario = scenario;
    fz_inputs = None;
    fz_engine = `Flat;
    fz_runs = 200;
    fz_seed = 1;
    fz_shrink = false;
    fz_max_candidates = 4000;
    fz_max_runs = None;
  }

let label t =
  match t.spec with
  | Mc m -> "mc " ^ m.mc_protocol
  | Fuzz f -> "fuzz " ^ f.fz_scenario
  | Attack a -> "attack " ^ a.at_protocol

let dedup_name = function
  | `Off -> "off"
  | `Exact -> "exact"
  | `Symmetric -> "symmetric"

let dedup_of_name = function
  | "off" -> Ok `Off
  | "exact" -> Ok `Exact
  | "symmetric" -> Ok `Symmetric
  | s -> Error (Printf.sprintf "unknown dedup %S" s)

let engine_name = function `Flat -> "flat" | `Closure -> "closure"

let engine_of_name = function
  | "flat" -> Ok `Flat
  | "closure" -> Ok `Closure
  | s -> Error (Printf.sprintf "unknown engine %S" s)

let inputs_csv inputs = String.concat "," (List.map string_of_int inputs)

(* Character-identical to the stamp randsync mc builds, so CLI and server
   checkpoints interoperate. *)
let mc_stamp m =
  Printf.sprintf "mc protocol=%s inputs=%s depth=%d max-states=%d dedup=%s"
    m.mc_protocol (inputs_csv m.mc_inputs) m.mc_depth m.mc_max_states
    (dedup_name m.mc_dedup)

let ( let* ) = Result.bind

(* ---- validation ---- *)

(* Messages name the CLI flag: the spec's fields are the flags' values. *)
let validate t =
  let at_least flag lo v =
    if v >= lo then Ok ()
    else Error (Printf.sprintf "--%s must be >= %d" flag lo)
  in
  let opt_at_least flag lo = function
    | None -> Ok ()
    | Some v -> at_least flag lo v
  in
  let non_empty = function
    | [] -> Error "--inputs must name at least one process"
    | _ -> Ok ()
  in
  (* binary consensus, at a process count the protocol supports; an
     unknown name is refused when the job runs *)
  let fits_protocol name inputs =
    let* () =
      if List.for_all (fun v -> v = 0 || v = 1) inputs then Ok ()
      else Error "--inputs must be 0s and 1s"
    in
    match Consensus.Registry.find name with
    | Some p when not (p.Consensus.Protocol.supports_n (List.length inputs)) ->
        Error
          (Printf.sprintf "protocol %s does not support %d processes" name
             (List.length inputs))
    | _ -> Ok ()
  in
  let* () =
    match t.deadline with
    | Some d when not (d >= 0.) -> Error "--deadline must be >= 0"
    | _ -> Ok ()
  in
  match t.spec with
  | Mc m ->
      let* () = non_empty m.mc_inputs in
      let* () = fits_protocol m.mc_protocol m.mc_inputs in
      let* () = at_least "depth" 0 m.mc_depth in
      let* () =
        if m.mc_depth <= Mc.Explore.max_depth_bound then Ok ()
        else
          Error
            (Printf.sprintf "--depth must be <= %d" Mc.Explore.max_depth_bound)
      in
      let* () = at_least "max-states" 1 m.mc_max_states in
      opt_at_least "max-nodes" 0 m.mc_max_nodes
  | Fuzz f ->
      let* () =
        match f.fz_inputs with
        | None -> Ok ()
        | Some inputs ->
            let* () = non_empty inputs in
            fits_protocol f.fz_scenario inputs
      in
      let* () = at_least "runs" 1 f.fz_runs in
      let* () = at_least "max-candidates" 0 f.fz_max_candidates in
      opt_at_least "max-runs" 0 f.fz_max_runs
  | Attack a -> at_least "seeds" 0 a.at_seeds

(* ---- JSON codec ---- *)

let to_json t =
  let deadline =
    match t.deadline with None -> [] | Some d -> [ ("deadline", Json.Float d) ]
  in
  let ints is = Json.List (List.map (fun i -> Json.Int i) is) in
  match t.spec with
  | Mc m ->
      Json.Obj
        ([
           ("kind", Json.String "mc");
           ("protocol", Json.String m.mc_protocol);
           ("inputs", ints m.mc_inputs);
           ("depth", Json.Int m.mc_depth);
           ("max_states", Json.Int m.mc_max_states);
           ("dedup", Json.String (dedup_name m.mc_dedup));
         ]
        @ (match m.mc_max_nodes with
          | None -> []
          | Some k -> [ ("max_nodes", Json.Int k) ])
        @ deadline)
  | Fuzz f ->
      Json.Obj
        ([
           ("kind", Json.String "fuzz");
           ("scenario", Json.String f.fz_scenario);
         ]
        @ (match f.fz_inputs with
          | None -> []
          | Some is -> [ ("inputs", ints is) ])
        @ [
            ("engine", Json.String (engine_name f.fz_engine));
            ("runs", Json.Int f.fz_runs);
            ("seed", Json.Int f.fz_seed);
            ("shrink", Json.Bool f.fz_shrink);
            ("max_candidates", Json.Int f.fz_max_candidates);
          ]
        @ (match f.fz_max_runs with
          | None -> []
          | Some k -> [ ("max_runs", Json.Int k) ])
        @ deadline)
  | Attack a ->
      Json.Obj
        ([
           ("kind", Json.String "attack");
           ("protocol", Json.String a.at_protocol);
           ("general", Json.Bool a.at_general);
           ("seeds", Json.Int a.at_seeds);
         ]
        @ deadline)

let of_json j =
  let* kind = Json.str "kind" j in
  let* deadline = Json.num_opt "deadline" j in
  let opt_int name ~default =
    let* v = Json.int_opt name j in
    Ok (Option.value v ~default)
  in
  let opt_bool name ~default =
    let* v = Json.bool_opt name j in
    Ok (Option.value v ~default)
  in
  let* spec =
    match kind with
    | "mc" ->
        let* mc_protocol = Json.str "protocol" j in
        let* inputs = Json.int_list_opt "inputs" j in
        let mc_inputs = Option.value inputs ~default:[ 0; 1 ] in
        let* mc_depth = opt_int "depth" ~default:40 in
        let* mc_max_states = opt_int "max_states" ~default:2_000_000 in
        let* dedup = Json.str_opt "dedup" j in
        let* mc_dedup =
          match dedup with None -> Ok `Off | Some s -> dedup_of_name s
        in
        let* mc_max_nodes = Json.int_opt "max_nodes" j in
        Ok
          (Mc
             {
               mc_protocol;
               mc_inputs;
               mc_depth;
               mc_max_states;
               mc_dedup;
               mc_max_nodes;
             })
    | "fuzz" ->
        let* fz_scenario = Json.str "scenario" j in
        let* fz_inputs = Json.int_list_opt "inputs" j in
        let* engine = Json.str_opt "engine" j in
        let* fz_engine =
          match engine with None -> Ok `Flat | Some s -> engine_of_name s
        in
        let* fz_runs = opt_int "runs" ~default:200 in
        let* fz_seed = opt_int "seed" ~default:1 in
        let* fz_shrink = opt_bool "shrink" ~default:false in
        let* fz_max_candidates = opt_int "max_candidates" ~default:4000 in
        let* fz_max_runs = Json.int_opt "max_runs" j in
        Ok
          (Fuzz
             {
               fz_scenario;
               fz_inputs;
               fz_engine;
               fz_runs;
               fz_seed;
               fz_shrink;
               fz_max_candidates;
               fz_max_runs;
             })
    | "attack" ->
        let* at_protocol = Json.str "protocol" j in
        let* at_general = opt_bool "general" ~default:false in
        let* at_seeds = opt_int "seeds" ~default:0 in
        Ok (Attack { at_protocol; at_general; at_seeds })
    | k -> Error (Printf.sprintf "unknown job kind %S" k)
  in
  let t = { spec; deadline } in
  let* () = validate t in
  Ok t

(* ---- outcomes ---- *)

type outcome = { status : int; lines : string list }

module Status = struct
  let clean = 0
  let bad_args = 1
  let violation = 2
  let truncated = 3
  let attack_failed = 4
  let progress = 5
end

let outcome_to_json ~id o =
  Json.Obj
    [
      ("v", Json.Int 1);
      ("id", Json.Int id);
      ("status", Json.Int o.status);
      ("lines", Json.List (List.map (fun l -> Json.String l) o.lines));
    ]

let outcome_of_json j =
  let* v = Json.int "v" j in
  if v <> 1 then Error (Printf.sprintf "unsupported outcome version %d" v)
  else
    let* id = Json.int "id" j in
    let* status = Json.int "status" j in
    let* lines = Json.str_list "lines" j in
    Ok (id, { status; lines })

(* ---- report renderers ---- *)

let mc_report (r : int Mc.Explore.result) =
  let head =
    [
      Printf.sprintf "visited=%d leaves=%d table-hits=%d truncated=%b \
                      max-depth=%d"
        r.Mc.Explore.visited r.Mc.Explore.leaves r.Mc.Explore.table_hits
        r.Mc.Explore.truncated r.Mc.Explore.max_depth_seen;
      "verdict: "
      ^ Robust.Budget.completeness_to_string r.Mc.Explore.completeness;
    ]
  in
  match r.Mc.Explore.violation with
  | Some v ->
      {
        status = Status.violation;
        lines =
          head
          @ [
              Printf.sprintf "VIOLATION (%s):"
                (match v.Mc.Explore.kind with
                | `Inconsistent -> "inconsistent"
                | `Invalid -> "invalid");
              Sim.Trace.to_string string_of_int v.Mc.Explore.trace;
            ];
      }
  | None ->
      let status =
        (* only a governed cut demotes the status: the structural depth
           bound is part of the question being asked *)
        match r.Mc.Explore.completeness with
        | `Truncated (`Nodes | `Steps | `Deadline | `Cancelled) ->
            Status.truncated
        | `Exhaustive | `Truncated (`Depth | `States) -> Status.clean
      in
      { status; lines = head @ [ "no violation found" ] }

let fuzz_report ~describe ~seed (result : Fuzz.Campaign.result) =
  let head =
    [
      Printf.sprintf "scenario=%s (%s) seed=%d" result.Fuzz.Campaign.scenario
        describe seed;
      Printf.sprintf "runs=%d done=%d violations=%d steps=%d kinds=%s"
        result.Fuzz.Campaign.runs_requested result.Fuzz.Campaign.runs_done
        result.Fuzz.Campaign.violations result.Fuzz.Campaign.total_steps
        (String.concat ","
           (List.map
              (fun (k, c) ->
                Printf.sprintf "%s:%d" (Fuzz.Scenario.kind_name k) c)
              result.Fuzz.Campaign.kind_counts));
      "verdict: "
      ^ Robust.Budget.completeness_to_string
          result.Fuzz.Campaign.completeness;
    ]
  in
  match result.Fuzz.Campaign.first_violation with
  | None ->
      let status =
        match result.Fuzz.Campaign.completeness with
        | `Truncated _ -> Status.truncated
        | `Exhaustive -> Status.clean
      in
      { status; lines = head @ [ "no violation found" ] }
  | Some cex ->
      let status =
        match cex.Fuzz.Campaign.violation with
        | Fuzz.Scenario.Stuck -> Status.progress
        | _ -> Status.violation
      in
      {
        status;
        lines =
          head
          @ [
              Printf.sprintf
                "VIOLATION (%s): run=%d kind=%s original-steps=%d \
                 shrunk-steps=%d candidates=%d"
                (Fuzz.Scenario.violation_to_string cex.Fuzz.Campaign.violation)
                cex.Fuzz.Campaign.run_index
                (Fuzz.Scenario.kind_name cex.Fuzz.Campaign.sched_kind)
                (Fuzz.Schedule.steps cex.Fuzz.Campaign.original)
                (Fuzz.Schedule.steps cex.Fuzz.Campaign.shrunk)
                (match cex.Fuzz.Campaign.shrink_stats with
                | Some s -> s.Fuzz.Shrink.candidates
                | None -> 0);
              Format.asprintf "schedule: %a" Fuzz.Schedule.pp
                cex.Fuzz.Campaign.shrunk;
            ];
      }

(* ---- execution ---- *)

type witness =
  | Attack_witness of Consensus.Protocol.t * Lowerbound.Attack.outcome
  | General_witness of Lowerbound.General_attack.outcome
  | Fuzz_witness of Fuzz.Campaign.counterexample

let bad_args line = { status = Status.bad_args; lines = [ line ] }

let with_protocol name f =
  match Consensus.Registry.find name with
  | Some p -> f p
  | None ->
      bad_args (Printf.sprintf "unknown protocol %S; try `randsync list`" name)

let run_mc ?obs ~budget ?checkpoint ?checkpoint_every ?resume (m : mc) =
  with_protocol m.mc_protocol @@ fun p ->
  let nodes =
    match (m.mc_max_nodes, resume) with
    | Some k, Some state ->
        (* the allowance is per-search: shrink it by the prefix the
           checkpoint already accounts for, so resumed-and-direct runs
           trip at the same frontier *)
        Some (max 0 (k - state.Mc.Checkpoint.visited))
    | k, _ -> k
  in
  let on_checkpoint =
    Option.map
      (fun path state ->
        Mc.Checkpoint.save ~path ~scenario:(mc_stamp m) state)
      checkpoint
  in
  mc_report
    (Mc.Explore.search ?obs ?budget:(budget nodes) ~dedup:m.mc_dedup
       ~max_depth:m.mc_depth ~max_states:m.mc_max_states ?checkpoint_every
       ?on_checkpoint ?resume ~inputs:m.mc_inputs
       (Consensus.Protocol.initial_config p ~inputs:m.mc_inputs))

let run_fuzz ?obs ?pool ~budget ~on_witness (f : fuzz) =
  match
    Fuzz.Scenario.find ?inputs:f.fz_inputs ~engine:f.fz_engine f.fz_scenario
  with
  | Error e -> bad_args e
  | Ok sc ->
      let result =
        Fuzz.Campaign.run ?obs ?pool ?budget:(budget f.fz_max_runs)
          ~shrink:f.fz_shrink ~max_candidates:f.fz_max_candidates
          ~runs:f.fz_runs ~seed:f.fz_seed sc
      in
      Option.iter
        (fun cex -> on_witness (Fuzz_witness cex))
        result.Fuzz.Campaign.first_violation;
      fuzz_report ~describe:sc.Fuzz.Scenario.describe ~seed:f.fz_seed result

let checker_verdict v = Format.asprintf "%a" Sim.Checker.pp v

(* The lowerbound constructions are not internally instrumented; the
   attack/* counters record the outcome-shaped facts so an --metrics dump
   still tells the whole story. *)
let run_attack ?obs ?pool ~budget ~on_witness (a : attack) =
  with_protocol a.at_protocol @@ fun p ->
  Obs.span obs "attack" @@ fun () ->
  let failed msg =
    Obs.incr obs "attack/failed";
    { status = Status.attack_failed; lines = [ msg ] }
  in
  let constructed ~head ~succeeded ~trace witness =
    Obs.add obs "attack/witness-steps" (Sim.Trace.steps trace);
    on_witness witness;
    if succeeded then begin
      Obs.incr obs "attack/violations";
      {
        status = Status.violation;
        lines = head @ [ "INCONSISTENT EXECUTION CONSTRUCTED" ];
      }
    end
    else { status = Status.clean; lines = head }
  in
  if a.at_general then
    match Lowerbound.General_attack.run ?budget:(budget None) p with
    | Error (Lowerbound.General_attack.Budget_exhausted reason) ->
        let reason = Robust.Budget.reason_to_string reason in
        Obs.incr obs ("attack/truncated/" ^ reason);
        {
          status = Status.truncated;
          lines = [ Printf.sprintf "verdict: truncated (%s)" reason ];
        }
    | Error e -> failed (Lowerbound.General_attack.error_to_string e)
    | Ok o ->
        constructed
          ~head:
            [
              Printf.sprintf
                "general attack on %s: processes=%d objects=%d pieces=%d/%d"
                a.at_protocol o.Lowerbound.General_attack.processes_used
                o.Lowerbound.General_attack.registers
                o.Lowerbound.General_attack.pieces_alpha
                o.Lowerbound.General_attack.pieces_beta;
              "verdict: " ^ checker_verdict o.Lowerbound.General_attack.verdict;
            ]
          ~succeeded:(Lowerbound.General_attack.succeeded o)
          ~trace:o.Lowerbound.General_attack.trace (General_witness o)
  else
    let sweep_line, outcome =
      if a.at_seeds = 0 then ([], Lowerbound.Attack.run p)
      else begin
        Obs.add obs "attack/seeds" a.at_seeds;
        let sweep =
          Lowerbound.Attack.seed_sweep ?pool
            ~seeds:(List.init a.at_seeds (fun i -> i + 1))
            p
        in
        match Lowerbound.Attack.best_witness sweep with
        | Some (seed, o) ->
            ( [
                Printf.sprintf
                  "seed sweep 1..%d: best witness from seed %d (%d steps)"
                  a.at_seeds seed
                  (Sim.Trace.steps o.Lowerbound.Attack.trace);
              ],
              Ok o )
        | None -> (
            (* no seed succeeded; surface the unrandomized error *)
            ( [],
              match List.assoc_opt 1 sweep with
              | Some r -> r
              | None -> Lowerbound.Attack.run p ))
      end
    in
    match outcome with
    | Error e -> failed (Lowerbound.Attack.error_to_string e)
    | Ok o ->
        constructed
          ~head:
            (sweep_line
            @ [
                Printf.sprintf "attack on %s: processes=%d registers=%d"
                  a.at_protocol o.Lowerbound.Attack.processes_used
                  o.Lowerbound.Attack.registers;
                "verdict: " ^ checker_verdict o.Lowerbound.Attack.verdict;
              ])
          ~succeeded:(Lowerbound.Attack.succeeded o)
          ~trace:o.Lowerbound.Attack.trace
          (Attack_witness (p, o))

let execute ?obs ?pool ?cancel ?on_poll ?checkpoint ?checkpoint_every ?resume
    ?(on_witness = ignore) t =
  match validate t with
  | Error e -> bad_args e
  | Ok () -> (
      (* the spec's deadline is relative, as Budget.make takes it *)
      let budget nodes =
        match (nodes, t.deadline, cancel, on_poll) with
        | None, None, None, None -> None
        | _ ->
            Some
              (Robust.Budget.make ?nodes ?deadline:t.deadline ?cancel ?on_poll
                 ())
      in
      match t.spec with
      | Mc m -> run_mc ?obs ~budget ?checkpoint ?checkpoint_every ?resume m
      | Fuzz f -> run_fuzz ?obs ?pool ~budget ~on_witness f
      | Attack a -> run_attack ?obs ?pool ~budget ~on_witness a)
