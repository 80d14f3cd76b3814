(* Lemma 3.6 / Theorem 3.7, as a program: the adversary for *arbitrary*
   (not necessarily identical) processes over historyless objects.

   Given a protocol using r historyless objects and enough processes
   (3r^2 + r in the paper; the constructions here are given a little slack
   on top — see EXPERIMENTS.md E3 for the measured minima):

   1. Split the processes into P (inputs 0) and Q (inputs 1).
   2. Build, from the initial configuration, an interruptible execution
      alpha over P with initial object set {} and excess capacity r for
      all objects (Lemma 3.4); it involves only processes with input 0, so
      it must decide 0 — anything else is itself a validity anomaly, which
      we report.  Symmetrically beta over Q decides 1.
   3. Splice alpha and beta (Lemma 3.5) into one execution deciding both.

   No cloning is involved anywhere: this is the paper's general
   construction, where excess capacity plays the role clones play in the
   identical-process case. *)

open Sim

type outcome = {
  trace : int Trace.t;
  config : int Config.t;
  verdict : Checker.verdict;
  inputs : int list;
  processes_used : int;
  registers : int;
  pieces_alpha : int;
  pieces_beta : int;
}

type error =
  | Side_decides_wrong of { side : int; got : int }
  | Unsupported_processes of int
  | Objects_grow of { probed : int; objects : int; processes : int }
  | Construction_failed of string
  | Budget_exhausted of Robust.Budget.reason

let error_to_string = function
  | Side_decides_wrong { side; got } ->
      Printf.sprintf
        "interruptible execution over input-%d processes decided %d" side got
  | Unsupported_processes m ->
      Printf.sprintf
        "the construction needs %d processes, which the protocol does not \
         support" m
  | Objects_grow { probed; objects; processes } ->
      Printf.sprintf
        "the protocol uses %d objects at 2 processes but %d at %d: its \
         object count grows with n, so no process count satisfies 3r^2 + r \
         <= n"
        probed objects processes
  | Construction_failed msg -> "construction failed: " ^ msg
  | Budget_exhausted reason ->
      Printf.sprintf "budget exhausted (%s) before the construction finished"
        (Robust.Budget.reason_to_string reason)

(** Paper bound plus the slack our executable construction needs at the
    final level (the paper's count is exactly tight and leaves the last
    piece without a process to run to a decision; see DESIGN.md). *)
let default_processes r = (3 * r * r) + r + (2 * ((2 * r) + 1))

let run ?budget ?processes (p : Consensus.Protocol.t) =
  let probe_n = 2 in
  let r = List.length (p.Consensus.Protocol.optypes ~n:probe_n) in
  let m =
    match processes with Some m -> m | None -> default_processes r
  in
  let half = m / 2 in
  let m = 2 * half in
  if not (p.Consensus.Protocol.supports_n m) then
    Error (Unsupported_processes m)
  else
    let inputs = List.init m (fun pid -> if pid < half then 0 else 1) in
    let pset = List.init half Fun.id in
    let qset = List.init half (fun i -> half + i) in
    let config = Consensus.Protocol.initial_config p ~inputs in
    let objects = Config.n_objects config in
    let objs = List.init objects Fun.id in
    let build side_pids =
      let scratch = Builder.create ~config ~inputs in
      Build_interruptible.construct scratch ~all_objects:objs ~vset:[]
        ~pset:side_pids ~uset:objs ~e:r
    in
    let construct () =
      let a = build pset and b_ = build qset in
      let decides (s : Build_interruptible.result) =
        s.Build_interruptible.witness.Interruptible.decides
      in
      if decides a <> 0 then
        Error (Side_decides_wrong { side = 0; got = decides a })
      else if decides b_ <> 1 then
        Error (Side_decides_wrong { side = 1; got = decides b_ })
      else begin
        let aside =
          {
            Splice.witness = a.Build_interruptible.witness;
            pset;
            excess = a.Build_interruptible.released;
            decides = 0;
          }
        in
        let bside =
          {
            Splice.witness = b_.Build_interruptible.witness;
            pset = qset;
            excess = b_.Build_interruptible.released;
            decides = 1;
          }
        in
        let b = Builder.create ~config ~inputs in
        Splice.combine b aside bside;
        Ok
          {
            trace = Builder.trace b;
            config = Builder.config b;
            verdict = Builder.verdict b;
            inputs;
            processes_used = m;
            registers = r;
            pieces_alpha =
              List.length a.Build_interruptible.witness.Interruptible.pieces;
            pieces_beta =
              List.length b_.Build_interruptible.witness.Interruptible.pieces;
          }
      end
    in
    if objects > r then
      Error (Objects_grow { probed = r; objects; processes = m })
    else
      match Combine.governed budget construct with
      | Ok result -> result
      | Error (`Failed msg) -> Error (Construction_failed msg)
      | Error (`Exhausted reason) -> Error (Budget_exhausted reason)

let succeeded outcome = not outcome.verdict.Checker.consistent

(** Smallest process count (searched upward from [start] in steps of 2) at
    which the attack succeeds; measured against the paper's 3r^2 + r.

    With [?pool] the upward search evaluates a batch of candidate counts
    per round across the pool's domains and takes the smallest success in
    the batch — the same answer the sequential scan returns, found in
    roughly [1/jobs] of the wall-clock time when successes are rare. *)
let minimum_processes ?pool ?(start = 4) ?(limit = 400) p =
  let batch =
    match pool with None -> 1 | Some pool -> max 1 (2 * Par.Pool.jobs pool)
  in
  let lands m =
    match run ~processes:m p with Ok o -> succeeded o | Error _ -> false
  in
  let rec go m =
    if m > limit then None
    else begin
      let candidates =
        List.init batch (fun i -> m + (2 * i))
        |> List.filter (fun c -> c <= limit)
      in
      match
        List.find_map
          (fun (c, landed) -> if landed then Some c else None)
          (List.combine candidates (Par.map ?pool lands candidates))
      with
      | Some c -> Some c
      | None -> go (m + (2 * batch))
    end
  in
  go start
