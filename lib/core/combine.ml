(* Lemma 3.1, as a program.

   Given a configuration (held in a {!Builder}) and two {!Side}s — poised
   writer sets for register sets V and W with solo-continuation witnesses
   deciding different values — produce an execution from the current
   configuration in which both values are decided.

   The recursion follows the proof by induction on |V-bar| + |W-bar|:

   - V subset-of W, and the 0-side's solo run writes only inside W:
     execute [block write V; alpha; block write W; beta].  The block write
     to W obliterates every trace of alpha, so beta replays verbatim.
   - V subset-of W, and alpha first writes a register R outside W: execute
     the block write and alpha's prefix, leave a clone poised to
     re-perform the last write on each register of V, and recurse with
     V' = V + {R} (the runner itself is the poised writer for R).
   - Neither a subset: extend the smaller picture to U = V + W using
     clones of the other side's poised writers, *search* a fresh solo
     continuation gamma after a block write to U (its existence is exactly
     nondeterministic solo termination), and recurse on whichever side
     gamma's decision extends.  Clones are state snapshots, so gamma
     replays identically no matter which side's originals perform the
     block write — that is why one search settles both symmetric cases.

   Everything the proof asserts is re-checked at execution time: block
   writes verify poisedness, witness replays assert the expected decision,
   and {!Attack} checks the final trace with {!Sim.Checker}. *)

open Sim

exception Attack_failed of string

let fail fmt = Printf.ksprintf (fun s -> raise (Attack_failed s)) fmt

(* Run the side's witness: the runner's solo continuation after the block
   write, stopping early if it becomes poised at a nontrivial op outside
   [within] (pass all objects to run to completion). *)
let run_witness b (side : Side.t) ~within =
  let stop config pid = Solo.poised_outside within config pid in
  Builder.run_coins b ~pid:side.Side.runner ~coins:side.Side.coins ~stop ()

(* Caller-wide governance (deadline / cancellation / global step cap),
   domain-local because [Par] runs constructions on several domains at
   once and the construction recursion is deep: threading a meter through
   every [combine] call would smear governance plumbing over proof-shaped
   code.  The meter reaches every solo search of both attacks and trips
   by raising [Robust.Budget.Exhausted], which [governed] catches. *)
let budget_meter : Robust.Budget.Meter.t option Domain.DLS.key =
  Domain.DLS.new_key (fun () -> None)

let governed budget f =
  (* polled every 16 ticks, not the default 512: only solo searches tick,
     and between them a construction can spend long stretches cloning and
     block-writing (anon-rw reaches thousands of processes), so 512 ticks
     can span seconds that a deadline would overshoot *)
  let meter =
    match budget with
    | Some b when not (Robust.Budget.is_unlimited b) ->
        Some (Robust.Budget.Meter.create ~poll_every:16 b)
    | Some _ | None -> None
  in
  let previous = Domain.DLS.get budget_meter in
  Domain.DLS.set budget_meter meter;
  Fun.protect ~finally:(fun () -> Domain.DLS.set budget_meter previous)
  @@ fun () ->
  try Ok (f ()) with
  | Attack_failed msg -> Error (`Failed msg)
  | Run.Step_disabled pid ->
      (* a recorded schedule stepped a process that had already decided:
         over objects that are not historyless, a replay can diverge *)
      Error (`Failed (Printf.sprintf "replay diverged: P%d already decided" pid))
  | Robust.Budget.Exhausted reason -> Error (`Exhausted reason)

let solo_search ?stop ?rng config ~pid =
  Run.solo_search ~max_steps:5_000 ~max_nodes:500_000
    ?meter:(Domain.DLS.get budget_meter) ?stop ?rng config ~pid

(* Execute a block write on a scratch copy of the configuration (pure
   steps; the builder is untouched) and return the resulting config. *)
let scratch_block_write config writers =
  List.fold_left
    (fun config (obj, pid) ->
      (match Triviality.poised_write config pid with
      | Some (o, _) when o = obj -> ()
      | _ -> fail "scratch block write: P%d not poised at obj %d" pid obj);
      fst (Run.step config ~pid ~coin:(fun _ -> 0)))
    config writers

let rec combine b (pside : Side.t) (qside : Side.t) =
  if pside.Side.decides = qside.Side.decides then
    fail "combine: sides decide the same value %d" pside.Side.decides;
  if Side.subset pside qside then subset_case b pside qside
  else if Side.subset qside pside then subset_case b qside pside
  else incomparable_case b pside qside

(* V subset-of W.  [inner] is the V-side, [outer] the W-side. *)
and subset_case b (inner : Side.t) (outer : Side.t) =
  Builder.block_write b inner.Side.writers;
  let coins_left = run_witness b inner ~within:outer.Side.regs in
  if Config.is_decided (Builder.config b) inner.Side.runner then begin
    (* sub-case a: the witness ran to completion writing only inside W *)
    (match Config.decision (Builder.config b) inner.Side.runner with
    | Some d when d = inner.Side.decides -> ()
    | d ->
        fail "witness replay decided %s, expected %d"
          (match d with Some v -> string_of_int v | None -> "nothing")
          inner.Side.decides);
    Builder.block_write b outer.Side.writers;
    let _ =
      Builder.run_coins b ~pid:outer.Side.runner ~coins:outer.Side.coins ()
    in
    match Config.decision (Builder.config b) outer.Side.runner with
    | Some d when d = outer.Side.decides -> ()
    | d ->
        fail "outer witness replay decided %s, expected %d"
          (match d with Some v -> string_of_int v | None -> "nothing")
          outer.Side.decides
  end
  else begin
    (* sub-case b: the runner is poised at its first write outside W *)
    let r_obj =
      match Triviality.poised_write (Builder.config b) inner.Side.runner with
      | Some (obj, _) -> obj
      | None -> fail "runner stalled without decision or pending write"
    in
    if Side.mem outer r_obj then fail "stop predicate returned an object in W";
    (* a clone poised to re-perform the last write on each register of V *)
    let clones =
      List.map
        (fun obj -> (obj, Builder.clone_last_writer b ~obj))
        inner.Side.regs
    in
    let inner' =
      Side.make
        ~regs:(r_obj :: inner.Side.regs)
        ~writers:((r_obj, inner.Side.runner) :: clones)
        ~runner:inner.Side.runner ~coins:coins_left
        ~decides:inner.Side.decides
    in
    combine b inner' outer
  end

(* Neither V subset-of W nor W subset-of V. *)
and incomparable_case b (pside : Side.t) (qside : Side.t) =
  (* performer: a P-side writer poised strictly outside W; its clone exists
     on the symmetric side, so one gamma search settles both cases *)
  let perf_obj, perf =
    match Side.writers_outside pside ~other:qside with
    | w :: _ -> w
    | [] -> fail "incomparable case with V - W empty"
  in
  let snap = Builder.snapshot b in
  (* U-writers, A-flavour: P's writers plus clones of Q's writers on W-V *)
  let w_minus_v = Side.writers_outside qside ~other:pside in
  let wclones =
    List.map (fun (obj, qpid) -> (obj, Builder.clone_of b ~pid:qpid)) w_minus_v
  in
  let umap_a = pside.Side.writers @ wclones in
  let u_regs = List.map fst umap_a in
  (* search gamma on a scratch copy: block write to U, then perf solo *)
  let scratch = scratch_block_write (Builder.config b) umap_a in
  let gamma =
    match solo_search scratch ~pid:perf with
    | Some ({ decision = Some _; _ } as f) -> f
    | Some { decision = None; _ } | None ->
        fail "no terminating solo execution for P%d after block write to U"
          perf
  in
  let d = match gamma.Run.decision with Some d -> d | None -> assert false in
  if d = pside.Side.decides then begin
    (* gamma extends the P side: P' = P + clones(W-V), U *)
    let pside' =
      Side.make ~regs:u_regs ~writers:umap_a ~runner:perf ~coins:gamma.Run.coins
        ~decides:d
    in
    combine b pside' qside
  end
  else if d = qside.Side.decides then begin
    (* symmetric: Q' = Q + clones(V-W); the V-W registers are written by
       clones of P's writers — including a clone of perf, whose state
       equals perf's, so gamma replays for it verbatim *)
    Builder.restore b snap;
    let v_minus_w = Side.writers_outside pside ~other:qside in
    let vclones =
      List.map (fun (obj, ppid) -> (obj, Builder.clone_of b ~pid:ppid)) v_minus_w
    in
    let perf_clone =
      match List.assoc_opt perf_obj vclones with
      | Some pid -> pid
      | None -> fail "performer's register not in V - W?"
    in
    let umap_b = qside.Side.writers @ vclones in
    let qside' =
      Side.make
        ~regs:(List.map fst umap_b)
        ~writers:umap_b ~runner:perf_clone ~coins:gamma.Run.coins ~decides:d
    in
    combine b pside qside'
  end
  else fail "gamma decided %d, which is neither side's value" d
