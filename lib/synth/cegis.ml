(* The CEGIS loop (ROADMAP item 3): search the bounded decision-tree
   protocol space over r objects for the largest n admitting a correct
   consensus protocol, pruning with replayed counterexamples.

   Search order, per process count n = 2, 3, ...:

     1. solo validity   — a tree is usable for input v only if every solo
                          run decides v (computed once, n-independent,
                          as a decision mask by a walk of the tree)
     2. unanimity       — tree t survives side v only if (t, t) is
                          correct on the all-v vector of length n (a
                          per-tree [Dtree.check] for side 0, read off
                          the mirror for side 1, so the quadratic pair
                          stage sweeps survivors only)
     3. pair sweep      — each (t0, t1) in u0 x u1 that is the first of
                          its mirror orbit runs the candidate pipeline:
                          lemma replay on the trees ([Lemma.hits_pair],
                          schedules compiled when they join the pool),
                          then seeded random probes, then the
                          identical-process adversary, then (3.4) full
                          verification by [Dtree.check] on every mixed
                          vector, whose violating schedule becomes the
                          lemma as it stands

   Stages 2 and 3.4 search the trees themselves, exhaustively: trees
   are finite, so a check never stops short and never answers unknown.
   A row is unknown only when the node budget trips.  The model checker
   on the compiled pair is their referee in the tests, not a stage.

   Identical processes make input vectors multisets: the mixed vectors
   at n are [k zeros ++ (n-k) ones] for 0 < k < n, and unanimity is
   stage 2 — no other vector exists up to symmetry.

   The mirror argument.  Consensus over these objects does not care
   which value is called 0: [Dtree.mirror] exchanges 0 and 1 in every
   decision, written or swapped bit and read branch, so the execution
   tree of (mirror t1, mirror t0) on a vector with k zeros is the
   execution tree of (t0, t1) on the vector with n - k zeros, node for
   node, with every value exchanged; agreement and validity hold in one
   exactly when they hold in the other.  Hence:
     - t is solo-valid for 1 iff mirror t is for 0, and survives
       unanimity on all ones iff mirror t survives it on all zeros: side
       1's verdicts are side 0's, looked up through the enumeration's
       mirror permutation ([Enumerate.enumerate_mirrored]).  Side 1 is
       still admitted through [batched], one metered node per tree, so a
       node budget trips on the same index as a full check would.
     - the mixed vectors at n are closed under k -> n - k, so (t0, t1)
       is correct iff its partner (mirror t1, mirror t0) is.  The sweep
       admits a pair only if its t0-major index is at most its
       partner's.  The first correct pair in enumeration order is then
       always admitted (its partner is correct too, so cannot come
       earlier), and the witness is the unreduced sweep's.
   Admission is a function of the survivor arrays alone, so the
   determinism contract below is untouched.

   Correctness is monotone downward in n (an n-process execution is an
   (n+1)-process execution in which the extra process never moves), so
   the round loop stops at the first exhaustively-unsatisfiable n: every
   larger n is unsatisfiable by the same embedding, and the frontier
   claim keeps its `Exhaustive verdict without visiting them.

   Determinism contract (the repo-wide one): identical parameters give
   bit-identical results — rows, witness, lemma pool — at any [?pool]
   size.  Batches are admitted through [Budget.Meter] on the caller; a
   candidate that reaches the probe stage derives its RNG stream from
   the round's generator by its admission index ([Rng.nth_split], the
   stream the index-th [Rng.split] in candidate order would give, so a
   function of the round and the index alone); [Par.map_array]
   preserves order, the fold that merges outcomes (and grows the lemma
   pool and its hit counts) runs sequentially in candidate order, and
   workers only ever see a pool snapshot frozen — and re-sorted by hits
   — between batches, so the snapshot is a function of the batch index
   alone: exactly the [Fuzz.Campaign] discipline. *)

open Sim
module D = Consensus.Dtree

type verdict = [ `Satisfiable | `Unsatisfiable | `Unknown of Robust.Budget.reason ]

let verdict_to_string = function
  | `Satisfiable -> "satisfiable"
  | `Unsatisfiable -> "unsatisfiable"
  | `Unknown reason -> "unknown:" ^ Robust.Budget.reason_to_string reason

type row = {
  n : int;
  unanimous0 : int;  (** solo-valid trees also correct on the all-0 vector *)
  unanimous1 : int;
  candidates : int;  (** pairs examined, one per mirror orbit *)
  pruned : int;  (** rejected by a replayed pool lemma, no search paid *)
  refuted : int;  (** rejected by a fresh counterexample (probe/adversary/search) *)
  witness : (D.t * D.t) option;  (** first verified pair in enumeration order *)
  verdict : verdict;
}

type result = {
  style : D.style;
  registers : int;
  depth : int;
  coins : bool;
  max_procs : int;
  seed : int;
  trees : int;  (** enumerated candidate trees *)
  valid0 : int;  (** trees whose every solo run decides 0 *)
  valid1 : int;
  rows : row list;
  frontier : int;
      (** largest n with a verified protocol; 1 when already n = 2 fails
          (a single process just decides its own input) *)
  lemmas : Lemma.t list;
  lemma_hits : int;  (** replays that violated, pool hits and fresh mints alike *)
  completeness : Robust.Budget.completeness;
}

(* mixed input vectors at n, identical processes: k zeros then n-k ones *)
let mixed_vectors n =
  List.init (n - 1) (fun i ->
      let zeros = i + 1 in
      List.init n (fun j -> if j < zeros then 0 else 1))

(* Admitted-prefix batching, Campaign-style: admit up to [batch] of the
   [total] items through the meter, dispatch exactly the admitted prefix
   over the pool, fold results sequentially in index order on the
   caller.  [item i] builds item [i] on the caller, once per admitted
   index in ascending order: nothing is materialized for items the
   budget never admits.  [f] must be effect-free towards shared state; all
   merging lives in [fold].  [stop] short-circuits remaining items
   (their cost is never charged); [after_batch] runs on the caller
   between batches — the lemma-pool snapshot refresh hook.  Returns the
   accumulator plus how many items were folded, so callers can tell a
   budget trip (processed < total, meter tripped) from completion. *)
let batched ?pool ?(after_batch = fun () -> ()) ~meter ~batch ~total item f
    fold ~stop init =
  let acc = ref init in
  let processed = ref 0 in
  let start = ref 0 in
  let halted = ref false in
  while (not !halted) && !start < total do
    let want = min batch (total - !start) in
    let admitted = Robust.Budget.Meter.take_nodes meter want in
    if admitted < want then halted := true;
    if admitted > 0 then begin
      (* Array.init applies [item] in index order *)
      let items = Array.init admitted (fun k -> item (!start + k)) in
      let results = Par.map_array ?pool f items in
      Array.iter
        (fun r ->
          if not !halted then begin
            acc := fold !acc r;
            incr processed;
            if stop !acc then halted := true
          end)
        results
    end;
    start := !start + admitted;
    if not !halted then after_batch ()
  done;
  (!acc, !processed)

(* a pool lemma, compiled, with its age index and the prunes credited
   to it; [prunes] is written only by the caller's fold, never while
   workers hold the snapshot *)
type pooled = { id : int; lemma : Lemma.compiled; mutable prunes : int }

(* [a] goes after [b]: fewer prunes, ties younger.  A total order, so
   the sorted snapshot depends only on the counts. *)
let after a b = a.prunes < b.prunes || (a.prunes = b.prunes && a.id > b.id)

(* In-place insertion sort, most prunes first.  The snapshot is
   re-sorted after every batch and one batch's credits move few entries,
   so this runs in near-linear time where a merge sort would pay
   n log n comparisons per batch. *)
let sort_by_prunes a =
  for i = 1 to Array.length a - 1 do
    let x = a.(i) in
    let j = ref (i - 1) in
    while !j >= 0 && after a.(!j) x do
      a.(!j + 1) <- a.(!j);
      decr j
    done;
    a.(!j + 1) <- x
  done

(* one candidate's whole pipeline; runs on a worker domain against a
   frozen lemma pool and its own rng stream — no shared state *)
type outcome =
  | Pruned of pooled  (** the pool lemma that hit *)
  | Refuted of Lemma.t
  | Verified

type eval = {
  outcome : outcome;
  side_lemmas : Lemma.t list;
      (* mints that cannot refute at this n (adversary executions using
         clones beyond n) but may prune larger rounds *)
  hits : int;
  replays : int;  (* pool lemmas replayed against this candidate *)
}

(* Stage tuning: [probes] seeded random executions per mixed vector
   (each at most [probe_max_steps] long) before the adversary; the pool
   keeps at most [max_lemmas] lemmas; [batch] candidates are admitted
   per budget batch (and per pool-snapshot refresh). *)
let probes = 4
let probe_max_steps = 1_000
let max_lemmas = 256
let batch = 32

(* Pool replay on the tree kernel, in snapshot order (most-hit first):
   the first applicable lemma that hits, and how many replays that
   took.  Whether some lemma hits does not depend on the order, so
   neither does anything but which lemma is credited and the replay
   count. *)
let replay_pool ~registers ~n pool pair =
  let len = Array.length pool in
  let rec scan k replays =
    if k = len then (None, replays)
    else
      let e = pool.(k) in
      if e.lemma.Lemma.width > n then scan (k + 1) replays
      else if Lemma.hits_pair ~registers e.lemma pair then
        (Some e, replays + 1)
      else scan (k + 1) (replays + 1)
  in
  scan 0 0

(* [round_rng] and [stream] name the candidate's probe stream, derived
   only if the candidate gets that far *)
let eval_candidate ~style ~registers ~frozen_pool ~n ~vectors ~round_rng
    ~stream (t0, t1) =
  (* 1. pool replay: cheapest possible rejection *)
  match replay_pool ~registers ~n frozen_pool (t0, t1) with
  | Some e, replays ->
      { outcome = Pruned e; side_lemmas = []; hits = 1; replays }
  | None, replays -> (
      let hits = ref 0 in
      let lemma_of ~inputs schedule =
        {
          Lemma.source = D.protocol_name ~style ~registers (t0, t1);
          inputs;
          schedule;
        }
      in
      (* 2. seeded random probes: cheap fresh counterexamples whose
         schedules transfer to the pool.  [Run.exec] runs a private
         copy, so one configuration serves every attempt. *)
      let probe_refutation =
        let rng = Rng.nth_split round_rng stream in
        let rec per_vector = function
          | [] -> None
          | inputs :: rest -> (
              let config =
                Mc.Enumerate.dtree_config ~style ~registers (t0, t1) inputs
              in
              let rec attempt k =
                if k = 0 then None
                else
                  let seed =
                    Int64.to_int (Rng.next_int64 rng) land 0x3FFFFFFF
                  in
                  let r =
                    Run.exec ~max_steps:probe_max_steps (Sched.random ~seed)
                      config
                  in
                  if Checker.ok (Checker.of_config ~inputs r.Run.config) then
                    attempt (k - 1)
                  else begin
                    incr hits;
                    Some
                      (lemma_of ~inputs (Fuzz.Schedule.of_trace r.Run.trace))
                  end
              in
              match attempt probes with
              | Some l -> Some l
              | None -> per_vector rest)
        in
        per_vector vectors
      in
      match probe_refutation with
      | Some l ->
          { outcome = Refuted l; side_lemmas = []; hits = !hits; replays }
      | None -> (
          (* 3. the constructive adversary (rw only: [Attack.certify]'s
             fresh-start replay needs responses that do not leak history,
             which swap responses do).  Its execution may use clones
             beyond n; then it cannot refute this round, but the
             certified schedule still joins the pool for larger n. *)
          let attack_lemma =
            if style <> D.Rw then None
            else
              let p = D.protocol ~style ~registers (t0, t1) in
              match Lowerbound.Attack.run ~nominal_n:n p with
              | Error _ -> None
              | Ok o ->
                  if not (Lowerbound.Attack.succeeded o) then None
                  else (
                    match Lowerbound.Attack.certify p o with
                    | Error _ -> None
                    | Ok (trace, _) ->
                        let l =
                          lemma_of ~inputs:o.Lowerbound.Attack.inputs
                            (Fuzz.Schedule.of_trace trace)
                        in
                        (* trust, but replay: pool only what demonstrably
                           violates its own source *)
                        if Lemma.hits l p then begin
                          incr hits;
                          Some l
                        end
                        else None)
          in
          match attack_lemma with
          | Some l when Lemma.applies ~n l ->
              { outcome = Refuted l; side_lemmas = []; hits = !hits; replays }
          | side ->
              let side_lemmas = Option.to_list side in
              (* 4. full verification, vector by vector, on the tree
                 kernel: exhaustive, since trees are finite *)
              let rec verify = function
                | [] -> Verified
                | inputs :: rest -> (
                    match D.check ~registers (t0, t1) ~inputs with
                    | `Correct -> verify rest
                    | `Violating schedule ->
                        incr hits;
                        Refuted
                          (lemma_of ~inputs (schedule :> Fuzz.Schedule.t)))
              in
              { outcome = verify vectors; side_lemmas; hits = !hits; replays }))

let search ?obs ?pool ?(budget = Robust.Budget.unlimited) ?(prune = true)
    ~style ~registers ~depth ~coins ~max_procs ~seed () =
  if registers < 1 then invalid_arg "Cegis.search: registers must be >= 1";
  if depth < 0 then invalid_arg "Cegis.search: depth must be >= 0";
  if max_procs < 2 then invalid_arg "Cegis.search: max_procs must be >= 2";
  Obs.span obs "synth/search" @@ fun () ->
  let meter = Robust.Budget.Meter.create budget in
  let trees, mirror =
    Obs.span obs "enumerate" @@ fun () ->
    Mc.Enumerate.enumerate_mirrored ~style ~registers ~coins depth
  in
  (* stage 1: solo validity, n-independent: a walk of each tree, valid
     for [side] when its solo mask is [1 lsl side].  Trees are handled
     by index from here on. *)
  let v0, v1 =
    Obs.span obs "solo" @@ fun () ->
    let v0 = ref [] and v1 = ref [] in
    for i = Array.length trees - 1 downto 0 do
      match Mc.Enumerate.dtree_solo_mask ~registers trees.(i) with
      | 1 -> v0 := i :: !v0
      | 2 -> v1 := i :: !v1
      | _ -> ()
    done;
    (Array.of_list !v0, Array.of_list !v1)
  in
  let round_rngs = Rng.split_n (Rng.create seed) (max_procs + 1) in
  let lemmas = ref [] (* newest first *) in
  let lemma_count = ref 0 in
  let lemma_hits = ref 0 in
  let replays = ref 0 in
  let add_lemma lemma =
    if !lemma_count < max_lemmas then begin
      lemmas :=
        { id = !lemma_count; lemma = Lemma.compile lemma; prunes = 0 }
        :: !lemmas;
      incr lemma_count
    end
  in
  (* the pool as workers replay it, [sort_by_prunes]; empty without
     pruning *)
  let frozen = ref [||] in
  let refresh () =
    if prune then begin
      let fresh = !lemma_count - Array.length !frozen in
      if fresh > 0 then
        frozen :=
          Array.append !frozen
            (Array.of_list (List.filteri (fun i _ -> i < fresh) !lemmas));
      sort_by_prunes !frozen
    end
  in
  (* stage 2: unanimity filter over the tree indices [side], one metered
     node per tree, each judged by [correct].  A budget cut makes the
     round unknown: the survivor set it leaves under-approximates the
     true one, and a pair sweep over it could claim `Unsatisfiable it
     never earned.  [seen] hears every verdict. *)
  let unanimous ?pool ?(seen = fun _ _ -> ()) side correct =
    let kept, processed =
      batched ?pool ~meter ~batch ~total:(Array.length side) (Array.get side)
        (fun i -> (i, correct i))
        (fun kept (i, ok) ->
          seen i ok;
          if ok then i :: kept else kept)
        ~stop:(fun _ -> false)
        []
    in
    ( Array.of_list (List.rev kept),
      if processed = Array.length side then None
      else
        Some (Option.value (Robust.Budget.Meter.tripped meter) ~default:`Nodes)
    )
  in
  (* [partners u u'] is the index in [u'] of each tree of [u]'s mirror *)
  let partners u u' =
    let pos = Array.make (Array.length trees) (-1) in
    Array.iteri (fun k i -> pos.(i) <- k) u';
    Array.map
      (fun i ->
        if pos.(mirror.(i)) < 0 then
          failwith "Cegis.search: survivors not closed under mirror";
        pos.(mirror.(i)))
      u
  in
  let rows = ref [] in
  let stop_rounds = ref false in
  let n = ref 2 in
  while (not !stop_rounds) && !n <= max_procs do
    let this_n = !n in
    let zeros = List.init this_n (fun _ -> 0) in
    (* side 0's verdicts by tree index, [None] where it never got;
       side 1 reads its verdicts off them *)
    let correct0 = Array.make (Array.length trees) None in
    let (u0, unk0), (u1, unk1) =
      Obs.span obs "unanimity" @@ fun () ->
      let side0 =
        unanimous ?pool v0
          ~seen:(fun i ok -> correct0.(i) <- Some ok)
          (fun i ->
            match D.check ~registers (trees.(i), trees.(i)) ~inputs:zeros with
            | `Correct -> true
            | `Violating _ -> false)
      in
      (* (t, t) on all ones is (mirror t, mirror t) on all zeros with
         every value exchanged, and [mirror] maps side 1's solo-valid
         trees onto side 0's: a lookup, still one metered node per tree.
         Side 1 is admitted only while the meter holds, so only after
         side 0 ran to the end. *)
      ( side0,
        unanimous v1 (fun i ->
            match correct0.(mirror.(i)) with
            | Some ok -> ok
            | None -> failwith "Cegis.search: mirror is not solo-valid") )
    in
    let row =
      match (unk0, unk1) with
      | Some reason, _ | _, Some reason ->
          {
            n = this_n;
            unanimous0 = Array.length u0;
            unanimous1 = Array.length u1;
            candidates = 0;
            pruned = 0;
            refuted = 0;
            witness = None;
            verdict = `Unknown reason;
          }
      | None, None ->
          (* stage 3: pair sweep in t0-major enumeration order over one
             pair per mirror orbit.  (t0, t1) and its partner
             (mirror t1, mirror t0) are correct together, so only the
             one with the smaller t0-major index is admitted; the first
             correct pair is always its orbit's minimum, so the witness
             is the unreduced sweep's.  [u1] is [mirror u0], so every
             partner exists and the sweep admits (|u0|^2 + |u0|)/2 pairs
             (the |u0| pairs (t, mirror t) are their own partners). *)
          let n0 = Array.length u0 and n1 = Array.length u1 in
          (* partner (p0.(i1), p1.(i0)) of pair (i0, i1); mirror is
             injective both ways, so n0 = n1 *)
          let p0 = partners u1 u0 and p1 = partners u0 u1 in
          let admitted i0 i1 =
            i0 < p0.(i1) || (i0 = p0.(i1) && i1 <= p1.(i0))
          in
          let total = ((n0 * n1) + n0) / 2 in
          (* [batched] asks for admitted pairs in ascending order: walk a
             cursor over all pairs, skipping partners of earlier ones *)
          let c0 = ref 0 and c1 = ref 0 in
          let advance () =
            incr c1;
            if !c1 = n1 then begin
              c1 := 0;
              incr c0
            end
          in
          let pair () =
            while not (admitted !c0 !c1) do
              advance ()
            done;
            let pair = (trees.(u0.(!c0)), trees.(u1.(!c1))) in
            advance ();
            pair
          in
          let vectors = mixed_vectors this_n in
          let round_rng = round_rngs.(this_n) in
          refresh ();
          let (pruned, refuted, witness), processed =
            Obs.span obs "sweep" @@ fun () ->
            batched ?pool ~meter ~batch ~total
              (fun k -> (pair (), k))
              ~after_batch:(fun () ->
                (* workers are quiescent between batches; everything the
                   fold minted or credited is now safe to publish *)
                refresh ())
              (fun (pair, stream) ->
                ( eval_candidate ~style ~registers ~frozen_pool:!frozen
                    ~n:this_n ~vectors ~round_rng ~stream pair,
                  pair ))
              (fun (pruned, refuted, witness) (ev, pair) ->
                lemma_hits := !lemma_hits + ev.hits;
                replays := !replays + ev.replays;
                List.iter add_lemma ev.side_lemmas;
                match ev.outcome with
                | Pruned e ->
                    e.prunes <- e.prunes + 1;
                    (pruned + 1, refuted, witness)
                | Refuted l ->
                    add_lemma l;
                    (pruned, refuted + 1, witness)
                | Verified -> (pruned, refuted, Some pair))
              ~stop:(fun (_, _, witness) -> witness <> None)
              (0, 0, None)
          in
          let verdict =
            if witness <> None then `Satisfiable
            else if processed = total then `Unsatisfiable
            else
              `Unknown
                (Option.value (Robust.Budget.Meter.tripped meter)
                   ~default:`Nodes)
          in
          {
            n = this_n;
            unanimous0 = Array.length u0;
            unanimous1 = Array.length u1;
            candidates = processed;
            pruned;
            refuted;
            witness;
            verdict;
          }
    in
    rows := row :: !rows;
    (match row.verdict with
    | `Unsatisfiable | `Unknown _ ->
        (* unsatisfiable at n stays unsatisfiable for every larger n
           (idle-process embedding), so the frontier is settled; an
           unknown row means nothing larger can be claimed either way *)
        stop_rounds := true
    | `Satisfiable -> ());
    incr n
  done;
  let rows = List.rev !rows in
  let frontier =
    List.fold_left
      (fun acc r -> if r.verdict = `Satisfiable then r.n else acc)
      1 rows
  in
  let completeness =
    List.fold_left
      (fun acc r ->
        match r.verdict with
        | `Unknown reason -> Robust.Budget.merge acc (`Truncated reason)
        | `Satisfiable | `Unsatisfiable -> acc)
      `Exhaustive rows
  in
  let result =
    {
      style;
      registers;
      depth;
      coins;
      max_procs;
      seed;
      trees = Array.length trees;
      valid0 = Array.length v0;
      valid1 = Array.length v1;
      rows;
      frontier;
      lemmas = List.rev_map (fun e -> e.lemma.Lemma.lemma) !lemmas;
      lemma_hits = !lemma_hits;
      completeness;
    }
  in
  (* all instrumentation from the merged result, on the caller domain:
     jobs-invariant by construction *)
  Obs.add obs "synth/candidates"
    (List.fold_left (fun a r -> a + r.candidates) 0 rows);
  Obs.add obs "synth/pruned" (List.fold_left (fun a r -> a + r.pruned) 0 rows);
  Obs.add obs "synth/refuted"
    (List.fold_left (fun a r -> a + r.refuted) 0 rows);
  Obs.add obs "synth/verified"
    (List.length (List.filter (fun r -> r.witness <> None) rows));
  Obs.add obs "synth/lemma-hits" result.lemma_hits;
  Obs.add obs "synth/replays" !replays;
  Obs.add obs "synth/lemmas" (List.length result.lemmas);
  Obs.add obs "budget/polls" (Robust.Budget.Meter.polls meter);
  result

(* ---- rendering (the CLI and bench share these lines) ---- *)

let witness_name (r : result) row =
  Option.map
    (fun pair -> D.protocol_name ~style:r.style ~registers:r.registers pair)
    row.witness

let report (r : result) =
  let header =
    Printf.sprintf
      "synth style=%s registers=%d depth=%d coins=%b procs=2..%d seed=%d \
       trees=%d valid=%d/%d"
      (D.style_to_string r.style) r.registers r.depth r.coins r.max_procs
      r.seed r.trees r.valid0 r.valid1
  in
  let rows =
    List.concat_map
      (fun row ->
        let base =
          Printf.sprintf
            "n=%d: unanimous=%d/%d candidates=%d pruned=%d refuted=%d \
             verdict=%s"
            row.n row.unanimous0 row.unanimous1 row.candidates row.pruned
            row.refuted
            (verdict_to_string row.verdict)
        in
        match witness_name r row with
        | None -> [ base ]
        | Some name -> [ base; Printf.sprintf "synthesized: %s" name ])
      r.rows
  in
  let exhaustive = Robust.Budget.is_exhaustive r.completeness in
  let frontier =
    if r.frontier >= 2 then
      Printf.sprintf
        "frontier: n=%d (largest process count with a correct protocol in \
         this class%s)"
        r.frontier
        (if exhaustive then "" else "; lower bound, search truncated")
    else if exhaustive then
      "frontier: n=1 (no correct protocol for n=2 in this class)"
    else "frontier: n=1 (nothing verified before the search was truncated)"
  in
  let lemmas = Printf.sprintf "lemmas: %d" (List.length r.lemmas) in
  let completeness =
    Printf.sprintf "completeness: %s"
      (Robust.Budget.completeness_to_string r.completeness)
  in
  (header :: rows) @ [ frontier; lemmas; completeness ]
