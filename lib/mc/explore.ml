(* Exhaustive exploration of the execution tree of a configuration: at every
   node the adversary chooses which enabled process steps, and for internal
   coin-flip steps *also* chooses the outcome (this is exactly the
   nondeterminism against which the paper's correctness conditions are
   stated: no execution may violate consistency or validity).

   Exploration is depth-bounded DFS.  Process states are closures and
   cannot be hashed directly — but they never need to be: a process is a
   deterministic step machine, so its state is fully determined by its
   initial protocol term and the sequence of responses / coin outcomes it
   consumed.  The flat engine interns exactly that history to a dense
   state id ([Sim.Intern]); the closure referee keys on [Config.fps], a
   64-bit hash of it (see [Sim.Fingerprint]).  The optional
   transposition table ([~dedup]) keys on (object values, per-process
   states) and memoizes "subtree violation-free up to remaining depth
   d", collapsing the configurations that different interleavings reach
   redundantly:

   - [`Off]       — the plain DFS (the baseline; bit-identical to the
                    pre-table checker).
   - [`Exact]     — per-slot states: two configurations are merged
                    when every process consumed the same history and the
                    objects hold the same values.  Always sound.
   - [`Symmetric] — additionally sorts the per-process states, so
                    permutations of interchangeable processes collapse to
                    one state.  Sound exactly when equal initial
                    fingerprints (the flat engine's shared roots) imply
                    equal terms *across* process slots: either
                    all processes start from one protocol term (identical
                    processes with one input — the Theorem 3.3 setting),
                    or the initial fingerprints of differing terms were
                    distinguished via [Config.make_seeded ~fp_seeds] (what
                    [Consensus.Protocol.initial_config] does).

   Memoized skips of *complete* (exhaustively clean) subtrees never affect
   the verdict or [truncated]; skips of depth-bounded entries conservatively
   set [truncated].  Neither engine builds a trace while it searches:
   witness traces are reconstructed by replaying the recorded (pid,
   outcome) choice path only when a violation is actually found. *)

open Sim

type dedup = [ `Off | `Exact | `Symmetric ]

type 'a violation = {
  kind : [ `Inconsistent | `Invalid ];
  trace : 'a Trace.t;  (** the execution leading to the violation *)
  config : 'a Config.t;
}

type 'a result = {
  violation : 'a violation option;
  visited : int;  (** nodes expanded *)
  leaves : int;  (** maximal executions reached (all procs decided) *)
  truncated : bool;  (** [completeness <> `Exhaustive] *)
  completeness : Robust.Budget.completeness;
      (** why (and whether) the exploration stopped short; a budget trip
          dominates the structural bounds, which report the first reason
          hit in sequential DFS preorder *)
  max_depth_seen : int;
  table_hits : int;  (** subtrees skipped via the transposition table *)
  table_misses : int;
      (** lookups that found no reusable entry; 0 under [`Off] *)
}

(** All single-step successors of [config] for process [pid]: one successor
    for an [Apply] step, [n] successors for a [Choose] step. *)
let successors config pid =
  match config.Config.procs.(pid) with
  | Proc.Decide _ -> []
  | Proc.Apply _ -> [ Run.step config ~pid ~coin:(fun _ -> 0) ]
  | Proc.Choose { n; _ } ->
      List.init n (fun outcome -> Run.step config ~pid ~coin:(fun _ -> outcome))

(* --- the transposition table ----------------------------------------- *)

module Key = struct
  type t = {
    hash : int;
    objs : Value.t array;  (** shared with the (immutable) configuration *)
    fps : int array;  (** per-slot fingerprints; sorted under [`Symmetric] *)
  }

  (* toplevel recursions — local [let rec]s here would allocate a
     closure pair on every table lookup *)
  let rec ints (x : int array) (y : int array) i =
    i < 0 || (Int.equal (Array.unsafe_get x i) (Array.unsafe_get y i) && ints x y (i - 1))

  let rec vals (x : Value.t array) (y : Value.t array) i =
    i < 0 || (Value.equal x.(i) y.(i) && vals x y (i - 1))

  let equal a b =
    Int.equal a.hash b.hash
    && Array.length a.fps = Array.length b.fps
    && Array.length a.objs = Array.length b.objs
    && ints a.fps b.fps (Array.length a.fps - 1)
    && vals a.objs b.objs (Array.length a.objs - 1)

  let hash k = k.hash
end

module Tbl = Hashtbl.Make (Key)

(* "Violation-free up to remaining depth [depth]"; [complete] once the
   subtree has been exhausted without hitting any bound (a horizon-free
   fact: revisits may skip it at any remaining depth). *)
type entry = { mutable depth : int; mutable complete : bool }

(* The DFS configurations are persistent (never mutated after [step]), so
   the key can share [objects] — and, under [`Exact], [fps] — with the
   configuration instead of copying. *)
let key_of_config ~symmetric (config : 'a Config.t) =
  let fps =
    if symmetric then begin
      let fps = Array.copy config.Config.fps in
      Array.sort (compare : int -> int -> int) fps;
      fps
    end
    else config.Config.fps
  in
  let h = ref (Array.length fps) in
  Array.iter (fun fp -> h := Fingerprint.mix !h fp) fps;
  Array.iter
    (fun v -> h := Fingerprint.mix !h (Fingerprint.value_hash v))
    config.Config.objects;
  { Key.hash = !h; objs = config.Config.objects; fps }

(* Re-execute a (pid, coin-outcome) choice path from [root] with full
   event collection.  Every engine records only choice paths while it
   searches — the violation-free tree never allocates events or trace
   segments — and materializes its witness through this one replay, so
   witnesses are engine-independent by construction. *)
let witness root kind choices =
  let rec replay config rev_events = function
    | [] -> { kind; trace = List.rev rev_events; config }
    | (pid, outcome) :: rest ->
        let config', events = Run.step config ~pid ~coin:(fun _ -> outcome) in
        replay config' (List.rev_append events rev_events) rest
  in
  replay root [] choices

(* Why a search stopped short, if it did: a budget trip dominates (see
   [search_from]); then a search that went past [max_states] reports
   [`States], even when a depth cut came first in preorder: the cap, not
   the depth bound, is what ended the search. *)
let completeness ~tripped ~visited ~max_states first_reason =
  match (tripped, first_reason) with
  | Some r, _ -> `Truncated r
  | None, _ when visited > max_states -> `Truncated `States
  | None, Some r -> `Truncated r
  | None, None -> `Exhaustive

(* The closure DFS over persistent configurations: the referee the flat
   engine is pinned against ([search ~state:`Closure]), and nothing else.
   The reversed (pid, coin-outcome) choice path [rev_choices] is the lazy
   witness, replayed from the root only when a violation is found.

   Resource governance: [~budget] meters node entries.  The meter is
   consulted *before* a node is counted, so a tripped run has visited
   exactly the first k nodes of the sequential preorder.  Structural
   bounds ([max_depth], [max_states]) record their reason in
   [first_reason] and keep exploring other branches; a budget trip
   ([`Nodes]/[`Deadline]/[`Cancelled]) unwinds the whole DFS via
   [Budget_stop].  In the result's [completeness] a trip dominates the
   structural reasons: a structural cut prunes branches but still answers
   the bounded question, while a trip abandons the rest of the tree — the
   caller must not read "truncated (depth)" off a run whose budget ran
   out halfway. *)
let search_from ~polls ~budget ~dedup ~max_depth ~max_states ~inputs config =
  let visited = ref 0 in
  let leaves = ref 0 in
  let table_hits = ref 0 in
  let table_misses = ref 0 in
  (* counts truncation points so subtree completeness is a before/after
     comparison, not a sticky boolean *)
  let trunc = ref 0 in
  let max_depth_seen = ref 0 in
  (* first structural (depth/states) truncation in preorder *)
  let first_reason = ref None in
  let found : 'a violation option ref = ref None in
  let exception Stop in
  let exception Budget_stop of Robust.Budget.reason in
  let meter =
    match budget with
    | Some b when not (Robust.Budget.is_unlimited b) ->
        Some (Robust.Budget.Meter.create b)
    | _ -> None
  in
  let truncate reason =
    if !first_reason = None then first_reason := Some reason;
    incr trunc
  in
  let table =
    match dedup with `Off -> None | `Exact | `Symmetric -> Some (Tbl.create 1024)
  in
  let symmetric = dedup = `Symmetric in
  let stop kind rev_choices =
    found := Some (witness config kind (List.rev rev_choices));
    raise Stop
  in
  (* processes may be decided before any step: the root's decisions
     participate in the verdicts, and seed the distinct-decided-values
     accumulator for the incremental path checks *)
  let check_prefix () =
    let values = List.sort_uniq compare (Config.decisions config) in
    if List.length values > 1 then stop `Inconsistent []
    else if not (List.for_all (fun v -> List.mem v inputs) values) then
      stop `Invalid [];
    values
  in
  let rec go config rev_choices distinct depth =
    (match meter with
    | None -> ()
    | Some m -> (
        match Robust.Budget.Meter.tick_node m with
        | None -> ()
        | Some r -> raise (Budget_stop r)));
    incr visited;
    if depth > !max_depth_seen then max_depth_seen := depth;
    if !visited > max_states then truncate `States
    else if not (Config.exists_enabled config) then incr leaves
    else if depth >= max_depth then truncate `Depth
    else
      match table with
      | None -> expand config rev_choices distinct depth
      | Some tbl -> (
          let rd = max_depth - depth in
          let key = key_of_config ~symmetric config in
          match Tbl.find_opt tbl key with
          | Some e when e.complete -> incr table_hits
          | Some e when e.depth >= rd ->
              incr table_hits;
              (* clean to a horizon at least as deep as ours, but the
                 tree extends beyond it: a re-exploration could not have
                 been exhaustive either *)
              truncate `Depth
          | shallow ->
              incr table_misses;
              let trunc0 = !trunc in
              expand config rev_choices distinct depth;
              (* no violation below (Stop would have escaped) *)
              let complete = !trunc = trunc0 in
              (match shallow with
              | Some e ->
                  e.depth <- max e.depth rd;
                  if complete then e.complete <- true
              | None -> Tbl.replace tbl key { depth = rd; complete }))
  and expand config rev_choices distinct depth =
    Config.iter_enabled config (fun pid ->
        match config.Config.procs.(pid) with
        | Proc.Decide _ -> assert false (* not enabled *)
        | Proc.Apply _ -> child config rev_choices distinct depth pid 0
        | Proc.Choose { n; _ } ->
            for outcome = 0 to n - 1 do
              child config rev_choices distinct depth pid outcome
            done)
  and child config rev_choices distinct depth pid outcome =
    let config', _ = Run.step config ~pid ~coin:(fun _ -> outcome) in
    let rev_choices' = (pid, outcome) :: rev_choices in
    let distinct' =
      match Config.decision config' pid with
      | None -> distinct
      | Some v ->
          if List.mem v distinct then distinct
          else if distinct <> [] then stop `Inconsistent rev_choices'
          else if not (List.mem v inputs) then stop `Invalid rev_choices'
          else v :: distinct
    in
    go config' rev_choices' distinct' (depth + 1)
  in
  let tripped = ref None in
  (try go config [] (check_prefix ()) 0 with
  | Stop -> ()
  | Budget_stop r -> tripped := Some r);
  (match meter with Some m -> polls := Robust.Budget.Meter.polls m | None -> ());
  let completeness =
    completeness ~tripped:!tripped ~visited:!visited ~max_states !first_reason
  in
  {
    violation = !found;
    visited = !visited;
    leaves = !leaves;
    truncated = completeness <> `Exhaustive;
    completeness;
    max_depth_seen = !max_depth_seen;
    table_hits = !table_hits;
    table_misses = !table_misses;
  }

(* --- the flat-slab engine -------------------------------------------- *)

type state = [ `Closure | `Flat ]

(* The first [depth] choices of a depth-indexed choice path. *)
let path_to path_pid path_out depth =
  List.init depth (fun d -> (path_pid.(d), path_out.(d)))

let resume_mismatch () =
  invalid_arg
    "Explore.search: resume path does not match the scenario (wrong \
     protocol, inputs or configuration?)"

(* Resume fast-forward at a node on the cursor path ([depth < !on_path]):
   whether child (pid, outcome) is entered.  Children left of the cursor
   child were fully explored before the interruption and are skipped;
   entering the cursor child that ends the path ends the fast-forward;
   reaching a child right of the cursor means the cursor child does not
   exist here. *)
let resumes_into (cursor : (int * int) array) on_path ~depth pid outcome =
  let cpid, cout = cursor.(depth) in
  if pid < cpid || (pid = cpid && outcome < cout) then false
  else if pid = cpid && outcome = cout then begin
    if depth + 1 = !on_path then on_path := 0;
    true
  end
  else resume_mismatch ()

(* The flat-slab DFS, the production engine: identical traversal order,
   counter accounting and budget metering as the closure referee
   [search_from], over a {!Sim.Flat} slab mutated in place.  Stepping
   into a child saves the overwritten slot ids in locals on the call
   stack, recurses, and writes them back — the undo-cell discipline, so
   the slab (and with it the transposition key) is restored exactly.
   The root-to-node choice path lives in two depth-indexed int arrays, so
   the violation-free path allocates nothing per node; on a violation it
   is replayed from [config] by [witness], so the reported trace and
   configuration are the referee's.

   Table lookups read the key from the table's key register ({!Ptbl}),
   which holds the node's key packed: each step into a node that probes
   is XORed into it and out again, and under [`Symmetric] with a shared
   root a lookup ORs in the sorted sids, so no lookup re-packs the slab.
   A miss inserts the key *before* expanding the subtree, marked
   in-progress (meta 0: stored depth -1, incomplete) — which every
   revisit treats exactly as the closure engine treats an absent entry,
   so counters match node for node — and the held slot offset lets the
   post-expansion update write the final (depth, complete) meta without
   re-probing.  If the table was relaid out meanwhile (it grew, or the
   intern table outgrew a key field width), the offset is stale: the
   undo discipline restored the slab and the register to the
   pre-expansion key, so one more lookup finds the entry again.

   Checkpoint/resume ([search] allows it under [`Off] only, so no table
   is involved): the meter is consulted *before* a node is counted, so a
   tripped node is exactly the first unvisited node of the sequential
   preorder, and the path arrays at the trip are a checkpoint cursor for
   free.  [~on_checkpoint] is called with the counters and the
   root-to-cursor path every [checkpoint_every] visited nodes (before
   the node is counted) and once more at a budget trip.  [~resume]
   restores the counters and fast-forwards to the cursor: a node at
   [depth < !on_path] lies on the resume path and is re-entered without
   being counted or metered (it was counted before the interruption),
   and [resumes_into] skips its children left of the path.  The resumed
   run is bit-identical to an uninterrupted one (pinned by
   [test_checkpoint]). *)
let search_from_flat ~polls ~budget ~checkpoint_every ~on_checkpoint ~resume
    ~dedup ~max_depth ~max_states ~inputs ~obs config =
  let resume = match resume with None -> Checkpoint.empty | Some s -> s in
  let visited = ref resume.Checkpoint.visited in
  let leaves = ref resume.Checkpoint.leaves in
  let table_hits = ref 0 in
  let table_misses = ref 0 in
  (* counts truncation points so subtree completeness is a before/after
     comparison, not a sticky boolean *)
  let trunc = ref 0 in
  let max_depth_seen = ref resume.Checkpoint.max_depth_seen in
  (* first structural (depth/states) truncation in preorder; budget trips
     are kept separate because a resumed run voids them *)
  let first_reason = ref resume.Checkpoint.reason in
  let cursor = Array.of_list resume.Checkpoint.path in
  (* every node of a valid cursor path was entered below [max_depth] *)
  if Array.length cursor > max_depth then resume_mismatch ();
  let on_path = ref (Array.length cursor) in
  let found : 'a violation option ref = ref None in
  let exception Stop in
  let exception Budget_stop of Robust.Budget.reason * int in
  let meter =
    match budget with
    | Some b when not (Robust.Budget.is_unlimited b) ->
        Some (Robust.Budget.Meter.create b)
    | _ -> None
  in
  let truncate reason =
    if !first_reason = None then first_reason := Some reason;
    incr trunc
  in
  let symmetric = dedup = `Symmetric in
  let flat =
    Flat.of_config ~roots:(if symmetric then Flat.By_fp else Flat.Per_slot) config
  in
  let rt = Flat.rt flat in
  let n_objs = Flat.n_objs flat and n_procs = Flat.n_procs flat in
  let width = n_objs + n_procs in
  (* Sort only where two processes share a root ([Per_slot] shares
     none).  Sids form a tree (a fresh child per (parent, input)), so
     processes with distinct roots never hold equal sids and sorting
     could merge nothing the exact key does not.  Allocation-free:
     CEGIS runs thousands of tiny searches. *)
  let sorted = ref false in
  for p = 0 to n_procs - 1 do
    for q = p + 1 to n_procs - 1 do
      if Flat.sid flat p = Flat.sid flat q then sorted := true
    done
  done;
  let sorted = !sorted in
  let table =
    match dedup with
    | `Off -> None
    | `Exact | `Symmetric ->
        Some
          (Ptbl.create ~n_objs ~n_procs ~n_values:(Intern.n_values rt)
             ~n_states:(Intern.n_states rt)
             ~max_depth:(max max_depth 0))
  in
  (* The table's key register holds the current node's key packed (its
     state fields left 0 when [sorted]): loaded from the slab at
     the root and after a widening, and otherwise kept by [flip]. *)
  let skey = Array.make width 0 in
  let load tbl =
    Flat.slab_copy flat ~into:skey;
    if sorted then
      for p = n_objs to width - 1 do
        Array.unsafe_set skey p 0
      done;
    Ptbl.load tbl skey
  in
  Option.iter load table;
  (* The step into a node (process [pid] moved by [ds], object [obj] by
     [dv], as XORs of old and new ids) is flipped into the register when
     the node probes or expands, and out again when it returns: leaves
     and horizon nodes never touch it, and every probe sees its
     ancestors' steps and its own. *)
  let flip tbl pid obj dv ds =
    if dv <> 0 then Ptbl.flip tbl obj dv;
    if ds <> 0 && not sorted then Ptbl.flip tbl (n_objs + pid) ds
  in
  (* when [sorted] a probe ORs in the sorted sids, insertion-sorted in
     one reused array (n_procs is small; no comparator closure, no
     allocation); otherwise the register is the whole key *)
  let sids = if sorted then Array.make n_procs 0 else [||] in
  (* the current node's entry, inserted in progress when absent *)
  let table_slot tbl =
    if
      Ptbl.fit tbl ~n_values:(Intern.n_values rt)
        ~n_states:(Intern.n_states rt)
    then load tbl;
    if sorted then
      for p = 0 to n_procs - 1 do
        let v = Flat.sid flat p in
        let j = ref (p - 1) in
        while !j >= 0 && Array.unsafe_get sids !j > v do
          Array.unsafe_set sids (!j + 1) (Array.unsafe_get sids !j);
          decr j
        done;
        Array.unsafe_set sids (!j + 1) v
      done;
    Ptbl.slot tbl sids
  in
  let path_pid = Array.make (max max_depth 1) 0 in
  let path_out = Array.make (max max_depth 1) 0 in
  let rec go distinct depth pid obj dv ds =
    (* on the resume path: counted before the interruption *)
    if depth < !on_path then expand distinct depth
    else begin
      (match meter with
      | None -> ()
      | Some m -> (
          match Robust.Budget.Meter.tick_node m with
          | None -> ()
          | Some r -> raise (Budget_stop (r, depth))));
      (match on_checkpoint with
      | Some f when !visited > 0 && !visited mod checkpoint_every = 0 ->
          f (checkpoint_at depth)
      | _ -> ());
      incr visited;
      if depth > !max_depth_seen then max_depth_seen := depth;
      if !visited > max_states then truncate `States
      else if Flat.enabled_count flat = 0 then incr leaves
      else if depth >= max_depth then truncate `Depth
      else
        match table with
        | None -> expand distinct depth
        | Some tbl ->
            flip tbl pid obj dv ds;
            let rd = max_depth - depth in
            let o = table_slot tbl in
            (* meta = (stored_depth + 1) lsl 1 lor complete; a fresh
               in-progress entry (meta 0, stored depth -1, incomplete)
               behaves exactly like the closure engine's absent entry *)
            let m = Ptbl.meta tbl o in
            if m land 1 = 1 then incr table_hits
            else if (m lsr 1) - 1 >= rd then begin
              incr table_hits;
              truncate `Depth
            end
            else begin
              incr table_misses;
              let gen = Ptbl.generation tbl in
              let trunc0 = !trunc in
              expand distinct depth;
              let complete = !trunc = trunc0 in
              let depth' = max ((m lsr 1) - 1) rd in
              (* a relaid-out table moved the entry: the undo discipline
                 restored the slab and the register, so the key is found
                 again *)
              let o = if Ptbl.generation tbl = gen then o else table_slot tbl in
              Ptbl.set_meta tbl o
                (((depth' + 1) lsl 1) lor Bool.to_int complete)
            end;
            flip tbl pid obj dv ds
    end
  and expand distinct depth =
    (* step in place, recurse, undo from stack locals; one packed
       [Intern.code] load answers kind, enabledness and arg at once *)
    for pid = 0 to n_procs - 1 do
      if not (Flat.is_halted flat pid) then begin
        let sid0 = Flat.sid flat pid in
        let code = Intern.code rt sid0 in
        let tag = code land 3 in
        if tag = Intern.tag_apply then begin
          if depth >= !on_path || resumes_into cursor on_path ~depth pid 0
          then begin
            let obj = code lsr 2 in
            let vid0 = Flat.obj_vid flat obj in
            let packed = Intern.apply_packed rt ~sid:sid0 ~vid:vid0 in
            let sid' = Intern.sid_of packed in
            let vid' = Intern.vid_of packed in
            Flat.write_obj flat obj vid';
            Flat.write_sid flat pid sid';
            enter distinct depth pid 0 sid' obj (vid0 lxor vid')
              (sid0 lxor sid');
            Flat.write_sid flat pid sid0;
            Flat.write_obj flat obj vid0
          end
        end
        else if tag = Intern.tag_choose then begin
          let n = code lsr 2 in
          for outcome = 0 to n - 1 do
            if depth >= !on_path
               || resumes_into cursor on_path ~depth pid outcome
            then begin
              let sid' = Intern.choose rt ~sid:sid0 ~outcome in
              Flat.write_sid flat pid sid';
              enter distinct depth pid outcome sid' 0 0 (sid0 lxor sid');
              Flat.write_sid flat pid sid0
            end
          done
        end
      end
    done;
    (* still on the resume path: the cursor child was never entered *)
    if depth < !on_path then resume_mismatch ()
  and enter distinct depth pid outcome sid' obj dv ds =
    path_pid.(depth) <- pid;
    path_out.(depth) <- outcome;
    let decided = Intern.is_decided rt sid' in
    if decided then Flat.note_decided flat pid;
    let distinct' =
      if not decided then distinct
      else
        match Intern.decision rt sid' with
        | None -> assert false
        | Some v ->
            if List.mem v distinct then distinct
            else if distinct <> [] then stop `Inconsistent ~depth:(depth + 1)
            else if not (List.mem v inputs) then
              stop `Invalid ~depth:(depth + 1)
            else v :: distinct
    in
    go distinct' (depth + 1) pid obj dv ds;
    if decided then Flat.note_undecided flat pid
  (* [stop] and [checkpoint_at] live in the recursive group so they share
     its closure block: a search allocates no closure of its own for
     them *)
  and stop kind ~depth =
    found := Some (witness config kind (path_to path_pid path_out depth));
    raise Stop
  and checkpoint_at depth =
    {
      Checkpoint.visited = !visited;
      leaves = !leaves;
      max_depth_seen = !max_depth_seen;
      reason = !first_reason;
      path = path_to path_pid path_out depth;
    }
  in
  (* processes may be decided before any step: the root's decisions
     participate in the verdicts, and seed the distinct-decided-values
     accumulator for the incremental path checks *)
  let check_prefix () =
    let values = List.sort_uniq compare (Config.decisions config) in
    if List.length values > 1 then stop `Inconsistent ~depth:0
    else if not (List.for_all (fun v -> List.mem v inputs) values) then
      stop `Invalid ~depth:0
    else values
  in
  let tripped = ref None in
  (try go (check_prefix ()) 0 0 0 0 0 with
  | Stop -> ()
  | Budget_stop (r, depth) ->
      tripped := Some r;
      (* the cursor node is uncounted, so this state resumes exactly there *)
      Option.iter (fun f -> f (checkpoint_at depth)) on_checkpoint);
  (match meter with Some m -> polls := Robust.Budget.Meter.polls m | None -> ());
  Option.iter
    (fun tbl ->
      Obs.add obs "mc/table-bytes" (Ptbl.bytes tbl);
      Obs.add obs "mc/table-relayouts" (Ptbl.generation tbl);
      Obs.add obs "mc/table-widenings" (Ptbl.widenings tbl))
    table;
  let completeness =
    completeness ~tripped:!tripped ~visited:!visited ~max_states !first_reason
  in
  {
    violation = !found;
    visited = !visited;
    leaves = !leaves;
    truncated = completeness <> `Exhaustive;
    completeness;
    max_depth_seen = !max_depth_seen;
    table_hits = !table_hits;
    table_misses = !table_misses;
  }

(* Counter values are the result fields, verbatim — the documented
   contract that lets a --metrics dump be cross-checked against the CLI's
   stdout summary.  Called on the caller's domain only. *)
let record_result obs (r : 'a result) =
  Obs.add obs "mc/visited" r.visited;
  Obs.add obs "mc/leaves" r.leaves;
  Obs.add obs "mc/table-hits" r.table_hits;
  Obs.add obs "mc/table-misses" r.table_misses;
  Obs.record_max obs "mc/max-depth" r.max_depth_seen;
  (match r.completeness with
  | `Exhaustive -> ()
  | `Truncated reason ->
      Obs.incr obs ("mc/truncated/" ^ Robust.Budget.reason_to_string reason));
  r

(* The flat DFS allocates two [max_depth]-long path arrays up front, and
   its table's meta field is as wide as [max_depth] needs. *)
let max_depth_bound = 1 lsl 20

let search ?obs ?budget ?(dedup = `Off) ?(max_depth = 60)
    ?(max_states = 2_000_000) ?(checkpoint_every = 50_000) ?on_checkpoint
    ?resume ?(state = `Flat) ~inputs config =
  if max_depth > max_depth_bound then
    invalid_arg
      (Printf.sprintf "Explore.search: max_depth above %d" max_depth_bound);
  if
    (Option.is_some on_checkpoint || Option.is_some resume)
    && (state, dedup) <> (`Flat, `Off)
  then invalid_arg "Explore.search: only a dedup-off flat search checkpoints";
  Obs.span obs "mc/search" @@ fun () ->
  let polls = ref 0 in
  let r =
    match state with
    | `Flat ->
        search_from_flat ~polls ~budget ~checkpoint_every ~on_checkpoint
          ~resume ~dedup ~max_depth ~max_states ~inputs ~obs config
    | `Closure ->
        search_from ~polls ~budget ~dedup ~max_depth ~max_states
          ~inputs config
  in
  Obs.add obs "budget/polls" !polls;
  record_result obs r

(** All values decided in some execution reachable from [config] (within the
    exploration budget).  The second component tells whether the set is
    exhaustive ([false]) or may be an under-approximation ([true]).
    Seeded with per-process solo probes, so distinct solo decisions are
    found without exhausting the budget in one corner of the tree. *)
let decidable_values ?(max_depth = 60) ?(max_states = 2_000_000) config =
  let visited = ref 0 in
  let truncated = ref false in
  let values = ref [] in
  let add v = if not (List.mem v !values) then values := v :: !values in
  (* decisions already present count, and each enabled process's solo
     probe contributes a cheap reachable-decision witness *)
  List.iter add (Config.decisions config);
  Config.iter_enabled config (fun pid ->
      match Run.solo_search ~max_steps:300 ~max_nodes:5_000 config ~pid with
      | Some { Run.decision = Some v; _ } -> add v
      | _ -> ());
  let rec go config depth =
    incr visited;
    if !visited > max_states || depth >= max_depth then truncated := true
    else
      Config.iter_enabled config (fun pid ->
          match config.Config.procs.(pid) with
          | Proc.Decide _ -> assert false
          | Proc.Apply _ -> visit config depth pid 0
          | Proc.Choose { n; _ } ->
              for outcome = 0 to n - 1 do
                visit config depth pid outcome
              done)
  and visit config depth pid outcome =
    let config', _ = Run.step config ~pid ~coin:(fun _ -> outcome) in
    (match Config.decision config' pid with Some v -> add v | None -> ());
    go config' (depth + 1)
  in
  go config 0;
  (List.sort compare !values, !truncated)
