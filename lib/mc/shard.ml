(* Fingerprint-sharded, disk-backed frontier exploration (DESIGN.md §4j).
   No CLI or serve path reaches it; it is kept for the repository
   benchmark only.

   The sequential [Explore.search] is one domain and one in-memory
   transposition table.  This engine trades its determinism for scale:

   - the frontier is a set of work items (root-to-node choice paths, the
     same currency as the checkpoint codec), routed to [shards] deques by
     the canonical state hash modulo [shards];
   - [jobs] domains own the shards round-robin and steal from foreign
     deques when their own run dry, so one hot shard cannot idle the
     fleet;
   - under [`Exact]/[`Symmetric] dedup each shard owns a two-tier
     transposition table ([Dtbl]): a bounded in-memory hot cache spilling
     to an append-log on disk, sized by [table_mem_budget] bytes over all
     shards, so the table can exceed RAM.

   Routing and dedup use the canonical key ([Dtbl.Skey]: per-process
   fingerprints + object values), NOT the flat slab's ids — those number
   states relative to a per-domain intern table, so only the fingerprint
   form means the same thing on every domain (and on disk).  Fingerprint
   collisions are accepted at the same trust level as the in-memory
   [`Exact] dedup.

   Soundness contract (why verdict-equality, not trace-equality): a
   dequeued state is skipped when its shard's table holds an entry at
   least as deep as the state's remaining depth.  Any execution the
   skipped occurrence could reach within its horizon is reachable from
   the recorded (shallower-or-equal) occurrence within its larger
   horizon, and the violations checked here are state properties
   (decided values are part of the state and never retract), so a skip
   never hides a violation.  What skips do change is everything
   schedule-shaped: visit order, node counts under dedup, and the
   completeness claim — a breadth-style drain that closes the reachable
   graph without ever hitting a bound has genuinely proved exhaustiveness
   even where the sequential DFS, which re-dives through cycles until the
   depth horizon, reports a truncation.  The pinned contract against the
   sequential referee is therefore: identical violation verdict and
   witness always; identical node counts and completeness under
   [~dedup:`Off] on violation-free runs with non-binding state caps
   (where both engines count exactly the choice-tree nodes).

   Violations: any worker that steps into a violating child records the
   candidate path and stops the drain.  The canonical witness is then
   delegated to the sequential [Explore.search] referee — its first
   violation in DFS preorder is the lex-least choice path, a
   schedule-independent canonical form — and its entire result is
   returned, making violating runs bit-identical to the sequential
   engine's by construction.  Only when the referee cannot re-find a
   violation inside the caller's budget does the lex-least sharded
   candidate serve as the witness (strictly more information than the
   referee's truncated "none seen").

   Budgets: deadlines/cancellation are polled per item on per-worker
   meters; a node budget is enforced against one global counter.  Both
   stop the drain at a schedule-dependent frontier — the sharded tier
   makes no bit-determinism promise for truncated runs (the sequential
   [Explore.search] does: a node budget visits exactly the first k
   preorder nodes).  A trip mid-run
   flushes and closes every shard's disk table ([Dtbl] appends whole
   records and syncs on spill), so the logs a deadline leaves behind
   reopen cleanly. *)

open Sim

type 'a item = {
  path : (int * int) array;  (* root-to-node (pid, outcome) choices *)
  hash : int;  (* canonical key hash; routing = [hash mod shards] *)
  distinct : 'a list;  (* decided values seen along [path] *)
}

type 'a shard_q = {
  q : 'a item Par.Wsq.t;
  tbl_lock : Mutex.t;
  tbl : Dtbl.t option;
}

(* Per-worker tallies, merged on the caller after the join. *)
type wstats = {
  mutable visited : int;
  mutable leaves : int;
  mutable table_hits : int;
  mutable table_misses : int;
  mutable max_depth_seen : int;
  mutable trunc_reason : Robust.Budget.reason option;
  mutable steals : int;
}

(* The flat engine's view of "the state a work item denotes": load it
   into scratch, then inspect/expand.  [iter_succ] enumerates successors
   in the sequential order (pid ascending, outcome ascending), handing
   each child's just-decided value and canonical hash to the callback;
   the scratch state is restored between children. *)
type 'a eng = {
  load : (int * int) array -> unit;
  enabled : unit -> int;
  skey : unit -> Dtbl.Skey.t;
  iter_succ : (pid:int -> outcome:int -> decided:'a option -> hash:int -> unit) -> unit;
}

let key_of ~symmetric ~fps ~objs =
  let fps =
    if symmetric then begin
      let a = Array.copy fps in
      Array.sort compare a;
      a
    end
    else fps
  in
  Dtbl.Skey.make ~fps ~objs

let flat_eng ~symmetric config =
  let root = Flat.of_config config in
  let work = Flat.clone root in
  let rt = Flat.rt work in
  let n_procs = Flat.n_procs work in
  let step pid outcome =
    let sid0 = Flat.sid work pid in
    let code = Intern.code rt sid0 in
    let tag = code land 3 in
    let sid' =
      if tag = Intern.tag_apply then begin
        let obj = code lsr 2 in
        let packed = Intern.apply_packed rt ~sid:sid0 ~vid:(Flat.obj_vid work obj) in
        Flat.write_obj work obj (Intern.vid_of packed);
        Intern.sid_of packed
      end
      else if tag = Intern.tag_choose then Intern.choose rt ~sid:sid0 ~outcome
      else assert false (* paths never step decided states *)
    in
    Flat.write_sid work pid sid';
    if Intern.is_decided rt sid' then Flat.note_decided work pid;
    sid'
  in
  let skey () =
    let fps = Flat.fingerprints work in
    if symmetric then Array.sort compare fps;
    Dtbl.Skey.make ~fps ~objs:(Flat.objects work)
  in
  {
    load =
      (fun path ->
        Flat.blit ~src:root ~dst:work;
        Array.iter (fun (pid, outcome) -> ignore (step pid outcome)) path);
    enabled = (fun () -> Flat.enabled_count work);
    skey;
    iter_succ =
      (fun f ->
        for pid = 0 to n_procs - 1 do
          if not (Flat.is_halted work pid) then begin
            let sid0 = Flat.sid work pid in
            let code = Intern.code rt sid0 in
            let tag = code land 3 in
            let visit outcome =
              (* step in place, report, undo — same discipline as the
                 flat DFS, minus the recursion *)
              let obj_saved =
                if tag = Intern.tag_apply then
                  Some (code lsr 2, Flat.obj_vid work (code lsr 2))
                else None
              in
              let sid' = step pid outcome in
              let decided =
                if Intern.is_decided rt sid' then Intern.decision rt sid'
                else None
              in
              let hash = (skey ()).Dtbl.Skey.hash in
              let undo () =
                if Intern.is_decided rt sid' then Flat.note_undecided work pid;
                Flat.write_sid work pid sid0;
                match obj_saved with
                | Some (obj, vid0) -> Flat.write_obj work obj vid0
                | None -> ()
              in
              Fun.protect ~finally:undo (fun () ->
                  f ~pid ~outcome ~decided ~hash)
            in
            if tag = Intern.tag_apply then visit 0
            else if tag = Intern.tag_choose then
              for outcome = 0 to (code lsr 2) - 1 do
                visit outcome
              done
          end
        done);
  }

let rec mkdir_p dir =
  if dir <> "" && dir <> "/" && dir <> "." && not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

(* Bytes-per-entry estimate for translating [table_mem_budget] into a
   per-shard hot-cache entry count: key record + fingerprint array +
   object pointers + hashtbl bucket, in 8-byte words.  An estimate is all
   the budget needs to be — the contract is "spills happen near the
   budget", not an allocator-exact accounting. *)
let entry_bytes ~width = 128 + (16 * width)

let lex_min_path a b =
  let la = Array.length a and lb = Array.length b in
  let rec cmp i =
    if i >= la || i >= lb then compare la lb
    else
      let c = compare a.(i) b.(i) in
      if c <> 0 then c else cmp (i + 1)
  in
  if cmp 0 <= 0 then a else b

let search ?obs ?jobs ?budget ?(dedup = `Off) ?(max_depth = 60)
    ?(max_states = 2_000_000) ?table_dir ?table_mem_budget
    ~shards ~inputs config =
  if shards < 1 then invalid_arg "Shard.search: shards must be >= 1";
  Obs.span obs "mc/search" @@ fun () ->
  let jobs = max 1 (match jobs with Some j -> j | None -> Par.default_jobs ()) in
  let symmetric = dedup = `Symmetric in
  let referee_budget =
    (* the referee re-finds the witness under the caller's wall-clock
       governance but not its node allowance: the sharded drain already
       spent that, and the referee's job is canonicalization *)
    Option.map
      (fun b -> { b with Robust.Budget.nodes = None; steps = None })
      budget
  in
  let referee () =
    Explore.search ?budget:referee_budget ~dedup ~max_depth ~max_states ~inputs
      config
  in
  (* Root decision prefix: processes may be decided before any step.  A
     violating prefix short-circuits to the referee, which reports it
     with the canonical empty-trace witness. *)
  let root_values = List.sort_uniq compare (Config.decisions config) in
  let root_violates =
    List.length root_values > 1
    || not (List.for_all (fun v -> List.mem v inputs) root_values)
  in
  if root_violates then Explore.record_result obs (referee ())
  else begin
    (match table_dir with Some d -> mkdir_p d | None -> ());
    let width = Config.n_objects config + Config.n_procs config in
    let mem_entries =
      match table_mem_budget with
      | None -> None
      | Some bytes -> Some (max 16 (bytes / shards / entry_bytes ~width))
    in
    let mk_tbl k =
      match dedup with
      | `Off -> None (* nothing to deduplicate; table flags are inert *)
      | `Exact | `Symmetric ->
          let path =
            Option.map
              (fun d -> Filename.concat d (Printf.sprintf "shard-%d.dtbl" k))
              table_dir
          in
          Some (Dtbl.create ?path ?mem_entries ())
    in
    let queues =
      Array.init shards (fun k ->
          { q = Par.Wsq.create (); tbl_lock = Mutex.create (); tbl = mk_tbl k })
    in
    let pending = Atomic.make 0 in
    let position = Atomic.make 0 in
    let trip : Robust.Budget.reason option Atomic.t = Atomic.make None in
    let violated = Atomic.make false in
    let werror : exn option Atomic.t = Atomic.make None in
    let candidates_lock = Mutex.create () in
    let candidates : ([ `Inconsistent | `Invalid ] * (int * int) array) list ref
        =
      ref []
    in
    let set_trip r = ignore (Atomic.compare_and_set trip None (Some r)) in
    let record_candidate kind path =
      Mutex.lock candidates_lock;
      candidates := (kind, path) :: !candidates;
      Mutex.unlock candidates_lock;
      Atomic.set violated true
    in
    let should_stop () =
      Atomic.get trip <> None
      || Atomic.get violated
      || Atomic.get werror <> None
    in
    let enqueue it =
      Atomic.incr pending;
      Par.Wsq.push queues.((it.hash land max_int) mod shards).q it
    in
    let worker_budget =
      match budget with
      | None -> None
      | Some b ->
          if b.Robust.Budget.deadline = None && b.Robust.Budget.cancel = None
             && b.Robust.Budget.on_poll = None
          then None
          else Some { b with Robust.Budget.nodes = None; steps = None }
    in
    let node_allowance =
      match budget with Some { Robust.Budget.nodes; _ } -> nodes | None -> None
    in
    let worker w =
      let st =
        {
          visited = 0;
          leaves = 0;
          table_hits = 0;
          table_misses = 0;
          max_depth_seen = 0;
          trunc_reason = None;
          steals = 0;
        }
      in
      let meter = Option.map Robust.Budget.Meter.create worker_budget in
      let eng = flat_eng ~symmetric config in
      let truncate r = if st.trunc_reason = None then st.trunc_reason <- Some r in
      let exception Stop_expand in
      let process it =
        (match meter with
        | None -> ()
        | Some m -> (
            match Robust.Budget.Meter.tick_node m with
            | None -> ()
            | Some r -> set_trip r));
        if not (should_stop ()) then begin
          let pos = 1 + Atomic.fetch_and_add position 1 in
          match node_allowance with
          | Some k when pos > k -> set_trip `Nodes
          | _ ->
              eng.load it.path;
              let depth = Array.length it.path in
              st.visited <- st.visited + 1;
              if depth > st.max_depth_seen then st.max_depth_seen <- depth;
              if pos > max_states then truncate `States
              else if eng.enabled () = 0 then st.leaves <- st.leaves + 1
              else if depth >= max_depth then truncate `Depth
              else begin
                let expand_from =
                  match queues.(0).tbl with
                  | None -> Some it.distinct
                  | Some _ ->
                      let key = eng.skey () in
                      let rd = max_depth - depth in
                      let home =
                        queues.((key.Dtbl.Skey.hash land max_int) mod shards)
                      in
                      let tbl = Option.get home.tbl in
                      Mutex.lock home.tbl_lock;
                      let decision =
                        match Dtbl.find tbl key with
                        | Some m when (m lsr 1) - 1 >= rd ->
                            (* covered: the recorded occurrence explores
                               at least this far (see the module
                               comment's skip-soundness argument) *)
                            st.table_hits <- st.table_hits + 1;
                            None
                        | prior ->
                            st.table_misses <- st.table_misses + 1;
                            let meta = (rd + 1) lsl 1 in
                            let meta =
                              match prior with
                              | Some m -> Dtbl.merge_meta m meta
                              | None -> meta
                            in
                            Dtbl.set tbl key meta;
                            Some it.distinct
                      in
                      Mutex.unlock home.tbl_lock;
                      decision
                in
                match expand_from with
                | None -> ()
                | Some distinct -> (
                    try
                      eng.iter_succ (fun ~pid ~outcome ~decided ~hash ->
                          let child_path () =
                            let p = Array.make (depth + 1) (0, 0) in
                            Array.blit it.path 0 p 0 depth;
                            p.(depth) <- (pid, outcome);
                            p
                          in
                          let distinct' =
                            match decided with
                            | None -> distinct
                            | Some v ->
                                if List.mem v distinct then distinct
                                else if distinct <> [] then begin
                                  record_candidate `Inconsistent (child_path ());
                                  raise Stop_expand
                                end
                                else if not (List.mem v inputs) then begin
                                  record_candidate `Invalid (child_path ());
                                  raise Stop_expand
                                end
                                else v :: distinct
                          in
                          enqueue
                            { path = child_path (); hash; distinct = distinct' })
                    with Stop_expand -> ())
              end
        end
      in
      let take_own () =
        let rec go k =
          if k >= shards then None
          else if k mod jobs = w then
            match Par.Wsq.pop queues.(k).q with
            | Some it -> Some it
            | None -> go (k + 1)
          else go (k + 1)
        in
        go w
      in
      let steal () =
        let rec go k =
          if k >= shards then None
          else if k mod jobs <> w then
            match Par.Wsq.steal queues.(k).q with
            | Some it -> Some it
            | None -> go (k + 1)
          else go (k + 1)
        in
        match go 0 with
        | Some it ->
            st.steals <- st.steals + 1;
            Some it
        | None -> None
      in
      let run_item it =
        Fun.protect ~finally:(fun () -> Atomic.decr pending) (fun () ->
            try process it
            with e -> ignore (Atomic.compare_and_set werror None (Some e)))
      in
      let rec loop () =
        if not (should_stop ()) then
          match take_own () with
          | Some it ->
              run_item it;
              loop ()
          | None -> (
              match steal () with
              | Some it ->
                  run_item it;
                  loop ()
              | None ->
                  if Atomic.get pending > 0 then begin
                    Domain.cpu_relax ();
                    loop ()
                  end)
      in
      loop ();
      st
    in
    let root_key =
      key_of ~symmetric ~fps:config.Config.fps ~objs:config.Config.objects
    in
    enqueue { path = [||]; hash = root_key.Dtbl.Skey.hash; distinct = root_values };
    let others =
      Array.init (jobs - 1) (fun i -> Domain.spawn (fun () -> worker (i + 1)))
    in
    let st0 = worker 0 in
    let stats = Array.append [| st0 |] (Array.map Domain.join others) in
    (* the drain is over (or abandoned): flush and close every disk tier
       so even a deadline trip leaves recoverable logs behind *)
    Array.iter
      (fun s ->
        match s.tbl with
        | None -> ()
        | Some t ->
            Mutex.lock s.tbl_lock;
            Dtbl.close t;
            Mutex.unlock s.tbl_lock)
      queues;
    (match Atomic.get werror with Some e -> raise e | None -> ());
    let dstats =
      Array.to_list queues
      |> List.filter_map (fun s -> Option.map Dtbl.stats s.tbl)
    in
    let sum f = List.fold_left (fun acc d -> acc + f d) 0 dstats in
    Obs.add obs "mc/shard/steals"
      (Array.fold_left (fun acc s -> acc + s.steals) 0 stats);
    if dstats <> [] then begin
      Obs.add obs "mc/dtbl/hits" (sum (fun d -> d.Dtbl.hits));
      Obs.add obs "mc/dtbl/misses" (sum (fun d -> d.Dtbl.misses));
      Obs.add obs "mc/dtbl/spills" (sum (fun d -> d.Dtbl.spills));
      Obs.add obs "mc/dtbl/compactions" (sum (fun d -> d.Dtbl.compactions));
      Obs.add obs "mc/dtbl/disk-records" (sum (fun d -> d.Dtbl.disk_records))
    end;
    let merged_completeness =
      match Atomic.get trip with
      | Some r -> `Truncated r
      | None ->
          Array.fold_left
            (fun acc s ->
              Robust.Budget.merge acc
                (match s.trunc_reason with
                | Some r -> `Truncated r
                | None -> `Exhaustive))
            `Exhaustive stats
    in
    let merged =
      {
        Explore.violation = None;
        visited = Array.fold_left (fun a s -> a + s.visited) 0 stats;
        leaves = Array.fold_left (fun a s -> a + s.leaves) 0 stats;
        truncated = merged_completeness <> `Exhaustive;
        completeness = merged_completeness;
        max_depth_seen =
          Array.fold_left (fun a s -> max a s.max_depth_seen) 0 stats;
        table_hits = Array.fold_left (fun a s -> a + s.table_hits) 0 stats;
        table_misses = Array.fold_left (fun a s -> a + s.table_misses) 0 stats;
      }
    in
    let result =
      if not (Atomic.get violated) then merged
      else
        let r = referee () in
        match r.Explore.violation with
        | Some _ -> r
        | None ->
            (* the referee's (deadline-bounded) sweep missed it; fall
               back to the lex-least sharded candidate — a genuine
               violating execution beats a truncated "none seen" *)
            let kind, path =
              match !candidates with
              | [] -> assert false
              | (k0, p0) :: rest ->
                  List.fold_left
                    (fun (k, p) (k', p') ->
                      let m = lex_min_path p p' in
                      if m == p then (k, p) else (k', p'))
                    (k0, p0) rest
            in
            {
              merged with
              Explore.violation =
                Some (Explore.witness config kind (Array.to_list path));
            }
    in
    Explore.record_result obs result
  end
