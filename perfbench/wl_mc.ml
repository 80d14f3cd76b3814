(* The model-checking workload, mc-seq-deep: the sequential flat engine
   on two large instances, one big transposition table each — the main
   CLI path and the control workload for Shard, Dtbl, disk, Par and
   serve.

   Its traced run also measures the sharded layers: the same rw-3n
   family through Mc.Shard with a table budget small enough to force
   spills to disk — parallel drain, stealing, canonical keys and the
   disk tier.

   The instances are fixed, so the seed cannot change the work; it only
   orders the mc-seq-deep instances within a pass. *)

open Common

type inst = {
  label : string;
  protocol : string;
  inputs : int list;
  depth : int;
  dedup : Mc.Explore.dedup;
  kind : string;  (** golden violation kind *)
  truncated : bool;  (** golden *)
  visited : int option;  (** golden; [None] where the count is schedule-dependent *)
}

let rw_3n_n7 ~depth ~visited =
  {
    label = Printf.sprintf "rw-3n-n7-d%d" depth;
    protocol = "rw-3n";
    inputs = List.init 7 (fun _ -> 0);
    depth;
    dedup = `Symmetric;
    kind = "none";
    truncated = true;
    visited;
  }

let counter_3 =
  {
    label = "counter-3-d24";
    protocol = "counter-3";
    inputs = [ 0; 1; 0 ];
    depth = 24;
    dedup = `Exact;
    kind = "none";
    truncated = true;
    visited = Some 2_000_013;
  }

let config i =
  match Consensus.Registry.find i.protocol with
  | Some p -> Consensus.Protocol.initial_config p ~inputs:i.inputs
  | None -> failwith ("unknown protocol " ^ i.protocol)

let kind_name (r : int Mc.Explore.result) =
  match r.Mc.Explore.violation with
  | None -> "none"
  | Some { Mc.Explore.kind = `Inconsistent; _ } -> "inconsistent"
  | Some { Mc.Explore.kind = `Invalid; _ } -> "invalid"

(* Violation kind and truncation always; the node count only where the
   golden carries one.  Returns whether the verdict matched. *)
let check i (r : int Mc.Explore.result) =
  let expected_kind = if !wrong_golden then "wrong-" ^ i.kind else i.kind in
  record i.label
    (if kind_name r <> expected_kind then
       `Wrong
         (Printf.sprintf "violation %s, golden %s" (kind_name r) expected_kind)
     else if r.Mc.Explore.truncated <> i.truncated then
       `Wrong
         (Printf.sprintf "truncated %b, golden %b" r.Mc.Explore.truncated
            i.truncated)
     else
       match i.visited with
       | Some v when r.Mc.Explore.visited <> golden_int v ->
           `Wrong
             (Printf.sprintf "visited %d, golden %d" r.Mc.Explore.visited
                (golden_int v))
       | _ -> `Ok)

(* ---- mc-seq-deep ---- *)

let seq_insts = [ rw_3n_n7 ~depth:12 ~visited:(Some 1_666_764); counter_3 ]

(* a pass answers within this, or misses its deadline *)
let seq_deadline = 3.

let explore ?obs ?(state = `Flat) i cfg =
  Mc.Explore.search ?obs ~dedup:i.dedup ~max_depth:i.depth ~state
    ~inputs:i.inputs cfg

(* Every instance's verdict checked; the pass's work is the nodes
   visited. *)
let judge rs =
  let oks = List.map (fun (i, r) -> check i r) rs in
  ( List.for_all Fun.id oks,
    float_of_int (List.fold_left (fun a (_, r) -> a + r.Mc.Explore.visited) 0 rs) )

let seq_configs insts = List.map (fun i -> (i, config i)) insts
let seq_setup () = setup_probe ~batch:1000 (fun () -> seq_configs seq_insts)

(* ---- the sharded layers (traced runs of mc-seq-deep) ---- *)

(* Under dedup the sharded node count depends on the steal schedule, so
   only the verdict is golden (lib/mc/shard.mli).

   Depth 10 with a 128 KiB budget: a pass takes about 2 s and still
   spills about 900 times.  These passes run two domains and write to
   disk, so on a shared two-core machine their times spread too widely
   between runs to bound; they are per-layer numbers, not a workload of
   their own. *)
let spill_inst = rw_3n_n7 ~depth:10 ~visited:None

let shards = 2
let jobs = 2
let table_mem_budget = 128 * 1024

let shard_search ?obs ~shards ~jobs ?table_dir cfg =
  let i = spill_inst in
  Mc.Shard.search ?obs ~jobs ~shards ~dedup:i.dedup ~max_depth:i.depth
    ?table_dir
    ?table_mem_budget:(Option.map (fun _ -> table_mem_budget) table_dir)
    ~inputs:i.inputs cfg

(* Records of the pass's own logs, re-encoded and decoded: the v1 codec's
   cost per record on real keys. *)
let codec_us dir =
  let sample = 20_000 in
  let lines =
    Array.to_list (Sys.readdir dir)
    |> List.filter (fun f -> Filename.check_suffix f ".dtbl")
    |> List.concat_map (fun f ->
           let ic = open_in (Filename.concat dir f) in
           Fun.protect ~finally:(fun () -> close_in ic) @@ fun () ->
           let rec go acc k =
             if k = 0 then acc
             else
               match input_line ic with
               | l when l = Mc.Dtbl.header -> go acc k
               | l -> go (l :: acc) (k - 1)
               | exception End_of_file -> acc
           in
           go [] (sample / shards))
  in
  if lines = [] then 0.
  else begin
    let n = List.length lines in
    let best = ref infinity in
    for _ = 1 to 3 do
      let (), dt =
        timed (fun () ->
            List.iter
              (fun l ->
                let k, meta = Mc.Dtbl.record_of_line l in
                ignore (Sys.opaque_identity (Mc.Dtbl.record_to_line k meta)))
              lines)
      in
      best := Float.min !best dt
    done;
    !best /. float_of_int n *. 1e6
  end

(* Traced sharded passes for [seconds], each in a fresh table dir (pass
   ids from 1000), then the ablations: the same instance in memory at one
   and two jobs, and the sequential engine. *)
let sharded_layers ~seconds =
  let root = fresh_dir "dtbl" in
  Fun.protect ~finally:(fun () -> rm_rf root) @@ fun () ->
  let judge r = (check spill_inst r, float_of_int r.Mc.Explore.visited) in
  let traced_pass k =
    Span.pass := 1000 + k;
    let dir = Filename.concat root (Printf.sprintf "pass-%d" k) in
    let obs = Obs.create () in
    let cfg = config spill_inst in
    let _, r =
      Span.traced (fun () ->
          Span.run "pass" (fun () ->
              timed_pass ~judge (fun () ->
                  Span.run "mc.shard.search" (fun () ->
                      shard_search ~obs ~shards ~jobs ~table_dir:dir cfg))))
    in
    let bytes, _ = du dir in
    let codec = codec_us dir in
    rm_rf dir;
    let c = counter obs in
    [
      m "mc.dtbl.disk_bytes" "B" (float_of_int bytes);
      m "mc.dtbl.codec_us" "us" codec;
      m "mc.shard.visited" "count" (float_of_int r.Mc.Explore.visited);
      m "mc.shard.steals" "count" (c "mc/shard/steals");
      m "mc.dtbl.hits" "count" (c "mc/dtbl/hits");
      m "mc.dtbl.misses" "count" (c "mc/dtbl/misses");
      m "mc.dtbl.spills" "count" (c "mc/dtbl/spills");
      m "mc.dtbl.compactions" "count" (c "mc/dtbl/compactions");
      m "mc.dtbl.disk_records" "count" (c "mc/dtbl/disk-records");
    ]
  in
  let rows = passes ~seconds ~min_passes:2 traced_pass in
  let ablation name f =
    Span.pass := -1;
    (fst (timed_pass ~judge (fun () -> Span.traced (fun () -> Span.run name f))))
      .secs
  in
  let cfg () = config spill_inst in
  let mem_j1 = ablation "mc.shard.mem_j1" (fun () -> shard_search ~shards:1 ~jobs:1 (cfg ())) in
  let mem_j2 = ablation "mc.shard.mem_j2" (fun () -> shard_search ~shards ~jobs (cfg ())) in
  let seq_ref = ablation "mc.shard.seq_ref" (fun () -> explore spill_inst (cfg ())) in
  let pass_s = median (Span.durations "mc.shard.search") in
  let med = per_pass_median rows in
  let disk_bytes = med "mc.dtbl.disk_bytes" in
  let hits = med "mc.dtbl.hits" and misses = med "mc.dtbl.misses" in
  [
    m "mc.shard.search_s" "s" pass_s;
    m "mc.shard.steal_ratio" "ratio" (ratio (med "mc.shard.steals") (med "mc.shard.visited"));
    m "mc.shard.mem_j1_s" "s" mem_j1;
    m "mc.shard.mem_j2_s" "s" mem_j2;
    m "mc.shard.seq_ref_s" "s" seq_ref;
    m "mc.shard.overhead_x" "x" (mem_j1 /. seq_ref);
    m "mc.shard.par_scaling_x" "x" (mem_j1 /. mem_j2);
    m "mc.dtbl.hit_ratio" "ratio" (ratio hits (hits +. misses));
    m "mc.dtbl.bytes_per_record" "B" (ratio disk_bytes (med "mc.dtbl.disk_records"));
    m "mc.dtbl.disk_share" "ratio" ((pass_s -. mem_j2) /. pass_s);
  ]
  @ medians_of rows
      [
        ("mc.shard.steals", "count");
        ("mc.dtbl.hits", "count");
        ("mc.dtbl.misses", "count");
        ("mc.dtbl.spills", "count");
        ("mc.dtbl.compactions", "count");
        ("mc.dtbl.disk_records", "count");
        ("mc.dtbl.disk_bytes", "B");
        ("mc.dtbl.codec_us", "us");
      ]

(* ---- the mc-seq-deep run ---- *)

let seq_deep ~setup ~cli:_ ~seed ~seconds ~trace =
  let insts = if seed land 1 = 0 then seq_insts else List.rev seq_insts in
  let configs () = seq_configs insts in
  (* one pass: every instance, back to back, each timed as a part *)
  let plain_pass ?(state = `Flat) () =
    let cfgs = configs () in
    let p, rs =
      timed_pass
        ~judge:(fun rs -> judge (List.map fst rs))
        (fun () -> List.map (fun (i, c) -> timed (fun () -> (i, explore ~state i c))) cfgs)
    in
    { p with parts = List.map snd rs }
  in
  if not trace then
    in_process_metrics ~setup ~deadline:seq_deadline ~seconds (fun _ ->
        plain_pass ())
  else begin
    (* traced and untraced passes alternate, so the overhead ratio
       compares like with like *)
    let traced_pass k =
      Span.pass := k;
      let cfgs = configs () in
      let p, rows =
        timed_pass
          ~judge:(fun rows -> judge (List.map fst rows))
          (fun () ->
            Span.traced @@ fun () ->
            Span.run "pass" @@ fun () ->
            List.map
              (fun (i, c) ->
                let obs = Obs.create () in
                let r, gc =
                  Span.run "mc.explore.search" (fun () ->
                      gc_delta (fun () -> explore ~obs i c))
                in
                ( (i, r),
                  gc
                  @ [
                      m "mc.explore.visited" "count" (counter obs "mc/visited");
                      m "mc.explore.table_hits" "count"
                        (counter obs "mc/table-hits");
                      m "mc.explore.table_misses" "count"
                        (counter obs "mc/table-misses");
                    ] ))
              cfgs)
      in
      (p.secs, List.concat_map snd rows)
    in
    let ps =
      passes ~seconds:(0.6 *. seconds) ~min_passes:4 (fun k ->
          if k mod 2 = 0 then `Plain (plain_pass ()).secs
          else `Traced (traced_pass k))
    in
    let plain = List.filter_map (function `Plain t -> Some t | _ -> None) ps in
    let traced = List.filter_map (function `Traced x -> Some x | _ -> None) ps in
    let rows = List.map snd traced in
    let closure_s = (plain_pass ~state:`Closure ()).secs in
    let hits = per_pass_median rows "mc.explore.table_hits" in
    let misses = per_pass_median rows "mc.explore.table_misses" in
    [
      m "mc.explore.search_s" "s" (median (Span.per_pass "mc.explore.search"));
      m "mc.explore.closure_search_s" "s" closure_s;
      m "mc.explore.hit_ratio" "ratio" (ratio hits (hits +. misses));
      traced_overhead ~traced:(List.map fst traced) ~plain;
    ]
    @ medians_of rows
        [
          ("mc.explore.visited", "count");
          ("mc.explore.table_hits", "count");
          ("mc.explore.table_misses", "count");
          ("gc.minor_words", "words");
          ("gc.major_words", "words");
          ("gc.major_collections", "count");
        ]
    @ sharded_layers ~seconds:(0.4 *. seconds)
  end
