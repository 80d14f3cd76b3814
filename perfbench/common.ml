(* Plumbing shared by the workloads: clocks, order statistics, set-up
   probes, scratch directories inside the checkout, the verdict tally, the span recorder
   behind [--trace 1], and the one-line JSON result. *)

let now = Unix.gettimeofday

let timed f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

(* Linear interpolation between order statistics (numpy's default), so a
   median of an even count is the midpoint. *)
let quantile q xs =
  match List.sort compare xs with
  | [] -> invalid_arg "quantile: no samples"
  | s ->
      let a = Array.of_list s in
      let n = Array.length a in
      let pos = q *. float_of_int (n - 1) in
      let i = int_of_float pos in
      if i >= n - 1 then a.(n - 1)
      else a.(i) +. ((pos -. float_of_int i) *. (a.(i + 1) -. a.(i)))

let median xs = quantile 0.5 xs

let mean xs = List.fold_left ( +. ) 0. xs /. float_of_int (List.length xs)

(* ---- set-up of the workloads ---- *)

(* In-process set-up takes about a microsecond a call, near the clock's
   resolution, so [setup_probe] times 20 rounds of [batch] calls of [f],
   [discard]ing each result inside the timing, and returns the lower
   quartile per call. *)
let setup_probe ?(batch = 1) ?(discard = ignore) f =
  quantile 0.25
    (List.init 20 (fun _ ->
         let (), dt =
           timed (fun () ->
               for _ = 1 to batch do
                 discard (f ())
               done)
         in
         dt /. float_of_int batch))

(* [setup_probe] of [workload] in a fresh process of this executable
   ([--setup-probe]).  The per-call cost is steady within one process but
   sits at one of two levels up to half apart from one process to the
   next, with or without address randomisation, and the level of
   processes started within a second or so of each other tends to agree;
   so the untraced runs probe about 20 processes spread over the run (see
   [in_process_metrics]). *)
let setup_in_child ~workload =
  let exe = Sys.executable_name in
  let ic =
    Unix.open_process_args_in exe [| exe; "--workload"; workload; "--setup-probe" |]
  in
  let v = float_of_string_opt (try input_line ic with End_of_file -> "") in
  match (Unix.close_process_in ic, v) with
  | Unix.WEXITED 0, Some v -> v
  | _ -> failwith ("set-up probe of " ^ workload ^ " failed")

(* Runs [pass i] at least [min_passes] times, and then while another
   pass of the last one's length would end within [seconds] (half a pass
   of slack), calling [before] ahead of each; returns the pass results in
   order. *)
let passes ~seconds ?(min_passes = 3) ?(before = ignore) pass =
  let t_end = now () +. seconds in
  let rec go i last acc =
    if i >= min_passes && now () +. (last /. 2.) >= t_end then List.rev acc
    else begin
      before ();
      let r, dt = timed (fun () -> pass i) in
      go (i + 1) dt (r :: acc)
    end
  in
  go 0 0. []

(* ---- process memory ---- *)

(* VmHWM (peak resident set) of [pid] ("self" for this process), in MB. *)
let vm_hwm_mb pid =
  let ic = open_in (Printf.sprintf "/proc/%s/status" pid) in
  Fun.protect ~finally:(fun () -> close_in ic) @@ fun () ->
  let rec find () =
    let line = input_line ic in
    match Scanf.sscanf_opt line "VmHWM: %d kB" (fun kb -> kb) with
    | Some kb -> float_of_int kb /. 1024.
    | None -> find ()
  in
  find ()

(* Resets this process's VmHWM to its current resident set (Linux
   clear_refs), so the next reading is the peak since now. *)
let reset_peak_rss () =
  try
    let oc = open_out "/proc/self/clear_refs" in
    Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc "5")
  with Sys_error _ -> ()

(* ---- scratch directories, always under the checkout ---- *)

let run_root = ".perfbench-run"

let rec rm_rf path =
  match (Unix.lstat path).Unix.st_kind with
  | Unix.S_DIR ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Unix.unlink path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let mkdir_p path =
  let rec go p =
    if not (Sys.file_exists p) then begin
      go (Filename.dirname p);
      Unix.mkdir p 0o755
    end
  in
  go path

(* A fresh, empty directory [.perfbench-run/<name>-<pid>]. *)
let fresh_dir name =
  let d =
    Filename.concat run_root (Printf.sprintf "%s-%d" name (Unix.getpid ()))
  in
  rm_rf d;
  mkdir_p d;
  d

(* Total size in bytes and number of regular files under [path]. *)
let rec du path =
  match (Unix.lstat path).Unix.st_kind with
  | Unix.S_DIR ->
      Array.fold_left
        (fun (b, n) f ->
          let b', n' = du (Filename.concat path f) in
          (b + b', n + n'))
        (0, 0) (Sys.readdir path)
  | Unix.S_REG -> ((Unix.lstat path).Unix.st_size, 1)
  | _ -> (0, 0)

(* ---- verdict tally ---- *)

(* [--wrong-golden] perturbs every golden, so a correct program must
   then fail every check: the self-check that goldens are compared. *)
let wrong_golden = ref false

let golden_int n = if !wrong_golden then n + 1 else n

type tally = { mutable attempted : int; mutable failed : int; mutable wrong : int }

let tally = { attempted = 0; failed = 0; wrong = 0 }

(* One attempted operation: [`Ok], a verdict that differs from its golden
   ([`Wrong], also a failure), or an error/refusal/missing reply
   ([`Failed]).  Returns whether it was [`Ok]. *)
let record what outcome =
  tally.attempted <- tally.attempted + 1;
  match outcome with
  | `Ok -> true
  | `Wrong detail ->
      tally.failed <- tally.failed + 1;
      tally.wrong <- tally.wrong + 1;
      if tally.wrong <= 5 then
        Printf.eprintf "perfbench: %s: verdict differs from golden: %s\n%!" what
          detail;
      false
  | `Failed detail ->
      tally.failed <- tally.failed + 1;
      if tally.failed - tally.wrong <= 5 then
        Printf.eprintf "perfbench: %s: failed: %s\n%!" what detail;
      false

(* ---- spans (--trace 1) ---- *)

module Span = struct
  type t = {
    id : int;
    name : string;
    parent : int;  (** -1 at the top *)
    pass : int;
    start : float;
    mutable stop : float;
  }

  let on = ref false
  let all : t list ref = ref []
  let count = ref 0
  let stack : int list ref = ref []
  let pass = ref 0

  let push ~name ~parent ~pass ~start ~stop =
    let s = { id = !count; name; parent; pass; start; stop } in
    incr count;
    all := s :: !all;
    s

  (* Records a span timed elsewhere (from frame timestamps, say); returns
     its id, or -1 when recording is off. *)
  let add ~name ~parent ~pass ~start ~stop =
    if !on then (push ~name ~parent ~pass ~start ~stop).id else -1

  (* Times [f] as a span named [name], a child of the innermost open span,
     tagged with the current pass id.  A no-op unless recording is on. *)
  let run name f =
    if not !on then f ()
    else begin
      let parent = match !stack with p :: _ -> p | [] -> -1 in
      let s = push ~name ~parent ~pass:!pass ~start:(now ()) ~stop:0. in
      stack := s.id :: !stack;
      Fun.protect
        ~finally:(fun () ->
          s.stop <- now ();
          stack := List.tl !stack)
        f
    end

  (* Runs [f] with recording on: the traced passes of a [--trace 1] run. *)
  let traced f =
    on := true;
    Fun.protect ~finally:(fun () -> on := false) f

  let duration s = s.stop -. s.start

  (* Per pass id, the summed duration of the spans named [name]. *)
  let per_pass name =
    let tbl = Hashtbl.create 16 in
    List.iter
      (fun s ->
        if s.name = name then
          Hashtbl.replace tbl s.pass
            (duration s +. Option.value ~default:0. (Hashtbl.find_opt tbl s.pass)))
      !all;
    Hashtbl.fold (fun _ v acc -> v :: acc) tbl []

  let durations name =
    List.filter_map
      (fun s -> if s.name = name then Some (duration s) else None)
      !all

  (* Self time: a span's duration minus the time its children cover
     (children of one parent never overlap: the benchmark is sequential). *)
  let self_times () =
    let children = Hashtbl.create 64 in
    List.iter
      (fun s ->
        if s.parent >= 0 then
          Hashtbl.replace children s.parent
            (duration s
            +. Option.value ~default:0. (Hashtbl.find_opt children s.parent)))
      !all;
    fun s ->
      duration s -. Option.value ~default:0. (Hashtbl.find_opt children s.id)

  (* One JSON line per span, oldest first, written once at the end. *)
  let write path =
    let self = self_times () in
    let oc = open_out path in
    Fun.protect ~finally:(fun () -> close_out oc) @@ fun () ->
    List.iter
      (fun s ->
        Printf.fprintf oc
          "{\"id\":%d,\"name\":%S,\"parent\":%d,\"pass\":%d,\"start\":%.6f,\"end\":%.6f,\"self_s\":%.9f}\n"
          s.id s.name s.parent s.pass s.start s.stop (self s))
      (List.rev !all)
end

(* ---- metrics and the result line ---- *)

type metric = { name : string; value : float; unit : string }

let m name unit value = { name; value; unit }

let ratio a b = if b = 0. then 0. else a /. b

(* Gc deltas around [f] (calling domain), as per-layer metrics. *)
let gc_delta f =
  let a = Gc.quick_stat () in
  let r = f () in
  let b = Gc.quick_stat () in
  ( r,
    [
      m "gc.minor_words" "words" (b.Gc.minor_words -. a.Gc.minor_words);
      m "gc.major_words" "words" (b.Gc.major_words -. a.Gc.major_words);
      m "gc.major_collections" "count"
        (float_of_int (b.Gc.major_collections - a.Gc.major_collections));
    ] )

let json_number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

let print_result metrics =
  List.iter
    (fun x ->
      if not (Float.is_finite x.value) then
        failwith (Printf.sprintf "metric %s is not finite" x.name))
    metrics;
  let fields =
    List.map
      (fun x ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" x.name
          (json_number x.value) x.unit)
      metrics
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    (tally.wrong = 0 && tally.attempted > 0)
    tally.attempted tally.failed
    (String.concat ", " fields)

(* ---- per-layer helpers ---- *)

let counter obs name = float_of_int (Obs.Metrics.counter (Obs.metrics obs) name)

let traced_overhead ~traced ~plain =
  m "bench.trace_overhead" "x" (median traced /. median plain)

(* Median over passes of the per-pass sum of one metric. *)
let per_pass_median rows name =
  median
    (List.map
       (fun row ->
         List.fold_left
           (fun acc x -> if x.name = name then acc +. x.value else acc)
           0. row)
       rows)

let medians_of rows names = List.map (fun (n, u) -> m n u (per_pass_median rows n)) names

(* ---- passes of the workloads ---- *)

(* One pass: wall time from call to verdict, the wall times of its parts
   (one per instance searched; the whole pass by default), the work done
   (nodes, candidate pairs), this process's peak resident set during the
   pass, and whether every verdict matched its golden. *)
type pass = {
  secs : float;
  parts : float list;
  work : float;
  rss_mb : float;
  ok : bool;
}

(* Times [f] as one pass from a collected heap with the peak-RSS mark
   reset, so every pass starts alike and reports its own peak; [judge]
   checks the result against the goldens (outside the timing) and counts
   its work. *)
let timed_pass ~judge f =
  Gc.compact ();
  reset_peak_rss ();
  let r, secs = timed f in
  let rss_mb = vm_hwm_mb "self" in
  let ok, work = judge r in
  ({ secs; parts = [ secs ]; work; rss_mb; ok }, r)

(* Runs the passes of an untraced in-process run and returns its
   end-to-end metrics.  [setup ()] probes one fresh process's set-up; the
   probes are spread evenly over the run, about 20 in all, and [setup_s]
   is their mean.  Neighbours on a shared machine slow passes by up to
   half, in stretches of a second to minutes, while no neighbour makes a
   pass faster than the program allows: so [verdict_s] is the sum over a
   pass's parts of each part's fastest time, and [work_per_s] the median
   work over that; see NOTES.md. *)
let in_process_metrics ~setup ~deadline ~seconds pass =
  let t0 = now () and setup_samples = ref [] in
  let before () =
    while
      float_of_int (List.length !setup_samples)
      < 1. +. (19. *. (now () -. t0) /. seconds)
    do
      setup_samples := setup () :: !setup_samples
    done
  in
  let ps = passes ~seconds ~before pass in
  let secs = List.map (fun p -> p.secs) ps in
  let best =
    List.fold_left
      (fun acc p -> List.map2 Float.min acc p.parts)
      (List.hd ps).parts (List.tl ps)
    |> List.fold_left ( +. ) 0.
  in
  Printf.eprintf
    "perfbench: %d passes, seconds min %.4f median %.4f max %.4f, best parts %.4f\n%!"
    (List.length ps) (quantile 0. secs) (median secs) (quantile 1. secs) best;
  let count p = float_of_int (List.length (List.filter p ps)) in
  [
    m "setup_s" "s" (mean !setup_samples);
    m "verdict_s" "s" best;
    m "work_per_s" "1/s" (median (List.map (fun p -> p.work) ps) /. best);
    m "slo_ok_ratio" "ratio"
      (count (fun p -> p.ok && p.secs <= deadline) /. count (fun _ -> true));
    m "peak_rss_mb" "MB" (median (List.map (fun p -> p.rss_mb) ps));
  ]
