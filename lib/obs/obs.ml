(* Observability primitives.  See obs.mli for the contracts; the short
   version: accumulators are single-domain, merging is explicit and
   happens on the caller after parallel barriers, and the only
   multi-domain-safe entry point is the Progress heartbeat. *)

module Metrics = struct
  type histogram = {
    count : int;
    sum : float;
    min : float;
    max : float;
    buckets : (float * int) list;
  }

  (* One mutable cell per recorded histogram; [buckets] maps a bucket
     index [e] (bound = 2^e, or the dedicated <=0 bucket) to its count. *)
  type histo = {
    mutable h_count : int;
    mutable h_sum : float;
    mutable h_min : float;
    mutable h_max : float;
    h_buckets : (int, int ref) Hashtbl.t;
  }

  type t = {
    counters : (string, int ref) Hashtbl.t;
    watermarks : (string, int ref) Hashtbl.t;
    histos : (string, histo) Hashtbl.t;
  }

  let create () =
    {
      counters = Hashtbl.create 16;
      watermarks = Hashtbl.create 8;
      histos = Hashtbl.create 8;
    }

  let cell tbl name =
    match Hashtbl.find_opt tbl name with
    | Some r -> r
    | None ->
        let r = ref 0 in
        Hashtbl.add tbl name r;
        r

  let add t name k =
    if k > 0 then begin
      let r = cell t.counters name in
      r := !r + k
    end

  let incr t name = add t name 1

  let record_max t name v =
    let r = cell t.watermarks name in
    if v > !r then r := v

  (* Bucket index for a sample: the exponent [e] with 2^(e-1) < v <= 2^e
     (so the bound [2^e] is the inclusive upper edge); non-positive
     samples share one underflow bucket with bound 0. *)
  let underflow = min_int

  let bucket_index v =
    if v <= 0. then underflow
    else
      let m, e = Float.frexp v in
      if m = 0.5 then e - 1 else e

  let bucket_bound i = if i = underflow then 0. else Float.ldexp 1.0 i

  let histo_cell t name =
    match Hashtbl.find_opt t.histos name with
    | Some h -> h
    | None ->
        let h =
          {
            h_count = 0;
            h_sum = 0.;
            h_min = infinity;
            h_max = neg_infinity;
            h_buckets = Hashtbl.create 8;
          }
        in
        Hashtbl.add t.histos name h;
        h

  let observe t name v =
    let h = histo_cell t name in
    h.h_count <- h.h_count + 1;
    h.h_sum <- h.h_sum +. v;
    if v < h.h_min then h.h_min <- v;
    if v > h.h_max then h.h_max <- v;
    let i = bucket_index v in
    match Hashtbl.find_opt h.h_buckets i with
    | Some r -> Stdlib.incr r
    | None -> Hashtbl.add h.h_buckets i (ref 1)

  let counter t name =
    match Hashtbl.find_opt t.counters name with Some r -> !r | None -> 0

  let watermark t name =
    match Hashtbl.find_opt t.watermarks name with Some r -> !r | None -> 0

  let freeze (h : histo) =
    let buckets =
      Hashtbl.fold (fun i r acc -> (i, !r) :: acc) h.h_buckets []
      |> List.sort compare
      |> List.map (fun (i, c) -> (bucket_bound i, c))
    in
    { count = h.h_count; sum = h.h_sum; min = h.h_min; max = h.h_max; buckets }

  let histogram t name = Option.map freeze (Hashtbl.find_opt t.histos name)

  let sorted_bindings tbl project =
    Hashtbl.fold (fun name v acc -> (name, project v) :: acc) tbl []
    |> List.sort compare

  let counters t = sorted_bindings t.counters (fun r -> !r)
  let watermarks t = sorted_bindings t.watermarks (fun r -> !r)
  let histograms t = sorted_bindings t.histos freeze

  let merge_into ~into src =
    Hashtbl.iter (fun name r -> add into name !r) src.counters;
    Hashtbl.iter (fun name r -> record_max into name !r) src.watermarks;
    Hashtbl.iter
      (fun name h ->
        let dst = histo_cell into name in
        dst.h_count <- dst.h_count + h.h_count;
        dst.h_sum <- dst.h_sum +. h.h_sum;
        if h.h_min < dst.h_min then dst.h_min <- h.h_min;
        if h.h_max > dst.h_max then dst.h_max <- h.h_max;
        Hashtbl.iter
          (fun i r ->
            match Hashtbl.find_opt dst.h_buckets i with
            | Some d -> d := !d + !r
            | None -> Hashtbl.add dst.h_buckets i (ref !r))
          h.h_buckets)
      src.histos
end

module Sink = struct
  type kind =
    | Null
    | Memory of string list ref  (* reversed emission order *)
    | File of { path : string; buf : Buffer.t }

  type t = kind

  let null = Null
  let memory () = Memory (ref [])
  let file path = File { path; buf = Buffer.create 1024 }
  let enabled = function Null -> false | Memory _ | File _ -> true

  let emit t line =
    match t with
    | Null -> ()
    | Memory lines -> lines := line :: !lines
    | File { buf; _ } ->
        Buffer.add_string buf line;
        Buffer.add_char buf '\n'

  let contents = function
    | Memory lines -> List.rev !lines
    | Null | File _ -> []

  (* plain line-JSON (users and CI read it directly), written durably:
     a crash mid-flush leaves the previous version intact *)
  let flush = function
    | Null | Memory _ -> ()
    | File { path; buf } -> Robust.Persist.write ~path (Buffer.contents buf)
end

type t = {
  metrics : Metrics.t;
  sink : Sink.t;
  mutable span_path : string list;  (* innermost first *)
}

let create ?(sink = Sink.null) () =
  { metrics = Metrics.create (); sink; span_path = [] }

let metrics t = t.metrics
let sink t = t.sink

let add obs name k =
  match obs with None -> () | Some t -> Metrics.add t.metrics name k

let incr obs name =
  match obs with None -> () | Some t -> Metrics.incr t.metrics name

let record_max obs name v =
  match obs with None -> () | Some t -> Metrics.record_max t.metrics name v

let observe obs name v =
  match obs with None -> () | Some t -> Metrics.observe t.metrics name v

(* %S produces escaping that is valid JSON for the ASCII metric names and
   values used here (no exotic control characters, no unicode). *)
let json_field (k, v) = Printf.sprintf "%S:%S" k v

let span obs name f =
  match obs with
  | None -> f ()
  | Some t ->
      let path = String.concat "/" (List.rev (name :: t.span_path)) in
      t.span_path <- name :: t.span_path;
      let t0 = Unix.gettimeofday () in
      let finally () =
        let dt = Unix.gettimeofday () -. t0 in
        t.span_path <-
          (match t.span_path with [] -> [] | _ :: rest -> rest);
        Metrics.observe t.metrics ("span/" ^ path) dt;
        if Sink.enabled t.sink then
          Sink.emit t.sink
            (Printf.sprintf {|{"type":"span","name":%S,"seconds":%.6f}|} path
               dt)
      in
      Fun.protect ~finally f

let alloc_span obs name f =
  match obs with
  | None -> f ()
  | Some t ->
      let w0 = Gc.minor_words () in
      let finally () =
        Metrics.add t.metrics
          (name ^ "/minor-words")
          (int_of_float (Gc.minor_words () -. w0))
      in
      Fun.protect ~finally f

let dump ?(extra = []) t =
  let emit = Sink.emit t.sink in
  emit
    (Printf.sprintf {|{"type":"meta"%s}|}
       (String.concat ""
          (List.map (fun kv -> "," ^ json_field kv) extra)));
  List.iter
    (fun (name, v) ->
      emit
        (Printf.sprintf {|{"type":"counter","name":%S,"value":%d}|} name v))
    (Metrics.counters t.metrics);
  List.iter
    (fun (name, v) ->
      emit
        (Printf.sprintf {|{"type":"watermark","name":%S,"value":%d}|} name v))
    (Metrics.watermarks t.metrics);
  List.iter
    (fun (name, (h : Metrics.histogram)) ->
      emit
        (Printf.sprintf
           {|{"type":"histogram","name":%S,"count":%d,"sum":%.9g,"min":%.9g,"max":%.9g,"buckets":[%s]}|}
           name h.Metrics.count h.Metrics.sum h.Metrics.min h.Metrics.max
           (String.concat ","
              (List.map
                 (fun (bound, c) -> Printf.sprintf "[%.9g,%d]" bound c)
                 h.Metrics.buckets))))
    (Metrics.histograms t.metrics);
  Sink.flush t.sink

module Progress = struct
  let heartbeat ?(interval = 1.0) ?(out = stderr) ~render () =
    (* last successful print instant; 0. means "never printed", so the
       first poll always reports.  CAS makes exactly one concurrent
       caller win each interval — losers skip, they never block. *)
    let last = Atomic.make 0. in
    fun ~nodes ~steps ->
      let now = Unix.gettimeofday () in
      let prev = Atomic.get last in
      if now -. prev >= interval && Atomic.compare_and_set last prev now then begin
        output_string out (render ~nodes ~steps);
        output_char out '\n';
        flush out
      end
end
