(* The one row schema behind every BENCH_*.json suite (mc, fuzz, synth,
   serve): one writer, one reader and one differ, all over the strict
   [Serve.Json] codec.

   A row is a name plus three groups of fields:
   - [exact]: deterministic fields (inputs, parameters, counters,
     verdicts).  Any difference from the baseline is a regression;
   - [timing]: min-of-N wall clock with its spread, flagged noise-bound
     when the min is under a millisecond;
   - [advisory]: allocation, rates, latencies — printed, never compared.

   Pure: the clock lives in main.ml, so the differ is testable. *)

module J = Serve.Json

type timing = { min : float; spread : float; n : int; noise_bound : bool }

type row = {
  name : string;
  exact : (string * J.t) list;
  timing : timing;
  advisory : (string * J.t) list;
}

(* the N of every min-of-N in the bench *)
let runs = 7

(* a min under this is clock and scheduler noise, never quoted as a
   percentage *)
let noise_floor = 1e-3

(* six significant digits: what the files and the table carry *)
let round6 x = float_of_string (Printf.sprintf "%.6g" x)
let num x = J.Float (round6 x)

let timing_of_samples = function
  | [] -> invalid_arg "Bench_row.timing_of_samples: no samples"
  | s :: rest ->
      let lo = List.fold_left Float.min s rest in
      let hi = List.fold_left Float.max s rest in
      {
        min = round6 lo;
        spread = round6 (hi -. lo);
        n = List.length rest + 1;
        noise_bound = lo < noise_floor;
      }

(* --- writer ------------------------------------------------------------ *)

let row_json r =
  J.Obj
    [
      ("name", J.String r.name);
      ("exact", J.Obj r.exact);
      ( "timing",
        J.Obj
          [
            ("min", J.Float r.timing.min);
            ("spread", J.Float r.timing.spread);
            ("n", J.Int r.timing.n);
            ("noise_bound", J.Bool r.timing.noise_bound);
          ] );
      ("advisory", J.Obj r.advisory);
    ]

(* One row per line, so a regenerated file diffs row by row. *)
let to_string ~suite rows =
  Printf.sprintf "{\"suite\":%s,\"rows\":[\n%s\n]}\n"
    (J.to_string (J.String suite))
    (String.concat ",\n" (List.map (fun r -> J.to_string (row_json r)) rows))

(* --- reader ------------------------------------------------------------ *)

let ( let* ) = Result.bind

let obj name v =
  match J.mem name v with
  | Some (J.Obj fields) -> Ok fields
  | Some _ -> Error (Printf.sprintf "field %S is not an object" name)
  | None -> Error (Printf.sprintf "missing field %S" name)

let row_of_json v =
  let* name = J.str "name" v in
  let in_row r = Result.map_error (Printf.sprintf "row %S: %s" name) r in
  in_row
    (let* exact = obj "exact" v in
     let* t = obj "timing" v in
     let t = J.Obj t in
     let* min = J.num "min" t in
     let* spread = J.num "spread" t in
     let* n = J.int "n" t in
     let* noise_bound = J.bool "noise_bound" t in
     let* advisory = obj "advisory" v in
     Ok { name; exact; timing = { min; spread; n; noise_bound }; advisory })

let parse text =
  let* v = J.parse text in
  let* suite = J.str "suite" v in
  let* rows =
    match J.mem "rows" v with
    | Some (J.List rows) -> Ok rows
    | Some _ -> Error "field \"rows\" is not a list"
    | None -> Error "missing field \"rows\""
  in
  let* rows =
    List.fold_right
      (fun r acc ->
        let* acc = acc in
        let* r = row_of_json r in
        Ok (r :: acc))
      rows (Ok [])
  in
  Ok (suite, rows)

(* A baseline for [suite]: an unparsable file or another suite's file
   is an error, never an empty baseline. *)
let load ~suite text =
  match parse text with
  | Error e -> Error e
  | Ok (s, _) when s <> suite ->
      Error (Printf.sprintf "a %S suite file, not %S" s suite)
  | Ok (_, rows) -> Ok rows

(* --- terminal table ---------------------------------------------------- *)

let cell = function
  | J.String s -> s
  | J.Float f when Float.abs f >= 1e4 -> Printf.sprintf "%.0f" f
  | J.Float f -> Printf.sprintf "%g" f
  | v -> J.to_string v

let render rows =
  let keys group =
    List.fold_left
      (fun acc r ->
        acc @ List.filter (fun k -> not (List.mem k acc)) (List.map fst (group r)))
      [] rows
  in
  let exact_keys = keys (fun r -> r.exact) in
  let advisory_keys = keys (fun r -> r.advisory) in
  let t =
    Stats.Table.create
      ~header:(("row" :: exact_keys) @ [ "min s"; "spread s" ] @ advisory_keys)
  in
  let cells fields =
    List.map (fun k ->
        match List.assoc_opt k fields with Some v -> cell v | None -> "-")
  in
  List.iter
    (fun r ->
      Stats.Table.add_row t
        ((r.name :: cells r.exact exact_keys)
        @ [
            Printf.sprintf "%.6f%s" r.timing.min
              (if r.timing.noise_bound then "*" else "");
            Printf.sprintf "%.6f" r.timing.spread;
          ]
        @ cells r.advisory advisory_keys))
    rows;
  Stats.Table.render t
  ^ Printf.sprintf "\n(min-of-%d wall clock; * = noise-bound, min under %g s)"
      runs noise_floor

(* --- differ ------------------------------------------------------------ *)

type diff = { failures : string list; report : string list }

let wall base fresh =
  if base.noise_bound || fresh.noise_bound then "noise-bound"
  else
    Printf.sprintf "%+.1f%% (%.6fs -> %.6fs)"
      ((fresh.min /. base.min -. 1.) *. 100.)
      base.min fresh.min

let exact_changes ~name base fresh =
  let in_fresh =
    List.filter_map
      (fun (k, v) ->
        match List.assoc_opt k base with
        | Some b when b = v -> None
        | Some b ->
            Some (Printf.sprintf "%s: %s = %s, baseline %s" name k (cell v) (cell b))
        | None -> Some (Printf.sprintf "%s: %s = %s, not in baseline" name k (cell v)))
      fresh
  in
  in_fresh
  @ List.filter_map
      (fun (k, b) ->
        if List.mem_assoc k fresh then None
        else Some (Printf.sprintf "%s: %s missing, baseline %s" name k (cell b)))
      base

(* Exact fields, and the set of row names, must match; timing is only
   reported.  [keep] restricts the baseline to the rows this run was
   asked for (the smoke subset). *)
let diff ?(keep = fun _ -> true) ~baseline rows =
  let baseline = List.filter (fun b -> keep b.name) baseline in
  let per_row =
    List.map
      (fun r ->
        match List.find_opt (fun b -> b.name = r.name) baseline with
        | None -> Error [ Printf.sprintf "%s: row not in baseline" r.name ]
        | Some b -> (
            match exact_changes ~name:r.name b.exact r.exact with
            | [] ->
                Ok
                  (Printf.sprintf "%-32s exact ok, wall %s" r.name
                     (wall b.timing r.timing))
            | changes -> Error changes))
      rows
  in
  let missing =
    List.filter_map
      (fun b ->
        if List.exists (fun r -> r.name = b.name) rows then None
        else Some (Printf.sprintf "%s: baseline row missing from this run" b.name))
      baseline
  in
  {
    failures =
      List.concat_map (function Error e -> e | Ok _ -> []) per_row @ missing;
    report = List.filter_map Result.to_option per_row;
  }
