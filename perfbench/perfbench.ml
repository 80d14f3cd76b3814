(* The repository benchmark: one workload per process.

     perfbench.exe --workload NAME --seed N --seconds S --trace 0|1
                   [--cli PATH] [--wrong-golden]
     perfbench.exe --workload NAME --setup-probe

   Prints, as the last line of stdout, one JSON object with the keys
   correct, attempted, failed and metrics: the end-to-end metrics with
   --trace 0, the per-layer metrics with --trace 1 (whose spans are also
   written to .perfbench-run/trace-<workload>-<seed>.jsonl).  With
   --setup-probe it prints the workload's set-up time per call
   and exits.  NOTES.md has the workloads, the metrics and the layer map. *)

(* Each workload comes with its set-up probe (see
   Common.setup_in_child). *)
let workloads =
  [
    ("mc-seq-deep", (Wl_mc.seq_setup, Wl_mc.seq_deep));
    ("synth-rw-d2", (Wl_synth.setup, Wl_synth.run));
  ]

let usage () =
  prerr_endline
    "usage: perfbench.exe --workload NAME --seed N --seconds S --trace 0|1 \
     [--cli PATH] [--wrong-golden]\n\
    \       perfbench.exe --workload NAME --setup-probe";
  prerr_endline
    ("workloads: " ^ String.concat ", " (List.map fst workloads));
  exit 2

let () =
  let workload = ref "" and seed = ref None and seconds = ref None in
  let trace = ref None and cli = ref "_build/default/bin/randsync_cli.exe" in
  let setup_probe = ref false in
  let rec parse = function
    | [] -> ()
    | "--workload" :: v :: rest ->
        workload := v;
        parse rest
    | "--seed" :: v :: rest ->
        seed := int_of_string_opt v;
        parse rest
    | "--seconds" :: v :: rest ->
        seconds := float_of_string_opt v;
        parse rest
    | "--trace" :: (("0" | "1") as v) :: rest ->
        trace := Some (v = "1");
        parse rest
    | "--cli" :: v :: rest ->
        cli := v;
        parse rest
    | "--setup-probe" :: rest ->
        setup_probe := true;
        parse rest
    | "--wrong-golden" :: rest ->
        Common.wrong_golden := true;
        parse rest
    | arg :: _ ->
        Printf.eprintf "perfbench: unexpected argument %S\n" arg;
        usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  match (List.assoc_opt !workload workloads, !seed, !seconds, !trace) with
  | Some (probe, _), _, _, _ when !setup_probe ->
      Printf.printf "%.17g\n" (probe ())
  | Some (_, run), Some seed, Some seconds, Some trace when seconds > 0. ->
      let workload = !workload in
      let metrics =
        run
          ~setup:(fun () -> Common.setup_in_child ~workload)
          ~cli:!cli ~seed ~seconds ~trace
      in
      if trace then begin
        Common.mkdir_p Common.run_root;
        Common.Span.write
          (Filename.concat Common.run_root
             (Printf.sprintf "trace-%s-%d.jsonl" workload seed))
      end;
      Common.print_result metrics
  | _ -> usage ()
