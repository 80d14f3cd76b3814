(* The bench row schema: writer/reader round trip and the differ's
   rules, on hand-built rows (no bench run). *)

module J = Serve.Json
module R = Bench_row

let timing ?(min = 0.25) ?(spread = 0.01) () =
  { R.min; spread; n = R.runs; noise_bound = min < R.noise_floor }

let row ?(visited = 271) ?(min = 0.25) name =
  {
    R.name;
    exact =
      [
        ("inputs", J.List [ J.Int 0; J.Int 1 ]);
        ("visited", J.Int visited);
        ("truncated", J.Bool false);
        ("verdict", J.String "none");
      ];
    timing = timing ~min ();
    advisory = [ ("minor_words", J.Int 1190); ("rate", J.Float 1.5) ];
  }

let rows = [ row "a/off"; row ~visited:55 "a/exact"; row ~min:3e-6 "b/off" ]
let file = R.to_string ~suite:"mc" rows

let baseline () =
  match R.load ~suite:"mc" file with
  | Ok rows -> rows
  | Error e -> Alcotest.fail e

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

let check_failures expected d =
  Alcotest.(check (list string)) "failures" expected d.R.failures

let round_trip () =
  match R.parse file with
  | Ok (suite, back) ->
      Alcotest.(check string) "suite" "mc" suite;
      Alcotest.(check bool) "rows" true (back = rows)
  | Error e -> Alcotest.fail e

let equal_rows_pass () =
  let d = R.diff ~baseline:(baseline ()) rows in
  check_failures [] d;
  Alcotest.(check int) "one report line per row" 3 (List.length d.R.report)

let changed_field_names_it () =
  let fresh = [ row "a/off"; row ~visited:56 "a/exact"; row ~min:3e-6 "b/off" ] in
  check_failures
    [ "a/exact: visited = 56, baseline 55" ]
    (R.diff ~baseline:(baseline ()) fresh)

let dropped_field_fails () =
  let r = row "a/off" in
  let r = { r with R.exact = List.remove_assoc "verdict" r.R.exact } in
  check_failures
    [ "a/off: verdict missing, baseline none" ]
    (R.diff ~baseline:(baseline ()) [ r; row ~visited:55 "a/exact"; row "b/off" ])

let missing_and_extra_rows_fail () =
  check_failures
    [ "b/off: baseline row missing from this run" ]
    (R.diff ~baseline:(baseline ()) [ row "a/off"; row ~visited:55 "a/exact" ]);
  check_failures
    [ "c/off: row not in baseline" ]
    (R.diff ~baseline:(baseline ()) (rows @ [ row "c/off" ]))

let keep_restricts_baseline () =
  let keep name = String.length name > 0 && name.[0] = 'b' in
  check_failures [] (R.diff ~keep ~baseline:(baseline ()) [ row ~min:3e-6 "b/off" ])

let bad_baselines_are_errors () =
  let is_error what = function
    | Ok _ -> Alcotest.failf "%s: accepted" what
    | Error _ -> ()
  in
  is_error "garbage" (R.load ~suite:"mc" "not json");
  is_error "empty" (R.load ~suite:"mc" "");
  List.iter
    (fun len ->
      is_error
        (Printf.sprintf "truncated to %d bytes" len)
        (R.load ~suite:"mc" (String.sub file 0 len)))
    [ 1; 20; String.length file / 2; String.length file - 3 ];
  is_error "wrong suite" (R.load ~suite:"fuzz" file);
  is_error "old schema"
    (R.load ~suite:"mc" {|{"benchmark":"mc","scenarios":[{"scenario":"a"}]}|});
  is_error "row without timing"
    (R.load ~suite:"mc" {|{"suite":"mc","rows":[{"name":"a","exact":{},"advisory":{}}]}|})

let noise_bound_never_a_percentage () =
  let d = R.diff ~baseline:(baseline ()) rows in
  List.iter
    (fun line ->
      let noisy = contains line "b/off" in
      Alcotest.(check bool) (line ^ ": noise-bound") noisy (contains line "noise-bound");
      Alcotest.(check bool) (line ^ ": percentage") (not noisy) (contains line "%"))
    d.R.report;
  (* a noise-bound baseline row taints a slow fresh one too *)
  let d = R.diff ~baseline:(baseline ()) [ row "a/off"; row ~visited:55 "a/exact"; row "b/off" ] in
  Alcotest.(check bool) "either side noise-bound" true
    (List.exists (fun l -> contains l "b/off" && contains l "noise-bound") d.R.report)

let timing_summary () =
  let t = R.timing_of_samples [ 0.3; 0.2; 0.5 ] in
  Alcotest.(check (float 1e-12)) "min" 0.2 t.R.min;
  Alcotest.(check (float 1e-12)) "spread" 0.3 t.R.spread;
  Alcotest.(check int) "n" 3 t.R.n;
  Alcotest.(check bool) "slow" false t.R.noise_bound;
  Alcotest.(check bool) "fast" true (R.timing_of_samples [ 4e-4; 2e-3 ]).R.noise_bound

let () =
  Alcotest.run "bench-row"
    [
      ( "bench-row",
        [
          Alcotest.test_case "parse (write rows) round-trips" `Quick round_trip;
          Alcotest.test_case "equal rows pass" `Quick equal_rows_pass;
          Alcotest.test_case "changed exact field fails, named" `Quick
            changed_field_names_it;
          Alcotest.test_case "dropped exact field fails" `Quick dropped_field_fails;
          Alcotest.test_case "missing or extra row fails" `Quick
            missing_and_extra_rows_fail;
          Alcotest.test_case "smoke keep restricts the baseline" `Quick
            keep_restricts_baseline;
          Alcotest.test_case "unparsable, truncated, wrong suite: errors" `Quick
            bad_baselines_are_errors;
          Alcotest.test_case "noise-bound rows never report a percentage" `Quick
            noise_bound_never_a_percentage;
          Alcotest.test_case "min-of-N summary" `Quick timing_summary;
        ] );
    ]
