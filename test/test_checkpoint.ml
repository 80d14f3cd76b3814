(* Checkpoint/resume: the codec round-trips, malformed files are refused
   loudly, and — the contract that makes checkpoints worth having — a
   budget-interrupted search resumed from its final checkpoint produces
   exactly the result of an uninterrupted run (only a dedup-off search
   checkpoints). *)

open Consensus

let state : Mc.Checkpoint.state Alcotest.testable =
  Alcotest.testable
    (fun ppf (s : Mc.Checkpoint.state) ->
      Format.fprintf ppf "visited=%d leaves=%d path=%d" s.visited s.leaves
        (List.length s.path))
    ( = )

(* ---- codec ---- *)

let test_codec_round_trip () =
  let s =
    {
      Mc.Checkpoint.visited = 12345;
      leaves = 67;
      max_depth_seen = 21;
      reason = Some `Deadline;
      path = [ (0, 0); (2, 1); (1, 3) ];
    }
  in
  let scenario = "mc protocol=cas-1 inputs=0,1 depth=40 dedup=off" in
  let scenario', s' = Mc.Checkpoint.of_text (Mc.Checkpoint.to_text ~scenario s) in
  Alcotest.(check string) "scenario preserved" scenario scenario';
  Alcotest.check state "state preserved" s s';
  (* the empty state (no reason, empty path) round-trips too *)
  let scenario', s' =
    Mc.Checkpoint.of_text (Mc.Checkpoint.to_text ~scenario Mc.Checkpoint.empty)
  in
  Alcotest.(check string) "scenario preserved (empty)" scenario scenario';
  Alcotest.check state "empty state preserved" Mc.Checkpoint.empty s'

let expect_parse_error name text =
  match Mc.Checkpoint.of_text text with
  | exception Sim.Trace_io.Parse_error _ -> ()
  | _ -> Alcotest.failf "%s: accepted a malformed checkpoint" name

let test_codec_rejects_malformed () =
  let valid = Mc.Checkpoint.to_text ~scenario:"s" Mc.Checkpoint.empty in
  (* entry syntax is checked inside an intact frame, so the checksum is
     not what refuses these *)
  let edit ~sub ~by =
    let magic = "randsync-checkpoint v4" in
    Robust.Persist.frame ~magic
      (List.map
         (fun l -> Test_util.replace_first ~sub ~by l)
         (Robust.Persist.unframe ~magic valid))
  in
  expect_parse_error "empty" "";
  expect_parse_error "wrong version"
    (Test_util.replace_first ~sub:"v4" ~by:"v9" valid);
  (* a v3 file, intact, carries counters v4 dropped: refused, not read *)
  expect_parse_error "v3 file"
    "randsync-checkpoint v3\nscenario s\nvisited 0\nleaves 0\n\
     table_hits 0\nmax_depth_seen 0\ntrunc 0\nreason -\npath\n\
     end 82 28597a4e1677e40abb07cfed1f3bad53\n";
  expect_parse_error "bad reason" (edit ~sub:"reason -" ~by:"reason zeal");
  expect_parse_error "truncated file" "randsync-checkpoint v4\nscenario s";
  expect_parse_error "bad path element" (edit ~sub:"path" ~by:"path 1:2:3");
  expect_parse_error "bad integer" (edit ~sub:"visited 0" ~by:"visited x");
  (* a scenario with a newline would corrupt the line format: refused at
     write time, not quietly split *)
  match Mc.Checkpoint.to_text ~scenario:"a\nb" Mc.Checkpoint.empty with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "newline in scenario accepted"

(* ---- save/load ---- *)

let test_save_load_atomic () =
  let path = Filename.temp_file "randsync-ckpt" ".txt" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      let s = { Mc.Checkpoint.empty with visited = 42; path = [ (1, 0) ] } in
      Mc.Checkpoint.save ~path ~scenario:"sc" s;
      let scenario', s' = Mc.Checkpoint.load ~path in
      Alcotest.(check string) "scenario" "sc" scenario';
      Alcotest.check state "state" s s';
      (* overwrite goes through a tmp file + rename: no partial states *)
      Mc.Checkpoint.save ~path ~scenario:"sc" { s with visited = 43 };
      let _, s'' = Mc.Checkpoint.load ~path in
      Alcotest.(check int) "overwritten" 43 s''.Mc.Checkpoint.visited;
      Alcotest.(check bool) "no tmp litter" false (Sys.file_exists (path ^ ".tmp")))

(* file-level negative paths: a damaged checkpoint file must fail loudly
   at load, with the offending content named — never parse into a wrong
   resume cursor *)
let test_load_rejects_damaged_files () =
  let path = Filename.temp_file "randsync-ckpt" ".txt" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      let s = { Mc.Checkpoint.empty with visited = 99; path = [ (1, 0); (0, 2) ] } in
      Mc.Checkpoint.save ~path ~scenario:"sc" s;
      let valid = Robust.Persist.read ~path in
      let expect_load_error name text =
        Robust.Persist.write ~path text;
        match Mc.Checkpoint.load ~path with
        | exception Sim.Trace_io.Parse_error msg ->
            Alcotest.(check bool)
              (name ^ ": error names the problem")
              true (String.length msg > 0)
        | scenario, s' ->
            Alcotest.failf "%s: silently loaded scenario=%s visited=%d" name
              scenario s'.Mc.Checkpoint.visited
      in
      (* corrupt: random bytes where the header should be *)
      expect_load_error "corrupt file" "\x00\xffgarbage\nnot a checkpoint\n";
      (* truncated: the first half of a valid file, cut mid-line *)
      expect_load_error "truncated file"
        (String.sub valid 0 (String.length valid / 2));
      (* a single flipped digit inside a counter field *)
      expect_load_error "corrupt counter"
        (Test_util.replace_first ~sub:"visited 99" ~by:"visited 9g" valid);
      (* the original still loads after all that overwriting *)
      Robust.Persist.write ~path valid;
      let scenario', s' = Mc.Checkpoint.load ~path in
      Alcotest.(check string) "pristine file still loads" "sc" scenario';
      Alcotest.check state "pristine state intact" s s')

(* the scenario stamp is what the CLI matches before resuming; a stamp for
   a different search must come back verbatim, not normalized into an
   accidental match (the CLI-level refusal is covered in test_cli) *)
let test_scenario_stamp_verbatim () =
  let path = Filename.temp_file "randsync-ckpt" ".txt" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      let stamp = "mc protocol=cas-1 inputs=0,1 depth=40 max-states=5 dedup=off" in
      Mc.Checkpoint.save ~path ~scenario:stamp Mc.Checkpoint.empty;
      let scenario', _ = Mc.Checkpoint.load ~path in
      Alcotest.(check string) "stamp round-trips byte for byte" stamp scenario')

(* ---- resume = uninterrupted (the tentpole pin) ---- *)

let project (r : _ Mc.Explore.result) =
  ( r.Mc.Explore.visited,
    r.Mc.Explore.leaves,
    r.Mc.Explore.table_hits,
    r.Mc.Explore.max_depth_seen,
    r.Mc.Explore.truncated,
    Robust.Budget.completeness_to_string r.Mc.Explore.completeness,
    r.Mc.Explore.violation = None )

let search ?(dedup = `Off) ?budget ?on_checkpoint ?checkpoint_every ?resume
    ?state () =
  let config =
    Protocol.initial_config Counter_consensus.protocol ~inputs:[ 0; 1 ]
  in
  Mc.Explore.search ?budget ?on_checkpoint ?checkpoint_every ?resume ?state
    ~dedup ~max_depth:9 ~inputs:[ 0; 1 ] config

(* the final checkpoint of a run interrupted after [k] nodes *)
let trip_checkpoint k =
  let last = ref None in
  ignore
    (search
       ~budget:(Robust.Budget.make ~nodes:k ())
       ~on_checkpoint:(fun s -> last := Some s)
       ());
  match !last with
  | Some s -> s
  | None -> Alcotest.failf "nodes=%d: no final checkpoint emitted" k

let test_resume_equals_uninterrupted () =
  let base = project (search ()) in
  let total = match base with v, _, _, _, _, _, _ -> v in
  Alcotest.(check bool) "scenario is nontrivial" true (total > 1_000);
  List.iter
    (fun k ->
      let last = ref None in
      let interrupted =
        search
          ~budget:(Robust.Budget.make ~nodes:k ())
          ~on_checkpoint:(fun s -> last := Some s)
          ()
      in
      Alcotest.(check int)
        (Printf.sprintf "nodes=%d: visited exactly k" k)
        k interrupted.Mc.Explore.visited;
      Alcotest.(check string)
        (Printf.sprintf "nodes=%d: truncated verdict" k)
        "truncated (nodes)"
        (Robust.Budget.completeness_to_string interrupted.Mc.Explore.completeness);
      let resume =
        match !last with
        | Some s -> s
        | None -> Alcotest.failf "nodes=%d: no final checkpoint emitted" k
      in
      Alcotest.(check int)
        (Printf.sprintf "nodes=%d: checkpoint counters match the result" k)
        interrupted.Mc.Explore.visited resume.Mc.Checkpoint.visited;
      let resumed = project (search ~resume ()) in
      Alcotest.(check bool)
        (Printf.sprintf "nodes=%d: resume = uninterrupted, all fields" k)
        true (resumed = base))
    (* the depth-9 dedup-off tree holds 1533 nodes; every allowance must
       actually trip, so the largest sits just under that count *)
    [ 1; 2; 17; 100; 1024; 1500 ]

let test_resume_from_periodic_checkpoints () =
  (* every periodic checkpoint along an (uninterrupted) run is a valid
     cursor: resuming from any of them reproduces the full result *)
  let captured = ref [] in
  let base =
    project
      (search ~checkpoint_every:128 ~on_checkpoint:(fun s ->
           captured := s :: !captured)
         ())
  in
  let states = !captured in
  Alcotest.(check bool) "several checkpoints captured" true
    (List.length states >= 3);
  let pick = [ List.hd states; List.nth states (List.length states / 2) ] in
  List.iter
    (fun resume ->
      let resumed = project (search ~resume ()) in
      Alcotest.(check bool)
        (Printf.sprintf "resume from visited=%d" resume.Mc.Checkpoint.visited)
        true (resumed = base))
    pick

let test_resume_finds_the_violation () =
  (* interrupting before the planted bug must not lose it: the resumed run
     reports the same witness as the uninterrupted one *)
  let p = Flawed.first_writer ~r:1 in
  let config () = Protocol.initial_config p ~inputs:[ 0; 1 ] in
  let go ?budget ?on_checkpoint ?resume () =
    Mc.Explore.search ?budget ?on_checkpoint ?resume ~dedup:`Off ~max_depth:40
      ~inputs:[ 0; 1 ] (config ())
  in
  let witness (r : _ Mc.Explore.result) =
    match r.Mc.Explore.violation with
    | Some v -> Sim.Trace.to_string string_of_int v.Mc.Explore.trace
    | None -> Alcotest.fail "planted bug not found"
  in
  let reference = witness (go ()) in
  let last = ref None in
  let interrupted =
    go ~budget:(Robust.Budget.make ~nodes:3 ())
      ~on_checkpoint:(fun s -> last := Some s)
      ()
  in
  Alcotest.(check bool) "interrupted before the bug" true
    (interrupted.Mc.Explore.violation = None);
  let resume = Option.get !last in
  Alcotest.(check string) "same witness after resume" reference
    (witness (go ~resume ()))

let test_resume_mismatch_refused () =
  let bogus = { Mc.Checkpoint.empty with path = [ (7, 0) ] } in
  match search ~resume:bogus () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "resume against a mismatched scenario was accepted"

(* The trip checkpoints of the depth-9 scenario, byte for byte: the
   cursor lines are what earlier builds wrote, now in a v4 frame whose
   trailer (body length, MD5) was cross-checked with an independent
   MD5 implementation. *)
let test_checkpoint_bytes_golden () =
  List.iter
    (fun (k, golden) ->
      Alcotest.(check string)
        (Printf.sprintf "nodes=%d checkpoint bytes" k)
        golden
        (Mc.Checkpoint.to_text ~scenario:"golden" (trip_checkpoint k)))
    [
      ( 17,
        "randsync-checkpoint v4\nscenario golden\nvisited 17\nleaves 0\n\
         max_depth_seen 9\nreason depth\n\
         path 0:0 0:0 0:0 0:0 0:0 0:0 1:0 0:0 1:0\n\
         end 107 3ee90580fab6577e093fd83356102e81\n" );
      ( 1024,
        "randsync-checkpoint v4\nscenario golden\nvisited 1024\nleaves 0\n\
         max_depth_seen 9\nreason depth\n\
         path 1:0 0:0 1:0 0:0 0:0 0:0\n\
         end 97 8417a6974753c34bb1e93132e1b7250b\n" );
    ]

(* only the flat search with dedup off checkpoints: asking the closure
   referee, or a search with a table, is an error, never a silent switch
   of engine or a resume whose verdict could differ *)
let test_closure_refuses_checkpointing () =
  let refused name f =
    match f () with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.failf "%s: accepted" name
  in
  List.iter
    (fun (label, state, dedup) ->
      refused (label ^ ", on_checkpoint") (fun () ->
          search ~state ~dedup ~on_checkpoint:ignore ());
      refused (label ^ ", resume") (fun () ->
          search ~state ~dedup ~resume:Mc.Checkpoint.empty ()))
    [
      ("closure referee", `Closure, `Off);
      ("flat, exact dedup", `Flat, `Exact);
      ("flat, symmetric dedup", `Flat, `Symmetric);
      ("closure referee, exact dedup", `Closure, `Exact);
    ]

let suite =
  [
    Alcotest.test_case "codec round-trip" `Quick test_codec_round_trip;
    Alcotest.test_case "codec rejects malformed" `Quick
      test_codec_rejects_malformed;
    Alcotest.test_case "save/load atomic" `Quick test_save_load_atomic;
    Alcotest.test_case "load rejects damaged files" `Quick
      test_load_rejects_damaged_files;
    Alcotest.test_case "scenario stamp verbatim" `Quick
      test_scenario_stamp_verbatim;
    Alcotest.test_case "resume = uninterrupted" `Quick
      test_resume_equals_uninterrupted;
    Alcotest.test_case "resume from periodic checkpoints" `Quick
      test_resume_from_periodic_checkpoints;
    Alcotest.test_case "resume finds the violation" `Quick
      test_resume_finds_the_violation;
    Alcotest.test_case "mismatched resume refused" `Quick
      test_resume_mismatch_refused;
    Alcotest.test_case "checkpoint bytes golden" `Quick
      test_checkpoint_bytes_golden;
    Alcotest.test_case "closure referee refuses checkpointing" `Quick
      test_closure_refuses_checkpointing;
  ]
