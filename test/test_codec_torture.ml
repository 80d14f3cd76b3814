(* Codec torture: truncated, interleaved and trailing-garbage input
   against every codec that crosses a process boundary — the serve wire
   protocol (and the JSON layer under it), the framed artifacts (lemma
   pools, fuzz schedules, mc checkpoints, traces) and the dtbl records.
   The invariant is the same everywhere: a damaged artifact is a loud
   error, never a crash and never a silent partial parse. *)

(* ---- wire frames ---- *)

let sample_job =
  {
    Serve.Job.spec =
      Serve.Job.Mc
        {
          (Serve.Job.mc_defaults ~protocol:"counter-3") with
          Serve.Job.mc_inputs = [ 0; 1 ];
          mc_depth = 12;
        };
    deadline = Some 30.;
  }

let sample_requests =
  [
    Serve.Wire.Ping;
    Serve.Wire.Submit { job = sample_job; detach = true };
    Serve.Wire.Submit
      {
        job =
          {
            Serve.Job.spec =
              Serve.Job.Fuzz (Serve.Job.fuzz_defaults ~scenario:"flawed");
            deadline = None;
          };
        detach = false;
      };
    Serve.Wire.Status { id = None };
    Serve.Wire.Status { id = Some 3 };
    Serve.Wire.Result { id = 7 };
    Serve.Wire.Cancel { id = 9 };
    Serve.Wire.Drain;
  ]

let sample_replies =
  [
    Serve.Wire.Pong;
    Serve.Wire.Accepted { id = 12 };
    Serve.Wire.Overloaded { queued = 64; limit = 64 };
    Serve.Wire.Draining;
    Serve.Wire.Progress { id = 1; nodes = 5000; steps = 123 };
    Serve.Wire.Verdict
      {
        id = 2;
        status = 3;
        lines = [ "visited=200 leaves=0"; "verdict: truncated (nodes)" ];
      };
    Serve.Wire.Jobs
      {
        draining = true;
        jobs =
          [
            { Serve.Wire.id = 1; label = "mc counter-3"; state = Serve.Wire.Running };
            { Serve.Wire.id = 2; label = "fuzz flawed"; state = Serve.Wire.Done 2 };
            { Serve.Wire.id = 3; label = "mc rw-3n"; state = Serve.Wire.Interrupted };
          ];
      };
    Serve.Wire.Cancelled { id = 4 };
    Serve.Wire.Error { message = "bad frame: trailing garbage" };
  ]

let test_wire_round_trip () =
  List.iter
    (fun req ->
      match Serve.Wire.decode_request (Serve.Wire.encode_request req) with
      | Ok req' ->
          Alcotest.(check bool) "request round-trips" true (req = req')
      | Error e -> Alcotest.failf "request failed to round-trip: %s" e)
    sample_requests;
  List.iter
    (fun reply ->
      match Serve.Wire.decode_reply (Serve.Wire.encode_reply reply) with
      | Ok reply' ->
          Alcotest.(check bool) "reply round-trips" true (reply = reply')
      | Error e -> Alcotest.failf "reply failed to round-trip: %s" e)
    sample_replies

(* every proper byte prefix of every frame must be refused — a JSON
   object cut anywhere never balances its braces *)
let test_wire_truncation_sweep () =
  let sweep kind decode frame =
    for n = 0 to String.length frame - 1 do
      match decode (String.sub frame 0 n) with
      | Error _ -> ()
      | Ok _ ->
          Alcotest.failf "%s prefix %d/%d of %s silently parsed" kind n
            (String.length frame) frame
    done
  in
  List.iter
    (fun r -> sweep "request" Serve.Wire.decode_request (Serve.Wire.encode_request r))
    sample_requests;
  List.iter
    (fun r -> sweep "reply" Serve.Wire.decode_reply (Serve.Wire.encode_reply r))
    sample_replies

let expect_wire_error name decoded =
  match decoded with
  | Error _ -> ()
  | Ok _ -> Alcotest.failf "%s: silently parsed" name

let test_wire_trailing_garbage_and_interleaving () =
  let ping = Serve.Wire.encode_request Serve.Wire.Ping in
  let drain = Serve.Wire.encode_request Serve.Wire.Drain in
  expect_wire_error "trailing garbage"
    (Serve.Wire.decode_request (ping ^ " x"));
  expect_wire_error "trailing digits" (Serve.Wire.decode_request (ping ^ "42"));
  expect_wire_error "two frames interleaved on one line"
    (Serve.Wire.decode_request (ping ^ drain));
  expect_wire_error "two frames space-separated"
    (Serve.Wire.decode_request (ping ^ " " ^ drain));
  expect_wire_error "duplicate frame as suffix"
    (Serve.Wire.decode_reply
       (Serve.Wire.encode_reply Serve.Wire.Pong
       ^ Serve.Wire.encode_reply Serve.Wire.Pong))

let test_wire_version_and_shape () =
  expect_wire_error "future protocol version"
    (Serve.Wire.decode_request {|{"v":2,"type":"ping"}|});
  expect_wire_error "missing version"
    (Serve.Wire.decode_request {|{"type":"ping"}|});
  expect_wire_error "unknown frame type"
    (Serve.Wire.decode_request {|{"v":1,"type":"reboot"}|});
  expect_wire_error "request decoded as reply"
    (Serve.Wire.decode_reply {|{"v":1,"type":"ping"}|});
  expect_wire_error "id of the wrong type"
    (Serve.Wire.decode_request {|{"v":1,"type":"result","id":"7"}|});
  expect_wire_error "submit without a job"
    (Serve.Wire.decode_request {|{"v":1,"type":"submit","detach":true}|});
  expect_wire_error "not an object" (Serve.Wire.decode_request {|[1,2,3]|});
  expect_wire_error "empty line" (Serve.Wire.decode_request "")

(* the strict JSON layer under the wire: resource caps and the control
   characters a line-framed protocol must never let through *)
let test_json_strictness () =
  let expect_json_error name text =
    match Serve.Json.parse text with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "%s: silently parsed" name
  in
  expect_json_error "overdeep nesting"
    (String.make 70 '[' ^ String.make 70 ']');
  (match Serve.Json.parse (String.make 10 '[' ^ String.make 10 ']') with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "sane nesting refused: %s" e);
  expect_json_error "raw control char in string" "\"a\x01b\"";
  expect_json_error "unterminated string" {|{"a":"b|};
  expect_json_error "trailing comma" {|{"a":1,}|};
  expect_json_error "bare identifier" "verdict";
  expect_json_error "two documents" "{} {}"

(* \uXXXX decoding: paired surrogates become one UTF-8 code point, and a
   lone or misordered surrogate is a loud parse error (RFC 8259 §8.2) —
   never CESU-8 bytes smuggled through as string content *)
let test_json_surrogates () =
  let expect_json_error name text =
    match Serve.Json.parse text with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "%s: silently parsed" name
  in
  let decoded name text =
    match Serve.Json.parse text with
    | Ok (Serve.Json.String s) -> s
    | Ok _ -> Alcotest.failf "%s: parsed to a non-string" name
    | Error e -> Alcotest.failf "%s: refused: %s" name e
  in
  (* U+1F600 as a pair -> the four UTF-8 bytes F0 9F 98 80 *)
  Alcotest.(check string) "paired surrogates decode astral"
    "\xf0\x9f\x98\x80"
    (decoded "emoji pair" {|"\ud83d\ude00"|});
  (* BMP escapes still single-unit *)
  Alcotest.(check string) "BMP escape" "\xe2\x82\xac"
    (decoded "euro sign" {|"\u20ac"|});
  expect_json_error "lone high surrogate" {|"\ud83d"|};
  expect_json_error "lone low surrogate" {|"\ude00"|};
  expect_json_error "reversed pair" {|"\ude00\ud83d"|};
  expect_json_error "high surrogate then non-escape" {|"\ud83dx"|};
  expect_json_error "high surrogate then non-u escape" {|"\ud83d\n"|};
  expect_json_error "high surrogate at end of string" {|"a\ud83d"|};
  (* printer/parser agreement: escape emits exactly what parse accepts,
     so any valid-UTF-8 payload round-trips through the ASCII wire form *)
  List.iter
    (fun payload ->
      let wire = Serve.Json.to_string (Serve.Json.String payload) in
      String.iter
        (fun ch ->
          if Char.code ch >= 0x80 then
            Alcotest.failf "wire form of %S is not pure ASCII: %s" payload
              wire)
        wire;
      match Serve.Json.parse wire with
      | Ok (Serve.Json.String s) ->
          Alcotest.(check string) "print/parse round-trip" payload s
      | Ok _ -> Alcotest.fail "round-trip changed the shape"
      | Error e -> Alcotest.failf "printer emitted unparseable %s: %s" wire e)
    [ "plain"; "caf\xc3\xa9"; "\xe2\x82\xac"; "\xf0\x9f\x98\x80";
      "mixed \xf0\x9f\x98\x80 tail" ]

(* ---- framed artifacts ----

   Every artifact a later run reads back (checkpoint, fuzz schedule,
   lemma pool, trace) is a [Robust.Persist] frame, so one sweep covers
   them all: every proper byte prefix and every single-byte flip is a
   loud parse error, never a shorter or different value. *)

let damage_sweep kind decode text =
  let refused what damaged =
    match decode damaged with
    | exception Sim.Trace_io.Parse_error _ -> ()
    | _ -> Alcotest.failf "%s: %s silently parsed" kind what
  in
  let len = String.length text in
  for n = 0 to len - 1 do
    refused (Printf.sprintf "byte prefix %d/%d" n len) (String.sub text 0 n)
  done;
  for i = 0 to len - 1 do
    List.iter
      (fun mask ->
        let b = Bytes.of_string text in
        Bytes.set b i (Char.chr (Char.code text.[i] lxor mask));
        refused
          (Printf.sprintf "byte %d/%d xor %#x" i len mask)
          (Bytes.to_string b))
      [ 0x01; 0x20; 0x80 ]
  done

(* the writer's own bytes, reframed around an edited body: the entry
   syntax is checked, not just the checksum *)
let reframe ~magic edit text =
  Robust.Persist.frame ~magic (edit (Robust.Persist.unframe ~magic text))

(* ---- synth lemma files ---- *)

let lemma_magic = "randsync-lemmas v2"

let lemma_error name text =
  match Synth.Lemma.of_text text with
  | exception Sim.Trace_io.Parse_error _ -> ()
  | _ -> Alcotest.failf "%s: accepted damaged lemma file" name

let test_lemma_torture () =
  let pool =
    [
      {
        Synth.Lemma.source = "synth:rw:r1:d0|d1";
        inputs = [ 0; 1 ];
        schedule = [ `Step (0, None); `Step (1, Some 1); `Crash 0 ];
      };
      {
        Synth.Lemma.source = "synth:swap:r1:d0|d1";
        inputs = [ 0; 0; 1 ];
        schedule = [];
      };
    ]
  in
  let text = Synth.Lemma.to_text pool in
  Alcotest.(check bool) "round-trips" true (Synth.Lemma.of_text text = pool);
  damage_sweep "lemmas" Synth.Lemma.of_text text;
  lemma_error "garbage after end" (text ^ "L x inputs=0 sched=\n");
  let entry line = Robust.Persist.frame ~magic:lemma_magic [ line ] in
  lemma_error "bad entry" (entry "L p inputs=0 sched=x9");
  lemma_error "empty inputs" (entry "L p inputs= sched=");
  lemma_error "wrong magic"
    (Robust.Persist.frame ~magic:"randsync-schedule v1" []);
  lemma_error "empty file" "";
  (* CRLF tolerance, like every other line codec *)
  let crlf =
    String.concat "\r\n" (String.split_on_char '\n' text)
  in
  Alcotest.(check bool) "CRLF tolerated" true
    (Synth.Lemma.of_text crlf = pool)

(* ---- fuzz-schedule files ---- *)

let schedule_error name text =
  match Fuzz.Schedule.of_text text with
  | exception Sim.Trace_io.Parse_error _ -> ()
  | _ -> Alcotest.failf "%s: accepted damaged schedule %S" name text

let test_schedule_torture () =
  let sched = [ `Step (0, None); `Step (1, Some 1); `Crash 2; `Step (0, Some 0) ] in
  let text = Fuzz.Schedule.to_text sched in
  Alcotest.(check bool) "round-trips" true (Fuzz.Schedule.of_text text = sched);
  damage_sweep "schedule" Fuzz.Schedule.of_text text;
  (* trailing garbage: extra entries after the trailer, and outright
     junk *)
  schedule_error "padded with an extra entry" (text ^ "S 0\n");
  schedule_error "padded with junk" (text ^ "not a schedule line\n");
  (* interleaved: two files concatenated *)
  schedule_error "two schedules concatenated" (text ^ text)

(* ---- mc checkpoints ---- *)

let ckpt_magic = "randsync-checkpoint v4"

let ckpt_error name text =
  match Mc.Checkpoint.of_text text with
  | exception Sim.Trace_io.Parse_error _ -> ()
  | _ -> Alcotest.failf "%s: accepted damaged checkpoint" name

let test_checkpoint_torture () =
  let state =
    {
      Mc.Checkpoint.visited = 7900;
      leaves = 38;
      max_depth_seen = 17;
      reason = Some `Depth;
      (* the multi-digit outcome is deliberate: cutting "1:12" to "1:1"
         leaves a plausible element that only the trailer catches *)
      path = [ (1, 0); (0, 2); (1, 12) ];
    }
  in
  let scenario = "mc protocol=rw-3n inputs=0,1 depth=20 max-states=10 dedup=off" in
  let text = Mc.Checkpoint.to_text ~scenario state in
  Alcotest.(check bool) "round-trips" true
    (Mc.Checkpoint.of_text text = (scenario, state));
  damage_sweep "checkpoint" Mc.Checkpoint.of_text text;
  (* a path cut at an element boundary would resume from the wrong
     frontier *)
  ckpt_error "path cut at an element boundary"
    (Test_util.replace_first ~sub:" 1:12" ~by:"" text);
  ckpt_error "path padded with an extra element"
    (Test_util.replace_first ~sub:" 1:12" ~by:" 1:12 0:0" text);
  (* interleaving and garbage *)
  ckpt_error "two checkpoints concatenated" (text ^ text);
  ckpt_error "trailing garbage line" (text ^ "coda\n");
  ckpt_error "binary garbage" ("\x00\x01\x02" ^ text);
  (* entry syntax inside an intact frame *)
  let edit ~sub ~by =
    reframe ~magic:ckpt_magic
      (List.map (fun l -> Test_util.replace_first ~sub ~by l))
      text
  in
  ckpt_error "bad path element" (edit ~sub:"1:12" ~by:"1:12:3");
  ckpt_error "bad counter" (edit ~sub:"visited 7900" ~by:"visited x");
  ckpt_error "missing line"
    (reframe ~magic:ckpt_magic (List.filter (fun l -> l <> "leaves 38")) text)

(* one changed digit is a plausible counter, so only the checksum can
   refuse it (the parent format resumed with visited off by 7) *)
let test_checkpoint_flipped_digit () =
  let text =
    Mc.Checkpoint.to_text ~scenario:"sc"
      { Mc.Checkpoint.empty with visited = 300000; path = [ (0, 1) ] }
  in
  ckpt_error "visited 300000 -> 300007"
    (Test_util.replace_first ~sub:"visited 300000" ~by:"visited 300007" text)

(* ---- traces ---- *)

let test_trace_torture () =
  let trace : int Sim.Trace.t =
    Sim.Trace.of_events
      [
        Sim.Event.Applied
          {
            pid = 1;
            obj = 0;
            op = Sim.Op.make "write" ~arg:(Sim.Value.int 12);
            resp = Sim.Value.unit;
          };
        Sim.Event.Coin { pid = 0; n = 2; outcome = 1 };
        Sim.Event.Decided { pid = 1; value = 0 };
        Sim.Event.Halted { pid = 0 };
      ]
  in
  let text = Sim.Trace_io.to_text_int trace in
  Alcotest.(check bool) "round-trips" true
    (Sim.Trace_io.of_text_int text = trace);
  damage_sweep "trace" Sim.Trace_io.of_text_int text

(* ---- dtbl v1 records ---- *)

let dtbl_error name line =
  match Mc.Dtbl.record_of_line line with
  | exception Sim.Trace_io.Parse_error _ -> ()
  | _ -> Alcotest.failf "%s: accepted damaged dtbl record %S" name line

let dtbl_sample_keys =
  [
    Mc.Dtbl.Skey.make ~fps:[||] ~objs:[||];
    Mc.Dtbl.Skey.make ~fps:[| 0 |] ~objs:[| Sim.Value.Unit |];
    Mc.Dtbl.Skey.make
      ~fps:[| min_int; -3; 0; 17; max_int |]
      ~objs:
        [|
          Sim.Value.Bool false;
          Sim.Value.Int (-12);
          Sim.Value.Sym "w";
          Sim.Value.Pair (Sim.Value.Int 1, Sim.Value.Opt None);
          Sim.Value.Opt (Some (Sim.Value.List [ Sim.Value.Int 2; Sim.Value.Unit ]));
          Sim.Value.List [];
        |];
  ]

let test_dtbl_record_torture () =
  List.iter
    (fun key ->
      List.iter
        (fun meta ->
          let line = Mc.Dtbl.record_to_line key meta in
          (* byte-prefix sweep: a prefix parses only if it decodes to the
             original record — the sentinel makes every strict prefix a
             loud error, including cuts that land on token boundaries *)
          for n = 0 to String.length line - 1 do
            match Mc.Dtbl.record_of_line (String.sub line 0 n) with
            | exception Sim.Trace_io.Parse_error _ -> ()
            | key', meta' ->
                if not (Mc.Dtbl.Skey.equal key key' && meta = meta') then
                  Alcotest.failf
                    "dtbl prefix %d/%d parsed to a different record" n
                    (String.length line)
          done;
          (* the hash check: any payload change that survives framing is
             still refused *)
          let key', meta' = Mc.Dtbl.record_of_line line in
          Alcotest.(check bool) "record round-trips" true
            (Mc.Dtbl.Skey.equal key key' && meta = meta');
          dtbl_error "trailing garbage" (line ^ " x");
          dtbl_error "two records interleaved" (line ^ " " ^ line);
          dtbl_error "sentinel dropped"
            (Test_util.replace_first ~sub:" ;" ~by:"" line))
        [ 2; ((30 + 1) lsl 2) lor 1 ])
    dtbl_sample_keys;
  (* a hash-field flip is caught by the recomputation, not the framing *)
  let line =
    Mc.Dtbl.record_to_line
      (Mc.Dtbl.Skey.make ~fps:[| 5 |] ~objs:[| Sim.Value.Int 9 |])
      4
  in
  dtbl_error "payload flip breaks the hash check"
    (Test_util.replace_first ~sub:"i9" ~by:"i8" line);
  dtbl_error "empty line" "";
  dtbl_error "header as record" Mc.Dtbl.header

let suite =
  [
    Alcotest.test_case "wire frames round-trip" `Quick test_wire_round_trip;
    Alcotest.test_case "wire truncation sweep" `Quick
      test_wire_truncation_sweep;
    Alcotest.test_case "wire trailing garbage + interleaving" `Quick
      test_wire_trailing_garbage_and_interleaving;
    Alcotest.test_case "wire version and shape checks" `Quick
      test_wire_version_and_shape;
    Alcotest.test_case "json strictness" `Quick test_json_strictness;
    Alcotest.test_case "json surrogate pairs" `Quick test_json_surrogates;
    Alcotest.test_case "lemma file torture" `Quick test_lemma_torture;
    Alcotest.test_case "schedule torture" `Quick test_schedule_torture;
    Alcotest.test_case "checkpoint torture" `Quick test_checkpoint_torture;
    Alcotest.test_case "checkpoint with one flipped digit refused" `Quick
      test_checkpoint_flipped_digit;
    Alcotest.test_case "trace torture" `Quick test_trace_torture;
    Alcotest.test_case "dtbl v1 record torture" `Quick
      test_dtbl_record_torture;
  ]
