(* Trace serialization: value encoding round-trips (including a qcheck
   property over random values), event lines round-trip, and a real attack
   witness survives a save/load cycle. *)

open Sim

let roundtrip v = Trace_io.decode_value (Trace_io.encode_value v)

let test_value_roundtrip_cases () =
  List.iter
    (fun v ->
      Alcotest.(check bool)
        (Trace_io.encode_value v)
        true
        (Value.equal v (roundtrip v)))
    [
      Value.unit;
      Value.bool true;
      Value.bool false;
      Value.int 0;
      Value.int (-42);
      Value.int 123456;
      Value.sym "win";
      Value.none;
      Value.some (Value.int 7);
      Value.some (Value.some Value.unit);
      Value.pair (Value.int 1) (Value.bool false);
      Value.pair (Value.pair Value.none (Value.sym "x")) (Value.int 2);
      Value.list [];
      Value.list [ Value.int 1; Value.int 2; Value.int 3 ];
      Value.list [ Value.pair (Value.int 1) (Value.int 2); Value.none ];
    ]

(* random values (symbols restricted to safe alphabets) *)
let value_gen =
  let open QCheck.Gen in
  sized (fun size ->
      fix
        (fun self size ->
          if size <= 0 then
            oneof
              [
                return Value.unit;
                map Value.bool bool;
                map Value.int small_signed_int;
                map
                  (fun s -> Value.sym ("s" ^ string_of_int s))
                  (int_bound 99);
                return Value.none;
              ]
          else
            oneof
              [
                map Value.some (self (size / 2));
                map2 Value.pair (self (size / 2)) (self (size / 2));
                map Value.list (list_size (int_bound 3) (self (size / 3)));
              ])
        (min size 8))

let prop_value_roundtrip =
  QCheck.Test.make ~name:"value encode/decode roundtrip" ~count:500
    (QCheck.make value_gen)
    (fun v -> Value.equal v (roundtrip v))
  |> QCheck_alcotest.to_alcotest

(* whole random traces, not just golden files: every event shape with
   random payloads survives to_text/of_text *)
let trace_gen =
  let open QCheck.Gen in
  let op_gen =
    map2
      (fun name arg -> Op.make name ~arg)
      (oneofl [ "read"; "write"; "fetch&add"; "cas" ])
      value_gen
  in
  let event_gen =
    oneof
      [
        map2
          (fun (pid, obj) (op, resp) -> Event.Applied { pid; obj; op; resp })
          (pair (int_bound 7) (int_bound 3))
          (pair op_gen value_gen);
        map2
          (fun pid (n, outcome) ->
            Event.Coin { pid; n = n + 2; outcome = outcome mod (n + 2) })
          (int_bound 7)
          (pair (int_bound 3) (int_bound 7));
        map2 (fun pid value -> Event.Decided { pid; value }) (int_bound 7)
          small_signed_int;
        map (fun pid -> Event.Halted { pid }) (int_bound 7);
      ]
  in
  map Trace.of_events (list_size (int_bound 30) event_gen)

let prop_trace_roundtrip =
  QCheck.Test.make ~name:"random trace to_text/of_text roundtrip" ~count:300
    (QCheck.make trace_gen)
    (fun trace -> Trace_io.of_text_int (Trace_io.to_text_int trace) = trace)
  |> QCheck_alcotest.to_alcotest

let test_event_roundtrip () =
  let events : int Event.t list =
    [
      Event.Applied
        {
          pid = 3;
          obj = 1;
          op = Op.make "write" ~arg:(Value.int 5);
          resp = Value.unit;
        };
      Event.Applied
        {
          pid = 0;
          obj = 0;
          op = Op.make "fetch&add" ~arg:(Value.int (-2));
          resp = Value.int 7;
        };
      Event.Coin { pid = 2; n = 2; outcome = 1 };
      Event.Decided { pid = 1; value = 0 };
      Event.Halted { pid = 4 };
    ]
  in
  let trace = Trace.of_events events in
  let text = Trace_io.to_text_int trace in
  let trace' = Trace_io.of_text_int text in
  Alcotest.(check bool) "roundtrip" true (trace = trace')

let test_attack_witness_roundtrip () =
  let p = Consensus.Flawed.unanimous ~style:Consensus.Flawed.Rw ~r:2 in
  match Lowerbound.Attack.run p with
  | Error _ -> Alcotest.fail "attack failed"
  | Ok o ->
      let text = Trace_io.to_text_int o.Lowerbound.Attack.trace in
      let trace' = Trace_io.of_text_int text in
      Alcotest.(check bool) "witness roundtrips" true
        (o.Lowerbound.Attack.trace = trace');
      (* and the reloaded witness still shows the inconsistency *)
      let ds = List.map snd (Trace.decisions trace') in
      Alcotest.(check bool) "still inconsistent" true
        (List.mem 0 ds && List.mem 1 ds)

let test_save_load_file () =
  let path = Filename.temp_file "randsync" ".trace" in
  let trace : int Trace.t =
    Trace.of_events
      [
        Event.Coin { pid = 0; n = 2; outcome = 0 };
        Event.Decided { pid = 0; value = 1 };
      ]
  in
  Trace_io.save_int ~path trace;
  let trace' = Trace_io.load_int ~path in
  Sys.remove path;
  Alcotest.(check bool) "file roundtrip" true (trace = trace')

(* bad event lines inside an intact frame: the event syntax itself is
   checked, not just the checksum *)
let test_parse_errors () =
  List.iter
    (fun line ->
      match
        Trace_io.of_text_int
          (Robust.Persist.frame ~magic:"randsync-trace v1" [ line ])
      with
      | exception Trace_io.Parse_error _ -> ()
      | _ -> Alcotest.failf "accepted malformed event %S" line)
    [ "X 1 2"; "A 1"; "A 1 2 write q u"; "C 1 two 0" ]

let suite =
  [
    Alcotest.test_case "value roundtrip cases" `Quick test_value_roundtrip_cases;
    prop_value_roundtrip;
    prop_trace_roundtrip;
    Alcotest.test_case "event roundtrip" `Quick test_event_roundtrip;
    Alcotest.test_case "attack witness roundtrip" `Quick test_attack_witness_roundtrip;
    Alcotest.test_case "save/load file" `Quick test_save_load_file;
    Alcotest.test_case "parse errors rejected" `Quick test_parse_errors;
  ]
