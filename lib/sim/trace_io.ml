(* Durable witness artifacts: a stable, line-oriented text format for
   traces (the counterexample executions the adversaries produce), with a
   parser, so witnesses can be saved, diffed and reloaded.

   Format: a {!Robust.Persist} frame (header [randsync-trace v1], then
   the body, then the checksummed [end] trailer), one event per body
   line:

     A <pid> <obj> <op-name> <arg> <resp>
     C <pid> <n> <outcome>
     D <pid> <value>
     H <pid>

   Values use a prefix encoding closed under the [Value.t] constructors:

     u            unit          b0 / b1       booleans
     i<digits>    integers      s<chars>      symbols (no whitespace)
     p(<v>,<v>)   pairs         n             None
     o<v>         Some          l[<v>;...]    lists
*)

let rec encode_value (v : Value.t) =
  match v with
  | Value.Unit -> "u"
  | Value.Bool false -> "b0"
  | Value.Bool true -> "b1"
  | Value.Int i -> "i" ^ string_of_int i
  | Value.Sym s -> "s" ^ s
  | Value.Pair (a, b) ->
      Printf.sprintf "p(%s,%s)" (encode_value a) (encode_value b)
  | Value.Opt None -> "n"
  | Value.Opt (Some v) -> "o" ^ encode_value v
  | Value.List vs ->
      Printf.sprintf "l[%s]" (String.concat ";" (List.map encode_value vs))

exception Parse_error = Robust.Persist.Parse_error

let parse_error fmt = Printf.ksprintf (fun s -> raise (Parse_error s)) fmt

(* decode a value starting at position [i]; returns (value, next position) *)
let decode_value str =
  let len = String.length str in
  let rec value i =
    if i >= len then parse_error "unexpected end of value"
    else
      match str.[i] with
      | 'u' -> (Value.Unit, i + 1)
      | 'n' -> (Value.Opt None, i + 1)
      | 'b' ->
          if i + 1 >= len then parse_error "truncated bool"
          else (Value.Bool (str.[i + 1] = '1'), i + 2)
      | 'i' ->
          let j = scan_int (i + 1) in
          if j = i + 1 then parse_error "empty integer"
          else (Value.Int (int_of_string (String.sub str (i + 1) (j - i - 1))), j)
      | 's' ->
          let j = scan_sym (i + 1) in
          (Value.Sym (String.sub str (i + 1) (j - i - 1)), j)
      | 'o' ->
          let v, j = value (i + 1) in
          (Value.Opt (Some v), j)
      | 'p' ->
          if i + 1 >= len || str.[i + 1] <> '(' then parse_error "expected ("
          else
            let a, j = value (i + 2) in
            if j >= len || str.[j] <> ',' then parse_error "expected ,"
            else
              let b, k = value (j + 1) in
              if k >= len || str.[k] <> ')' then parse_error "expected )"
              else (Value.Pair (a, b), k + 1)
      | 'l' ->
          if i + 1 >= len || str.[i + 1] <> '[' then parse_error "expected ["
          else if i + 2 < len && str.[i + 2] = ']' then (Value.List [], i + 3)
          else
            let rec elements i acc =
              let v, j = value i in
              if j >= len then parse_error "unterminated list"
              else if str.[j] = ';' then elements (j + 1) (v :: acc)
              else if str.[j] = ']' then (Value.List (List.rev (v :: acc)), j + 1)
              else parse_error "expected ; or ] at %d" j
            in
            elements (i + 2) []
      | c -> parse_error "unknown value tag %c" c
  and scan_int i =
    let i = if i < len && str.[i] = '-' then i + 1 else i in
    let rec go i = if i < len && str.[i] >= '0' && str.[i] <= '9' then go (i + 1) else i in
    go i
  and scan_sym i =
    let rec go i =
      if i < len && str.[i] <> ',' && str.[i] <> ')' && str.[i] <> ';' && str.[i] <> ']'
      then go (i + 1)
      else i
    in
    go i
  in
  let v, j = value 0 in
  if j <> len then parse_error "trailing garbage in value %S" str else v

let encode_event encode_decision (ev : 'a Event.t) =
  match ev with
  | Event.Applied { pid; obj; op; resp } ->
      Printf.sprintf "A %d %d %s %s %s" pid obj op.Op.name
        (encode_value op.Op.arg) (encode_value resp)
  | Event.Coin { pid; n; outcome } -> Printf.sprintf "C %d %d %d" pid n outcome
  | Event.Decided { pid; value } ->
      Printf.sprintf "D %d %s" pid (encode_decision value)
  | Event.Halted { pid } -> Printf.sprintf "H %d" pid

let decode_event decode_decision line =
  match String.split_on_char ' ' line with
  | [ "A"; pid; obj; name; arg; resp ] ->
      Event.Applied
        {
          pid = int_of_string pid;
          obj = int_of_string obj;
          op = { Op.name; arg = decode_value arg };
          resp = decode_value resp;
        }
  | [ "C"; pid; n; outcome ] ->
      Event.Coin
        {
          pid = int_of_string pid;
          n = int_of_string n;
          outcome = int_of_string outcome;
        }
  | [ "D"; pid; value ] ->
      Event.Decided { pid = int_of_string pid; value = decode_decision value }
  | [ "H"; pid ] -> Event.Halted { pid = int_of_string pid }
  | _ -> parse_error "bad event line %S" line

let magic = "randsync-trace v1"

let to_text_int trace =
  Robust.Persist.frame ~magic
    (List.map (encode_event string_of_int) (Trace.events trace))

let of_text_int text =
  Trace.of_events
    (List.map
       (fun l ->
         try decode_event int_of_string l
         with Failure _ -> parse_error "bad event line %S" l)
       (Robust.Persist.unframe ~magic text))

let save_int ~path trace = Robust.Persist.write ~path (to_text_int trace)
let load_int ~path = Robust.Persist.load ~path of_text_int
