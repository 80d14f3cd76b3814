open Sim

type state = {
  visited : int;
  leaves : int;
  max_depth_seen : int;
  reason : Robust.Budget.reason option;
  path : (int * int) list;
}

let empty =
  { visited = 0; leaves = 0; max_depth_seen = 0; reason = None; path = [] }

let magic = "randsync-checkpoint v4"

let parse_error fmt =
  Printf.ksprintf (fun s -> raise (Trace_io.Parse_error s)) fmt

(* a newline in the scenario is refused by the frame *)
let to_text ~scenario state =
  Robust.Persist.frame ~magic
    [
      "scenario " ^ scenario;
      Printf.sprintf "visited %d" state.visited;
      Printf.sprintf "leaves %d" state.leaves;
      Printf.sprintf "max_depth_seen %d" state.max_depth_seen;
      (match state.reason with
      | None -> "reason -"
      | Some r -> "reason " ^ Robust.Budget.reason_to_string r);
      String.concat " "
        ("path"
        :: List.map (fun (pid, o) -> Printf.sprintf "%d:%d" pid o) state.path);
    ]

let of_text text =
  let field name line =
    match String.index_opt line ' ' with
    | _ when line = name -> ""
    | Some i when String.sub line 0 i = name ->
        String.sub line (i + 1) (String.length line - i - 1)
    | _ -> parse_error "expected %S line, got %S" name line
  in
  let int_field name line =
    match int_of_string_opt (field name line) with
    | Some i -> i
    | None -> parse_error "bad integer in %S line %S" name line
  in
  match Robust.Persist.unframe ~magic text with
  | [ scenario; visited; leaves; max_depth_seen; reason; path ] ->
      let reason =
        match field "reason" reason with
        | "-" -> None
        | s -> (
            match Robust.Budget.reason_of_string s with
            | Some r -> Some r
            | None -> parse_error "unknown truncation reason %S" s)
      in
      let path =
        field "path" path |> String.split_on_char ' '
        |> List.filter (fun s -> s <> "")
        |> List.map (fun s ->
               try Scanf.sscanf s "%d:%d%!" (fun pid o -> (pid, o))
               with Scanf.Scan_failure _ | Failure _ | End_of_file ->
                 parse_error "bad path element %S" s)
      in
      ( field "scenario" scenario,
        {
          visited = int_field "visited" visited;
          leaves = int_field "leaves" leaves;
          max_depth_seen = int_field "max_depth_seen" max_depth_seen;
          reason;
          path;
        } )
  | l -> parse_error "checkpoint has %d lines, expected 6" (List.length l)

let save ~path ~scenario state =
  Robust.Persist.write ~path (to_text ~scenario state)

let load ~path = Robust.Persist.load ~path of_text
