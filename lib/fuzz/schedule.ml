(* Recorded schedules: the fuzzer's unit of replay and shrinking.

   A schedule is the adversary's side of one execution, flattened to a
   list of entries: step a process (with the coin outcome it drew, if that
   step was an internal flip) or crash one.  Entries carry everything the
   deterministic replayer [Sim.Run.exec_script] needs; process code and
   object contents are *not* recorded — they are recomputed by replaying
   against a fresh initial configuration, which is what makes a shrunk
   schedule a genuine witness rather than a transcript.

   The text codec is a [Robust.Persist] frame (the checksummed trailer
   makes a truncated or damaged witness a loud [Trace_io.Parse_error]),
   one entry per body line:

     fuzz-schedule v3
     S <pid>            step (the process was poised at an operation)
     S <pid> <coin>     step that resolved an internal flip
     X <pid>            crash
     end <bytes> <md5-hex>
*)

open Sim

type entry = [ `Step of int * int option | `Crash of int ]
type t = entry list

let length = List.length

(* crash entries are free for the adversary; [steps] counts what the
   paper counts *)
let steps t =
  List.fold_left
    (fun acc -> function `Step _ -> acc + 1 | `Crash _ -> acc)
    0 t

let pids t =
  List.sort_uniq compare
    (List.map (function `Step (pid, _) -> pid | `Crash pid -> pid) t)

(** The schedule a trace records: [Applied] and [Coin] events become steps,
    [Halted] becomes a crash, decisions are not schedule entries.  Replaying
    the result through {!Sim.Run.exec_script} from the same initial
    configuration reproduces the trace. *)
let of_trace trace : t =
  List.filter_map
    (function
      | Event.Applied { pid; _ } -> Some (`Step (pid, None))
      | Event.Coin { pid; outcome; _ } -> Some (`Step (pid, Some outcome))
      | Event.Halted { pid } -> Some (`Crash pid)
      | Event.Decided _ -> None)
    (Trace.events trace)

(* ---- text codec ---- *)

let magic = "fuzz-schedule v3"

let entry_to_string = function
  | `Step (pid, None) -> Printf.sprintf "S %d" pid
  | `Step (pid, Some c) -> Printf.sprintf "S %d %d" pid c
  | `Crash pid -> Printf.sprintf "X %d" pid

let to_text t =
  Robust.Persist.frame ~magic (List.map entry_to_string t)

let parse_error fmt =
  Printf.ksprintf (fun s -> raise (Trace_io.Parse_error s)) fmt

let int_of s line =
  match int_of_string_opt s with
  | Some i -> i
  | None -> parse_error "bad integer %S in schedule line %S" s line

let entry_of_string line =
  match String.split_on_char ' ' line with
  | [ "S"; pid ] -> `Step (int_of pid line, None)
  | [ "S"; pid; c ] -> `Step (int_of pid line, Some (int_of c line))
  | [ "X"; pid ] -> `Crash (int_of pid line)
  | _ -> parse_error "bad schedule line %S" line

(* the frame has already right-trimmed every line (CRLF checkouts,
   editor padding), so entries split on single spaces *)
let of_text text = List.map entry_of_string (Robust.Persist.unframe ~magic text)

let save ~path t = Robust.Persist.write ~path (to_text t)
let load ~path = Robust.Persist.load ~path of_text

let pp ppf t =
  Format.fprintf ppf "@[<h>%a@]"
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.fprintf ppf " ")
       (fun ppf e -> Format.pp_print_string ppf (entry_to_string e)))
    t
