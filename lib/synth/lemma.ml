(* Pruning lemmas: concrete violating executions, replayed against fresh
   candidates before any full search is paid for.

   A lemma is an input vector plus a schedule (the adversary's side of
   one execution, in [Fuzz.Schedule] form) that drove some earlier
   candidate into a consensus violation.  Replaying it against a new
   candidate with [Run.exec_script] costs one bounded deterministic run;
   if the replay violates, that run IS a counterexample for the new
   candidate — the candidate is refuted by the same standard of evidence
   full verification produces, which is why pruning can never flip a
   frontier verdict (DESIGN.md §4k).  If the replay stays clean the
   lemma simply missed and the candidate proceeds to verification;
   nothing is ever rejected on similarity alone. *)

open Sim

type t = {
  source : string;
      (* protocol name of the candidate whose execution this is *)
  inputs : int list;
  schedule : Fuzz.Schedule.t;
}

(* A violation among m processes extends to any n >= m execution in
   which the other n - m processes never move (identical processes, no
   n-dependence in tree code), so a lemma refutes claims at [n] only
   when its own vector is no wider. *)
let applies ~n lemma = List.length lemma.inputs <= n

let hits lemma (p : Consensus.Protocol.t) =
  let m = List.length lemma.inputs in
  if not (p.Consensus.Protocol.supports_n m) then false
  else
    let config = Consensus.Protocol.initial_config p ~inputs:lemma.inputs in
    let r = Run.exec_script ~script:lemma.schedule config in
    not (Checker.ok (Checker.of_config ~inputs:lemma.inputs r.Run.config))

(* [hits] on [Dtree.protocol pair], replayed on the trees themselves *)
let hits_pair ~registers lemma pair =
  let decisions =
    Consensus.Dtree.replay ~registers pair ~inputs:lemma.inputs
      lemma.schedule
  in
  not (Checker.ok (Checker.check ~inputs:lemma.inputs ~decisions))

(* first pool entry (in pool order) that refutes [p] at [n], if any *)
let first_hit ~n pool p =
  List.find_opt (fun l -> applies ~n l && hits l p) pool

(* ---- text codec ----

   One line per lemma, versioned with a count line and an end marker in
   the Trace_io/Schedule style: byte-identical pools are the jobs 1/2
   determinism artifact, and a truncated file is a loud parse error.

     randsync-lemmas v1
     count 2
     L <source> inputs=0,1 sched=s0:0;s1;c0
     L <source> inputs=0,0,1 sched=
     end
*)

let entry_to_string = function
  | `Step (pid, None) -> Printf.sprintf "s%d" pid
  | `Step (pid, Some coin) -> Printf.sprintf "s%d:%d" pid coin
  | `Crash pid -> Printf.sprintf "c%d" pid

let entry_of_string s =
  let fail () =
    raise (Trace_io.Parse_error (Printf.sprintf "bad lemma entry %S" s))
  in
  if s = "" then fail ()
  else
    let body = String.sub s 1 (String.length s - 1) in
    match s.[0] with
    | 'c' -> (
        match int_of_string_opt body with
        | Some pid -> `Crash pid
        | None -> fail ())
    | 's' -> (
        match String.index_opt body ':' with
        | None -> (
            match int_of_string_opt body with
            | Some pid -> `Step (pid, None)
            | None -> fail ())
        | Some i -> (
            match
              ( int_of_string_opt (String.sub body 0 i),
                int_of_string_opt
                  (String.sub body (i + 1) (String.length body - i - 1)) )
            with
            | Some pid, Some coin -> `Step (pid, Some coin)
            | _ -> fail ()))
    | _ -> fail ()

let lemma_to_line l =
  Printf.sprintf "L %s inputs=%s sched=%s" l.source
    (String.concat "," (List.map string_of_int l.inputs))
    (String.concat ";" (List.map entry_to_string l.schedule))

let lemma_of_line line =
  let fail fmt = Printf.ksprintf (fun m -> raise (Trace_io.Parse_error m)) fmt in
  match String.split_on_char ' ' line with
  | [ "L"; source; inputs_f; sched_f ]
    when String.length inputs_f > 7
         && String.sub inputs_f 0 7 = "inputs="
         && String.length sched_f >= 6
         && String.sub sched_f 0 6 = "sched=" ->
      let inputs_s = String.sub inputs_f 7 (String.length inputs_f - 7) in
      let sched_s = String.sub sched_f 6 (String.length sched_f - 6) in
      let inputs =
        List.map
          (fun s ->
            match int_of_string_opt s with
            | Some i -> i
            | None -> fail "bad lemma inputs %S" inputs_s)
          (String.split_on_char ',' inputs_s)
      in
      if inputs = [] then fail "empty lemma inputs in %S" line;
      let schedule =
        if sched_s = "" then []
        else List.map entry_of_string (String.split_on_char ';' sched_s)
      in
      { source; inputs; schedule }
  | _ -> fail "bad lemma line %S" line

let to_text pool =
  let b = Buffer.create 256 in
  Buffer.add_string b "randsync-lemmas v1\n";
  Buffer.add_string b (Printf.sprintf "count %d\n" (List.length pool));
  List.iter
    (fun l ->
      Buffer.add_string b (lemma_to_line l);
      Buffer.add_char b '\n')
    pool;
  Buffer.add_string b "end\n";
  Buffer.contents b

let of_text text =
  let fail fmt = Printf.ksprintf (fun m -> raise (Trace_io.Parse_error m)) fmt in
  let lines =
    String.split_on_char '\n' text
    |> List.map (fun l ->
           (* tolerate CRLF exactly like the schedule codec *)
           if String.length l > 0 && l.[String.length l - 1] = '\r' then
             String.sub l 0 (String.length l - 1)
           else l)
    |> List.filter (fun l -> l <> "")
  in
  match lines with
  | "randsync-lemmas v1" :: rest -> (
      match rest with
      | count_line :: rest -> (
          let count =
            match String.split_on_char ' ' count_line with
            | [ "count"; n ] -> (
                match int_of_string_opt n with
                | Some n when n >= 0 -> n
                | _ -> fail "bad lemma count line %S" count_line)
            | _ -> fail "bad lemma count line %S" count_line
          in
          let rec take acc k = function
            | "end" :: [] when k = count -> List.rev acc
            | "end" :: _ -> fail "lemma file: garbage after end marker"
            | line :: rest when k < count ->
                take (lemma_of_line line :: acc) (k + 1) rest
            | _ :: _ -> fail "lemma file: more entries than declared"
            | [] -> fail "lemma file truncated: %d of %d entries" k count
          in
          match take [] 0 rest with
          | pool -> pool)
      | [] -> fail "lemma file truncated: missing count line")
  | first :: _ -> fail "not a lemma file (leads with %S)" first
  | [] -> fail "empty lemma file"

let save ~path pool = Trace_io.save_text ~path (to_text pool)
let load ~path = of_text (Trace_io.load_text ~path)
