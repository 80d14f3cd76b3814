(* A consensus protocol, packaged: which objects it uses for n processes and
   the procedure each process runs.  Decisions are [int] (binary consensus
   uses 0/1; the framework does not care).

   [identical] marks protocols whose code does not depend on the process id
   — the assumption of the Section 3.1 lower bound.  The [Lowerbound.Attack]
   adversary requires it. *)

open Sim

type t = {
  name : string;
  kind : [ `Deterministic | `Randomized ];
  identical : bool;
  supports_n : int -> bool;
  optypes : n:int -> Optype.t list;
  code : n:int -> pid:int -> input:int -> int Proc.t;
}

let space t ~n = List.length (t.optypes ~n)

let procs t ~n ~inputs =
  let by_input = Hashtbl.create 2 in
  List.mapi
    (fun pid input ->
      if not t.identical then t.code ~n ~pid ~input
      else
        match Hashtbl.find_opt by_input input with
        | Some proc -> proc
        | None ->
            let proc = t.code ~n ~pid ~input in
            Hashtbl.add by_input input proc;
            proc)
    inputs

let initial_config t ~inputs =
  let n = List.length inputs in
  if not (t.supports_n n) then
    invalid_arg
      (Printf.sprintf "protocol %s does not support n=%d" t.name n);
  Config.make ~optypes:(t.optypes ~n) ~procs:(procs t ~n ~inputs)

type run_report = {
  result : int Run.result;
  verdict : Checker.verdict;
  inputs : int list;
}

(** Run once under [sched]; check consistency and validity of whatever
    decisions were reached. *)
let run_once ?(max_steps = 200_000) t ~inputs ~sched =
  let config = initial_config t ~inputs in
  let result = Run.exec ~max_steps sched config in
  let verdict = Checker.of_config ~inputs result.config in
  { result; verdict; inputs }

(** Run [reps] times with seeds [seed, seed+1, ...] under scheduler family
    [mk_sched]; returns reports. *)
let run_many ?(max_steps = 200_000) t ~inputs ~mk_sched ~seed ~reps =
  List.init reps (fun i ->
      run_once ~max_steps t ~inputs ~sched:(mk_sched (seed + i)))

(** Average total steps over completed runs; [None] if no run completed. *)
let mean_steps reports =
  let completed =
    List.filter
      (fun r -> r.result.Run.outcome = Run.All_decided)
      reports
  in
  match completed with
  | [] -> None
  | _ ->
      let total =
        List.fold_left (fun acc r -> acc + r.result.Run.steps) 0 completed
      in
      Some (float_of_int total /. float_of_int (List.length completed))
