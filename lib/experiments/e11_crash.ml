(* E11 — "Figure 9": wait-freedom under crash failures.

   Randomized wait-free consensus tolerates any number of crash faults:
   survivors decide no matter how many of the other processes halt, and
   safety is never at risk.  We crash f of n processes at staggered points
   mid-run and measure the survivors' work; the claim to reproduce is the
   definition itself — every run safe, every survivor decides — plus the
   unsurprising-but-measurable shape that work *decreases* as crashed
   processes stop contending. *)

open Sim
open Consensus

type row = {
  protocol : string;
  n : int;
  crashed : int;
  safe_runs : int;
  decided_runs : int;  (** all survivors decided *)
  runs : int;
  mean_steps : float option;
}

let measure (p : Protocol.t) ~n ~crashed ~reps ~seed =
  let safe = ref 0 and decided = ref 0 and steps = ref [] in
  for i = 1 to reps do
    let s = seed + (i * 97) in
    let rng = Rng.create s in
    let inputs = List.init n (fun _ -> Rng.int rng 2) in
    let config = Protocol.initial_config p ~inputs in
    (* crash pids 0..crashed-1 at staggered steps 5, 10, 15, ... *)
    let crashes = List.init crashed (fun i -> ((i + 1) * 5, i)) in
    let result =
      Run.exec ~max_steps:500_000 ~crashes (Sched.random ~seed:s) config
    in
    let verdict = Checker.of_config ~inputs result.Run.config in
    if Checker.ok verdict then incr safe;
    if result.Run.outcome = Run.All_decided then begin
      incr decided;
      steps := float_of_int result.Run.steps :: !steps
    end
  done;
  {
    protocol = p.Protocol.name;
    n;
    crashed;
    safe_runs = !safe;
    decided_runs = !decided;
    runs = reps;
    mean_steps =
      (match !steps with
      | [] -> None
      | xs -> Some (Stats.Summary.of_list xs).Stats.Summary.mean);
  }

let protocols : Protocol.t list =
  [ Fa_consensus.protocol; Counter_consensus.protocol; Rw_consensus.protocol ]

let rows ?(n = 8) ?(fs = [ 0; 2; 4; 6 ]) ?(reps = 20) ?(seed = 11) () =
  List.concat_map
    (fun p -> List.map (fun f -> measure p ~n ~crashed:f ~reps ~seed) fs)
    protocols

let table ?n ?fs ?reps ?seed () =
  let t =
    Stats.Table.create
      ~header:[ "protocol"; "n"; "crashed"; "safe"; "survivors decided"; "mean steps" ]
  in
  List.iter
    (fun r ->
      Stats.Table.add_row t
        [
          r.protocol;
          string_of_int r.n;
          string_of_int r.crashed;
          Printf.sprintf "%d/%d" r.safe_runs r.runs;
          Printf.sprintf "%d/%d" r.decided_runs r.runs;
          (match r.mean_steps with
          | Some m -> Printf.sprintf "%.0f" m
          | None -> "-");
        ])
    (rows ?n ?fs ?reps ?seed ());
  t
