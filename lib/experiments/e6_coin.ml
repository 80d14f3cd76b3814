(* E6 — "Figure 6": the shared-coin random walk that underlies both
   Aspnes's counter consensus and our walk protocols.

   n processes flip fair coins and push a shared counter; the walk absorbs
   at +-(k * n).  Measured: total flips until the first process returns
   (expected Theta((k n)^2) — the quadratic shape the paper's work-lower-
   bound discussion, citing Aspnes [6], predicts for shared coins), and
   agreement probability (all processes return the same side), which
   grows with k. *)

open Sim
open Objects
open Consensus

type row = {
  n : int;
  k : int;
  mean_flips : float;
  agreement : float;  (** fraction of runs where all outputs equal *)
  runs : int;
}

(* run n processes of counter_coin to completion; outputs + flips *)
let run_once ~n ~k ~seed =
  let procs = List.init n (fun _ -> Shared_coin.counter_coin ~n ~obj:0 ~k) in
  let config = Config.make ~optypes:[ Counter.optype () ] ~procs in
  let result = Run.exec ~max_steps:5_000_000 (Sched.random ~seed) config in
  if result.Run.outcome <> Run.All_decided then None
  else
    let outputs = Config.decisions result.Run.config in
    let flips = List.length (Trace.coins result.Run.trace) in
    Some (outputs, flips)

let measure ~n ~k ~reps ~seed =
  let agree = ref 0 and flips = ref [] and runs = ref 0 in
  for i = 1 to reps do
    match run_once ~n ~k ~seed:(seed + (i * 101)) with
    | None -> ()
    | Some (outputs, f) ->
        incr runs;
        flips := float_of_int f :: !flips;
        let distinct = List.sort_uniq compare outputs in
        if List.length distinct = 1 then incr agree
  done;
  if !runs = 0 then None
  else
    Some
      {
        n;
        k;
        mean_flips = (Stats.Summary.of_list !flips).Stats.Summary.mean;
        agreement = float_of_int !agree /. float_of_int !runs;
        runs = !runs;
      }

let default_ns = [ 2; 4; 8; 16 ]
let default_ks = [ 1; 2; 3 ]

let rows ?(ns = default_ns) ?(ks = default_ks) ?(reps = 40) ?(seed = 3) () =
  List.concat_map
    (fun n ->
      List.filter_map (fun k -> measure ~n ~k ~reps ~seed) ks)
    ns

let table ?ns ?ks ?reps ?seed () =
  let t =
    Stats.Table.create
      ~header:[ "n"; "k (barrier = k*n)"; "mean flips"; "agreement"; "runs" ]
  in
  List.iter
    (fun r ->
      Stats.Table.add_row t
        [
          string_of_int r.n;
          string_of_int r.k;
          Printf.sprintf "%.0f" r.mean_flips;
          Printf.sprintf "%.2f" r.agreement;
          string_of_int r.runs;
        ])
    (rows ?ns ?ks ?reps ?seed ());
  t
