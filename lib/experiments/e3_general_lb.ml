(* E3 — "Figure 3": the general historyless lower bound (Lemma 3.6 /
   Theorem 3.7), witnessed without cloning.  For flawed protocols over
   r = 1..3 historyless objects (registers and swap registers), the
   Lemma 3.4 + 3.5 machinery constructs an inconsistent execution; we
   report the smallest process count at which the construction lands
   against the paper's 3r^2 + r, plus the structure of the interruptible
   executions (piece counts). *)

open Consensus
open Lowerbound

type row = {
  r : int;
  protocol : string;
  min_processes : int option;
  paper_bound : int;  (** 3r^2 + r *)
  pieces : (int * int) option;  (** pieces of alpha/beta at default budget *)
  witness_steps : int option;
  broke : bool;
  mc_confirms : bool option;
      (** {!Mc_confirm.confirms} on the r = 1 cells; [None] for cells too
          large to check exhaustively *)
}

let targets r =
  [
    Flawed.unanimous ~style:Flawed.Rw ~r;
    Flawed.unanimous ~style:Flawed.Swapping ~r;
    Flawed.first_writer ~r;
  ]

(* One cell = one (r, protocol): a minimum-process scan plus one default
   construction.  Cells fan out across [?pool]'s domains; the inner scan
   stays sequential (the pool is not reentrant), which is the right grain
   anyway — cells dominate the cost and there are plenty of them. *)
let rows ?pool ?(max_r = 3) () =
  let cells =
    List.concat_map
      (fun r -> List.map (fun p -> (r, p)) (targets r))
      (List.init max_r (fun i -> i + 1))
  in
  let cell (r, (p : Protocol.t)) =
    let min_processes = General_attack.minimum_processes p in
    let pieces, witness_steps, broke =
      match General_attack.run p with
      | Ok o ->
          ( Some (o.General_attack.pieces_alpha, o.General_attack.pieces_beta),
            Some (Sim.Trace.steps o.General_attack.trace),
            General_attack.succeeded o )
      | Error _ -> (None, None, false)
    in
    (* the r=1 cells are small enough for an exhaustive 2-process
       cross-check; the transposition table keeps it cheap *)
    let mc_confirms = if r > 1 then None else Some (Mc_confirm.confirms p) in
    {
      r;
      protocol = p.Protocol.name;
      min_processes;
      paper_bound = Bounds.general_process_bound r;
      pieces;
      witness_steps;
      broke;
      mc_confirms;
    }
  in
  Par.map ?pool cell cells

let table ?pool ?max_r () =
  let t =
    Stats.Table.create
      ~header:
        [
          "r";
          "protocol";
          "min procs";
          "3r^2+r";
          "pieces a/b";
          "witness steps";
          "broken";
          "mc confirms";
        ]
  in
  List.iter
    (fun row ->
      Stats.Table.add_row t
        [
          string_of_int row.r;
          row.protocol;
          (match row.min_processes with Some m -> string_of_int m | None -> "?");
          string_of_int row.paper_bound;
          (match row.pieces with
          | Some (a, b) -> Printf.sprintf "%d/%d" a b
          | None -> "-");
          (match row.witness_steps with Some s -> string_of_int s | None -> "-");
          string_of_bool row.broke;
          (match row.mc_confirms with
          | Some b -> string_of_bool b
          | None -> "-");
        ])
    (rows ?pool ?max_r ());
  t
