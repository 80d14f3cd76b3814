(* E2 — "Figure 2": the identical-process lower bound (Theorem 3.3),
   witnessed.  For flawed identical-process protocols with r = 1..4
   objects, the Lemma 3.2 adversary constructs an inconsistent execution;
   we report the number of processes (the two originals plus clones) it
   used against the paper's threshold r^2 - r + 2, the length of the
   witness, and whether the witness *certifies* — replays from a fresh
   start with every clone realized as a genuine identical process
   shadowing its origin (possible exactly for read-write registers, whose
   responses leak no history). *)

open Consensus
open Lowerbound

type row = {
  r : int;
  protocol : string;
  processes_used : int;
  threshold : int;  (** r^2 - r + 2 *)
  witness_steps : int;
  broke : bool;
  certified : string;  (** "yes" / reason *)
  mc_confirms : bool option;
      (** {!Mc_confirm.confirms} on the r = 1 cells; [None] for cells too
          large to check exhaustively *)
}

let targets r =
  [
    Flawed.unanimous ~style:Flawed.Rw ~r;
    Flawed.unanimous ~style:Flawed.Swapping ~r;
    Flawed.first_writer ~r;
    Flawed.coin_retry ~style:Flawed.Rw ~r;
  ]
  @ (if r >= 2 then [ Flawed.mixed ~r ] else [])

(* One cell = one (r, protocol) adversary construction + certification;
   cells are independent, so [?pool] fans them out across domains.  The
   cell list and the result order are fixed before dispatch — the table
   is bit-identical for any [?pool]. *)
let rows ?pool ?(max_r = 4) () =
  let cells =
    List.concat_map
      (fun r -> List.map (fun p -> (r, p)) (targets r))
      (List.init max_r (fun i -> i + 1))
  in
  let cell (r, (p : Protocol.t)) =
    match Attack.run p with
    | Error _ -> None
    | Ok o ->
        let certified =
          match Attack.certify p o with
          | Ok _ -> "yes"
          | Error _ -> "no (responses leak history)"
        in
        (* r=1 instances are small enough for an exhaustive 2-process
           cross-check of the adversary's verdict by an unrelated method *)
        let mc_confirms =
          if r > 1 then None else Some (Mc_confirm.confirms p)
        in
        Some
          {
            r;
            protocol = p.Protocol.name;
            processes_used = o.Attack.processes_used;
            threshold = Bounds.identical_attack_threshold r;
            witness_steps = Sim.Trace.steps o.Attack.trace;
            broke = Attack.succeeded o;
            certified;
            mc_confirms;
          }
  in
  List.filter_map Fun.id (Par.map ?pool cell cells)

let table ?pool ?max_r () =
  let t =
    Stats.Table.create
      ~header:
        [
          "r";
          "protocol";
          "procs used";
          "r^2-r+2";
          "witness steps";
          "broken";
          "certified";
          "mc confirms";
        ]
  in
  List.iter
    (fun row ->
      Stats.Table.add_row t
        [
          string_of_int row.r;
          row.protocol;
          string_of_int row.processes_used;
          string_of_int row.threshold;
          string_of_int row.witness_steps;
          string_of_bool row.broke;
          row.certified;
          (match row.mc_confirms with
          | Some b -> string_of_bool b
          | None -> "-");
        ])
    (rows ?pool ?max_r ());
  t
