(* E4 — "Figure 4": space to solve randomized n-process consensus.

   The O(n) register upper bound (our rw-3n), the single-object protocols
   (fetch&add, compare&swap) and the three-counter protocol, against the
   paper's Omega(sqrt n) lower-bound curve for historyless objects — the
   separation at the heart of the paper, as numbers per n. *)

open Consensus
open Lowerbound

type row = {
  n : int;
  rw_registers : int;
  counter_objects : int;
  fa_objects : int;
  cas_objects : int;
  historyless_lb : int;  (** smallest r with 3r^2 + r >= n *)
  identical_lb : int;  (** smallest r with r^2 - r + 1 >= n *)
  mc_safe : bool option;
      (** bounded-safety cross-check of the register upper bound: the
          rw-3n protocol at this [n] admits no violation within a small
          exhaustive search ([Mc.Explore], [`Symmetric] dedup).  [None]
          for [n] beyond exhaustive reach, or when a governed check
          ([?budget]) was cut short — a truncated safe verdict is an
          under-approximation and must not be printed as safety. *)
}

let row ?budget n =
  (* the upper-bound protocol's space numbers are claims about a protocol
     that must actually BE safe; for the smallest n the model checker
     verifies that directly (depth-bounded, so a `no violation` here is
     bounded safety, not a proof).  Depth 30 clears the 26-step
     inconsistent execution rw-3n had at n = 2 before later-round tags
     counted as disagreement, which depth 8 never reached; at n = 2 the
     search visits about 80,000 nodes, under the state cap. *)
  let mc_safe =
    if n > 3 then None
    else
      let inputs = List.init n (fun i -> i mod 2) in
      let config = Protocol.initial_config Rw_consensus.protocol ~inputs in
      let res =
        Mc.Explore.search ?budget ~dedup:`Symmetric ~max_depth:30
          ~max_states:1_000_000 ~inputs config
      in
      if res.Mc.Explore.violation <> None then Some false
      else
        match res.Mc.Explore.completeness with
        | `Truncated (`Nodes | `Deadline | `Cancelled) -> None
        | `Exhaustive | `Truncated (`Depth | `States | `Steps) -> Some true
  in
  {
    n;
    rw_registers = Protocol.space Rw_consensus.protocol ~n;
    counter_objects = Protocol.space Counter_consensus.protocol ~n;
    fa_objects = Protocol.space Fa_consensus.protocol ~n;
    cas_objects = Protocol.space Cas_consensus.protocol ~n;
    historyless_lb = Bounds.objects_needed_general n;
    identical_lb = Bounds.registers_needed_identical n;
    mc_safe;
  }

let default_ns = [ 2; 4; 8; 16; 32; 64; 128; 256 ]

(* Mostly arithmetic, but [Protocol.space] instantiates each protocol at
   each n; one task per n keeps the cells independent. *)
let rows ?pool ?budget ?(ns = default_ns) () =
  Par.map ?pool (fun n -> row ?budget n) ns

let table ?pool ?budget ?ns () =
  let t =
    Stats.Table.create
      ~header:
        [
          "n";
          "registers (rw-3n)";
          "counters (Thm 4.2)";
          "fetch&add (Thm 4.4)";
          "cas (Herlihy)";
          "historyless LB";
          "identical-proc LB";
          "mc-safe (bounded)";
        ]
  in
  List.iter
    (fun r ->
      Stats.Table.add_row t
        [
          string_of_int r.n;
          string_of_int r.rw_registers;
          string_of_int r.counter_objects;
          string_of_int r.fa_objects;
          string_of_int r.cas_objects;
          string_of_int r.historyless_lb;
          string_of_int r.identical_lb;
          (match r.mc_safe with Some b -> string_of_bool b | None -> "-");
        ])
    (rows ?pool ?budget ?ns ());
  t
