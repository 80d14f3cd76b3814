(* Exhaustive impossibility for bounded protocols: enumerate EVERY
   deterministic decision-tree protocol of bounded depth for two identical
   processes over ONE read-write register, and check each against the
   consensus conditions on all input vectors.

   The paper's starting point — deterministic wait-free consensus from
   registers is impossible — is usually proved by the FLP/Herlihy
   bivalence argument (see {!Valency}); here, for protocols of bounded
   size, it is established by brute force instead: none of the finitely
   many candidates works, and the checker can say so because bounded trees
   always terminate, leaving only safety to fail.

   A protocol tree: decide, write a bit and continue, or read and branch
   on (empty | 0 | 1).  A protocol assigns one tree per input value; both
   processes run the same assignment (identical processes). *)

open Sim

type tree =
  | Decide of int
  | Write of int * tree
  | Read of tree * tree * tree  (* branch on empty / 0 / 1 *)
  | Flip of tree * tree  (* internal fair coin: tails / heads *)

let rec tree_size = function
  | Decide _ -> 1
  | Write (_, t) -> 1 + tree_size t
  | Read (a, b, c) -> 1 + tree_size a + tree_size b + tree_size c
  | Flip (a, b) -> 1 + tree_size a + tree_size b

(* One generator for both tree classes: the deterministic and randomized
   enumerations differ only in whether the [Flip] constructor is offered,
   so a single recursion parameterized on [coins] replaces the two
   previously duplicated copies. *)
let rec enumerate_trees ~coins depth =
  let decides = [ Decide 0; Decide 1 ] in
  if depth = 0 then decides
  else
    let sub = enumerate_trees ~coins (depth - 1) in
    decides
    @ List.concat_map (fun t -> [ Write (0, t); Write (1, t) ]) sub
    @ List.concat_map
        (fun a ->
          List.concat_map
            (fun b -> List.map (fun c -> Read (a, b, c)) sub)
            sub)
        sub
    @ (if coins then
         List.concat_map
           (fun a -> List.map (fun b -> Flip (a, b)) sub)
           sub
       else [])

(** All deterministic trees of depth at most [depth]. *)
let enumerate depth = enumerate_trees ~coins:false depth

(** All trees of depth at most [depth], coin flips included. *)
let enumerate_randomized depth = enumerate_trees ~coins:true depth

(** Compile a tree to a process over object 0. *)
let rec to_proc tree : int Proc.t =
  match tree with
  | Decide v -> Proc.decide v
  | Write (bit, rest) ->
      Proc.bind
        (Proc.apply 0 (Objects.Register.write_int bit))
        (fun _ -> to_proc rest)
  | Read (on_empty, on_zero, on_one) ->
      Proc.bind (Proc.apply 0 Objects.Register.read) (fun v ->
          match v with
          | Value.Int 0 -> to_proc on_zero
          | Value.Int _ -> to_proc on_one
          | _ -> to_proc on_empty)
  | Flip (tails, heads) ->
      Proc.bind Proc.flip (fun h -> to_proc (if h then heads else tails))

(* every decision reachable in a solo run from the empty register (coin
   outcomes enumerated); singleton for deterministic trees.  The
   dedup+sort is part of the contract — census filters and the synth
   lemma pool compare these lists against [[ 0 ]]/[[ 1 ]] structurally,
   so a duplicated or unsorted result would miscount validity candidates
   — and is enforced here rather than inherited from whatever
   [decidable_values] happens to return. *)
let solo_decisions tree =
  let config =
    Config.make ~optypes:[ Objects.Register.optype () ] ~procs:[ to_proc tree ]
  in
  let values, truncated = Explore.decidable_values ~max_depth:50 config in
  assert (not truncated);
  List.sort_uniq compare values

(* the unique solo decision of a deterministic tree *)
let solo_decision tree =
  match solo_decisions tree with
  | [ v ] -> v
  | vs ->
      (* randomized tree with several outcomes: no single decision *)
      invalid_arg
        (Printf.sprintf "solo_decision: %d reachable outcomes" (List.length vs))

(* Exhaustive consensus check of the two-process protocol (t0 for input 0,
   t1 for input 1) on one input vector.

   [`Symmetric] dedup is sound here unconditionally: each process's tree
   is a function of its input alone, so seeding the fingerprints by input
   makes fingerprint-equal slots state-equal across slots — same-input
   processes run the same tree and are genuinely interchangeable. *)
let check_inputs_verdict ?budget ?(dedup = `Symmetric) t0 t1 inputs =
  let tree_of input = if input = 0 then t0 else t1 in
  let config =
    Config.make_seeded ~fp_seeds:inputs
      ~optypes:[ Objects.Register.optype () ]
      ~procs:(List.map (fun i -> to_proc (tree_of i)) inputs)
  in
  let result = Explore.search ?budget ~dedup ~max_depth:30 ~inputs config in
  if result.violation <> None then `Violating
  else
    match result.completeness with
    | `Exhaustive -> `Correct
    | `Truncated reason -> `Unknown reason

let check_inputs ?budget ?dedup t0 t1 inputs =
  check_inputs_verdict ?budget ?dedup t0 t1 inputs = `Correct

type census = {
  depth : int;
  trees : int;
  valid_solo_0 : int;  (** trees deciding 0 when run alone *)
  valid_solo_1 : int;
  candidate_pairs : int;  (** pairs passing the solo-validity filter *)
  survive_unanimous : int;  (** also correct on (0,0) and (1,1) *)
  correct : int;  (** also consistent on (0,1) — expected: none *)
  example_correct : (tree * tree) option;
}

(** The full census at the given depth.  [correct = 0] is the impossibility
    statement for this bounded protocol class.

    Factorized for tractability: the unanimous-input checks (0,0) and
    (1,1) each involve only one of the two trees, so they filter the tree
    lists independently before the quadratic mixed-input sweep; with
    identical processes, inputs (0,1) and (1,0) are pid-symmetric, so one
    mixed check per pair suffices. *)
let census_of_trees ?budget ?dedup ~depth trees =
  (* validity on a solo run: EVERY reachable outcome must be the input
     (for deterministic trees this is the unique decision) *)
  let v0 = List.filter (fun t -> solo_decisions t = [ 0 ]) trees in
  let v1 = List.filter (fun t -> solo_decisions t = [ 1 ]) trees in
  let u0 = List.filter (fun t -> check_inputs ?budget ?dedup t t [ 0; 0 ]) v0 in
  let u1 = List.filter (fun t -> check_inputs ?budget ?dedup t t [ 1; 1 ]) v1 in
  let correct = ref 0 in
  let example = ref None in
  List.iter
    (fun t0 ->
      List.iter
        (fun t1 ->
          if check_inputs ?budget ?dedup t0 t1 [ 0; 1 ] then begin
            incr correct;
            if !example = None then example := Some (t0, t1)
          end)
        u1)
    u0;
  {
    depth;
    trees = List.length trees;
    valid_solo_0 = List.length v0;
    valid_solo_1 = List.length v1;
    candidate_pairs = List.length v0 * List.length v1;
    survive_unanimous = List.length u0 * List.length u1;
    correct = !correct;
    example_correct = !example;
  }

(** Census of all deterministic trees of depth <= [depth]. *)
let census ~depth = census_of_trees ~depth (enumerate depth)

(** Census including coin-flipping trees: consensus may never err on any
    execution (no Monte Carlo), so the adversary also resolves the coins —
    bounded randomized protocols fail exactly like deterministic ones,
    which is why real randomized consensus has unbounded runs. *)
let census_randomized ~depth =
  census_of_trees ~depth (enumerate_randomized depth)

(* ---- generalized trees: multiple registers, swap objects, any n ----

   The [Consensus.Dtree] protocol space the CEGIS driver searches.  The
   legacy single-register [tree] type above stays as the pinned
   impossibility artifact; [dtree_of_tree] embeds it, and the functions
   below are the same solo/verdict machinery lifted to r registers,
   either object style and arbitrary process counts. *)

module D = Consensus.Dtree

let dtree_of_tree tree =
  let rec go = function
    | Decide v -> D.Decide v
    | Write (bit, k) -> D.Write { reg = 0; bit; k = go k }
    | Read (empty, zero, one) ->
        D.Read { reg = 0; empty = go empty; zero = go zero; one = go one }
    | Flip (a, b) -> D.Flip (go a, go b)
  in
  go tree

(* One generator, parameterized on the object style: [Rw] trees write
   and read, [Swapping] trees swap and read (a write is a swap whose
   response is ignored, so offering both would only duplicate the
   space); [coins] gates [Flip] exactly as in [enumerate_trees].  At
   [registers = 1], style [Rw] enumerates the image of {!enumerate}
   under {!dtree_of_tree} — 14 trees at depth 1, 2774 at depth 2. *)
let enumerate_dtrees ~style ~registers ~coins depth =
  if registers < 1 then invalid_arg "enumerate_dtrees: registers must be >= 1";
  let decides = [ D.Decide 0; D.Decide 1 ] in
  let regs = List.init registers Fun.id in
  let rec go depth =
    if depth = 0 then decides
    else
      let sub = go (depth - 1) in
      let branches3 mk =
        List.concat_map
          (fun empty ->
            List.concat_map
              (fun zero -> List.map (fun one -> mk empty zero one) sub)
              sub)
          sub
      in
      decides
      @ List.concat_map
          (fun reg ->
            (match style with
            | D.Rw ->
                List.concat_map
                  (fun k -> [ D.Write { reg; bit = 0; k }; D.Write { reg; bit = 1; k } ])
                  sub
            | D.Swapping ->
                List.concat_map
                  (fun bit ->
                    branches3 (fun empty zero one ->
                        D.Swap { reg; bit; empty; zero; one }))
                  [ 0; 1 ])
            @ branches3 (fun empty zero one -> D.Read { reg; empty; zero; one }))
          regs
      @ (if coins then
           List.concat_map (fun a -> List.map (fun b -> D.Flip (a, b)) sub) sub
         else [])
  in
  go depth

(* The lemma replay hook: the initial configuration a (t0, t1) candidate
   presents to [Run.exec_script] for the given inputs — fingerprints
   seeded by input so [`Symmetric] dedup stays sound (same argument as
   [check_inputs_verdict]). *)
let dtree_config ~style ~registers (t0, t1) inputs =
  let tree_of input = if input = 0 then t0 else t1 in
  Config.make_seeded ~fp_seeds:inputs
    ~optypes:(D.optypes ~style ~registers)
    ~procs:(List.map (fun i -> D.to_proc (tree_of i)) inputs)

let dtree_solo_decisions ~style ~registers tree =
  let config =
    Config.make ~optypes:(D.optypes ~style ~registers)
      ~procs:[ D.to_proc tree ]
  in
  let values, truncated = Explore.decidable_values ~max_depth:50 config in
  assert (not truncated);
  List.sort_uniq compare values

(* Depth bound for a full search: every execution of a bounded-tree
   candidate takes at most (depth + 1) steps per process; 50 clears any
   tree/process-count this repo enumerates without ever truncating. *)
let dtree_max_depth = 50

let dtree_check_verdict ?obs ?budget ?(dedup = `Symmetric) ~style ~registers
    (t0, t1) inputs =
  let config = dtree_config ~style ~registers (t0, t1) inputs in
  let result =
    Explore.search ?obs ?budget ~dedup ~max_depth:dtree_max_depth ~inputs
      config
  in
  match result.violation with
  | Some v -> `Violating v.trace
  | None -> (
      match result.completeness with
      | `Exhaustive -> `Correct
      | `Truncated reason -> `Unknown reason)
