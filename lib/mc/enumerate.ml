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

   The trees are {!Consensus.Dtree.t}, the language the CEGIS driver
   ([Synth]) searches: decide, flip a coin, write a bit and continue, or
   read and branch on (empty | 0 | 1) — the census instantiates it at one
   [Rw] register.  A protocol assigns one tree per input value; every
   process runs its input's tree (identical processes).  Each census pair
   gets a full model-checker search ({!dtree_check_verdict}), never the
   synthesizer's lemma replay, so the census stays an independent check
   on CEGIS. *)

open Sim
module D = Consensus.Dtree

(* One generator, parameterized on the object style: [Rw] trees write
   and read, [Swapping] trees swap and read (a write is a swap whose
   response is ignored, so offering both would only duplicate the
   space); [coins] decides whether [Flip] is offered.  At
   [registers = 1], style [Rw] is the census's class: 14 trees at depth
   1, 2774 at depth 2. *)
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
   seeded by input so [`Symmetric] dedup stays sound.  Each process's
   tree is a function of its input alone, so fingerprint-equal slots are
   state-equal across slots — same-input processes run the same tree and
   are genuinely interchangeable. *)
let dtree_config ~style ~registers (t0, t1) inputs =
  let tree_of input = if input = 0 then t0 else t1 in
  Config.make_seeded ~fp_seeds:inputs
    ~optypes:(D.optypes ~style ~registers)
    ~procs:(List.map (fun i -> D.to_proc (tree_of i)) inputs)

(* every decision reachable in a solo run from the initial objects (coin
   outcomes enumerated); singleton for deterministic trees.  The
   dedup+sort is part of the contract — census filters and the synth
   lemma pool compare these lists against [[ 0 ]]/[[ 1 ]] structurally,
   so a duplicated or unsorted result would miscount validity candidates
   — and is enforced here rather than inherited from whatever
   [decidable_values] happens to return. *)
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

type census = {
  depth : int;
  trees : int;
  valid_solo_0 : int;  (** trees deciding 0 when run alone *)
  valid_solo_1 : int;
  candidate_pairs : int;  (** pairs passing the solo-validity filter *)
  survive_unanimous : int;  (** also correct on (0,0) and (1,1) *)
  correct : int;  (** also consistent on (0,1) — expected: none *)
  example_correct : (D.t * D.t) option;
}

(** The full census of [trees] (one-register [Rw] trees).  [correct = 0]
    is the impossibility statement for this bounded protocol class.

    Factorized for tractability: the unanimous-input checks (0,0) and
    (1,1) each involve only one of the two trees, so they filter the tree
    lists independently before the quadratic mixed-input sweep; with
    identical processes, inputs (0,1) and (1,0) are pid-symmetric, so one
    mixed check per pair suffices.  A check cut short by [budget] counts
    its pair as not correct. *)
let census_of_trees ?budget ?dedup ~depth trees =
  let style = D.Rw and registers = 1 in
  let correct_on t0 t1 inputs =
    dtree_check_verdict ?budget ?dedup ~style ~registers (t0, t1) inputs
    = `Correct
  in
  (* validity on a solo run: EVERY reachable outcome must be the input
     (for deterministic trees this is the unique decision) *)
  let solo_valid v t = dtree_solo_decisions ~style ~registers t = [ v ] in
  let v0 = List.filter (solo_valid 0) trees in
  let v1 = List.filter (solo_valid 1) trees in
  let u0 = List.filter (fun t -> correct_on t t [ 0; 0 ]) v0 in
  let u1 = List.filter (fun t -> correct_on t t [ 1; 1 ]) v1 in
  let correct = ref 0 in
  let example = ref None in
  List.iter
    (fun t0 ->
      List.iter
        (fun t1 ->
          if correct_on t0 t1 [ 0; 1 ] then begin
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

let census_trees ~coins depth =
  enumerate_dtrees ~style:D.Rw ~registers:1 ~coins depth

(** Census of all deterministic trees of depth <= [depth]. *)
let census ~depth = census_of_trees ~depth (census_trees ~coins:false depth)

(** Census including coin-flipping trees: consensus may never err on any
    execution (no Monte Carlo), so the adversary also resolves the coins —
    bounded randomized protocols fail exactly like deterministic ones,
    which is why real randomized consensus has unbounded runs. *)
let census_randomized ~depth =
  census_of_trees ~depth (census_trees ~coins:true depth)
