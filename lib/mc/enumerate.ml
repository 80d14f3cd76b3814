(* The bounded decision-tree protocol space ({!Consensus.Dtree.t}) and
   the model-checker hooks the CEGIS driver ([Synth.Cegis]) runs on it:
   enumerate every tree of bounded depth, read off a tree's solo
   decisions, build a candidate pair's initial configuration, and check
   a pair exhaustively on one input vector.

   E12's impossibility table is the CEGIS n = 2 round over the
   one-register [Rw] slice of this space; a brute-force census of the
   same slice (every pair through {!dtree_check_verdict}, no lemmas)
   lives in the tests as its referee. *)

open Sim
module D = Consensus.Dtree

(* One generator, parameterized on the object style: [Rw] trees write
   and read, [Swapping] trees swap and read (a write is a swap whose
   response is ignored, so offering both would only duplicate the
   space); [coins] decides whether [Flip] is offered.  At
   [registers = 1], style [Rw] is E12's class: 14 trees at depth 1,
   2774 at depth 2. *)
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
   dedup+sort is part of the contract — the synth validity filter
   compares these lists against [[ 0 ]]/[[ 1 ]] structurally,
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
