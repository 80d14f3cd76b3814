(* The bounded decision-tree protocol space ({!Consensus.Dtree.t}) and
   the hooks the CEGIS driver ([Synth.Cegis]) runs on it: enumerate
   every tree of bounded depth, read off a tree's solo decisions by a
   walk of the tree itself, build a candidate pair's initial
   configuration, and check a pair exhaustively on one input vector.

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
   2774 at depth 2.

   The trees at depth [d] come in blocks, each a product over the
   depth-[d - 1] trees [sub] in lexicographic order: the two decides;
   per register its writes ([k] major, bit minor) or swaps (bit major,
   then empty, zero, one) followed by its reads (empty, zero, one); then
   the flips (tails, heads).  Within a block, [Dtree.mirror] of the
   element at offset [j] sits at an offset computed from [j] and the
   depth-[d - 1] mirror permutation: the bit complemented, zero and one
   exchanged, every subtree mirrored.  So each level's permutation is
   built alongside its trees, with no tree compared or hashed. *)
let enumerate_mirrored ~style ~registers ~coins depth =
  if registers < 1 then invalid_arg "enumerate_dtrees: registers must be >= 1";
  let rec go depth =
    if depth = 0 then ([| D.Decide 0; D.Decide 1 |], [| 1; 0 |])
    else
      let sub, sm = go (depth - 1) in
      let s = Array.length sub in
      let s2 = s * s in
      let s3 = s2 * s in
      let writes = match style with D.Rw -> 2 * s | D.Swapping -> 2 * s3 in
      let size = 2 + (registers * (writes + s3)) + if coins then s2 else 0 in
      let trees = Array.make size (D.Decide 0) and mirror = Array.make size 0 in
      let base = ref 0 in
      (* [len] trees [mk j], the mirror of offset [j] at offset [mir j] *)
      let block len mk mir =
        let b = !base in
        for j = 0 to len - 1 do
          trees.(b + j) <- mk j;
          mirror.(b + j) <- b + mir j
        done;
        base := b + len
      in
      (* offset [j] in an (empty, zero, one) product, and its mirror's *)
      let e j = sub.(j / s2)
      and z j = sub.(j / s mod s)
      and o j = sub.(j mod s) in
      let mir3 j =
        (sm.(j / s2) * s2) + (sm.(j mod s) * s) + sm.(j / s mod s)
      in
      block 2 (fun j -> D.Decide j) (fun j -> 1 - j);
      for reg = 0 to registers - 1 do
        (match style with
        | D.Rw ->
            block (2 * s)
              (fun j -> D.Write { reg; bit = j land 1; k = sub.(j / 2) })
              (fun j -> (2 * sm.(j / 2)) + 1 - (j land 1))
        | D.Swapping ->
            block (2 * s3)
              (fun j ->
                let k = j mod s3 in
                D.Swap { reg; bit = j / s3; empty = e k; zero = z k; one = o k })
              (fun j -> ((1 - (j / s3)) * s3) + mir3 (j mod s3)));
        block s3
          (fun j -> D.Read { reg; empty = e j; zero = z j; one = o j })
          mir3
      done;
      if coins then
        block s2
          (fun j -> D.Flip (sub.(j / s), sub.(j mod s)))
          (fun j -> (sm.(j / s) * s) + sm.(j mod s));
      (trees, mirror)
  in
  go depth

let enumerate_dtrees ~style ~registers ~coins depth =
  Array.to_list (fst (enumerate_mirrored ~style ~registers ~coins depth))

(* The lemma replay hook: the initial configuration a (t0, t1) candidate
   presents to [Run.exec_script] for the given inputs.  Each process's
   tree is a function of its input alone, so one process value per tree
   side: same-input processes hold one value, share a root
   ([Config.make]) and are genuinely interchangeable under
   [`Symmetric] dedup. *)
let dtree_config ~style ~registers (t0, t1) inputs =
  let p0 = D.to_proc t0 and p1 = D.to_proc t1 in
  Config.make
    ~optypes:(D.optypes ~style ~registers)
    ~procs:(List.map (fun i -> if i = 0 then p0 else p1) inputs)

(* every decision reachable in a solo run from the initial objects:
   walk the tree on [Dtree.step] and one register array, taking both
   outcomes of every [Flip] and undoing each write or swap on the way
   back.  Sorted and duplicate free. *)
let dtree_solo_decisions ~registers tree =
  let regs = Array.make registers D.reg_empty in
  let rec walk acc tree =
    match tree with
    | D.Decide v -> if List.exists (Int.equal v) acc then acc else v :: acc
    | D.Flip _ -> walk (walk acc (D.step regs tree 0)) (D.step regs tree 1)
    | D.Read _ -> walk acc (D.step regs tree 0)
    | D.Write { reg; _ } | D.Swap { reg; _ } ->
        let old = regs.(reg) in
        let acc = walk acc (D.step regs tree 0) in
        regs.(reg) <- old;
        acc
  in
  List.sort Int.compare (walk [] tree)

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
