(* Lemma 3.4, as a program: from any configuration with enough processes
   poised in the right places, construct an interruptible execution with
   prescribed initial object set and excess capacity.

   The construction follows the proof by induction on |V-bar|:

   1. Reserve v-bar + 1 poised processes of P per object of V; one of each
      performs the block write to V (and retires), the spares stay poised
      so deeper pieces can block-write V again.
   2. Run every other process of P solo until it decides or is poised at a
      nontrivial operation outside V (such a point exists by
      nondeterministic solo termination; we search the coin outcomes).  If
      anyone decides — including a block writer whose write completed its
      procedure — the piece, and the execution, is complete.
   3. Otherwise every non-reserved process is poised outside V.  The
      counting argument of the proof yields an i in 1..v-bar such that the
      objects with >= i poised processes (plus e extra on the U side)
      cover at least v-bar - i + 1 new objects Y (outside U) and Z (inside
      U).  Reserve e poised processes per Z-object as future excess
      capacity (the proof's script-E sets), drop them and the used block
      writers from P, and recurse with V' = V + Y + Z.

   The construction is *recorded into the builder it is given* — callers
   that only want a witness pass a scratch builder over the current
   configuration and replay the witness later ({!Splice}).  [released]
   returns the script-E reservations: processes that are poised and
   guaranteed never to step in the witness again, i.e. excess capacity
   usable by the other side of Lemma 3.5. *)

open Sim

let fail = Combine.fail

(* take k elements, or fail with context *)
let take_exactly k what xs =
  let rec go k acc = function
    | _ when k = 0 -> List.rev acc
    | [] -> fail "not enough %s: needed %d more" what k
    | x :: rest -> go (k - 1) (x :: acc) rest
  in
  go k [] xs

type result = {
  witness : Interruptible.t;
  released : (int * int list) list;
      (** (object, pids): reserved excess capacity — poised at the object,
          never stepping in the witness *)
}

let construct b ~all_objects ~vset ~pset ~uset ~e =
  let rec go ~vset ~pset ~released_acc =
    let v_bar = List.filter (fun o -> not (List.mem o vset)) all_objects in
    let config = Builder.config b in
    (* 1. reserve |v_bar|+1 poised P-processes per V-object *)
    let reserved_per_obj =
      List.map
        (fun obj ->
          let poised =
            List.filter
              (fun pid -> List.mem pid pset)
              (Triviality.poised_at config obj)
          in
          ( obj,
            take_exactly
              (List.length v_bar + 1)
              (Printf.sprintf "P-processes poised at obj %d" obj)
              poised ))
        vset
    in
    let bwriters =
      List.map (fun (obj, pids) -> (obj, List.hd pids)) reserved_per_obj
    in
    let reserved = List.concat_map snd reserved_per_obj in
    let rest = List.filter (fun pid -> not (List.mem pid reserved)) pset in
    (* block write to V, recorded *)
    let m0 = Builder.mark b in
    Builder.block_write b bwriters;
    let decided = ref None in
    (* a block writer's write may have completed its procedure *)
    List.iter
      (fun (_, pid) ->
        if !decided = None then
          match Config.decision (Builder.config b) pid with
          | Some d -> decided := Some (pid, d)
          | None -> ())
      bwriters;
    (* 2. run everyone else until decided or poised outside V *)
    let run_one pid =
      if !decided = None then
        match
          Combine.solo_search (Builder.config b) ~pid
            ~stop:(Solo.poised_outside vset)
        with
        | None ->
            fail "solo search failed for P%d (budget or no termination)" pid
        | Some { coins; decision; _ } ->
            let _ =
              Builder.run_coins b ~pid ~coins
                ~stop:(fun config p -> Solo.poised_outside vset config p)
                ()
            in
            if decision <> None then decided := Some (pid, Option.get decision)
    in
    List.iter run_one rest;
    let body =
      let steps = Interruptible.steps_of_events (Builder.events_since b m0) in
      (* drop the block write itself: its steps head the segment *)
      let rec drop k = function
        | xs when k = 0 -> xs
        | _ :: xs -> drop (k - 1) xs
        | [] -> []
      in
      drop (List.length bwriters) steps
    in
    let piece = { Interruptible.vset; bwriters; body } in
    match !decided with
    | Some (decider, decides) ->
        ( {
            Interruptible.init_set = vset;
            pieces = [ piece ];
            pset;
            decides;
            decider;
          },
          released_acc )
    | None ->
        if v_bar = [] then
          fail
            "V covers all objects but nobody decided (no solo termination?)";
        (* 3. the counting argument *)
        let config = Builder.config b in
        let count obj =
          List.length
            (List.filter
               (fun pid -> List.mem pid rest)
               (Triviality.poised_at config obj))
        in
        let vbar_ubar, vbar_u =
          List.partition (fun o -> not (List.mem o uset)) v_bar
        in
        let vb = List.length v_bar in
        let rec find_i i =
          if i > vb then
            fail "counting argument failed: |P|=%d is too small"
              (List.length pset)
          else
            let ys = List.filter (fun o -> count o >= i) vbar_ubar in
            let zs = List.filter (fun o -> count o >= e + i) vbar_u in
            if List.length ys + List.length zs >= vb - i + 1 then (i, ys, zs)
            else find_i (i + 1)
        in
        let i, candidates_y, candidates_z = find_i 1 in
        let needed = vb - i + 1 in
        let ys =
          take_exactly (min needed (List.length candidates_y)) "Y objects"
            candidates_y
        in
        let zs =
          take_exactly (needed - List.length ys) "Z objects" candidates_z
        in
        (* reserve e poised processes per Z-object as excess capacity *)
        let released =
          List.map
            (fun obj ->
              ( obj,
                take_exactly e
                  (Printf.sprintf "excess reservations at obj %d" obj)
                  (List.filter
                     (fun pid -> List.mem pid rest)
                     (Triviality.poised_at config obj)) ))
            zs
        in
        let retired =
          List.map snd bwriters @ List.concat_map snd released
        in
        let pset' = List.filter (fun pid -> not (List.mem pid retired)) pset in
        let vset' = List.sort_uniq compare (vset @ ys @ zs) in
        let tail, released_acc =
          go ~vset:vset' ~pset:pset' ~released_acc:(released @ released_acc)
        in
        ( {
            tail with
            Interruptible.init_set = vset;
            pieces = piece :: tail.Interruptible.pieces;
            pset;
          },
          released_acc )
  in
  let witness, released = go ~vset ~pset ~released_acc:[] in
  { witness; released }
