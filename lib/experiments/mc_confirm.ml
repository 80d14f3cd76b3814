(* The "mc confirms" column of E2 and E3: an independent cross-check, by
   exhaustive model checking, that a protocol the adversary broke is
   genuinely attackable.  The adversaries' witnesses live at many
   processes, where exhaustive search is hopeless, so this searches the
   2-process mixed-input instance ([Mc.Explore] with [`Symmetric] dedup,
   sound for any packaged protocol because
   [Consensus.Protocol.initial_config] seeds fingerprints accordingly) to
   depth 16 and at most 300,000 states.  True iff a consistency or
   validity violation is reachable within those bounds. *)
let confirms p =
  let inputs = [ 0; 1 ] in
  let config = Consensus.Protocol.initial_config p ~inputs in
  let res =
    Mc.Explore.search ~dedup:`Symmetric ~max_depth:16 ~max_states:300_000
      ~inputs config
  in
  res.Mc.Explore.violation <> None
