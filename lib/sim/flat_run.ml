(* Executing flat configurations ({!Flat}): the measurement-loop
   counterparts of [Run.exec] (with or without crashes) and
   [Run.exec_script], mutating the slab in place.

   The randomized executors consume their [Rng.t] in *exactly* the draw
   order of the closure engine ([Sched.random] / [Sched.starving] driven
   by [Run.exec]): one draw bounded by the enabled count to pick the
   process, then one draw for the coin iff the chosen process is poised
   at a [Choose] — so a flat run and a closure run from the same seed
   take bit-identical executions.  Instead of a trace (events carry
   operations and responses, which the slab has interned away) each
   executor records the *schedule* — precisely what [Fuzz.Schedule.of_trace]
   would have extracted from the closure trace: [`Step (pid, coin)] per
   step and [`Crash pid] per effective crash — so recorded artifacts,
   shrinker input, and replays are engine-independent. *)

type outcome = Run.outcome = All_decided | Max_steps | Scheduler_stopped

type 'a result = {
  flat : 'a Flat.t;  (** the final configuration (mutated in place) *)
  steps : int;
  outcome : outcome;
  schedule : [ `Step of int * int option | `Crash of int ] list;
}

exception Step_disabled = Run.Step_disabled

(** One in-place step of process [pid]; [coin n] resolves a [Choose].
    Returns the consumed coin outcome ([None] for an [Apply] step).
    Raises {!Step_disabled} on a decided process, like [Run.step]. *)
let step (t : 'a Flat.t) ~pid ~coin =
  let rt = Flat.rt t in
  let sid = Flat.sid t pid in
  match Intern.kind rt sid with
  | Intern.Decided -> raise (Step_disabled pid)
  | Intern.Apply ->
      let obj = Intern.arg rt sid in
      let packed = Intern.apply_packed rt ~sid ~vid:(Flat.obj_vid t obj) in
      let sid' = Intern.sid_of packed in
      Flat.write_obj t obj (Intern.vid_of packed);
      Flat.write_sid t pid sid';
      if Intern.is_decided rt sid' then Flat.note_decided t pid;
      None
  | Intern.Choose ->
      let n = Intern.arg rt sid in
      let outcome = coin n in
      let sid' = Intern.choose rt ~sid ~outcome in
      Flat.write_sid t pid sid';
      if Intern.is_decided rt sid' then Flat.note_decided t pid;
      Some outcome

(* k-th enabled pid in ascending order, excluding [skip] (pass -1 for
   none) — the flat equivalent of [List.nth (Config.enabled_pids c) k].
   Toplevel recursion: a local [let rec] closing over [t]/[skip] would
   allocate its closure on every pick. *)
let rec nth_from t n skip pid k =
  if pid >= n then invalid_arg "Flat_run.nth_enabled"
  else if pid <> skip && Flat.is_enabled t pid then
    if k = 0 then pid else nth_from t n skip (pid + 1) (k - 1)
  else nth_from t n skip (pid + 1) k

let nth_enabled t ~skip k = nth_from t (Flat.n_procs t) skip 0 k

let count_enabled_excluding t ~skip =
  let c = Flat.enabled_count t in
  if skip >= 0 && skip < Flat.n_procs t && Flat.is_enabled t skip then c - 1
  else c

let finish flat rev_schedule steps outcome =
  { flat; steps; outcome; schedule = List.rev rev_schedule }

(* Shared driver: [pick] chooses the next pid (drawing from [rng] in the
   closure scheduler's order); coins come from the same [rng]. *)
let exec_loop ~max_steps ~rng ~pick ?(crashes = []) (t : 'a Flat.t) =
  let rev_schedule = ref [] in
  let steps = ref 0 in
  let outcome = ref None in
  let remaining = ref (List.sort compare crashes) in
  let coin n = Rng.int rng n in
  while !outcome = None do
    (match !remaining with
    | (at, pid) :: rest when at <= !steps ->
        remaining := rest;
        if pid >= 0 && pid < Flat.n_procs t && Flat.is_enabled t pid then begin
          Flat.halt t pid;
          rev_schedule := `Crash pid :: !rev_schedule
        end
    | _ -> ());
    if Flat.all_decided t then outcome := Some All_decided
    else if !steps >= max_steps then outcome := Some Max_steps
    else begin
      let pid = pick t in
      let coin_used = step t ~pid ~coin in
      rev_schedule := `Step (pid, coin_used) :: !rev_schedule;
      incr steps
    end
  done;
  match !outcome with
  | Some o -> finish t !rev_schedule !steps o
  | None -> assert false

(** [Run.exec ?crashes] over [Sched.random ~seed] with [rng = Rng.create
    seed]: uniformly random enabled process, fair coins, one rng.  Before
    each loop iteration at most one due crash fires (recorded as
    [`Crash] when the pid was still enabled). *)
let exec_random ?(max_steps = 100_000) ?crashes ~rng t =
  let pick t = nth_enabled t ~skip:(-1) (Rng.int rng (Flat.enabled_count t)) in
  exec_loop ~max_steps ~rng ~pick ?crashes t

(** [Run.exec] over [Sched.starving ~victim ~seed]: uniform among
    the non-victim enabled processes; the victim moves (with no rng
    draw) only when nobody else can. *)
let exec_starving ?(max_steps = 100_000) ~victim ~rng t =
  let pick t =
    let others = count_enabled_excluding t ~skip:victim in
    if others = 0 then victim
    else nth_enabled t ~skip:victim (Rng.int rng others)
  in
  exec_loop ~max_steps ~rng ~pick t

(** Deterministic script replay, mirroring [Run.exec_script]: disabled
    or out-of-range pids are skipped, absent/out-of-range coins fall
    back to outcome 0, and only executed steps count. *)
let exec_script ?(max_steps = 100_000) ~script (t : 'a Flat.t) =
  let n = Flat.n_procs t in
  let rev_schedule = ref [] in
  let steps = ref 0 in
  let rec go script =
    if Flat.all_decided t then All_decided
    else if !steps >= max_steps then Max_steps
    else
      match script with
      | [] -> Scheduler_stopped
      | `Crash pid :: rest ->
          if pid >= 0 && pid < n && Flat.is_enabled t pid then begin
            Flat.halt t pid;
            rev_schedule := `Crash pid :: !rev_schedule
          end;
          go rest
      | `Step (pid, coin) :: rest ->
          if pid >= 0 && pid < n && Flat.is_enabled t pid then begin
            let coin k =
              match coin with Some c when c >= 0 && c < k -> c | _ -> 0
            in
            let coin_used = step t ~pid ~coin in
            rev_schedule := `Step (pid, coin_used) :: !rev_schedule;
            incr steps
          end;
          go rest
  in
  let outcome = go script in
  finish t !rev_schedule !steps outcome
