(* Schedulers are the adversaries of the model: at each step they pick which
   enabled process moves next, and they resolve coin flips.  In the paper's
   strong-adversary model the scheduler observes the full configuration; our
   [choose] accordingly receives it.

   Coin flips in *measurement* runs are random (honest coins, adversarial
   scheduling); the model checker and the lower-bound machinery bypass
   schedulers entirely and drive [Run.step] directly, enumerating outcomes. *)

type 'a t = {
  name : string;
  choose : 'a Config.t -> step:int -> int option;
      (** Pick an enabled process id, or [None] to stop the run. *)
  coin : pid:int -> n:int -> int;
      (** Resolve a coin flip with [n] outcomes for process [pid]. *)
}

let fair_coin rng ~pid:_ ~n = Rng.int rng n

(** Cycle through processes in id order, skipping decided/halted ones. *)
let round_robin ?(seed = 1) () =
  let rng = Rng.create seed in
  let cursor = ref 0 in
  let choose config ~step:_ =
    let n = Config.n_procs config in
    let rec find tried i =
      if tried >= n then None
      else if Config.is_enabled config i then (
        cursor := (i + 1) mod n;
        Some i)
      else find (tried + 1) ((i + 1) mod n)
    in
    find 0 (!cursor mod n)
  in
  { name = "round-robin"; choose; coin = fair_coin rng }

(* Allocation-free helpers for the adversaries below: counting and
   rank-selection over enabled pids replace materializing
   [Config.enabled_pids] (a fresh list every step of every measurement
   run).  [skip] excludes one pid (pass a negative to exclude nobody).
   RNG draw order is exactly the list-based code's: one [Rng.int] per
   step, over the same range — pinned by the golden-schedule test. *)
let count_enabled config ~skip =
  let n = Config.n_procs config in
  let c = ref 0 in
  for pid = 0 to n - 1 do
    if pid <> skip && Config.is_enabled config pid then incr c
  done;
  !c

(* The [k]-th (0-based, ascending pid) enabled process, [skip] excluded;
   the caller guarantees [k < count_enabled ~skip]. *)
let nth_enabled config ~skip k =
  let rec go pid k =
    if pid = skip || not (Config.is_enabled config pid) then go (pid + 1) k
    else if k = 0 then pid
    else go (pid + 1) (k - 1)
  in
  go 0 k

(** Uniformly random enabled process each step; coins are fair. *)
let random ~seed =
  let rng = Rng.create seed in
  let choose config ~step:_ =
    match count_enabled config ~skip:(-1) with
    | 0 -> None
    | c -> Some (nth_enabled config ~skip:(-1) (Rng.int rng c))
  in
  { name = Printf.sprintf "random(seed=%d)" seed; choose; coin = fair_coin rng }

(** Run a single process solo; everyone else is stalled.  Used to measure
    solo executions and to test (nondeterministic) solo termination. *)
let solo ~pid ~seed =
  let rng = Rng.create seed in
  let choose config ~step:_ =
    if Config.is_enabled config pid then Some pid else None
  in
  { name = Printf.sprintf "solo(P%d)" pid; choose; coin = fair_coin rng }

(** Starve [victim]: schedule uniformly among the {e other} enabled
    processes, letting the victim move only when nobody else can.  The
    classic adversary against protocols that implicitly assume every
    process keeps pace; the fuzzer's process-starving schedule family. *)
let starving ~victim ~seed =
  let rng = Rng.create seed in
  let choose config ~step:_ =
    match count_enabled config ~skip:victim with
    | 0 -> if Config.is_enabled config victim then Some victim else None
    | c -> Some (nth_enabled config ~skip:victim (Rng.int rng c))
  in
  {
    name = Printf.sprintf "starving(P%d)" victim;
    choose;
    coin = fair_coin rng;
  }

(** An adaptive adversary built from a user decision function. *)
let adaptive ~name ~seed f =
  let rng = Rng.create seed in
  let choose config ~step = f rng config ~step in
  { name; choose; coin = fair_coin rng }

(** Adversary that tries to maximize contention: always schedules, among
    enabled processes, one poised at the object most processes are poised
    at.  A useful stress scheduler for randomized protocols. *)
let contention ~seed =
  let rng = Rng.create seed in
  (* scratch histogram, reused across steps; grown on demand *)
  let counts = ref [||] in
  let choose config ~step:_ =
    match count_enabled config ~skip:(-1) with
    | 0 -> None
    | c ->
        let n_obj = max 1 (Config.n_objects config) in
        if Array.length !counts < n_obj then counts := Array.make n_obj 0
        else Array.fill !counts 0 n_obj 0;
        let counts = !counts in
        Config.iter_enabled config (fun pid ->
            match Config.pending config pid with
            | Some (obj, _) -> counts.(obj) <- counts.(obj) + 1
            | None -> ());
        let maxc = ref 0 in
        for obj = 0 to n_obj - 1 do
          if counts.(obj) > !maxc then maxc := counts.(obj)
        done;
        let is_crowded pid =
          match Config.pending config pid with
          | Some (obj, _) -> counts.(obj) = !maxc
          | None -> false
        in
        let crowded = ref 0 in
        Config.iter_enabled config (fun pid ->
            if is_crowded pid then incr crowded);
        if !crowded = 0 then
          Some (nth_enabled config ~skip:(-1) (Rng.int rng c))
        else begin
          (* the k-th crowded enabled pid, ascending — the same element
             [List.nth crowded k] picked *)
          let k = ref (Rng.int rng !crowded) in
          let picked = ref (-1) in
          (try
             Config.iter_enabled config (fun pid ->
                 if is_crowded pid then
                   if !k = 0 then begin
                     picked := pid;
                     raise Exit
                   end
                   else decr k)
           with Exit -> ());
          Some !picked
        end
  in
  { name = "contention"; choose; coin = fair_coin rng }
