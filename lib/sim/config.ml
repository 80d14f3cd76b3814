(* A configuration (Section 2): the value of every shared object plus the
   state of every process.  Configurations here are persistent: [step]-style
   updates in [Run.pure] copy the arrays, so the model checker and the
   lower-bound adversaries can hold many configurations at once.

   [halted] supports crash-failure injection: a halted process performs no
   further steps (the paper's "a process may become faulty at a given point
   in an execution").

   [fps] carries one incrementally maintained {!Fingerprint.t} per process
   ([Run.step] mixes in every consumed response / coin outcome), giving the
   model checker an O(1)-per-step hashable key for states whose process
   components are otherwise unhashable closures. *)

type 'a t = {
  optypes : Optype.t array;  (** type of each shared object, fixed *)
  objects : Value.t array;  (** current value of each shared object *)
  procs : 'a Proc.t array;  (** current state of each process *)
  halted : bool array;  (** crash-failure flags *)
  fps : Fingerprint.t array;  (** per-process consumed-history fingerprints *)
}

(* Each initial fingerprint is seeded with the slot's root class, the
   first slot that holds the very same value ([seen] has one entry per
   distinct value: linear in processes × distinct values). *)
let make ~optypes ~procs =
  let optypes = Array.of_list optypes in
  let procs = Array.of_list procs in
  let seen = ref [] in
  let root_class p proc =
    match List.assq_opt proc !seen with
    | Some c -> c
    | None ->
        seen := (proc, p) :: !seen;
        p
  in
  {
    optypes;
    objects = Array.map (fun (ot : Optype.t) -> ot.init) optypes;
    procs;
    halted = Array.make (Array.length procs) false;
    fps =
      Array.mapi
        (fun p proc -> Fingerprint.mix Fingerprint.initial (root_class p proc))
        procs;
  }

let n_objects t = Array.length t.objects
let n_procs t = Array.length t.procs

let copy t =
  {
    t with
    objects = Array.copy t.objects;
    procs = Array.copy t.procs;
    halted = Array.copy t.halted;
    fps = Array.copy t.fps;
  }

let decision t pid = Proc.decision t.procs.(pid)
let is_decided t pid = Proc.is_decided t.procs.(pid)
let is_halted t pid = t.halted.(pid)
let fingerprint t pid = t.fps.(pid)

(** A process is enabled if it is neither decided nor crashed. *)
let is_enabled t pid = (not (is_decided t pid)) && not (is_halted t pid)

(** Index-iterating enabled-process traversal, ascending pid order; the
    model checker's inner loop uses these instead of materializing
    [enabled_pids] at every node. *)
let iter_enabled t f =
  for pid = 0 to n_procs t - 1 do
    if is_enabled t pid then f pid
  done

(* toplevel recursion — a local [let rec] would close over [t] and
   allocate on every [exists_enabled]/[all_decided] call *)
let rec exists_enabled_from t pid =
  pid < n_procs t && (is_enabled t pid || exists_enabled_from t (pid + 1))

let exists_enabled t = exists_enabled_from t 0

let enabled_pids t =
  let acc = ref [] in
  for pid = n_procs t - 1 downto 0 do
    if is_enabled t pid then acc := pid :: !acc
  done;
  !acc

let all_decided t = not (exists_enabled t)

let decisions t =
  let acc = ref [] in
  for pid = n_procs t - 1 downto 0 do
    match decision t pid with Some v -> acc := v :: !acc | None -> ()
  done;
  !acc

(** Crash process [pid]: it takes no further steps. *)
let halt t pid =
  let t = copy t in
  t.halted.(pid) <- true;
  t

(** Append a process in state [state]; returns the new configuration and the
    new process's id.  Used by the lower-bound adversaries to introduce
    clones (whose states are snapshots of existing processes).  [?fp], when
    given, is the fingerprint of the origin whose state was snapshotted, so
    the clone's fingerprint stays consistent with its state. *)
let add_proc ?fp t state =
  let n = n_procs t in
  let procs = Array.make (n + 1) state in
  Array.blit t.procs 0 procs 0 n;
  let halted = Array.make (n + 1) false in
  Array.blit t.halted 0 halted 0 n;
  let fps =
    Array.make (n + 1) (match fp with Some f -> f | None -> Fingerprint.initial)
  in
  Array.blit t.fps 0 fps 0 n;
  ({ t with procs; halted; fps }, n)

(** [pending t pid] is the shared-memory operation [pid] is poised at. *)
let pending t pid = Proc.pending t.procs.(pid)

(** Process ids poised at object [obj] (their next step applies to it). *)
let poised_at t obj =
  let acc = ref [] in
  for pid = n_procs t - 1 downto 0 do
    if
      is_enabled t pid
      &&
      match pending t pid with Some (o, _) -> Int.equal o obj | None -> false
    then acc := pid :: !acc
  done;
  !acc

let pp pp_decision ppf t =
  Fmt.pf ppf "@[<v>objects: %a@,procs: %a@]"
    Fmt.(array ~sep:sp Value.pp_compact)
    t.objects
    Fmt.(array ~sep:sp (Proc.pp pp_decision))
    t.procs
