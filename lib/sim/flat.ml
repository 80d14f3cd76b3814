(* A flat, arena-backed configuration: one int slab instead of four
   heap-object arrays.

   Layout of [slab] (all small dense ids from the shared {!Intern} table):

     index            0 .. n_objs-1          n_objs .. n_objs+n_procs-1
     contents         object value ids       per-process state ids

   plus a [halted] byte per process outside the slab (crash flags are not
   part of the transposition key — the closure engine's key omits them
   too, and they are constant within one search).

   The slab is the whole transposition key.  The model checker keeps it
   packed in its table's key register ([Mc.Ptbl]), XORing each step's
   id changes in and out, and copies the slab out ({!slab_copy}) only to
   load the register, at the root and after a key widening; a slot
   write itself is one store.  Slot writes are
   trivially self-inverse: writing the old id back restores the slab,
   which is what the DFS undo discipline relies on.

   Clone is a blit of one int array (plus the crash bytes); the model
   checker does not even clone — it steps in place and undoes
   ({!Flat_run.step_det} + the undo discipline in [Mc.Explore]). *)

type 'a t = {
  rt : 'a Intern.t;
  n_objs : int;
  n_procs : int;
  slab : int array;
  halted : Bytes.t;
  mutable enabled : int;  (** processes neither decided nor halted *)
}

type roots = Per_slot | By_fp

(** Flatten a closure configuration.  [~roots] decides root-state
    sharing: [Per_slot] gives every process its own root id (always
    sound, the [`Exact]/[`Off] engine default); [By_fp] shares roots
    between processes whose current fingerprints are equal — the
    assertion [Config.make_seeded] encodes and [`Symmetric] dedup
    requires (equal fingerprint seeds ⇒ equal protocol terms). *)
let of_config ?rt ~roots (config : 'a Config.t) =
  let rt = match rt with Some rt -> rt | None -> Intern.of_config config in
  let n_objs = Config.n_objects config in
  let n_procs = Config.n_procs config in
  let slab = Array.make (n_objs + n_procs) 0 in
  let halted = Bytes.make n_procs '\000' in
  let t = { rt; n_objs; n_procs; slab; halted; enabled = 0 } in
  for i = 0 to n_objs - 1 do
    slab.(i) <- Intern.value_id rt config.Config.objects.(i)
  done;
  for p = 0 to n_procs - 1 do
    let fp = config.Config.fps.(p) in
    let proc = config.Config.procs.(p) in
    let sid =
      match roots with
      | Per_slot -> Intern.root rt ~key:(-1 - p) ~fp proc
      | By_fp -> Intern.root rt ~key:fp ~fp proc
    in
    slab.(n_objs + p) <- sid;
    if config.Config.halted.(p) then Bytes.set halted p '\001'
    else if not (Intern.is_decided rt sid) then t.enabled <- t.enabled + 1
  done;
  t

let rt t = t.rt
let n_objs t = t.n_objs
let n_procs t = t.n_procs
(* unchecked slab loads/stores: object indices are validated once at
   intern time ([Intern.intern_state]) and pids are loop indices bounded
   by [n_procs] in every caller *)
let obj_vid t i = Array.unsafe_get t.slab i
let sid t p = Array.unsafe_get t.slab (t.n_objs + p)
let is_halted t p = Bytes.unsafe_get t.halted p <> '\000'
let is_decided t p = Intern.is_decided t.rt (sid t p)
let is_enabled t p = (not (is_decided t p)) && not (is_halted t p)
let enabled_count t = t.enabled
let all_decided t = t.enabled = 0
let decision t p = Intern.decision t.rt (sid t p)
let fingerprint t p = Intern.fp t.rt (sid t p)

(* Engine-independent serialization of the current configuration: the
   per-process fingerprints and decoded object values are exactly the
   closure engine's transposition key and the currency of the
   disk-backed table ([Mc.Dtbl]) — unlike slab ids they do not depend
   on this run's intern-table numbering, so two domains (or two runs)
   agree on them byte for byte. *)
let fingerprints t = Array.init t.n_procs (fun p -> fingerprint t p)
let objects t = Array.init t.n_objs (fun i -> Intern.value t.rt (obj_vid t i))

let decisions t =
  let acc = ref [] in
  for p = t.n_procs - 1 downto 0 do
    match decision t p with Some v -> acc := v :: !acc | None -> ()
  done;
  !acc

(* Int copies are loops, not [Array.blit]: on a major-heap array a blit
   runs the write barrier ([caml_modify]) once per word, which is most
   of the cost of a per-run copy. *)
let copy_ints (src : int array) (dst : int array) =
  if Array.length dst < Array.length src then invalid_arg "Flat: slab copy";
  for i = 0 to Array.length src - 1 do
    Array.unsafe_set dst i (Array.unsafe_get src i)
  done

let slab_copy t ~into = copy_ints t.slab into

let clone t =
  {
    t with
    slab = Array.copy t.slab;
    halted = Bytes.copy t.halted;
  }

(** Overwrite [dst] with [src]'s state: the per-run reset of the fuzz
    loop, two copies and one scalar write, no allocation. *)
let blit ~src ~dst =
  copy_ints src.slab dst.slab;
  Bytes.blit src.halted 0 dst.halted 0 (Bytes.length src.halted);
  dst.enabled <- src.enabled

let write_obj t i vid = Array.unsafe_set t.slab i vid
let write_sid t p sid = Array.unsafe_set t.slab (t.n_objs + p) sid

(** Crash process [p] in place (no further steps); mirrors
    [Run.exec ~crashes]'s in-place halt. *)
let halt t p =
  if not (is_halted t p) then begin
    if not (is_decided t p) then t.enabled <- t.enabled - 1;
    Bytes.set t.halted p '\001'
  end

let note_decided t p = if not (is_halted t p) then t.enabled <- t.enabled - 1
let note_undecided t p = if not (is_halted t p) then t.enabled <- t.enabled + 1

let pp pp_decision ppf t =
  Fmt.pf ppf "@[<v>objects: %a@,procs: %a@]"
    Fmt.(list ~sep:sp Value.pp_compact)
    (List.init t.n_objs (fun i -> Intern.value t.rt (obj_vid t i)))
    Fmt.(list ~sep:sp (Proc.pp pp_decision))
    (List.init t.n_procs (fun p -> Intern.proc t.rt (sid t p)))
