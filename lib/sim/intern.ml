(* Interned process states: the heart of the flat slab-state hot path.

   A ['a Proc.t] is a closure tree, expensive to walk and impossible to
   hash — but a process is a *deterministic* step machine, so its state is
   fully determined by (initial protocol term, sequence of consumed
   inputs), where an input is an operation response ([Apply]) or a coin
   outcome ([Choose]); the same fact [Fingerprint] exploits, made total:
   instead of hashing the consumed history we *intern* it.  Each distinct
   (root, consumed-history) pair is assigned a small dense int — a state
   id — the first time it is reached, and the closure tree behind it is
   forced exactly once.  Afterwards, stepping a process is a single
   int-keyed hashtable lookup:

     succ       : (sid, input id)        -> sid'
     apply_memo : (sid, object value id) -> (object value id', sid')

   [apply_memo] caches the whole shared-memory step — the object
   transition *and* the response-determined successor state — so the
   model checker's and fuzzer's inner loops never allocate or force a
   closure on a path they have seen before.  Shared-object values are
   interned to small ints by the same table ([value_id]/[value]), which
   is what lets a whole configuration flatten into one int slab
   ({!Flat}).

   Soundness of the successor sharing: [succ] keys children on the
   *consumed input* (the response value id, or the coin outcome), not on
   the pre-step object value — two different object values that produce
   the same response lead to the same consumed history and therefore the
   same state.  State id equality is consumed-history equality from equal
   roots, by construction; no hash is trusted anywhere (value interning
   compares with [Value.equal] on collision, and ids are dense indices).

   Every root is interned fresh ([root_fresh]); root sharing is
   {!Flat.of_config}'s, by the identity of the process value.

   Per-state fingerprints are carried along ([fp]): the fingerprint of a
   state id equals the fingerprint [Run.step] would have maintained for
   the same consumed history, so flat and closure engines can be compared
   (and mixed) fingerprint-for-fingerprint.

   Capacity: ids are packed two-per-int in table keys, so both id spaces
   are capped at [2^25].  The cap is far beyond any bounded exploration
   (a search visiting that many *distinct* states holds 32M closures),
   but an unbounded fuzz campaign over a randomized protocol can creep:
   long-lived callers poll [near_capacity] between runs and rebuild.
   Breaching the cap raises [Overflow] rather than silently corrupting
   keys. *)

type kind = Apply | Choose | Decided

exception Overflow
exception Step_disabled

(* 2^25 ids per space: packed pairs stay within 50 bits. *)
let id_bits = 25
let max_ids = 1 lsl id_bits

let pack a b = (a lsl id_bits) lor b
let fst_of p = p lsr id_bits
let snd_of p = p land (max_ids - 1)

module Vtbl = Hashtbl.Make (struct
  type t = Value.t

  let equal = Value.equal
  let hash v = Fingerprint.value_hash v land max_int
end)

(* Open-addressing int->int table for the two per-step lookups ([succ],
   [apply_memo]).  Keys are packed id pairs (always >= 0), so -1 marks an
   empty slot and [find] returns -1 for absent — no option allocation,
   no polymorphic hashing.  The slot hash is Fibonacci multiplicative
   hashing: one multiply, take the *top* bits ([lsr shift]) — the high
   half of [key * odd] mixes every input bit, unlike masking the low
   half, and it is a fraction of the full SplitMix finalizer's latency.
   [find]'s first probe is laid out inline (a straight-line
   multiply/load/compare) so callers' hit paths flatten completely; the
   wrap-around scan lives in a toplevel recursion — a local [let rec]
   closing over [keys]/[key] would heap-allocate its closure on every
   call, measurably one block per DFS node.  Grows at 50% load. *)
module Itbl = struct
  type t = {
    mutable keys : int array;
    mutable vals : int array;
    mutable mask : int;  (** capacity - 1 (capacity a power of two) *)
    mutable shift : int;  (** 63 - log2 capacity *)
    mutable size : int;
  }

  let fib = 0x1E3779B97F4A7C15 (* odd: golden ratio mod 2^63 *)

  let create cap =
    let bits = ref 4 in
    while 1 lsl !bits < cap do incr bits done;
    let cap = 1 lsl !bits in
    {
      keys = Array.make cap (-1);
      vals = Array.make cap 0;
      mask = cap - 1;
      shift = 63 - !bits;
      size = 0;
    }

  let rec probe keys vals key mask i =
    let k = Array.unsafe_get keys i in
    if k = key then Array.unsafe_get vals i
    else if k = -1 then -1
    else probe keys vals key mask ((i + 1) land mask)

  let[@inline] find t key =
    let i = (key * fib) lsr t.shift in
    let keys = t.keys in
    let k = Array.unsafe_get keys i in
    if k = key then Array.unsafe_get t.vals i
    else if k = -1 then -1
    else probe keys t.vals key t.mask ((i + 1) land t.mask)

  let rec add_probe keys vals key v mask i =
    let k = Array.unsafe_get keys i in
    if k = -1 then begin
      keys.(i) <- key;
      vals.(i) <- v;
      true
    end
    else if k = key then begin
      vals.(i) <- v;
      false
    end
    else add_probe keys vals key v mask ((i + 1) land mask)

  let rec add t key v =
    if 2 * (t.size + 1) > t.mask + 1 then begin
      let old_keys = t.keys and old_vals = t.vals and cap = t.mask + 1 in
      t.keys <- Array.make (2 * cap) (-1);
      t.vals <- Array.make (2 * cap) 0;
      t.mask <- (2 * cap) - 1;
      t.shift <- t.shift - 1;
      t.size <- 0;
      for i = 0 to cap - 1 do
        if old_keys.(i) >= 0 then add t old_keys.(i) old_vals.(i)
      done;
      add t key v
    end
    else if add_probe t.keys t.vals key v t.mask ((key * fib) lsr t.shift) then
      t.size <- t.size + 1
end

(* One int per state for the hot kind/arg pair: [(arg lsl 2) lor tag].
   A single (unsafe) array load answers "what is this state poised at,
   and on what" — the inner DFS loop's most frequent question. *)
let tag_apply = 0
let tag_choose = 1
let tag_decided = 2

type 'a t = {
  optypes : Optype.t array;
  (* value interning: id <-> Value.t *)
  val_ids : int Vtbl.t;
  mutable values : Value.t array;
  mutable n_values : int;
  (* state interning: parallel arrays, hot fields unboxed *)
  mutable st_code : int array;
      (** [(arg lsl 2) lor tag]; arg = object index ([Apply]) or outcome
          count ([Choose]), 0 for [Decided] *)
  mutable st_fp : int array;
  mutable st_proc : 'a Proc.t option array;  (** forced closure, miss path only *)
  mutable st_dec : 'a option array;
  mutable n_states : int;
  succ : Itbl.t;  (** pack (sid, input id) -> sid' *)
  apply_memo : Itbl.t;  (** pack (sid, vid) -> pack (vid', sid') *)
  mutable last_vid : int;
      (** out-parameter of [apply]: the post-step object value id *)
}

(* Every table starts small and grows by doubling: synthesis runs
   thousands of searches of a few nodes each, and an array of more than
   256 words is allocated straight on the major heap, so table sizes
   fit for a big search would dominate a small one's cost. *)
let create ~optypes =
  {
    optypes;
    val_ids = Vtbl.create 16;
    values = Array.make 8 Value.Unit;
    n_values = 0;
    st_code = Array.make 16 (tag_decided lor 0);
    st_fp = Array.make 16 0;
    st_proc = Array.make 16 None;
    st_dec = Array.make 16 None;
    n_states = 0;
    succ = Itbl.create 16;
    apply_memo = Itbl.create 16;
    last_vid = 0;
  }

let of_config (config : 'a Config.t) =
  create ~optypes:(Array.copy config.Config.optypes)

let n_states t = t.n_states
let n_values t = t.n_values

(* rebuild well before ids stop fitting: one fuzz run adds at most its
   step bound of fresh ids, so a half-space headroom check between runs
   cannot be outrun inside a single run *)
let near_capacity t = t.n_states >= max_ids / 2 || t.n_values >= max_ids / 2

let value_id t v =
  match Vtbl.find_opt t.val_ids v with
  | Some id -> id
  | None ->
      let id = t.n_values in
      if id >= max_ids then raise Overflow;
      if id = Array.length t.values then
        t.values <-
          Array.init (2 * id) (fun i -> if i < id then t.values.(i) else Value.Unit);
      t.values.(id) <- v;
      t.n_values <- id + 1;
      Vtbl.add t.val_ids v id;
      id

let value t id = t.values.(id)

let grow (type x) (dummy : x) (arr : x array) len : x array =
  Array.init (2 * len) (fun i -> if i < len then arr.(i) else dummy)

(* Force one closure node into a fresh state id. *)
let intern_state (t : 'a t) (proc : 'a Proc.t) ~fp =
  let sid = t.n_states in
  if sid >= max_ids then raise Overflow;
  if sid = Array.length t.st_code then begin
    t.st_code <- grow 0 t.st_code sid;
    t.st_fp <- grow 0 t.st_fp sid;
    t.st_proc <- grow None t.st_proc sid;
    t.st_dec <- grow None t.st_dec sid
  end;
  (match proc with
  | Proc.Apply { obj; _ } ->
      (* validated here, once per distinct state, so every later consumer
         (slab writes, [apply]) may index unchecked *)
      if obj < 0 || obj >= Array.length t.optypes then
        invalid_arg "Run.step: no such object";
      t.st_code.(sid) <- (obj lsl 2) lor tag_apply
  | Proc.Choose { n; _ } -> t.st_code.(sid) <- (n lsl 2) lor tag_choose
  | Proc.Decide v ->
      t.st_code.(sid) <- tag_decided;
      t.st_dec.(sid) <- Some v);
  t.st_fp.(sid) <- fp;
  t.st_proc.(sid) <- Some proc;
  t.n_states <- sid + 1;
  sid

let root_fresh t ~fp proc = intern_state t proc ~fp

let code t sid = Array.unsafe_get t.st_code sid

let kind t sid =
  match t.st_code.(sid) land 3 with
  | 0 -> Apply
  | 1 -> Choose
  | _ -> Decided

let arg t sid = t.st_code.(sid) lsr 2
let fp t sid = t.st_fp.(sid)
let is_decided t sid = Array.unsafe_get t.st_code sid land 3 = tag_decided
let decision t sid = t.st_dec.(sid)

let proc (t : 'a t) sid : 'a Proc.t =
  match t.st_proc.(sid) with Some p -> p | None -> assert false

let last_vid t = t.last_vid

(* Cold path of [apply_packed]: force the closure one step, intern the
   results, memoize.  Out of line so the hit path stays straight-line
   code small enough to inline into callers. *)
let apply_miss t key sid vid =
  match proc t sid with
  | Proc.Apply { obj; op; k } ->
      let value', resp = Optype.apply t.optypes.(obj) t.values.(vid) op in
      let vid' = value_id t value' in
      let resp_id = value_id t resp in
      let skey = pack sid resp_id in
      let sid' =
        match Itbl.find t.succ skey with
        | -1 ->
            let sid' =
              intern_state t (k resp)
                ~fp:
                  (Fingerprint.mix t.st_fp.(sid)
                     (Fingerprint.value_hash resp))
            in
            Itbl.add t.succ skey sid';
            sid'
        | sid' -> sid'
      in
      let packed = pack vid' sid' in
      Itbl.add t.apply_memo key packed;
      packed
  | Proc.Choose _ | Proc.Decide _ -> raise Step_disabled

(** One shared-memory step of an [Apply] state against the object value
    [~vid], as the packed pair [pack (vid', sid')] (split with {!vid_of}
    / {!sid_of}).  Exactly [Run.step]'s semantics (the response is mixed
    into the fingerprint), memoized on (sid, vid); the successor is
    additionally shared across [vid]s that produce the same response,
    because the consumed history only sees the response. *)
let[@inline] apply_packed t ~sid ~vid =
  let key = (sid lsl id_bits) lor vid in
  let packed = Itbl.find t.apply_memo key in
  if packed >= 0 then packed else apply_miss t key sid vid

let vid_of = fst_of
let sid_of = snd_of

let apply t ~sid ~vid =
  let packed = apply_packed t ~sid ~vid in
  t.last_vid <- fst_of packed;
  snd_of packed

let choose_miss t key sid outcome =
  match proc t sid with
  | Proc.Choose { k; _ } ->
      let sid' =
        intern_state t (k outcome) ~fp:(Fingerprint.mix t.st_fp.(sid) outcome)
      in
      Itbl.add t.succ key sid';
      sid'
  | Proc.Apply _ | Proc.Decide _ -> raise Step_disabled

(** Successor of a [Choose] state on [~outcome]; range-checked like
    [Run.step]. *)
let[@inline] choose t ~sid ~outcome =
  let n = Array.unsafe_get t.st_code sid lsr 2 in
  if outcome < 0 || outcome >= n then
    invalid_arg "Run.step: coin outcome out of range";
  let key = (sid lsl id_bits) lor outcome in
  let sid' = Itbl.find t.succ key in
  if sid' >= 0 then sid' else choose_miss t key sid outcome
