(* Packed inline transposition table (see the interface for the contract).

   Layout: [slots] holds [cap] slots of [stride = 1 + kw] ints each,
   [meta; word_0 .. word_{kw-1}], meta -1 = empty.  Key field [i] lives
   in word [fword.(i)] at bit [fshift.(i)]: objects take [bo] bits each,
   states [bs] bits each, and a field never crosses bit 63.  Linear
   probing from a hash of the packed words, load kept at most 3/4.

   A relayout builds a fresh slot array (new capacity, new widths or
   both) and re-inserts every entry, unpacking it with the old layout
   and packing it with the new one; its cost is linear in the table, and
   it happens at most once per capacity doubling or width increment. *)

type t = {
  n_objs : int;
  width : int;  (** fields per key: [n_objs + n_procs] *)
  mutable bo : int;  (** bits per object value id *)
  mutable bs : int;  (** bits per state id *)
  mutable fword : int array;  (** word of each field *)
  mutable fshift : int array;  (** bit offset of each field *)
  mutable kw : int;  (** packed words per key *)
  mutable stride : int;  (** [1 + kw] *)
  mutable slots : int array;
  mutable mask : int;  (** capacity - 1 *)
  mutable shift : int;  (** 63 - log2 capacity *)
  mutable size : int;
  mutable gen : int;  (** relayouts so far *)
  mutable scratch : int array;  (** the packed probe key, [kw] words *)
}

let fib = 0x1E3779B97F4A7C15
(* 16 slots: most synthesis checks are searches of a few nodes, and a
   table that starts big costs them more than the search itself *)
let initial_bits = 4

(* smallest [b >= 1] with [n <= 2^b]: ids [0 .. n-1] fit in [b] bits *)
let rec bits_for n b = if n <= 1 lsl b then b else bits_for n (b + 1)

(* Greedy word filling: each word takes as many state fields as fit,
   then as many object fields as fit in what is left. *)
let set_layout t ~bo ~bs =
  let fword = Array.make t.width 0 and fshift = Array.make t.width 0 in
  let next_state = ref t.n_objs and next_obj = ref 0 and w = ref 0 in
  let fill next stop b s =
    while !next < stop && !s + b <= 63 do
      fword.(!next) <- !w;
      fshift.(!next) <- !s;
      s := !s + b;
      incr next
    done
  in
  while !next_state < t.width || !next_obj < t.n_objs do
    let s = ref 0 in
    fill next_state t.width bs s;
    fill next_obj t.n_objs bo s;
    incr w
  done;
  let kw = max 1 !w in
  t.bo <- bo;
  t.bs <- bs;
  t.fword <- fword;
  t.fshift <- fshift;
  t.kw <- kw;
  t.stride <- kw + 1;
  t.scratch <- Array.make kw 0

let set_capacity t bits =
  t.slots <- Array.make ((1 lsl bits) * t.stride) (-1);
  t.mask <- (1 lsl bits) - 1;
  t.shift <- 63 - bits

let create ~n_objs ~n_procs ~n_values ~n_states =
  let t =
    {
      n_objs;
      width = n_objs + n_procs;
      bo = 0;
      bs = 0;
      fword = [||];
      fshift = [||];
      kw = 0;
      stride = 0;
      slots = [||];
      mask = 0;
      shift = 0;
      size = 0;
      gen = 0;
      scratch = [||];
    }
  in
  set_layout t ~bo:(bits_for n_values 1) ~bs:(bits_for n_states 1);
  set_capacity t initial_bits;
  t

let pack t (key : int array) (into : int array) =
  for w = 0 to t.kw - 1 do
    Array.unsafe_set into w 0
  done;
  for i = 0 to t.width - 1 do
    let w = Array.unsafe_get t.fword i in
    Array.unsafe_set into w
      (Array.unsafe_get into w
      lor (Array.unsafe_get key i lsl Array.unsafe_get t.fshift i))
  done

(* toplevel recursions: local [let rec]s would allocate closures on every
   lookup *)
let rec hash_words (w : int array) i n h =
  if i = n then h
  else hash_words w (i + 1) n ((h lxor Array.unsafe_get w i) * fib)

let home t =
  let h = hash_words t.scratch 0 t.kw t.kw in
  ((h lxor (h lsr 31)) * fib) lsr t.shift

let rec eq_words slots o (key : int array) i =
  i < 0
  || Array.unsafe_get slots (o + 1 + i) = Array.unsafe_get key i
     && eq_words slots o key (i - 1)

(* the scratch key's meta offset, or [-1 - o] for the empty slot [o] that
   ends its probe run *)
let rec probe t i =
  let o = i * t.stride in
  if Array.unsafe_get t.slots o = -1 then -1 - o
  else if eq_words t.slots o t.scratch (t.kw - 1) then o
  else probe t ((i + 1) land t.mask)

(* store the scratch key at the empty slot [o] *)
let write t o meta =
  t.slots.(o) <- meta;
  Array.blit t.scratch 0 t.slots (o + 1) t.kw;
  t.size <- t.size + 1

let place t meta =
  let o = -1 - probe t (home t) in
  write t o meta;
  o

let relayout t ~bits ~bo ~bs =
  let old = t.slots and ostride = t.stride and okw = t.kw in
  let ofword = t.fword and ofshift = t.fshift and obo = t.bo and obs = t.bs in
  let same_layout = bo = obo && bs = obs in
  if not same_layout then set_layout t ~bo ~bs;
  set_capacity t bits;
  t.size <- 0;
  t.gen <- t.gen + 1;
  let key = Array.make t.width 0 in
  for o = 0 to (Array.length old / ostride) - 1 do
    let base = o * ostride in
    let meta = old.(base) in
    if meta <> -1 then begin
      if same_layout then Array.blit old (base + 1) t.scratch 0 okw
      else begin
        for i = 0 to t.width - 1 do
          let b = if i < t.n_objs then obo else obs in
          key.(i) <-
            (old.(base + 1 + ofword.(i)) lsr ofshift.(i)) land ((1 lsl b) - 1)
        done;
        pack t key t.scratch
      end;
      ignore (place t meta : int)
    end
  done

let capacity_bits t = 63 - t.shift

let fit t ~n_values ~n_states =
  if n_values > 1 lsl t.bo || n_states > 1 lsl t.bs then
    relayout t ~bits:(capacity_bits t)
      ~bo:(bits_for n_values t.bo)
      ~bs:(bits_for n_states t.bs)

let slot t key =
  pack t key t.scratch;
  let o = probe t (home t) in
  if o >= 0 then o
  else if 4 * (t.size + 1) <= 3 * (t.mask + 1) then begin
    write t (-1 - o) 0;
    -1 - o
  end
  else begin
    (* the relayout packs through [scratch]: keep the new key aside *)
    let fresh = Array.copy t.scratch in
    relayout t ~bits:(capacity_bits t + 1) ~bo:t.bo ~bs:t.bs;
    Array.blit fresh 0 t.scratch 0 t.kw;
    place t 0
  end

let meta t o = Array.unsafe_get t.slots o
let set_meta t o m = Array.unsafe_set t.slots o m
let generation t = t.gen
let length t = t.size
let bytes t = Array.length t.slots * (Sys.word_size / 8)
