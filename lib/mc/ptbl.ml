(* Packed inline transposition table (see the interface for the contract).

   Layout: [slots] holds [cap] slots of [stride = kw] ints each, the
   packed key words [word_0 .. word_{kw-1}].  The top [mb] bits of
   [word_0] hold [meta + 1], so an occupied slot's word 0 is never 0 and
   word 0 = 0 marks an empty slot; [mb] is fixed at [create] from the
   search's [max_depth].  Key field [i] lives in word [fword.(i)] at bit
   [fshift.(i)]: objects take [bo] bits each, states [bs] bits each, no
   field crosses bit 63 and word 0's fields stay below its meta bits
   ([fmask]).  Linear probing from a hash of the packed words (word 0's
   meta bits masked out), load kept at most 3/4.

   The key register [key] holds the caller's current key packed with the
   current layout.  The caller keeps it up to date by XOR ({!flip}) as
   it writes ids, and re-loads it ({!load}) after a widening; a probe
   copies it to [scratch], ORs in the caller's extra state ids, hashes
   and probes.

   A relayout builds a fresh slot array and re-inserts every entry.  A
   capacity doubling keeps the layout: it rehashes the packed words and
   copies each entry to the first empty slot from its new home.  A
   widening unpacks every entry with the old layout and re-packs it with
   the new one, meta bits carried over.  Stored keys are distinct, so
   neither compares keys.

   Widths with headroom: {!create} and every widening compute the
   narrowest layout for the current counts ([nbo]/[nbs], what every id
   needs), take its word count [kw], then hand the spare bits of those
   [kw] words to [bs] and [bo] in turn.  The word count, so the stride and the table's bytes,
   is the narrowest layout's at every moment (the greedy word count only
   grows with either width), and the next widening waits until an id
   outgrows the headroom.

   Int copies are [unsafe_get]/[unsafe_set] loops: [Array.blit] cannot
   tell an [int array] from a boxed one, so on a major-heap array it
   runs the write barrier ([caml_modify]) once per word. *)

type t = {
  n_objs : int;
  width : int;  (** fields per key: [n_objs + n_procs] *)
  max_meta : int;  (** largest meta a caller may store *)
  mshift : int;  (** [63 - mb]: bit offset of word 0's meta field *)
  fmask : int;  (** word 0's field bits: [(1 lsl mshift) - 1] *)
  mutable nbo : int;  (** narrowest bits per object value id *)
  mutable nbs : int;  (** narrowest bits per state id *)
  mutable bo : int;  (** bits per object value id: [nbo] plus headroom *)
  mutable bs : int;  (** bits per state id: [nbs] plus headroom *)
  mutable fword : int array;  (** word of each field *)
  mutable fshift : int array;  (** bit offset of each field *)
  mutable kw : int;  (** packed words per key, the slot stride *)
  mutable slots : int array;
  mutable mask : int;  (** capacity - 1 *)
  mutable shift : int;  (** 63 - log2 capacity *)
  mutable size : int;
  mutable gen : int;  (** relayouts so far *)
  mutable widenings : int;  (** of which width changes *)
  mutable key : int array;  (** the key register, [kw] words *)
  mutable scratch : int array;  (** the packed probe key, [kw] words *)
}

let fib = 0x1E3779B97F4A7C15
(* 16 slots: most synthesis checks are searches of a few nodes, and a
   table that starts big costs them more than the search itself *)
let initial_bits = 4

(* [Intern] ids stay below 2^25, so no field needs more bits *)
let max_bits = 25

(* smallest [b >= 1] with [n <= 2^b]: ids [0 .. n-1] fit in [b] bits *)
let rec bits_for n b = if n <= 1 lsl b then b else bits_for n (b + 1)

let copy_words (src : int array) s (dst : int array) d n =
  for i = 0 to n - 1 do
    Array.unsafe_set dst (d + i) (Array.unsafe_get src (s + i))
  done

(* Greedy word filling: each word takes as many state fields as fit,
   then as many object fields as fit in what is left; word 0 has
   [mshift] bits, the others 63.  Returns the word count, recording each
   field's word and bit offset when [record]. *)
let fill t ~bo ~bs ~record =
  let next_state = ref t.n_objs and next_obj = ref 0 and w = ref 0 in
  while !next_state < t.width || !next_obj < t.n_objs do
    let room = if !w = 0 then t.mshift else 63 in
    let s = ref 0 in
    while !next_state < t.width && !s + bs <= room do
      if record then begin
        t.fword.(!next_state) <- !w;
        t.fshift.(!next_state) <- !s
      end;
      s := !s + bs;
      incr next_state
    done;
    while !next_obj < t.n_objs && !s + bo <= room do
      if record then begin
        t.fword.(!next_obj) <- !w;
        t.fshift.(!next_obj) <- !s
      end;
      s := !s + bo;
      incr next_obj
    done;
    incr w
  done;
  max 1 !w

let set_layout t ~bo ~bs =
  t.fword <- Array.make t.width 0;
  t.fshift <- Array.make t.width 0;
  let kw = fill t ~bo ~bs ~record:true in
  t.bo <- bo;
  t.bs <- bs;
  t.kw <- kw;
  t.key <- Array.make kw 0;
  t.scratch <- Array.make kw 0

let set_capacity t bits =
  t.slots <- Array.make ((1 lsl bits) * t.kw) 0;
  t.mask <- (1 lsl bits) - 1;
  t.shift <- 63 - bits

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

let load t key = pack t key t.key

(* packing is linear over XOR, so flipping [old lxor new] tracks a write
   even while an id overflows its field: the register is exact again
   once every id fits *)
let flip t i d =
  let w = Array.unsafe_get t.fword i in
  Array.unsafe_set t.key w
    (Array.unsafe_get t.key w lxor (d lsl Array.unsafe_get t.fshift i))

(* toplevel recursions: local [let rec]s would allocate closures on every
   lookup *)
let rec hash_words (w : int array) i stop h =
  if i = stop then h
  else hash_words w (i + 1) stop ((h lxor Array.unsafe_get w i) * fib)

(* the home slot index of the [kw] packed words at [w.(i ..)], word 0's
   meta bits left out *)
let home_of t (w : int array) i =
  let h =
    hash_words w (i + 1) (i + t.kw)
      ((t.kw lxor (Array.unsafe_get w i land t.fmask)) * fib)
  in
  ((h lxor (h lsr 31)) * fib) lsr t.shift

let rec eq_words slots o (key : int array) i =
  i = 0
  || Array.unsafe_get slots (o + i) = Array.unsafe_get key i
     && eq_words slots o key (i - 1)

(* the scratch key's offset, or [-1 - o] for the empty slot [o] that ends
   its probe run *)
let rec probe t i =
  let o = i * t.kw in
  let w0 = Array.unsafe_get t.slots o in
  if w0 = 0 then -1 - o
  else if
    w0 land t.fmask = Array.unsafe_get t.scratch 0
    && eq_words t.slots o t.scratch (t.kw - 1)
  then o
  else probe t ((i + 1) land t.mask)

(* the first empty slot's offset from slot index [i]: where a key known
   to be absent goes *)
let rec free t i =
  let o = i * t.kw in
  if Array.unsafe_get t.slots o = 0 then o else free t ((i + 1) land t.mask)

(* store the scratch key at the empty slot [o] with word 0's meta bits
   [mbits] *)
let write t o mbits =
  copy_words t.scratch 0 t.slots o t.kw;
  Array.unsafe_set t.slots o (Array.unsafe_get t.scratch 0 lor mbits);
  t.size <- t.size + 1

let capacity_bits t = 63 - t.shift

(* capacity doubling: same layout, so each entry's packed words, meta
   included, are rehashed and copied as they are *)
let grow t =
  let old = t.slots and kw = t.kw in
  set_capacity t (capacity_bits t + 1);
  t.gen <- t.gen + 1;
  for i = 0 to (Array.length old / kw) - 1 do
    let base = i * kw in
    if Array.unsafe_get old base <> 0 then
      copy_words old base t.slots (free t (home_of t old base)) kw
  done

(* the largest [k] in [lo .. hi] with [ok k], for [ok lo] true and [ok]
   monotone *)
let rec largest ok lo hi =
  if lo >= hi then lo
  else
    let mid = (lo + hi + 1) / 2 in
    if ok mid then largest ok mid hi else largest ok lo (mid - 1)

(* The narrowest widths [nbo]/[nbs] set the word count; the spare bits
   of those words go to [bs] and [bo] in turn while the count holds.
   The word count only grows with either width, so handing them out one
   at a time ends the same as: both widths up by as many bits as keep
   the count, then [bs] alone, or else [bo] alone, up by as many more.
   Bisection finds each run in a few word counts, and a one-word key
   fits exactly when its bits sum to at most word 0's, which keeps the
   headroom cheap for the thousands of tiny searches of synthesis. *)
let with_headroom t =
  let kw = fill t ~bo:t.nbo ~bs:t.nbs ~record:false in
  let n_procs = t.width - t.n_objs in
  let fits bo bs =
    if kw = 1 then (n_procs * bs) + (t.n_objs * bo) <= t.mshift
    else fill t ~bo ~bs ~record:false = kw
  in
  let nbo = t.nbo and nbs = t.nbs in
  let r =
    largest (fun r -> fits (nbo + r) (nbs + r)) 0 (max_bits - max nbo nbs)
  in
  let bo = nbo + r and bs = nbs + r in
  let more_bs = largest (fun s -> fits bo (bs + s)) 0 (max_bits - bs) in
  if more_bs > 0 then set_layout t ~bo ~bs:(bs + more_bs)
  else
    let more_bo = largest (fun s -> fits (bo + s) bs) 0 (max_bits - bo) in
    set_layout t ~bo:(bo + more_bo) ~bs

let create ~n_objs ~n_procs ~n_values ~n_states ~max_depth =
  (* below 2^36, stored [meta + 1] (in [1, max_meta + 1]) takes at most
     38 bits, so word 0 keeps room for a field of the widest kind *)
  if max_depth < 0 || max_depth >= 1 lsl 36 then
    invalid_arg "Ptbl.create: max_depth out of range";
  (* the flat DFS's metas: [((remaining_depth + 1) lsl 1) lor complete]
     with a remaining depth of at most [max_depth] *)
  let max_meta = (2 * max_depth) + 3 in
  let mshift = 63 - bits_for (max_meta + 2) 1 in
  let t =
    {
      n_objs;
      width = n_objs + n_procs;
      max_meta;
      mshift;
      fmask = (1 lsl mshift) - 1;
      nbo = bits_for n_values 1;
      nbs = bits_for n_states 1;
      bo = 0;
      bs = 0;
      fword = [||];
      fshift = [||];
      kw = 0;
      slots = [||];
      mask = 0;
      shift = 0;
      size = 0;
      gen = 0;
      widenings = 0;
      key = [||];
      scratch = [||];
    }
  in
  (* with headroom from the start: a search's first new ids would
     otherwise widen a narrowest layout at once, and a widening
     re-packs every entry *)
  with_headroom t;
  set_capacity t initial_bits;
  t

(* width change: every entry is unpacked with the old layout and
   re-packed with the new one, at the same capacity; the meta field
   does not move *)
let widen t ~n_values ~n_states =
  let old = t.slots and okw = t.kw in
  let ofword = t.fword and ofshift = t.fshift and obo = t.bo and obs = t.bs in
  t.nbo <- bits_for n_values t.nbo;
  t.nbs <- bits_for n_states t.nbs;
  with_headroom t;
  set_capacity t (capacity_bits t);
  t.size <- 0;
  t.gen <- t.gen + 1;
  t.widenings <- t.widenings + 1;
  let key = Array.make t.width 0 in
  let mbits = lnot t.fmask in
  for slot = 0 to (Array.length old / okw) - 1 do
    let base = slot * okw in
    let w0 = old.(base) in
    if w0 <> 0 then begin
      (* a field mask never reaches word 0's meta bits *)
      for i = 0 to t.width - 1 do
        let b = if i < t.n_objs then obo else obs in
        key.(i) <-
          (old.(base + ofword.(i)) lsr ofshift.(i)) land ((1 lsl b) - 1)
      done;
      pack t key t.scratch;
      write t (free t (home_of t t.scratch 0)) (w0 land mbits)
    end
  done

let fit t ~n_values ~n_states =
  if n_values > 1 lsl t.bo || n_states > 1 lsl t.bs then begin
    widen t ~n_values ~n_states;
    true
  end
  else false

let slot t (states : int array) =
  copy_words t.key 0 t.scratch 0 t.kw;
  for k = 0 to Array.length states - 1 do
    let i = t.n_objs + k in
    let w = Array.unsafe_get t.fword i in
    Array.unsafe_set t.scratch w
      (Array.unsafe_get t.scratch w
      lor (Array.unsafe_get states k lsl Array.unsafe_get t.fshift i))
  done;
  let o = probe t (home_of t t.scratch 0) in
  let fresh = 1 lsl t.mshift in
  if o >= 0 then o
  else if 4 * (t.size + 1) <= 3 * (t.mask + 1) then begin
    write t (-1 - o) fresh;
    -1 - o
  end
  else begin
    (* growth leaves [scratch], the absent key, alone *)
    grow t;
    let o = free t (home_of t t.scratch 0) in
    write t o fresh;
    o
  end

let meta t o = (Array.unsafe_get t.slots o lsr t.mshift) - 1

let set_meta t o m =
  if m < 0 || m > t.max_meta then invalid_arg "Ptbl.set_meta: meta out of range";
  Array.unsafe_set t.slots o
    (Array.unsafe_get t.slots o land t.fmask lor ((m + 1) lsl t.mshift))

let generation t = t.gen
let widenings t = t.widenings
let length t = t.size
let bytes t = Array.length t.slots * (Sys.word_size / 8)
