(** The flat DFS's transposition table: packed keys stored inline in one
    open-addressing int array.

    A key is a slab slice — [n_objs] object value ids followed by
    [n_procs] state ids (sorted by the caller under [`Symmetric]) — packed
    into as few words as fit: value ids take [bo] bits, state ids [bs]
    bits, and no field straddles a word.  The widths come from the intern
    table's id counts ({!fit}), so they grow with the data; a width change
    re-packs every entry (a {e relayout}, as is a capacity growth).  The
    word count per key is always the narrowest layout's for the counts
    seen so far; widths beyond that are headroom inside those words.

    A slot is just the key words: the top bits of word 0 hold [meta + 1],
    wide enough for every meta the [max_depth] given to {!create} allows,
    and word 0 = 0 marks an empty slot.  A lookup touches one region of
    one array and compares every packed word (word 0 without its meta
    bits); since every id is below [2^width], packing is injective and
    hash equality is never trusted.  Nothing in here is a GC object.

    The caller keeps its current key packed in the table's {e key
    register}: it {!load}s it once, tracks every id it writes with
    {!flip}, and loads it again when {!fit} widens.  A lookup copies the
    register, so it costs [kw] words rather than a pack of every field.

    Metas are the caller's, in [0, 2 * max_depth + 3]: the flat DFS
    stores [((remaining_depth + 1) lsl 1) lor complete], with [0] for an
    entry inserted but not yet expanded. *)

type t

val create :
  n_objs:int -> n_procs:int -> n_values:int -> n_states:int -> max_depth:int -> t
(** An empty table whose widths fit [n_values] value ids and [n_states]
    state ids, and whose meta field fits every meta up to
    [2 * max_depth + 3].  Raises [Invalid_argument] unless
    [0 <= max_depth < 2^36]. *)

val fit : t -> n_values:int -> n_states:int -> bool
(** Widen the layout if value ids below [n_values] or state ids below
    [n_states] no longer fit, and tell whether it did; O(1) when they
    fit.  Call before every {!slot} whose key may hold a newer id; after
    [true], {!load} the key register again.

    A widening takes the narrowest layout for the counts, so a key uses
    no more words than it must, then hands the spare bits of those words
    to the state and value widths in turn, up to the 2{^25} id cap.  A
    fresh table is laid out the same way for the counts given to
    {!create}.  Ids that grow inside the headroom cost nothing; a
    widening comes when a key needs another word, or when one kind of
    id outgrows the bits it was handed while the word count still
    holds. *)

val load : t -> int array -> unit
(** [load t key] packs [key] (length [n_objs + n_procs], every id within
    the widths of the last {!fit}) into the key register.  A caller that
    passes state ids to {!slot} loads its state fields as [0]. *)

val flip : t -> int -> int -> unit
(** [flip t i d] XORs [d] into field [i] of the key register: a caller
    writing id [x'] over [x] in field [i] calls [flip t i (x lxor x')],
    and the same to undo it.  Packing is linear over XOR, so the register
    is exact whenever every id fits, even if one overflowed its field in
    between. *)

val slot : t -> int array -> int
(** [slot t states] is the offset of the entry whose key is the register
    with the state ids [states] in its first [Array.length states] state
    fields (loaded as [0]), inserting the key with meta [0] when absent.
    Pass [[||]] when the register holds the whole key.  Offsets stay
    valid until the next relayout ({!generation}). *)

val meta : t -> int -> int

val set_meta : t -> int -> int -> unit
(** Raises [Invalid_argument] for a meta outside [0, 2 * max_depth + 3]. *)

val generation : t -> int
(** Number of relayouts so far (capacity growths plus width changes).
    An offset taken at generation [g] is stale once this moves past
    [g]: re-find the key with {!slot}. *)

val widenings : t -> int
(** Width changes so far: the relayouts {!fit} made, a subset of
    {!generation}'s. *)

val length : t -> int
(** Entries stored. *)

val bytes : t -> int
(** Size of the slot array in bytes. *)
