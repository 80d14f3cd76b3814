(** The flat DFS's transposition table: packed keys stored inline in one
    open-addressing int array.

    A key is a slab slice — [n_objs] object value ids followed by
    [n_procs] state ids (sorted by the caller under [`Symmetric]) — packed
    into as few words as fit: value ids take [bo] bits, state ids [bs]
    bits, and no field straddles a word.  The widths come from the intern
    table's id counts ({!fit}), so they grow with the data; a width change
    re-packs every entry (a {e relayout}, as is a capacity growth).

    A slot is [meta; key words] with meta [-1] marking an empty slot, so a
    lookup touches one region of one array.  Lookups compare every packed
    word; since every id is below [2^width], packing is injective and hash
    equality is never trusted.  Nothing in here is a GC object.

    Meta words are the caller's, non-negative: the flat DFS stores
    [((remaining_depth + 1) lsl 1) lor complete], with [0] for an entry
    inserted but not yet expanded. *)

type t

val create : n_objs:int -> n_procs:int -> n_values:int -> n_states:int -> t
(** An empty table whose widths fit [n_values] value ids and [n_states]
    state ids. *)

val fit : t -> n_values:int -> n_states:int -> unit
(** Widen the layout if value ids below [n_values] or state ids below
    [n_states] no longer fit; O(1) when they do.  Call before every
    {!slot} whose key may hold a newer id. *)

val slot : t -> int array -> int
(** [slot t key] is the offset of [key]'s meta word, inserting the key
    with meta [0] when absent.  [key] has length [n_objs + n_procs] and
    every id in it fits the widths of the last {!fit}.  Offsets stay valid
    until the next relayout ({!generation}). *)

val meta : t -> int -> int
val set_meta : t -> int -> int -> unit

val generation : t -> int
(** Number of relayouts so far (capacity growths plus width changes).
    An offset taken at generation [g] is stale once this moves past
    [g]: re-find the key with {!slot}. *)

val length : t -> int
(** Entries stored. *)

val bytes : t -> int
(** Size of the slot array in bytes. *)
