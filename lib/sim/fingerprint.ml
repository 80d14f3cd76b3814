(* Incremental state fingerprints for deterministic step machines.

   A ['a Proc.t] is a closure and cannot be hashed — but it never needs to
   be: a process is a *deterministic* step machine, so its state is fully
   determined by (initial protocol term, sequence of inputs consumed),
   where an input is either the response of a shared-memory operation
   ([Apply]) or the outcome of an internal coin flip ([Choose]).  Hashing
   the consumed-input history therefore hashes the state, and the hash can
   be maintained incrementally in O(1) per step: [h' = mix h input].

   Whether the next consumed input is a response or a coin outcome is
   itself determined by the current state (the step machine is at an
   [Apply] or at a [Choose], never a choice of the environment), so
   responses and outcomes need no distinguishing tag: equal histories from
   equal initial terms replay to equal states, kind by kind.

   The mixer is SplitMix64's finalizer — the same mixing already used by
   [Rng] — carried out directly on OCaml's native 63-bit immediate [int]
   (the 64-bit constants truncated to 63 bits): multiply-xorshift
   avalanches just as well over Z/2^63, and unlike an [Int64] pipeline it
   never boxes, which matters because [mix] sits on the hot path of every
   simulator step and every hash-table probe of the interned engine.
   Collisions are the usual transposition-table caveat: two *different*
   histories may (with probability ~2^-63 per pair) receive equal
   fingerprints; see DESIGN.md for the soundness discussion. *)

type t = int

(* 0x9E3779B97F4A7C15 mod 2^63 *)
let golden = 0x1E3779B97F4A7C15

(* SplitMix64 finalizer over the combination of [h] and [v], mod 2^63. *)
let mix (h : t) (v : int) : t =
  let z = h + ((v + 1) * golden) in
  let z = (z lxor (z lsr 30)) * 0x3F58476D1CE4E5B9 in
  let z = (z lxor (z lsr 27)) * 0x14D049BB133111EB in
  z lxor (z lsr 31)

(** Fingerprint base of a process that has consumed nothing yet.
    [Config.make] mixes each slot's root class into it (the first slot
    holding the same process value), so processes whose initial terms
    differ start from different fingerprints. *)
let initial : t = 0x243F6A8885A308D3 (* pi, as arbitrary as it looks *)

(* Structural 63-bit hash of a [Value.t]; constructor-tagged so values of
   different shapes never collide trivially. *)
let rec value_hash (v : Value.t) : int =
  match v with
  | Value.Unit -> mix 1 0
  | Value.Bool b -> mix 2 (Bool.to_int b)
  | Value.Int i -> mix 3 i
  | Value.Sym s ->
      let h = ref (mix 4 (String.length s)) in
      String.iter (fun c -> h := mix !h (Char.code c)) s;
      !h
  | Value.Pair (a, b) -> mix (mix 5 (value_hash a)) (value_hash b)
  | Value.Opt None -> mix 6 0
  | Value.Opt (Some x) -> mix 7 (value_hash x)
  | Value.List vs -> List.fold_left (fun h x -> mix h (value_hash x)) (mix 8 0) vs
