(* SplitMix64: a small, fast, splittable pseudorandom generator implemented
   in-repo so every measurement in the experiment harness is reproducible
   from a seed, independent of the OCaml stdlib Random implementation. *)

type t = { mutable state : int64 }

let create seed = { state = Int64.of_int seed }
let copy t = { state = t.state }

let golden = 0x9E3779B97F4A7C15L

(* the output function: draw k of a generator created with state s is
   [mix (s + k * golden)], so the stream is counter-based *)
let[@inline] mix z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let next_int64 t =
  t.state <- Int64.add t.state golden;
  mix t.state

(** Uniform integer in [0, bound). *)
let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  let mask = Int64.shift_right_logical (next_int64 t) 1 in
  Int64.to_int (Int64.rem mask (Int64.of_int bound))

let bool t = Int64.logand (next_int64 t) 1L = 1L

let float t =
  (* 53 random bits scaled to [0,1). *)
  let bits = Int64.shift_right_logical (next_int64 t) 11 in
  Int64.to_float bits /. 9007199254740992.0

(** Derive an independent generator; used to give each process / repetition
    its own stream. *)
let split t = create (Int64.to_int (next_int64 t))

(** [nth_split t k] is the generator the [(k+1)]-th consecutive [split]
    of [t] would return, computed from [t]'s state without advancing it:
    that split draws [mix (state + (k+1) * golden)]. *)
let nth_split t k =
  if k < 0 then invalid_arg "Rng.nth_split: negative index";
  create
    (Int64.to_int
       (mix (Int64.add t.state (Int64.mul (Int64.of_int (k + 1)) golden))))

(** [split_n t n] derives [n] independent generators by splitting [t]
    sequentially.  The derivation consumes exactly [n] draws of [t], so the
    result depends only on [t]'s state and [n] — this is the deterministic
    per-task seeding used by [Par]: generator [i] is the same no matter how
    many domains later consume it or in which order tasks are scheduled. *)
let split_n t n =
  if n < 0 then invalid_arg "Rng.split_n: negative count";
  Array.init n (fun _ -> split t)

(** Fisher–Yates shuffle of an array, in place. *)
let shuffle t arr =
  for i = Array.length arr - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- tmp
  done
