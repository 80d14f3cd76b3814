(* Randomized n-process consensus from O(n) read-write registers — the
   upper bound the paper quotes ("randomized n-process consensus can be
   solved using O(n) read-write registers", Aspnes–Herlihy [9]).

   We implement the Aspnes–Herlihy round framework in its modern
   adopt-commit formulation (Gafni's adopt-commit objects; see Aspnes's
   survey of randomized consensus): per round, processes run an
   adopt-commit protocol on their current preference; a COMMIT decides, an
   ADOPT forces the adopted value into the next round, and a process that
   saw no possible commit takes the round's shared coin as its new
   preference.  Safety is coin-independent (argued below).

   Register layout (3n single-writer registers — O(n) total, reused across
   rounds via round tags rather than allocated per round):

     A[i] = 0..n-1    : phase-1 announcements, Pair (round, value)
     B[i] = n..2n-1   : phase-2 announcements, Pair (round, Pair (value, flag))
     C[i] = 2n..3n-1  : shared-coin accumulators ({!Shared_coin})

   Adopt-commit per round r, process i with preference v:
     1. A[i] := (r, v); collect the A-entries tagged r.
     2. flag := (no A-entry is tagged later than r, and every collected
        value equals v); B[i] := (r, (v, flag)); collect the B-entries
        tagged r.
     3. If no B-entry is tagged later than r and every collected entry is
        flagged: COMMIT w (their common value).  Else if some entry is
        flagged with w: ADOPT w.  Else: take the round's coin.

   Safety.  A register can be overwritten by its owner's next round while
   a slower process is still collecting round r, so an entry tagged later
   than r counts as disagreement: it clears the phase-1 flag and forbids
   the commit.  Three facts follow, for every round r.

   (a) At most one value is flagged in round r.  Order two flaggers p, q
       by their A-writes, p first: q's collect reads A[p] after p wrote
       it, and finds either p's round-r value (q flags only if it is the
       same) or a later tag (q does not flag).

   (b) If p commits w in round r, every process that finishes round r
       leaves it carrying w.  p has decided, so B[p] = (r, (w, true)) is
       never overwritten.  Take q finishing round r.  If p read B[q]
       before q's round-r B-write, q's collect comes after p's B-write
       and finds p's flagged w.  Otherwise p's read found q's round-r
       entry or a later one; a later one would have forbidden the
       commit, so q's own entry is flagged, with w by (a).  Either way q sees a flagged
       w, the only flagged value by (a), so q commits or adopts w and
       never takes the coin.

   (c) A round s that every process enters carrying w is left only by
       committing w.  Otherwise let x be the first process to write a
       tag later than s.  Before that write no later tag exists, so
       x's A-collect found only w and x flagged.  x did not commit, so
       its B-collect found an unflagged round-s entry of some y; y's
       A-collect came earlier still, saw only w and no later tag, and y
       flagged: a contradiction.

   So if r is the first round with a commit, every commit in round r is
   of one value w (a), every process entering round r + 1 carries w (b),
   and each of them commits w there (c).  Validity: with unanimous
   inputs round 1 is such a round (c); with mixed binary inputs either
   value is valid. *)

open Sim
open Objects

let code ~n ~pid ~input =
  let open Proc in
  let reg_a i = i and reg_b i = n + i in
  (* one bank's round-r entries, decoded, and whether any entry is
     tagged with a later round *)
  let collect reg r decode =
    let rec go j acc later =
      if j >= n then return (List.rev acc, later)
      else
        let* v = apply (reg j) Register.read in
        match v with
        | Value.Pair (Value.Int r', x) when r' = r ->
            go (j + 1) (decode x :: acc) later
        | Value.Pair (Value.Int r', _) when r' > r -> go (j + 1) acc true
        | _ -> go (j + 1) acc later
    in
    go 0 [] false
  in
  let decode_b x =
    let value, flag = Value.to_pair x in
    (Value.to_int value, Value.to_bool flag)
  in
  let rec round_loop pref r =
    (* phase 1: announce preference *)
    let* _ =
      apply (reg_a pid)
        (Register.write (Value.pair (Value.int r) (Value.int pref)))
    in
    let* avals, a_later = collect reg_a r Value.to_int in
    let flag = (not a_later) && List.for_all (( = ) pref) avals in
    (* phase 2: announce whether we saw unanimity *)
    let* _ =
      apply (reg_b pid)
        (Register.write
           (Value.pair (Value.int r)
              (Value.pair (Value.int pref) (Value.bool flag))))
    in
    let* bvals, b_later = collect reg_b r decode_b in
    let flagged = List.filter_map (fun (v, f) -> if f then Some v else None) bvals in
    match flagged with
    | w :: _ when (not b_later) && List.for_all snd bvals -> decide w (* commit *)
    | w :: _ -> round_loop w (r + 1) (* adopt *)
    | [] ->
        let* c = Shared_coin.register_coin ~n ~base:(2 * n) ~pid ~round:r in
        round_loop c (r + 1)
  in
  round_loop input 1

let protocol : Protocol.t =
  {
    name = "rw-3n";
    kind = `Randomized;
    identical = false;
    supports_n = (fun n -> n >= 1);
    optypes = (fun ~n -> List.init (3 * n) (fun _ -> Register.optype ()));
    code;
  }
