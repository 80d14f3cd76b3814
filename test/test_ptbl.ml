(* Model-based suite for the flat DFS's packed transposition table
   ([Mc.Ptbl]).  The contract under test (ptbl.mli): [slot] finds the
   entry of exactly the key it is given — inserting it with meta 0 when
   absent — whatever the packing widths and capacity are at the time,
   and every meta written survives any number of relayouts (capacity
   growths and width changes).  The model is a [Hashtbl] over the
   unpacked keys.  The table's size must stay that of a table packed
   narrowest for the current counts: its width headroom lives in words
   a key needs anyway. *)

type model = {
  tbl : Mc.Ptbl.t;
  entries : (int list, int) Hashtbl.t;
  n_objs : int;
  n_procs : int;
  mutable n_values : int;
  mutable n_states : int;
}

let make ~n_objs ~n_procs ~n_values ~n_states =
  {
    tbl = Mc.Ptbl.create ~n_objs ~n_procs ~n_values ~n_states;
    entries = Hashtbl.create 64;
    n_objs;
    n_procs;
    n_values;
    n_states;
  }

let grow m ~n_values ~n_states =
  m.n_values <- max m.n_values n_values;
  m.n_states <- max m.n_states n_states;
  Mc.Ptbl.fit m.tbl ~n_values:m.n_values ~n_states:m.n_states

(* [slot] on [key], checked against the model: the found meta is the
   model's, and an absent key comes back fresh (meta 0). *)
let lookup m key =
  let o = Mc.Ptbl.slot m.tbl key in
  let k = Array.to_list key in
  let expected =
    match Hashtbl.find_opt m.entries k with
    | Some meta -> meta
    | None ->
        Hashtbl.replace m.entries k 0;
        0
  in
  Alcotest.(check int)
    (Printf.sprintf "meta of [%s]" (String.concat ";" (List.map string_of_int k)))
    expected (Mc.Ptbl.meta m.tbl o);
  o

let set m key o meta =
  Mc.Ptbl.set_meta m.tbl o meta;
  Hashtbl.replace m.entries (Array.to_list key) meta

(* A fresh table is packed narrowest for the counts it is created with;
   filled with the same keys it reaches the same capacity, so its bytes
   are what [m.tbl]'s must be. *)
let narrowest_bytes m =
  let t =
    Mc.Ptbl.create ~n_objs:m.n_objs ~n_procs:m.n_procs ~n_values:m.n_values
      ~n_states:m.n_states
  in
  Hashtbl.iter
    (fun k _ -> ignore (Mc.Ptbl.slot t (Array.of_list k) : int))
    m.entries;
  Mc.Ptbl.bytes t

let check_all m =
  Alcotest.(check int) "entries" (Hashtbl.length m.entries) (Mc.Ptbl.length m.tbl);
  Alcotest.(check int) "bytes = narrowest layout's" (narrowest_bytes m)
    (Mc.Ptbl.bytes m.tbl);
  Hashtbl.iter
    (fun k meta ->
      let o = Mc.Ptbl.slot m.tbl (Array.of_list k) in
      Alcotest.(check int) "meta survives relayouts" meta (Mc.Ptbl.meta m.tbl o))
    m.entries;
  Alcotest.(check int) "lookups of present keys insert nothing"
    (Hashtbl.length m.entries) (Mc.Ptbl.length m.tbl)

(* Random ids skewed to the top of the range, so the width boundary
   (id = 2^width - 1 once the count is a power of two) is hit often. *)
let random_key rs m =
  Array.init (m.n_objs + m.n_procs) (fun i ->
      let n = if i < m.n_objs then m.n_values else m.n_states in
      if Random.State.int rs 4 = 0 then n - 1 else Random.State.int rs n)

(* Random inserts, revisits and meta updates, interleaved with id growth
   (widening) and enough distinct keys to force capacity growth.  A meta
   update holds its offset across later operations the way the DFS
   holds it across a subtree, and re-finds the key when the generation
   moved; every entry still pending at the end is finished then.
   Returns how many held offsets a growth, and how many a widening,
   moved. *)
let random_run seed ~n_objs ~n_procs =
  let rs = Random.State.make [| seed |] in
  let m = make ~n_objs ~n_procs ~n_values:1 ~n_states:1 in
  let pending = ref [] in
  let moved_by_growth = ref 0 and moved_by_widening = ref 0 in
  let finish (key, o, gen, wid) =
    let relayouts = Mc.Ptbl.generation m.tbl - gen in
    let widenings = Mc.Ptbl.widenings m.tbl - wid in
    if widenings > 0 then incr moved_by_widening;
    if relayouts > widenings then incr moved_by_growth;
    let o = if relayouts = 0 then o else lookup m key in
    set m key o (Random.State.int rs 1000)
  in
  for step = 1 to 4000 do
    (match Random.State.int rs 20 with
    | 0 ->
        (* id growth, sometimes across several powers of two at once,
           up to the intern table's 2^25 *)
        let up n = min (1 lsl 25) (n + 1 + Random.State.int rs (1 + n)) in
        grow m ~n_values:(up m.n_values) ~n_states:(up m.n_states)
    | 1 | 2 | 3 -> (
        (* revisit a known key *)
        let known = Hashtbl.fold (fun k _ acc -> k :: acc) m.entries [] in
        match known with
        | [] -> ()
        | _ ->
            let k = List.nth known (Random.State.int rs (List.length known)) in
            ignore (lookup m (Array.of_list k) : int))
    | 4 | 5 | 6 -> (
        (* finish a pending entry, as the DFS does after a subtree *)
        match !pending with
        | [] -> ()
        | entry :: rest ->
            pending := rest;
            finish entry)
    | _ ->
        let key = random_key rs m in
        let o = lookup m key in
        pending :=
          (key, o, Mc.Ptbl.generation m.tbl, Mc.Ptbl.widenings m.tbl)
          :: !pending);
    if step mod 500 = 0 then check_all m
  done;
  (* the oldest entries have been held across the most relayouts *)
  List.iter finish !pending;
  check_all m;
  (!moved_by_growth, !moved_by_widening)

let test_random_model () =
  List.iter
    (fun (n_objs, n_procs) ->
      for seed = 1 to 4 do
        let by_growth, by_widening = random_run seed ~n_objs ~n_procs in
        (* both kinds of relayout happened under pending entries *)
        let label =
          Printf.sprintf "%d objs x %d procs, seed %d" n_objs n_procs seed
        in
        Alcotest.(check bool) (label ^ ": a growth moved held offsets") true
          (by_growth > 0);
        Alcotest.(check bool) (label ^ ": a widening moved held offsets") true
          (by_widening > 0)
      done)
    [ (1, 1); (0, 3); (0, 4); (3, 2); (21, 7); (2, 12) ]

(* Widths carry headroom inside the words a key needs anyway.  Two
   objects and three processes: a fresh table is packed narrowest (1 and
   2 bits, one word); its first widening, to 2 and 2 bits, hands the
   spare bits of that word out in turn, 13 bits per state and 12 per
   value (3 x 13 + 2 x 12 = 63).  Ids that grow inside those widths cost
   no relayout; a value id past 2^12 needs 3 x 13 + 2 x 13 = 65 bits, a
   second word, and costs exactly one. *)
let test_fit_headroom () =
  let m = make ~n_objs:2 ~n_procs:3 ~n_values:2 ~n_states:4 in
  let keys =
    [ [| 0; 1; 0; 1; 2 |]; [| 1; 1; 3; 3; 3 |]; [| 1; 0; 3; 2; 1 |] ]
  in
  List.iteri (fun i k -> set m k (lookup m k) (i + 7)) keys;
  let step label ~n_values ~n_states ~relayouts ~words =
    grow m ~n_values ~n_states;
    Alcotest.(check int)
      (label ^ ": relayouts") relayouts (Mc.Ptbl.generation m.tbl);
    Alcotest.(check int)
      (label ^ ": widenings") relayouts (Mc.Ptbl.widenings m.tbl);
    (* 16 slots of [meta; words] *)
    Alcotest.(check int) (label ^ ": bytes") (16 * (1 + words) * 8)
      (Mc.Ptbl.bytes m.tbl);
    check_all m
  in
  step "ids still fit" ~n_values:2 ~n_states:4 ~relayouts:0 ~words:1;
  step "first widening" ~n_values:3 ~n_states:4 ~relayouts:1 ~words:1;
  step "values inside the headroom" ~n_values:(1 lsl 12) ~n_states:4
    ~relayouts:1 ~words:1;
  step "states inside the headroom" ~n_values:(1 lsl 12) ~n_states:(1 lsl 13)
    ~relayouts:1 ~words:1;
  step "a key needs a second word" ~n_values:((1 lsl 12) + 1)
    ~n_states:(1 lsl 13) ~relayouts:2 ~words:2;
  step "states inside the new headroom" ~n_values:((1 lsl 12) + 1)
    ~n_states:((1 lsl 13) + 1) ~relayouts:2 ~words:2

(* Keys that differ in one field only — so in one packed word only, the
   last word included — and keys whose fields sit at the width boundary
   (id = 2^bs - 1, all bits set next to a zero neighbour): a field that
   overlapped its neighbour or the word end would merge some pair. *)
let test_boundary_keys () =
  List.iter
    (fun (n_objs, n_procs, n_values, n_states) ->
      let m = make ~n_objs ~n_procs ~n_values ~n_states in
      let width = n_objs + n_procs in
      let top i = if i < n_objs then n_values - 1 else n_states - 1 in
      let all_top = Array.init width top in
      ignore (lookup m all_top : int);
      ignore (lookup m (Array.make width 0) : int);
      for i = 0 to width - 1 do
        let one_off = Array.copy all_top in
        one_off.(i) <- 0;
        set m one_off (lookup m one_off) (i + 1);
        let one_on = Array.make width 0 in
        one_on.(i) <- top i;
        set m one_on (lookup m one_on) (1000 + i);
        let low = Array.copy all_top in
        low.(i) <- top i - 1;
        ignore (lookup m low : int)
      done;
      check_all m;
      (* the same keys after a widening relayout *)
      grow m ~n_values:(2 * n_values) ~n_states:(2 * n_states);
      check_all m)
    [
      (21, 7, 4, 2048);
      (3, 3, 2, 2);
      (5, 9, 16, 128);
      (0, 6, 1, 1 lsl 20);
      (4, 4, 1 lsl 25, 1 lsl 25);
    ]

let test_bytes () =
  let m = make ~n_objs:3 ~n_procs:3 ~n_values:4 ~n_states:8 in
  let b0 = Mc.Ptbl.bytes m.tbl in
  for i = 0 to 511 do
    ignore
      (lookup m [| i land 3; (i lsr 2) land 3; (i lsr 4) land 3; i lsr 6; 0; 7 |]
        : int)
  done;
  Alcotest.(check bool) "growth is reported" true (Mc.Ptbl.bytes m.tbl > b0);
  check_all m

let suite =
  [
    Alcotest.test_case "random ops = Hashtbl model" `Quick test_random_model;
    Alcotest.test_case "fit relays out only when a key needs another word"
      `Quick test_fit_headroom;
    Alcotest.test_case "one-field and boundary keys stay distinct" `Quick
      test_boundary_keys;
    Alcotest.test_case "bytes track growth" `Quick test_bytes;
  ]
