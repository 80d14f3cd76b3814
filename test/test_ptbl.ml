(* Model-based suite for the flat DFS's packed transposition table
   ([Mc.Ptbl]).  The contract under test (ptbl.mli): [slot] finds the
   entry of exactly the key the register holds (with the state ids it
   is given ORed in) — inserting it with meta 0 when absent — whatever
   the packing widths and capacity are at the time, and every meta
   written, up to the bound [create]'s [max_depth] sets, survives any
   number of relayouts (capacity growths and width changes).  The model
   is a [Hashtbl] over the unpacked keys.  The table's size must stay
   that of a table packed narrowest for the current counts: its width
   headroom lives in words a key needs anyway. *)

type model = {
  tbl : Mc.Ptbl.t;
  entries : (int list, int) Hashtbl.t;
  n_objs : int;
  n_procs : int;
  max_depth : int;
  mutable n_values : int;
  mutable n_states : int;
  mutable cur : int array option;
      (** the key the register holds, [None] after a widening *)
  rs : Random.State.t;
}

(* what the flat DFS stores: [((remaining_depth + 1) lsl 1) lor complete] *)
let max_meta max_depth = (2 * max_depth) + 3

let make ?(max_depth = 12) ?(seed = 0) ~n_objs ~n_procs ~n_values ~n_states ()
    =
  {
    tbl = Mc.Ptbl.create ~n_objs ~n_procs ~n_values ~n_states ~max_depth;
    entries = Hashtbl.create 64;
    n_objs;
    n_procs;
    max_depth;
    n_values;
    n_states;
    cur = None;
    rs = Random.State.make [| seed |];
  }

let grow m ~n_values ~n_states =
  m.n_values <- max m.n_values n_values;
  m.n_states <- max m.n_states n_states;
  if Mc.Ptbl.fit m.tbl ~n_values:m.n_values ~n_states:m.n_states then
    m.cur <- None

(* Put [key] into the register and find its entry, one of three ways:
   load it whole; load it with the state fields 0 and pass the state ids
   to [slot] (the [`Symmetric] DFS); or flip every field that differs
   from the key the register holds, through an id too wide for its field
   half the time (the [`Exact] DFS between two probes). *)
let find m (key : int array) =
  let whole () =
    Mc.Ptbl.load m.tbl key;
    m.cur <- Some (Array.copy key);
    Mc.Ptbl.slot m.tbl [||]
  in
  match (Random.State.int m.rs 3, m.cur) with
  | 1, _ ->
      let objs = Array.mapi (fun i v -> if i < m.n_objs then v else 0) key in
      Mc.Ptbl.load m.tbl objs;
      m.cur <- Some objs;
      Mc.Ptbl.slot m.tbl (Array.sub key m.n_objs m.n_procs)
  | 2, Some cur ->
      Array.iteri
        (fun i v ->
          if v <> cur.(i) then
            if Random.State.bool m.rs then Mc.Ptbl.flip m.tbl i (cur.(i) lxor v)
            else begin
              let wide = (1 lsl 40) lor Random.State.bits m.rs in
              Mc.Ptbl.flip m.tbl i (cur.(i) lxor wide);
              Mc.Ptbl.flip m.tbl i (wide lxor v)
            end)
        key;
      m.cur <- Some (Array.copy key);
      Mc.Ptbl.slot m.tbl [||]
  | _ -> whole ()

(* [find] on [key], checked against the model: the found meta is the
   model's, and an absent key comes back fresh (meta 0). *)
let lookup m key =
  let o = find m key in
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

(* A fresh table takes the narrowest word count for the counts it is
   created with; filled with the same keys it reaches the same capacity,
   so its bytes are what [m.tbl]'s must be. *)
let narrowest_bytes m =
  let t =
    Mc.Ptbl.create ~n_objs:m.n_objs ~n_procs:m.n_procs ~n_values:m.n_values
      ~n_states:m.n_states ~max_depth:m.max_depth
  in
  Hashtbl.iter
    (fun k _ ->
      Mc.Ptbl.load t (Array.of_list k);
      ignore (Mc.Ptbl.slot t [||] : int))
    m.entries;
  Mc.Ptbl.bytes t

let check_all m =
  Alcotest.(check int) "entries" (Hashtbl.length m.entries) (Mc.Ptbl.length m.tbl);
  Alcotest.(check int) "bytes = narrowest layout's" (narrowest_bytes m)
    (Mc.Ptbl.bytes m.tbl);
  Hashtbl.iter
    (fun k meta ->
      let o = find m (Array.of_list k) in
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
   moved; every entry still pending at the end is finished then.  A
   quarter of the metas written are the largest [max_depth] allows.
   Returns how many held offsets a growth, and how many a widening,
   moved. *)
let random_run seed ~n_objs ~n_procs =
  let rs = Random.State.make [| seed |] in
  let max_depth = Random.State.int rs 40 in
  let m = make ~max_depth ~seed ~n_objs ~n_procs ~n_values:1 ~n_states:1 () in
  let pending = ref [] in
  let moved_by_growth = ref 0 and moved_by_widening = ref 0 in
  let finish (key, o, gen, wid) =
    let relayouts = Mc.Ptbl.generation m.tbl - gen in
    let widenings = Mc.Ptbl.widenings m.tbl - wid in
    if widenings > 0 then incr moved_by_widening;
    if relayouts > widenings then incr moved_by_growth;
    let o = if relayouts = 0 then o else lookup m key in
    let top = max_meta max_depth in
    set m key o
      (if Random.State.int rs 4 = 0 then top else Random.State.int rs (top + 1))
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
        (* two fields get the 2^25 id cap's 25 bits each from the start
           (50 bits beside any meta field), so only a wider key widens *)
        Alcotest.(check bool) (label ^ ": a widening moved held offsets")
          (n_objs + n_procs > 2)
          (by_widening > 0)
      done)
    [ (1, 1); (0, 3); (0, 4); (3, 2); (21, 7); (2, 12) ]

(* Widths carry headroom inside the words a key needs anyway.  Two
   objects and three processes, [max_depth] 12: metas up to 27, so the
   meta field takes 5 bits of word 0 and leaves 58.  A fresh table for
   2 values and 4 states (1 and 2 bits, one word) hands the spare bits
   of that word out in turn, 12 bits per state and 11 per value
   (3 x 12 + 2 x 11 = 58).  Ids that grow inside those widths cost no
   relayout; a value id past 2^11 needs 3 x 12 + 2 x 12 = 60 bits, a
   second word, and costs exactly one. *)
let test_fit_headroom () =
  let m = make ~n_objs:2 ~n_procs:3 ~n_values:2 ~n_states:4 () in
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
    (* 16 slots of [words], the meta inside word 0 *)
    Alcotest.(check int) (label ^ ": bytes") (16 * words * 8)
      (Mc.Ptbl.bytes m.tbl);
    check_all m
  in
  step "ids still fit" ~n_values:2 ~n_states:4 ~relayouts:0 ~words:1;
  step "a new value id inside the headroom" ~n_values:3 ~n_states:4
    ~relayouts:0 ~words:1;
  step "values inside the headroom" ~n_values:(1 lsl 11) ~n_states:4
    ~relayouts:0 ~words:1;
  step "states inside the headroom" ~n_values:(1 lsl 11) ~n_states:(1 lsl 12)
    ~relayouts:0 ~words:1;
  step "a key needs a second word" ~n_values:((1 lsl 11) + 1)
    ~n_states:(1 lsl 12) ~relayouts:1 ~words:2;
  step "states inside the new headroom" ~n_values:((1 lsl 11) + 1)
    ~n_states:((1 lsl 12) + 1) ~relayouts:1 ~words:2

(* Keys that differ in one field only — so in one packed word only, the
   last word included — and keys whose fields sit at the width boundary
   (id = 2^bs - 1, all bits set next to a zero neighbour): a field that
   overlapped its neighbour, the word end or word 0's meta field would
   merge some pair or corrupt some meta.  The fifth shape's narrowest
   key fills word 0 exactly up to the meta field (2 x 25 + 8 = 58 =
   63 - 5 at [max_depth] 12). *)
let test_boundary_keys () =
  List.iter
    (fun (n_objs, n_procs, n_values, n_states) ->
      let m = make ~n_objs ~n_procs ~n_values ~n_states () in
      let top_meta = max_meta m.max_depth in
      let width = n_objs + n_procs in
      let top i = if i < n_objs then n_values - 1 else n_states - 1 in
      let all_top = Array.init width top in
      set m all_top (lookup m all_top) top_meta;
      ignore (lookup m (Array.make width 0) : int);
      for i = 0 to width - 1 do
        let one_off = Array.copy all_top in
        one_off.(i) <- 0;
        set m one_off (lookup m one_off) ((i + 1) mod top_meta);
        let one_on = Array.make width 0 in
        one_on.(i) <- top i;
        set m one_on (lookup m one_on) (if i = 0 then top_meta else i mod top_meta);
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
      (1, 2, 256, 1 lsl 25);
      (4, 4, 1 lsl 25, 1 lsl 25);
    ]

let test_bytes () =
  let m = make ~n_objs:3 ~n_procs:3 ~n_values:4 ~n_states:8 () in
  let b0 = Mc.Ptbl.bytes m.tbl in
  for i = 0 to 511 do
    ignore
      (lookup m [| i land 3; (i lsr 2) land 3; (i lsr 4) land 3; i lsr 6; 0; 7 |]
        : int)
  done;
  Alcotest.(check bool) "growth is reported" true (Mc.Ptbl.bytes m.tbl > b0);
  check_all m

(* The meta field is as wide as [max_depth] needs, and no wider: one
   object of 256 values and two states of 2^25 take 58 bits, which fit
   in word 0 beside metas up to 2 x 13 + 3 = 29 (5 bits for [meta + 1]
   up to 30) but not beside metas up to 31 (6 bits for 32). *)
let test_meta_width () =
  let bytes max_depth =
    let m =
      make ~max_depth ~n_objs:1 ~n_procs:2 ~n_values:256 ~n_states:(1 lsl 25) ()
    in
    let key = [| 255; (1 lsl 25) - 1; (1 lsl 25) - 1 |] in
    set m key (lookup m key) (max_meta max_depth);
    check_all m;
    Mc.Ptbl.bytes m.tbl
  in
  Alcotest.(check int) "max_depth 13: one word" (16 * 8) (bytes 13);
  Alcotest.(check int) "max_depth 14: two words" (16 * 2 * 8) (bytes 14);
  (* the bound on [max_depth] every mc search honours: 22 meta bits *)
  Alcotest.(check int) "max_depth 2^20: two words" (16 * 2 * 8)
    (bytes Mc.Explore.max_depth_bound)

(* Metas outside the bound are refused, and so is a [max_depth] whose
   meta field would leave word 0 no room for a field. *)
let test_meta_bound () =
  let m = make ~max_depth:5 ~n_objs:2 ~n_procs:2 ~n_values:4 ~n_states:4 () in
  let key = [| 1; 2; 3; 0 |] in
  let o = lookup m key in
  let refused label meta =
    match Mc.Ptbl.set_meta m.tbl o meta with
    | () -> Alcotest.failf "%s: meta %d accepted" label meta
    | exception Invalid_argument _ -> ()
  in
  refused "above the bound" (max_meta 5 + 1);
  refused "negative" (-1);
  set m key o (max_meta 5);
  check_all m;
  List.iter
    (fun max_depth ->
      match
        Mc.Ptbl.create ~n_objs:1 ~n_procs:1 ~n_values:1 ~n_states:1 ~max_depth
      with
      | _ -> Alcotest.failf "max_depth %d accepted" max_depth
      | exception Invalid_argument _ -> ())
    [ -1; 1 lsl 36 ]

(* Word 0 = 0 marks an empty slot, so an all-zero key must not store
   as 0: with meta 0 it is still found, once, across every growth and
   widening, and the largest meta survives the same relayouts. *)
let test_zero_key () =
  let m = make ~max_depth:3 ~n_objs:2 ~n_procs:2 ~n_values:1 ~n_states:1 () in
  let zero = [| 0; 0; 0; 0 |] in
  let o = lookup m zero in
  Alcotest.(check int) "stored" 1 (Mc.Ptbl.length m.tbl);
  Alcotest.(check int) "found again" o (lookup m zero);
  Alcotest.(check int) "not inserted twice" 1 (Mc.Ptbl.length m.tbl);
  let top = [| 1; 1; 1; 1 |] in
  grow m ~n_values:2 ~n_states:2;
  set m top (lookup m top) (max_meta 3);
  (* counts past 2^15, beyond the 14- and 15-bit headroom of a fresh
     table's four fields *)
  for i = 0 to 299 do
    grow m ~n_values:((i + 2) lsl 8) ~n_states:((i + 2) lsl 8);
    ignore (lookup m [| i; 0; i + 1; 0 |] : int);
    if i mod 50 = 0 then check_all m
  done;
  Alcotest.(check bool) "widened" true (Mc.Ptbl.widenings m.tbl > 0);
  Alcotest.(check bool) "grew" true
    (Mc.Ptbl.generation m.tbl > Mc.Ptbl.widenings m.tbl);
  check_all m

let suite =
  [
    Alcotest.test_case "random ops = Hashtbl model" `Quick test_random_model;
    Alcotest.test_case "fit relays out only when a key needs another word"
      `Quick test_fit_headroom;
    Alcotest.test_case "one-field and boundary keys stay distinct" `Quick
      test_boundary_keys;
    Alcotest.test_case "bytes track growth" `Quick test_bytes;
    Alcotest.test_case "meta field width comes from max_depth" `Quick
      test_meta_width;
    Alcotest.test_case "metas outside the bound are refused" `Quick
      test_meta_bound;
    Alcotest.test_case "an all-zero key is not an empty slot" `Quick
      test_zero_key;
  ]
