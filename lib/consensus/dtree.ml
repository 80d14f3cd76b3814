(* Bounded decision-tree protocols over r historyless objects: the
   candidate space the CEGIS driver (lib/synth) searches, over plain
   registers and over the swap-register class (Ovens 2023 direction).

   A tree is one process's whole program: decide, flip a fair coin, write
   a bit to a register and continue, or read/swap a register and branch
   on what was there (empty | 0 | 1).  A protocol assigns one tree per
   input value and every process runs the assignment for its own input —
   identical processes, the Section 3.1 setting.

   Trees have a compact ASCII codec so synthesized protocols are *names*:
   `synth:<style>:r<R>:<tree0>|<tree1>` round-trips through
   {!protocol_name}/{!of_name} and is resolved by [Registry.find], which
   is what lets a protocol minted by one synthesis run be model-checked,
   fuzzed and benched by any later process. *)

open Sim

type t =
  | Decide of int
  | Flip of t * t  (* tails / heads *)
  | Write of { reg : int; bit : int; k : t }
  | Read of { reg : int; empty : t; zero : t; one : t }
  | Swap of { reg : int; bit : int; empty : t; zero : t; one : t }

type style = Rw | Swapping

let style_to_string = function Rw -> "rw" | Swapping -> "swap"

let style_of_string = function
  | "rw" -> Some Rw
  | "swap" -> Some Swapping
  | _ -> None

let rec size = function
  | Decide _ -> 1
  | Flip (a, b) -> 1 + size a + size b
  | Write { k; _ } -> 1 + size k
  | Read { empty; zero; one; _ } -> 1 + size empty + size zero + size one
  | Swap { empty; zero; one; _ } -> 1 + size empty + size zero + size one

let rec depth = function
  | Decide _ -> 0
  | Flip (a, b) -> 1 + max (depth a) (depth b)
  | Write { k; _ } -> 1 + depth k
  | Read { empty; zero; one; _ } ->
      1 + max (depth empty) (max (depth zero) (depth one))
  | Swap { empty; zero; one; _ } ->
      1 + max (depth empty) (max (depth zero) (depth one))

let rec has_flip = function
  | Decide _ -> false
  | Flip _ -> true
  | Write { k; _ } -> has_flip k
  | Read { empty; zero; one; _ } ->
      has_flip empty || has_flip zero || has_flip one
  | Swap { empty; zero; one; _ } ->
      has_flip empty || has_flip zero || has_flip one

let rec uses_swap = function
  | Decide _ -> false
  | Flip (a, b) -> uses_swap a || uses_swap b
  | Write { k; _ } -> uses_swap k
  | Read { empty; zero; one; _ } ->
      uses_swap empty || uses_swap zero || uses_swap one
  | Swap _ -> true

let rec max_reg = function
  | Decide _ -> -1
  | Flip (a, b) -> max (max_reg a) (max_reg b)
  | Write { reg; k; _ } -> max reg (max_reg k)
  | Read { reg; empty; zero; one } ->
      max reg (max (max_reg empty) (max (max_reg zero) (max_reg one)))
  | Swap { reg; empty; zero; one; _ } ->
      max reg (max (max_reg empty) (max (max_reg zero) (max_reg one)))

(* The 0/1 swap: every decided, written or swapped bit [b] becomes
   [1 - b], and a read or swap exchanges its [zero] and [one] branches,
   so a run of [mirror t] is a run of [t] with every register class 0
   and 1 exchanged.  An involution; on trees whose bits are 0 or 1 (all
   {!Mc.Enumerate} produces) it maps a correct protocol for inputs
   swapped to a correct one. *)
let rec mirror = function
  | Decide v -> Decide (1 - v)
  | Flip (a, b) -> Flip (mirror a, mirror b)
  | Write { reg; bit; k } -> Write { reg; bit = 1 - bit; k = mirror k }
  | Read { reg; empty; zero; one } ->
      Read { reg; empty = mirror empty; zero = mirror one; one = mirror zero }
  | Swap { reg; bit; empty; zero; one } ->
      Swap
        {
          reg;
          bit = 1 - bit;
          empty = mirror empty;
          zero = mirror one;
          one = mirror zero;
        }

(* ---- codec ----

   tree := d<int>
         | f(<tree>,<tree>)
         | w<reg>.<bit>(<tree>)
         | r<reg>(<tree>,<tree>,<tree>)
         | s<reg>.<bit>(<tree>,<tree>,<tree>)

   No whitespace anywhere: the string embeds in protocol names, metrics
   labels and shell arguments unquoted. *)

let rec to_string = function
  | Decide v -> Printf.sprintf "d%d" v
  | Flip (a, b) -> Printf.sprintf "f(%s,%s)" (to_string a) (to_string b)
  | Write { reg; bit; k } -> Printf.sprintf "w%d.%d(%s)" reg bit (to_string k)
  | Read { reg; empty; zero; one } ->
      Printf.sprintf "r%d(%s,%s,%s)" reg (to_string empty) (to_string zero)
        (to_string one)
  | Swap { reg; bit; empty; zero; one } ->
      Printf.sprintf "s%d.%d(%s,%s,%s)" reg bit (to_string empty)
        (to_string zero) (to_string one)

exception Parse of string

let of_string s =
  let pos = ref 0 in
  let len = String.length s in
  let peek () = if !pos < len then Some s.[!pos] else None in
  let expect ch =
    match peek () with
    | Some x when x = ch -> incr pos
    | _ -> raise (Parse (Printf.sprintf "expected '%c' at offset %d" ch !pos))
  in
  let int () =
    let start = !pos in
    if peek () = Some '-' then incr pos;
    while match peek () with Some '0' .. '9' -> true | _ -> false do
      incr pos
    done;
    match int_of_string_opt (String.sub s start (!pos - start)) with
    | Some n -> n
    | None -> raise (Parse (Printf.sprintf "expected integer at offset %d" start))
  in
  let rec tree d =
    if d > 64 then raise (Parse "tree deeper than 64");
    match peek () with
    | Some 'd' ->
        incr pos;
        Decide (int ())
    | Some 'f' ->
        incr pos;
        expect '(';
        let a = tree (d + 1) in
        expect ',';
        let b = tree (d + 1) in
        expect ')';
        Flip (a, b)
    | Some 'w' ->
        incr pos;
        let reg = int () in
        expect '.';
        let bit = int () in
        expect '(';
        let k = tree (d + 1) in
        expect ')';
        Write { reg; bit; k }
    | Some 'r' ->
        incr pos;
        let reg = int () in
        expect '(';
        let empty = tree (d + 1) in
        expect ',';
        let zero = tree (d + 1) in
        expect ',';
        let one = tree (d + 1) in
        expect ')';
        Read { reg; empty; zero; one }
    | Some 's' ->
        incr pos;
        let reg = int () in
        expect '.';
        let bit = int () in
        expect '(';
        let empty = tree (d + 1) in
        expect ',';
        let zero = tree (d + 1) in
        expect ',';
        let one = tree (d + 1) in
        expect ')';
        Swap { reg; bit; empty; zero; one }
    | _ -> raise (Parse (Printf.sprintf "expected a tree at offset %d" !pos))
  in
  match tree 0 with
  | t ->
      if !pos <> len then
        Error (Printf.sprintf "trailing garbage at offset %d in %S" !pos s)
      else Ok t
  | exception Parse msg -> Error (msg ^ " in " ^ Printf.sprintf "%S" s)

(* ---- execution ----

   One step semantics, four executions.  What a branch can observe of
   a register is its class: [reg_empty] until written, then [0] for a
   stored [Value.Int 0] and [1] for any other value.  [next] is the
   subtree a process continues with after stepping a node, given the
   step's outcome: the coin for [Flip], the class read or swapped out
   for [Read]/[Swap] (ignored for [Write]).  [to_proc] feeds it the
   simulator's responses through [class_of_value]; [replay] and [check]
   feed it the classes they keep in an array, and [Mc.Enumerate]'s solo
   mask the classes it packs into an int. *)

let reg_empty = 2
let class_of_int v = if v = 0 then 0 else 1
let class_of_value = function Value.Int v -> class_of_int v | _ -> reg_empty

let next tree outcome =
  match tree with
  | Decide _ -> invalid_arg "Dtree.next: a decided process takes no step"
  | Flip (tails, heads) -> if outcome = 1 then heads else tails
  | Write { k; _ } -> k
  | Read { empty; zero; one; _ } | Swap { empty; zero; one; _ } ->
      if outcome = reg_empty then empty else if outcome = 0 then zero else one

let rec to_proc tree : int Proc.t =
  match tree with
  | Decide v -> Proc.decide v
  | Flip _ ->
      Proc.bind Proc.flip (fun heads -> to_proc (next tree (Bool.to_int heads)))
  | Write { reg; bit; _ } ->
      Proc.bind (Proc.apply reg (Objects.Register.write_int bit)) (resume tree)
  | Read { reg; _ } ->
      Proc.bind (Proc.apply reg Objects.Register.read) (resume tree)
  | Swap { reg; bit; _ } ->
      Proc.bind
        (Proc.apply reg (Objects.Swap_register.swap_int bit))
        (resume tree)

and resume tree response = to_proc (next tree (class_of_value response))

(* ---- closure-free replay ----

   The CEGIS pool's inner loop: [Run.exec_script] over [protocol pair]
   without building [Proc] closures, a [Config] or a trace.  A process is
   its current subtree, a register holds its class, and a step is
   [step], [next] on the register classes.  One run feeds two
   read-outs: the decisions ([replay]) and the consensus verdict
   ([replay_violates]).

   A script is compiled once ([compile]) into one int per entry,
   [(pid lsl 2) lor code]: [code] is the coin, already normalized as
   [exec_script] normalizes it ([Some c] with [0 <= c < 2], else [0]),
   or [crash] for a crash.  A negative pid, or one too large to shift,
   is compiled to [-1], so it stays out of range.  Only the scheduling
   layer is [exec_script]'s, restated rule for rule: stop once nobody
   is enabled or [max_steps] steps were taken (a crash is not a step),
   and skip entries whose pid is out of range or disabled. *)

(* one step of a process at [tree] against the register classes [regs]:
   a write or swap stores its bit's class, and [coin] is a [Flip]'s
   outcome.  The step's outcome, as [next] takes it. *)
let outcome regs tree coin =
  match tree with
  | Decide _ -> 0 (* [next] refuses it *)
  | Flip _ -> coin
  | Write { reg; bit; _ } ->
      regs.(reg) <- class_of_int bit;
      0
  | Read { reg; _ } -> regs.(reg)
  | Swap { reg; bit; _ } ->
      let old = regs.(reg) in
      regs.(reg) <- class_of_int bit;
      old

(* the subtree a process at [tree] continues with after that step *)
let step regs tree coin = next tree (outcome regs tree coin)

type schedule = int array

let crash = 2

let compile script =
  let entry pid code =
    let pid = if pid < 0 || pid > max_int asr 2 then -1 else pid in
    (pid lsl 2) lor code
  in
  Array.of_list
    (List.map
       (function
         | `Step (pid, Some c) when c >= 0 && c < 2 -> entry pid c
         | `Step (pid, _) -> entry pid 0
         | `Crash pid -> entry pid crash)
       script)

(* a crashed process's subtree: not a [Decide], so it decides nothing,
   and never stepped, since no tree shares it *)
let crashed = Flip (Decide 0, Decide 0)

let rec place cur t1 pid = function
  | [] -> ()
  | v :: rest ->
      if v <> 0 then cur.(pid) <- t1;
      place cur t1 (pid + 1) rest

(* the final subtrees, one per process, after [sched]; [running] counts
   the processes neither decided nor crashed *)
let run ~max_steps ~registers (t0, t1) ~inputs sched =
  let n = List.length inputs in
  let cur = Array.make n t0 in
  place cur t1 0 inputs;
  let regs = Array.make registers reg_empty in
  let running = ref 0 in
  for pid = 0 to n - 1 do
    match cur.(pid) with Decide _ -> () | _ -> incr running
  done;
  let steps = ref 0 and i = ref 0 in
  while !running > 0 && !steps < max_steps && !i < Array.length sched do
    let e = sched.(!i) in
    let pid = e asr 2 in
    (if pid >= 0 && pid < n then
       match cur.(pid) with
       | Decide _ -> ()
       | tree when tree == crashed -> ()
       | tree ->
           let code = e land 3 in
           if code = crash then begin
             cur.(pid) <- crashed;
             decr running
           end
           else begin
             let tree' = step regs tree code in
             cur.(pid) <- tree';
             incr steps;
             match tree' with Decide _ -> decr running | _ -> ()
           end);
    incr i
  done;
  cur

let rec decisions cur pid acc =
  if pid < 0 then acc
  else
    match cur.(pid) with
    | Decide v -> decisions cur (pid - 1) (v :: acc)
    | _ -> decisions cur (pid - 1) acc

let replay ?(max_steps = 100_000) ~registers pair ~inputs sched =
  let cur = run ~max_steps ~registers pair ~inputs sched in
  decisions cur (Array.length cur - 1) []

let rec is_input (v : int) = function
  | [] -> false
  | i :: rest -> i = v || is_input v rest

(* some process at or after [pid] decided other than [v] *)
let rec disagrees cur (v : int) pid =
  pid < Array.length cur
  &&
  match cur.(pid) with
  | Decide w when w <> v -> true
  | _ -> disagrees cur v (pid + 1)

(* the first decided value [v] settles it: any other decision, or [v]
   not an input, violates *)
let rec violated cur inputs pid =
  pid < Array.length cur
  &&
  match cur.(pid) with
  | Decide v -> (not (is_input v inputs)) || disagrees cur v (pid + 1)
  | _ -> violated cur inputs (pid + 1)

let replay_violates ?(max_steps = 100_000) ~registers pair ~inputs sched =
  violated (run ~max_steps ~registers pair ~inputs sched) inputs 0

(* ---- exhaustive check ----

   The model checker's search ([Mc.Explore.search] on [protocol pair]),
   run on the trees themselves: a DFS over every interleaving and coin,
   stepping one subtree per process against one register-class array in
   place and undoing each step on the way back.  Children come in the
   flat engine's order (pid ascending, then coin 0 before coin 1), and a
   decision is judged as that engine judges it, so both stop at the
   preorder-first violation.

   The visited set holds every node with two or more processes running
   expanded so far; a node found there is skipped.  Its subtree was then
   searched to the end without a violation (the search stops at the
   first one), and its future is a function of the key alone, so a skip
   changes neither the verdict nor which violation comes first.  A node
   with one process running is not looked up: its subtree is that
   process's solo run, no bigger than its tree.

   The key is a node's register classes and its processes' node ids,
   sorted: processes at the same node of the same tree are
   interchangeable, and a violation does not care which process decided
   what.  A node id is [2 * path + side], where [side] is the process's
   tree and [path] its node read as a bijective base-3 numeral: the
   root is [0], and the child a step with outcome [o] leads to is
   [3 * path + o + 1].  So ids need no table, and each fits in [width]
   bits. *)

type search = {
  cur : t array;  (* each process's subtree *)
  ids : int array;  (* each process's node id *)
  regs : int array;
  inputs : int list;
  width : int;  (* bits per key field *)
  per_word : int;  (* key fields per key word *)
  key : int array;  (* the current node's key *)
  sorted : int array;  (* scratch: [ids], sorted *)
  mutable slots : int array;
      (* the visited set: open addressing, one key per [Array.length
         key] words, a negative first word for an empty slot *)
  mutable mask : int;  (* slot count - 1, a power of two less one *)
  mutable count : int;
  mutable witness : [ `Step of int * int option ] list;
}

(* the deepest tree [check] takes: node ids stay below 3^(d+1) < 2^61,
   so one id fits a key word *)
let max_check_depth = 37

let rec bits x = if x = 0 then 0 else 1 + bits (x lsr 1)
let rec pow3 k = if k = 0 then 1 else 3 * pow3 (k - 1)

let child id o = (2 * ((3 * (id lsr 1)) + o + 1)) lor (id land 1)

(* packs the register classes, then the sorted node ids, [per_word]
   fields to a word *)
let pack s =
  let n = Array.length s.ids and r = Array.length s.regs in
  for p = 0 to n - 1 do
    let v = s.ids.(p) in
    let j = ref (p - 1) in
    while !j >= 0 && s.sorted.(!j) > v do
      s.sorted.(!j + 1) <- s.sorted.(!j);
      decr j
    done;
    s.sorted.(!j + 1) <- v
  done;
  let word = ref 0 and acc = ref 0 and fields = ref 0 in
  for f = 0 to r + n - 1 do
    let v = if f < r then s.regs.(f) else s.sorted.(f - r) in
    acc := (!acc lsl s.width) lor v;
    incr fields;
    if !fields = s.per_word || f = r + n - 1 then begin
      s.key.(!word) <- !acc;
      incr word;
      acc := 0;
      fields := 0
    end
  done

let hash key =
  let h = ref 0 in
  for w = 0 to Array.length key - 1 do
    h := (!h * 0x1000193) lxor key.(w)
  done;
  let h = !h * 0x5bd1e995 in
  h lxor (h lsr 29)

let rec same slots base key w =
  w < 0 || (slots.(base + w) = key.(w) && same slots base key (w - 1))

(* the slot holding [s.key], or the empty one it belongs in *)
let rec slot s i =
  let w = Array.length s.key in
  let base = i * w in
  if s.slots.(base) < 0 || same s.slots base s.key (w - 1) then base
  else slot s ((i + 1) land s.mask)

let insert s =
  let base = slot s (hash s.key land s.mask) in
  let fresh = s.slots.(base) < 0 in
  if fresh then begin
    for w = 0 to Array.length s.key - 1 do
      s.slots.(base + w) <- s.key.(w)
    done;
    s.count <- s.count + 1
  end;
  fresh

(* doubles the set, at most half full; uses [s.key] as scratch *)
let grow s =
  let w = Array.length s.key and old = s.slots in
  s.slots <- Array.make (2 * Array.length old) (-1);
  s.mask <- (2 * s.mask) + 1;
  s.count <- 0;
  for i = 0 to (Array.length old / w) - 1 do
    if old.(i * w) >= 0 then begin
      for j = 0 to w - 1 do
        s.key.(j) <- old.((i * w) + j)
      done;
      ignore (insert s)
    end
  done

(* adds the current node to the visited set; [false] if it was there *)
let visit s =
  if 2 * (s.count + 1) > s.mask + 1 then grow s;
  pack s;
  insert s

(* how many processes from [pid] on are running, [k] counted before
   them; counts stop at 2 *)
let rec running cur pid k =
  if pid = Array.length cur || k > 1 then k
  else
    running cur (pid + 1) (match cur.(pid) with Decide _ -> k | _ -> k + 1)

(* Whether the subtree below the current node holds a violation, given
   that [decided] says whether some process has decided, [v] what.  On
   [true], [s.witness] is the path from here to the first one. *)
let rec node s decided v =
  match running s.cur 0 0 with
  | 0 -> false
  | 1 -> expand s 0 decided v
  | _ -> visit s && expand s 0 decided v

and expand s pid decided v =
  pid < Array.length s.cur
  && (moves s pid decided v || expand s (pid + 1) decided v)

and moves s pid decided v =
  match s.cur.(pid) with
  | Decide _ -> false
  | Flip _ -> move s pid 0 decided v || move s pid 1 decided v
  | Write _ | Read _ | Swap _ -> move s pid (-1) decided v

(* [coin] is [-1] for a step that flips none *)
and move s pid coin decided v =
  let tree = s.cur.(pid) and id = s.ids.(pid) in
  let reg =
    match tree with Write { reg; _ } | Swap { reg; _ } -> reg | _ -> -1
  in
  let old = if reg < 0 then reg_empty else s.regs.(reg) in
  let o = outcome s.regs tree coin in
  let tree' = next tree o in
  s.cur.(pid) <- tree';
  s.ids.(pid) <- child id o;
  let violates =
    match tree' with
    | Decide w ->
        if decided then w <> v || node s true v
        else (not (is_input w s.inputs)) || node s true w
    | _ -> node s decided v
  in
  s.cur.(pid) <- tree;
  s.ids.(pid) <- id;
  if reg >= 0 then s.regs.(reg) <- old;
  if violates then
    s.witness <- `Step (pid, if coin < 0 then None else Some coin) :: s.witness;
  violates

(* [ids] with each process at its tree's root *)
let rec sides ids pid = function
  | [] -> ids
  | v :: rest ->
      if v <> 0 then ids.(pid) <- 1;
      sides ids (pid + 1) rest

let rec first_decision cur pid =
  if pid = Array.length cur then None
  else
    match cur.(pid) with
    | Decide v -> Some v
    | _ -> first_decision cur (pid + 1)

let check ~registers (t0, t1) ~inputs =
  let d = if t0 == t1 then depth t0 else max (depth t0) (depth t1) in
  if d > max_check_depth then
    invalid_arg
      (Printf.sprintf "Dtree.check: a tree deeper than %d" max_check_depth);
  let n = List.length inputs in
  let cur = Array.make n t0 in
  place cur t1 0 inputs;
  (* processes may have decided before any step *)
  if violated cur inputs 0 then `Violating []
  else
    let width = max 2 (bits (pow3 (d + 1) - 2)) in
    let per_word = 62 / width in
    let words = (registers + n + per_word - 1) / per_word in
    let s =
      {
        cur;
        ids = sides (Array.make n 0) 0 inputs;
        regs = Array.make registers reg_empty;
        inputs;
        width;
        per_word;
        key = Array.make words 0;
        sorted = Array.make n 0;
        slots = Array.make (32 * words) (-1);
        mask = 31;
        count = 0;
        witness = [];
      }
    in
    let violates =
      match first_decision cur 0 with
      | Some v -> node s true v
      | None -> node s false 0
    in
    if violates then `Violating s.witness else `Correct

let optypes ~style ~registers =
  List.init registers (fun _ ->
      match style with
      | Rw -> Objects.Register.optype ()
      | Swapping -> Objects.Swap_register.optype ())

let validate ~style ~registers (t0, t1) =
  if registers < 1 then invalid_arg "Dtree: registers must be >= 1";
  List.iter
    (fun t ->
      if max_reg t >= registers then
        invalid_arg
          (Printf.sprintf "Dtree: tree %s touches register %d but only %d exist"
             (to_string t) (max_reg t) registers);
      if style = Rw && uses_swap t then
        invalid_arg
          (Printf.sprintf "Dtree: tree %s swaps but the style is rw"
             (to_string t)))
    [ t0; t1 ]

let protocol_name ~style ~registers (t0, t1) =
  Printf.sprintf "synth:%s:r%d:%s|%s" (style_to_string style) registers
    (to_string t0) (to_string t1)

let protocol ~style ~registers (t0, t1) : Protocol.t =
  validate ~style ~registers (t0, t1);
  {
    name = protocol_name ~style ~registers (t0, t1);
    kind = (if has_flip t0 || has_flip t1 then `Randomized else `Deterministic);
    identical = true;
    supports_n = (fun n -> n >= 1);
    optypes = (fun ~n:_ -> optypes ~style ~registers);
    code =
      (fun ~n:_ ~pid:_ ~input -> to_proc (if input = 0 then t0 else t1));
  }

(* "synth:<style>:r<R>:<t0>|<t1>" — inverse of {!protocol_name} *)
let parse_name name =
  match String.split_on_char ':' name with
  | [ "synth"; style_s; r_s; trees ] -> (
      match
        ( style_of_string style_s,
          (if String.length r_s > 1 && r_s.[0] = 'r' then
             int_of_string_opt (String.sub r_s 1 (String.length r_s - 1))
           else None),
          String.index_opt trees '|' )
      with
      | Some style, Some registers, Some bar when registers >= 1 -> (
          let s0 = String.sub trees 0 bar in
          let s1 =
            String.sub trees (bar + 1) (String.length trees - bar - 1)
          in
          match (of_string s0, of_string s1) with
          | Ok t0, Ok t1 -> (
              match validate ~style ~registers (t0, t1) with
              | () -> Some (style, registers, t0, t1)
              | exception Invalid_argument _ -> None)
          | _ -> None)
      | _ -> None)
  | _ -> None

let of_name name =
  match parse_name name with
  | Some (style, registers, t0, t1) ->
      Some (protocol ~style ~registers (t0, t1))
  | None -> None
