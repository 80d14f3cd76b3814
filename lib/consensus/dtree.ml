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

   One step semantics, two executions.  What a branch can observe of a
   register is its class: [reg_empty] until written, then [0] for a
   stored [Value.Int 0] and [1] for any other value.  [next] is the
   subtree a process continues with after stepping a node, given the
   step's outcome: the coin for [Flip], the class read or swapped out
   for [Read]/[Swap] (ignored for [Write]).  [to_proc] feeds it the
   simulator's responses through [class_of_value]; [replay] feeds it the
   classes it keeps itself. *)

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
   ([replay_violates]).  Only the scheduling layer is [exec_script]'s,
   restated rule for rule: stop once nobody is enabled or [max_steps]
   steps were taken, skip entries whose pid is out of range or
   disabled, and fall back to coin 0 unless [Some c] with [0 <= c < 2]
   is given. *)

(* toplevel, taking the state as arguments: local closures over it would
   be allocated on every replay *)
let enabled cur halted pid =
  (not halted.(pid)) && match cur.(pid) with Decide _ -> false | _ -> true

let rec all_decided cur halted pid =
  pid >= Array.length cur
  || ((not (enabled cur halted pid)) && all_decided cur halted (pid + 1))

(* one step of a process at [tree] against the register classes [regs]:
   a write or swap stores its bit's class, and [coin] is a [Flip]'s
   outcome.  The subtree it continues with. *)
let step regs tree coin =
  let outcome =
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
  in
  next tree outcome

let step_tree cur regs pid coin =
  cur.(pid) <-
    step regs cur.(pid)
      (match coin with Some c when c >= 0 && c < 2 -> c | _ -> 0)

let rec run_script ~max_steps cur halted regs steps script =
  if (not (all_decided cur halted 0)) && steps < max_steps then
    let n = Array.length cur in
    match script with
    | [] -> ()
    | `Crash pid :: rest ->
        if pid >= 0 && pid < n && enabled cur halted pid then
          halted.(pid) <- true;
        run_script ~max_steps cur halted regs steps rest
    | `Step (pid, coin) :: rest ->
        if pid >= 0 && pid < n && enabled cur halted pid then begin
          step_tree cur regs pid coin;
          run_script ~max_steps cur halted regs (steps + 1) rest
        end
        else run_script ~max_steps cur halted regs steps rest

let rec place cur t1 pid = function
  | [] -> ()
  | v :: rest ->
      if v <> 0 then cur.(pid) <- t1;
      place cur t1 (pid + 1) rest

(* the final subtrees, one per process, after [script] *)
let run ~max_steps ~registers (t0, t1) ~inputs script =
  let cur = Array.make (List.length inputs) t0 in
  place cur t1 0 inputs;
  let halted = Array.make (Array.length cur) false in
  run_script ~max_steps cur halted (Array.make registers reg_empty) 0 script;
  cur

let rec decisions cur pid acc =
  if pid < 0 then acc
  else
    match cur.(pid) with
    | Decide v -> decisions cur (pid - 1) (v :: acc)
    | _ -> decisions cur (pid - 1) acc

let replay ?(max_steps = 100_000) ~registers pair ~inputs script =
  let cur = run ~max_steps ~registers pair ~inputs script in
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

let replay_violates ?(max_steps = 100_000) ~registers pair ~inputs script =
  violated (run ~max_steps ~registers pair ~inputs script) inputs 0

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
