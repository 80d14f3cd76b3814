(** Bounded decision-tree protocols over [r] historyless objects — the
    candidate space searched by the CEGIS driver ([Synth.Cegis]), and the
    shape of every protocol it synthesizes.

    A tree is one process's whole program; a protocol assigns one tree
    per input value and every process runs its input's tree (identical
    processes, the Section 3.1 setting).  Trees of the [Rw] style use
    only writes and reads of plain registers; the [Swapping] style runs
    over swap registers (READ/WRITE/SWAP — the paper's interfering
    example, consensus number 2), whose [Swap] constructor branches on
    the swapped-out value.

    Trees have a compact, whitespace-free codec ({!to_string} /
    {!of_string}), and whole protocols round-trip through their {e name}:
    [synth:<style>:r<R>:<tree0>|<tree1>] is parsed back by {!of_name},
    which [Registry.find] consults for the [synth:] prefix — a protocol
    minted by one synthesis run is model-checkable, fuzzable and
    benchable by any later process from the name alone. *)

open Sim

type t =
  | Decide of int
  | Flip of t * t  (** internal fair coin: tails / heads *)
  | Write of { reg : int; bit : int; k : t }
  | Read of { reg : int; empty : t; zero : t; one : t }
  | Swap of { reg : int; bit : int; empty : t; zero : t; one : t }
      (** swap [bit] in and branch on the value swapped out *)

type style = Rw | Swapping

val style_to_string : style -> string
val style_of_string : string -> style option
val size : t -> int
val depth : t -> int
val has_flip : t -> bool
val uses_swap : t -> bool

(** Largest register index mentioned; [-1] for pure decide/flip trees. *)
val max_reg : t -> int

(** The 0/1 swap on trees: [Decide v] becomes [Decide (1 - v)], a
    written or swapped bit [b] becomes [1 - b], and [Read]/[Swap]
    exchange their [zero] and [one] branches ([empty] and [Flip]'s
    branches keep their places).  An involution.  For trees whose bits
    are [0] or [1], every execution of [protocol (mirror t1, mirror t0)]
    on an input vector is an execution of [protocol (t0, t1)] on the
    complemented vector with every value exchanged, so the two are
    correct on the same input multisets up to that complement — the
    symmetry {!Synth.Cegis} quotients its search by. *)
val mirror : t -> t

(** Compact codec: [d0], [f(a,b)], [w<reg>.<bit>(k)], [r<reg>(e,z,o)],
    [s<reg>.<bit>(e,z,o)]; no whitespace.  [of_string] is its exact
    inverse and rejects trailing garbage. *)
val to_string : t -> string

val of_string : string -> (t, string) result

val to_proc : t -> int Proc.t

(** The class of a never-written register; a written one holds [0] for
    bit [0] and [1] otherwise.  What a [Read] or [Swap] branches on. *)
val reg_empty : int

(** [next tree outcome] is the subtree a process at [tree] continues
    with after a step whose outcome is [outcome]: the coin ([0] tails,
    [1] heads) for a [Flip], the register class read or swapped out for
    a [Read] or [Swap] ({!reg_empty}, [0] or [1]), ignored for a
    [Write].  The one step rule: {!to_proc}, {!replay}, {!check} and
    [Mc.Enumerate]'s solo mask all go through it.  Raises
    [Invalid_argument] on [Decide]. *)
val next : t -> int -> t

(** The class a written [bit] leaves in a register: [0] for [0], [1]
    otherwise. *)
val class_of_int : int -> int

(** A script of {!Sim.Run.exec_script} entries compiled for {!replay}:
    one int per entry, [(pid lsl 2) lor code], where [code] is the coin
    as [exec_script] normalizes it ([c] for [Some c] with [0 <= c < 2],
    else [0]) or [2] for a crash.  A pid below [0] or too large to
    shift is compiled to [-1], which no process has. *)
type schedule

val compile :
  [< `Step of int * int option | `Crash of int ] list -> schedule

(** [replay ~registers (t0, t1) ~inputs (compile script)] is the
    decisions, in pid order, that {!Sim.Run.exec_script} leaves in the
    final configuration when it replays [script] against [protocol
    pair] from its initial configuration for [inputs] — computed
    directly on the trees, with no [Proc] closures, configuration or
    trace.  Entries and [max_steps] (default [100_000]) have
    [exec_script]'s meaning: disabled or out-of-range pids are skipped,
    crashes do not count as steps, and the replay stops once every
    process has decided or crashed.  The trees must be ones {!protocol}
    accepts for [registers] objects (a register index [>= registers]
    raises [Invalid_argument]).  Each step goes through {!next}, so only
    the scheduling rules above are restated; an exhaustive test pins
    them against [exec_script]. *)
val replay :
  ?max_steps:int ->
  registers:int ->
  t * t ->
  inputs:int list ->
  schedule ->
  int list

(** [replay_violates ~registers pair ~inputs sched] is
    [not (Checker.ok (Checker.check ~inputs ~decisions))] for the
    decisions {!replay} returns on the same arguments, read off the
    final subtrees without building them: the first decided value [v]
    violates if it is not an input or another process decided
    otherwise. *)
val replay_violates :
  ?max_steps:int ->
  registers:int ->
  t * t ->
  inputs:int list ->
  schedule ->
  bool

(** [check ~registers (t0, t1) ~inputs] is the model checker's verdict
    on [protocol pair] from its initial configuration for [inputs]
    (consistency and validity over every interleaving and coin),
    computed by an exhaustive search of the trees themselves: no
    [Proc] closures, configuration, interning or state cap.  Trees are
    finite, so the search always completes.  [`Violating schedule] is
    the path to the first violation in the flat engine's preorder (pid
    ascending, then coin 0 before coin 1) as {!Sim.Run.exec_script}
    entries — [`Step (pid, None)] for an operation, [`Step (pid, Some
    c)] for a flip — the schedule [Fuzz.Schedule.of_trace] makes of
    that engine's witness; [[]] when processes decided before any step
    already violate.  Processes at the same node of the same tree are
    interchangeable, and a visited set merges such configurations.  The
    trees must be ones {!protocol} accepts for [registers] objects, of
    depth at most 37; a deeper tree raises [Invalid_argument]. *)
val check :
  registers:int ->
  t * t ->
  inputs:int list ->
  [ `Correct | `Violating of [ `Step of int * int option ] list ]

(** The object row for a protocol of this style: [registers] plain
    registers ([Rw]) or swap registers ([Swapping]). *)
val optypes : style:style -> registers:int -> Optype.t list

(** [protocol ~style ~registers (t0, t1)] packages the pair as an
    identical-process protocol named
    [synth:<style>:r<registers>:<t0>|<t1>]; [kind] is [`Randomized] iff
    a tree flips.  Raises [Invalid_argument] when a tree touches a
    register [>= registers] or swaps under the [Rw] style. *)
val protocol : style:style -> registers:int -> t * t -> Protocol.t

val protocol_name : style:style -> registers:int -> t * t -> string

(** Parse a [synth:...] protocol name back to its parts; [None] on
    anything malformed (wrong prefix, bad tree, style/register
    mismatch). *)
val parse_name : string -> (style * int * t * t) option

(** [of_name n] rebuilds the protocol a [synth:] name denotes.
    [of_name (protocol ~style ~registers p).name] always succeeds — the
    codec round-trip [Registry.find] relies on. *)
val of_name : string -> Protocol.t option
