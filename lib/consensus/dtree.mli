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

(** [step regs tree coin] is the subtree a process at [tree] continues
    with after one step against the register classes [regs], which a
    [Write] or [Swap] updates in place; [coin] ([0] tails, [1] heads)
    is a [Flip]'s outcome and is ignored elsewhere.  It applies the
    node function {!to_proc} is built from to register classes kept in
    an array, as {!replay} does.  Raises [Invalid_argument] on
    [Decide]. *)
val step : int array -> t -> int -> t

(** [replay ~registers (t0, t1) ~inputs script] is the decisions, in
    pid order, that {!Sim.Run.exec_script} leaves in the final
    configuration when it replays [script] against [protocol pair] from
    its initial configuration for [inputs] — computed directly on the
    trees, with no [Proc] closures, configuration or trace.  Entries and
    [max_steps] (default [100_000]) have [exec_script]'s meaning:
    disabled or out-of-range pids are skipped, a coin is [Some c] with
    [0 <= c < 2] or else [0], and the replay stops once every process
    has decided or crashed.  The trees must be ones {!protocol} accepts
    for [registers] objects (a register index [>= registers] raises
    [Invalid_argument]).  Each step goes through the per-node function
    {!to_proc} is built from, so only the scheduling rules above are
    restated; an exhaustive test pins them against [exec_script]. *)
val replay :
  ?max_steps:int ->
  registers:int ->
  t * t ->
  inputs:int list ->
  [< `Step of int * int option | `Crash of int ] list ->
  int list

(** [replay_violates ~registers pair ~inputs script] is
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
  [< `Step of int * int option | `Crash of int ] list ->
  bool

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
