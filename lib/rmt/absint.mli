(** Abstract interpretation over RMT bytecode (eBPF-verifier-style value
    tracking).

    A forward analysis over {!Insn.t} programs composing two domains:

    + {b integer intervals} per register — transfer functions for every
      ALU operation (overflow-aware: any possibly-wrapping endpoint
      widens to top, matching {!Insn.eval_alu}'s wrap-around semantics),
      branch refinement on [Jcond]/[Jcond_imm] in both directions, and
      loop handling at [Rep] bodies: small constant trip counts are
      unrolled abstractly (precise — an incremented result-key register
      keeps finite bounds), large ones run to a widening fixpoint;
    + {b taint} per register (plus a coarse scratchpad-taint bit) —
      tracking which values derive from execution-context reads and
      privacy-charged helper results.  Map contents are considered
      already-exported (reading them back is clean); taint reaching the
      {e value} operand of a persistent sink ([Map_update]/[Ring_push])
      in a program with no declared [Privacy_budget] is an information
      flow the call-site checks in {!Verifier} cannot see.

    The analysis assumes the program already passed the verifier's
    structural and control-flow checks (forward jumps, well-nested [Rep]
    bodies, operands in range); run it only on such programs.

    Results are exposed two ways: per-pc {!fact}s (the joined abstract
    state flowing into each instruction — [None] means the instruction is
    unreachable) and a list of {!issue}s that {!Verifier.check} maps to
    violations.  The analysis decides admission only: the engines keep
    every runtime guard. *)

module Interval : sig
  type t = private { lo : int; hi : int }
  (** Nonempty: [lo <= hi].  [min_int]/[max_int] double as infinities. *)

  val top : t
  val const : int -> t
  val make : int -> int -> t
  (** Raises [Invalid_argument] if [lo > hi]. *)

  val mem : int -> t -> bool
  val is_const : t -> bool

  val const_value : t -> int option
  (** [Some v] when the interval pins a single value ([is_const]). *)

  val nonneg : t -> bool
  (** Every value in the interval is [>= 0]. *)

  val equal : t -> t -> bool
  val join : t -> t -> t
  val meet : t -> t -> t option  (** [None] when disjoint. *)

  val widen : t -> t -> t
  (** [widen old next] — unstable bounds jump to infinity. *)

  val forward_alu : Insn.alu -> t -> t -> t
  (** Sound for the total, wrap-around semantics of {!Insn.eval_alu}:
      the result interval contains [eval_alu op a b] for all [a], [b]
      in the argument intervals. *)

  val refine : Insn.cond -> t -> t -> (t * t) option
  (** [refine c a b] — both intervals narrowed under the assumption
      [eval_cond c x y = true]; [None] when the comparison is
      infeasible (the branch cannot be taken). *)

  val negate_cond : Insn.cond -> Insn.cond
  val pp : Format.formatter -> t -> unit
end

type fact = {
  regs : Interval.t array;  (** per-register interval flowing into the pc *)
  taint : int;              (** bit [r] set: register [r] may be tainted *)
  vmem_taint : bool;        (** some scratchpad word may be tainted *)
}

type issue =
  | Unproven_ctxt_key of { pc : int; reg : int }
      (** dynamic context key not proven non-negative (strict mode) *)
  | Unproven_map_window of { pc : int }
      (** [Vec_ld_map] window not proven inside an array map (strict mode) *)
  | Tainted_sink of { pc : int; reg : int }
      (** tainted value reaches [Map_update]/[Ring_push] with no
          [Privacy_budget] declared (always enforced) *)

type t = {
  facts : fact option array;  (** joined in-state per pc; [None] = unreachable *)
  issues : issue list;        (** in ascending pc order *)
}

val analyze : helpers:Helper.t -> Program.t -> t
(** Precondition: [prog] passed the verifier's structural, control-flow
    and dataflow checks (this is how {!Verifier.check} calls it). *)

val pp_fact : Format.formatter -> fact -> unit
(** Non-top register intervals and the taint set, one line. *)

val pp : Format.formatter -> t -> Program.t -> unit
(** Per-pc listing: instruction and in-facts ([unreachable] for dead pcs). *)
