(** Absint-powered datapath program lint (DESIGN.md §15).

    Consumes the per-pc interval/taint facts the verifier already
    computes ({!Rmt.Verifier.report}) plus a backward register-liveness
    pass of its own, and flags smells that are legal but wasteful or
    suspicious {e before} a program is installed:

    - {b dead-store} — a pure register write never observed on any path
      (liveness over the forward-jump CFG with [Rep] back-edges; calls
      are treated conservatively, map lookups keep their LRU recency
      side effect);
    - {b unreachable} — instructions the abstract interpreter proves no
      execution reaches;
    - {b branch-always} / {b branch-never} — conditionals with a
      statically dead arm: the comparison, or its negation, is
      infeasible on the interval facts at the branch
      ({!Rmt.Absint.Interval.refine});
    - {b redundant-guard} — branches re-checking what the runtime
      already re-checks dynamically: a zero guard over [Div]/[Mod] by
      the guarded register ({!Rmt.Insn.eval_alu} is total: division by
      zero yields 0) and a negative-key guard over a dynamic context
      access (the engines' own key guard already skips negative keys);
    - {b unclean-map-read} (deny severity) — a map slot is read back
      after a possibly context-tainted value is written into it: the
      taint analysis treats map contents as already-exported (clean), so
      the readback would launder taint past the privacy checks;
    - {b unused-const} / {b unused-map} / {b unused-model} /
      {b unused-prog-slot} — declared pool entries and kernel-object
      slots no instruction references (each pins memory at link time);
    - {b oversized-vmem} — a scratchpad declared much larger than the
      highest word any vector instruction can touch (zeroed per
      invocation: pure per-run cost).

    Validated by {!Corpus}: ≥ 12 seeded defect programs must each be
    caught, and every program shipped in [examples/] must lint clean. *)

type severity = Warn | Deny

type finding = {
  rule : string;        (** kebab-case rule id, e.g. ["dead-store"] *)
  pc : int;             (** instruction index, [-1] for program-level findings *)
  severity : severity;
  message : string;
}

val of_report : Rmt.Verifier.report -> Rmt.Program.t -> finding list
(** All findings for a verified program, ordered by (pc, rule).  Uses
    only the report's [facts] array — works for reports from
    {!Rmt.Verifier.check} and {!Rmt.Verifier.check_structure_only}
    alike. *)

val analyze : helpers:Rmt.Helper.t -> Rmt.Program.t -> (finding list, string) result
(** Run {!Rmt.Verifier.check_structure_only} (models assumed zero-cost),
    then {!of_report}.  [Error] when the program does not verify at all
    — lint findings are only meaningful for installable programs. *)

val install_gate : mode:[ `Warn | `Deny ] -> unit -> Rmt.Control.install_gate
(** A {!Rmt.Control.set_install_gate} hook: lints every program at
    install time from the verifier report the install already produced.
    [`Warn] surfaces findings through the [rmt.control.gate_warnings]
    counter and proceeds; [`Deny] fails the install when any finding is
    raised. *)

val resource_waste :
  Rmt.Verifier.report -> Rmt.Program.t -> budget:Rmt.Resource.budget ->
  (string * int * int) list
(** Per-axis [(axis, used, budget)] deltas of the compile-time
    {!Rmt.Resource} report against a budget — the Homunculus-style
    waste summary [rkdctl analyze] prints and exports. *)

val pp_finding : Format.formatter -> finding -> unit

val findings_to_json : program:string -> finding list -> string
(** One JSON object [{"program": ..., "findings": [...]}] (stable key
    order) for CI artifacts. *)
