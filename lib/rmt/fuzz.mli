(** Soundness fuzzer for {!Absint}, the engines and the batch path.

    Generates random (mostly verifier-acceptable) programs and, for each
    accepted one, runs four executions on identical inputs:

    + {!Interp};
    + {!Jit};
    + {!Vm.invoke_batch}: a batch of 1 for every program (exercising the
      per-slot fallback on non-batchable programs), plus a batch of 3
      identical slots on SoA-eligible programs, each slot checked
      independently;
    + an independent reference interpreter defined here, with every
      runtime guard forced on, which additionally asserts at each
      executed instruction that (a) {!Absint} claimed the pc reachable
      and (b) every concrete register value lies in its claimed
      interval.

    All lanes must agree on result, step count, privacy denials, final
    context contents and (where touched) final map contents, and the
    concrete step count must stay within the report's
    [worst_case_steps].  Any discrepancy raises {!Unsound} with the
    offending program disassembled into the message.

    Driven by [test/test_absint.ml] (5000 programs) and the [make lint]
    smoke via [rkdctl absint-fuzz]. *)

type stats = {
  trials : int;
  accepted : int;   (** programs that passed {!Verifier.check} and were executed *)
  rejected : int;   (** programs the verifier rejected (skipped, also fine) *)
  claims_checked : int;  (** per-step interval memberships asserted *)
  batch_slots_checked : int;
      (** batch-lane slots compared against the reference (>= 1 per
          accepted program; 4 when the program admits the SoA kernel) *)
}

exception Unsound of string
(** A soundness violation, with the offending program disassembled into
    the message. *)

val run : ?seed:int -> trials:int -> unit -> stats
(** Raises {!Unsound} on the first soundness violation.  Fault injection
    is suppressed for the duration ({!Fault.without}): the differential is
    only meaningful on the stock semantics. *)

val pp_stats : Format.formatter -> stats -> unit

(** {2 Wire-format robustness} *)

type decode_stats = {
  d_trials : int;
  mutations : int;
  decoded_ok : int;    (** mutated images that still decoded *)
  decoded_error : int; (** mutated images rejected with [Error] *)
  roundtrips : int;
}

val decode_fuzz : ?seed:int -> trials:int -> unit -> decode_stats
(** Seeded bit-flip/truncation/extension fuzzer for {!Encoding.decode}
    (driven by [rkdctl decode-fuzz]): every pristine image must roundtrip
    exactly, and every mutated image must decode to [Ok] or [Error] —
    an escaping exception raises {!Unsound}. *)

val pp_decode_stats : Format.formatter -> decode_stats -> unit
