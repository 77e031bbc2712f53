(** "JIT" compilation of RMT bytecode (§3.1: "the RMT bytecode can further
    be JIT compiled directly to machine code for efficiency").

    In this OCaml reproduction, JIT = ahead-of-time translation of the
    program into direct-threaded OCaml closures: each compiled instruction
    tail-calls its successor, so there is no per-step driver loop, no pc
    register, and no instruction decode.  Straight-line runs of
    register-only instructions (Ld_imm/Mov/Alu/Alu_imm) are fused into a
    single closure.  Semantics — including exact dynamic step counts — are
    identical to {!Interp} (the test suite checks this differentially on
    random verified programs).

    Each program compiles as written, every runtime guard included: the
    verifier's analysis decides admission only.

    Steady-state execution is allocation-free: the run state, helper
    environment, helper/model argument buffers and Mat_mul snapshot scratch
    are all preallocated (per {!compile} / per {!Loaded.t}).  One compiled
    instance is consequently not re-entrant: do not invoke the same
    [compiled] from within one of its own helpers or actions. *)

type compiled

val compile : Loaded.t -> compiled
(** Compile once; the result may be run many times.  The compiled code
    reads the loaded instance's maps/models/privacy state at run time, so
    control-plane updates (entry changes, model swaps) take effect without
    recompilation. *)

val run : compiled -> ctxt:Ctxt.t -> now:(unit -> int) -> Interp.outcome

val exec : compiled -> ctxt:Ctxt.t -> now:(unit -> int) -> int
(** Like {!run} but returns only the action result, performing zero heap
    allocation in steady state.  [last_steps]/[last_privacy_denied] expose
    the rest of the outcome of the most recent [exec]/[run]. *)

val last_steps : compiled -> int
val last_privacy_denied : compiled -> int

val compiled_units : compiled -> int
(** Number of distinct program units this instance has compiled (the root
    plus each tail-call target reached so far).  Units are cached by the
    loaded instance's unique id, so same-named but distinct programs never
    share or evict each other's units. *)

val loaded : compiled -> Loaded.t

(** {2 Batched invocation}

    [exec_batch] runs every live slot of a {!Batch.t} through the root
    program with one structure-of-arrays kernel: execution is
    instruction-major over the batch, so instruction dispatch, model
    weights ({!Kml.Quantize.Qmlp} tiles, flat decision trees) and
    constant matrices are touched once per instruction instead of once
    per slot.

    A program is SoA-batchable when the kernel is observationally
    per-slot-identical to running the slots sequentially: no
    data-dependent control flow ([Jmp]/[Jcond]/[Jcond_imm]), no shared
    cross-slot mutable state ([Map_*]/[Ring_push]/[Vec_ld_map]/[Call]/
    [Tail_call]), and every operand statically in bounds — so the kernel
    is also statically trap-free.  {!Vm.invoke_batch} transparently falls
    back to the per-slot scalar path for everything else. *)

val batch_eligible : compiled -> bool
(** Whether the root program admits the SoA kernel (checked statically;
    cached after the first call). *)

val exec_batch : compiled -> Batch.t -> bool
(** Run slots [0 .. b.n - 1] through the root program.  Returns [false]
    (and leaves the batch untouched) when the program is not batchable;
    on [true], [results]/[steps]/[denied] are filled per slot and
    [traps] is all [None].  Steady-state allocation-free once the
    kernel's capacity covers [b.n] (buffers grow geometrically). *)
