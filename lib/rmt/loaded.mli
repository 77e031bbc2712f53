(** A loaded (linked) RMT program instance.

    Loading binds a verified {!Program.t} to concrete kernel objects: map
    slots to {!Map_store} instances, model slots to {!Model_store} handles,
    tail-call slots to other loaded programs, and materializes the
    program's declared capabilities (privacy account, guardrail, rate
    limiter).  {!Control.install} is the only intended producer; the
    constructor here is exposed for tests. *)

type t = {
  prog : Program.t;
  uid : int;                         (** unique per linked instance *)
  maps : Map_store.t array;
  models : Model_store.handle array;
  store : Model_store.t;
  helpers : Helper.t;
  prog_table : t option array;      (** tail-call targets, patchable *)
  privacy : Privacy.account option;
  guardrail : Guardrail.t option;
  rng : Kml.Rng.t;                   (** noise source for DP helpers *)
  consts : int array array;          (** raw Q16.16 constant data *)
  vmem : int array;                  (** scratchpad, zeroed per invocation *)
  env : Helper.env;                  (** reusable helper env; engines set ctxt/now per run *)
  call_args : int array array;       (** helper-argument scratch, indexed by arity 0..5 *)
  ml_args : int array array;         (** feature scratch, one per model slot *)
  matmul_src : int array;            (** [Mat_mul] src-snapshot scratch (max const cols) *)
  mutable runs : int;
  mutable total_steps : int;
}

(** The scratch buffers ([env], [call_args], [ml_args], [matmul_src]) make
    steady-state execution allocation-free.  They are only valid for the
    duration of one instruction: helpers and [Fn] models must not retain
    the argument array they are passed. *)

val link :
  ?rng:Kml.Rng.t ->
  store:Model_store.t ->
  helpers:Helper.t ->
  maps:Map_store.t array ->
  models:Model_store.handle array ->
  Program.t ->
  t
(** Builds the instance, creating fresh maps' bindings as given.  Checks
    that map and model slot counts match the program's declarations and
    that each bound model's feature arity matches; raises
    [Invalid_argument] otherwise.  Tail-call slots start unbound. *)

val bind_tail_call : t -> slot:int -> t -> unit
val name : t -> string
val uid : t -> int
