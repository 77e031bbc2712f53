(** Compile-time resource reports (Homunculus-style admission artifacts).

    When the verifier admits a program, everything that bounds its
    runtime footprint is already known statically: the worst-case dynamic
    step count, the scratchpad and constant-pool words it touches and the
    kernel-object slots it will pin at link time.  [of_report]
    packages those numbers into one record per program, so operators can
    see what an install costs {e before} it serves traffic and CI can
    diff reports across revisions.

    A {!budget} is the declared ceiling an installation must fit under:
    {!Control.install} rejects programs over budget when one is supplied,
    and [rkdctl verify --max-steps/--max-scratch/--max-slots] exits
    nonzero — the same shape the NAS search already uses for the model
    dimension ({!Kml.Model_cost.budget}), so a search can co-optimize
    model cost against the program budget that hosts it. *)

type t = {
  program : string;
  steps : int;          (** verifier worst-case dynamic instructions *)
  scratch_words : int;  (** vector scratchpad words zeroed per invocation *)
  const_words : int;    (** total constant-pool words pinned at link time *)
  table_slots : int;    (** kernel-object slots: maps + models + tail calls *)
}

type budget = { max_steps : int; max_scratch_words : int; max_table_slots : int }

val default_budget : budget
(** Mirrors {!Verifier.default_limits} for steps and scratch; 16 slots. *)

val of_report : Verifier.report -> Program.t -> t
(** Derive the report for a verified program. *)

val within : t -> budget -> bool

val violations : t -> budget -> string list
(** Human-readable budget violations; [[]] iff {!within}. *)

val pp : Format.formatter -> t -> unit

val to_json : t -> string
(** One-line JSON object (stable key order) for CI artifacts. *)
