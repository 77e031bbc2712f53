(** Multicore CFS-style scheduler with periodic load balancing.

    The scheduler is tick-driven: every [tick_ns] each CPU charges its
    running task, handles sleep/finish transitions and preemption by
    vruntime, and every [balance_interval_ns] a balancing pass pulls tasks
    from the busiest to the idlest CPU.  Each pull candidate goes through
    the pluggable {e migration decider} — the [can_migrate_task] decision
    point of case study 2.  Every consultation is recorded (features,
    heuristic label, actual decision), which is both the ML training-data
    collection path and the accuracy monitor. *)

type decider = features:int array -> heuristic:bool -> bool

val heuristic_decider : decider
(** Follows the CFS heuristic (ignores nothing, returns [heuristic]). *)

type event = { features : int array; heuristic : bool; decision : bool }

type params = {
  n_cpus : int;
  tick_ns : int;
  balance_interval_ns : int;
  sched_granularity_ns : int;   (** preemption granularity *)
  max_examined_per_balance : int;
  migration_cost_ns : int;      (** simulated cache-refill penalty per migration *)
}

val default_params : params

type t

val create : ?params:params -> ?decider:decider -> ?record_events:bool -> Task.t list -> t
(** Tasks enter at their [arrival_ns]; initial placement is round-robin. *)

val now : t -> int
val finished : t -> bool
val step : t -> unit
(** Advance one tick. *)

val run : ?max_ns:int -> t -> int
(** Run to completion (or the horizon); returns the makespan in ns.
    Raises [Failure] if the horizon is hit with unfinished tasks. *)

val events : t -> event list
(** Migration-decision log, oldest first. *)

val migrations : t -> int
val tasks : t -> Task.t list
