(** Drift-aware fleet control plane (DESIGN.md section 17).

    The paper's closing claim is that learned datapath policies must be
    {e safely reconfigurable online}: when accuracy degrades the control
    plane recomputes ML decisions and reconfigures the RMT tables without
    destabilizing the datapath.  This module closes that loop at fleet
    scale: a deterministic daemon loop over [tenants x shards] that

    - tracks per-tenant accuracy through {!Obs} registry views
      ([rmt.fleet.<tenant>.accuracy] / [.drift_episodes] / [.rollbacks]),
    - detects concept drift with {!Adapt} hysteresis (dwell floor plus an
      explicit per-tenant episode cooldown, so a flapping tenant cannot
      thrash installs),
    - on a drift episode retrains a teacher on the tenant's recent
      window, distills student candidates ({!Kml.Distill}), prunes them
      against a declared {!Kml.Model_cost} budget and scores the
      survivors on held-out samples ({!Kml.Nas}-style search under a
      {!Rmt.Resource} install ceiling), and
    - rolls the winner out in stages — 1 shard, then 25%, then all —
      promoting a stage only while every shadow-run divergence budget and
      guardrail window stays clean, with exponential-backoff retry and
      automatic {!Rmt.Control.rollback_program} of every touched shard on
      divergence, trap or breaker trip at any stage.

    The loop is a pure function of seed x tick (no wall clock): a soak is
    bit-identical at every pool width, clean or under a fault plan, which
    is what [rkdctl fleet --soak] and the [drift] chaos flavor check. *)

type params = {
  tenants : int;
  shards : int;
  events_per_tick : int;  (** per tenant per shard per tick *)
  n_features : int;
  feature_range : int;
  bootstrap_samples : int;  (** initial-model training set size *)
  adapt_low : float;
  adapt_high : float;
  adapt_window : int;  (** also the {!Adapt} dwell floor *)
  fresh_wait_ticks : int;
      (** delay between degrade detection and retraining, so the take is
          dominated by post-drift samples *)
  cooldown_ticks : int;  (** between episodes of one tenant *)
  backoff_base_ticks : int;  (** rollout retry backoff, doubling *)
  max_rollout_attempts : int;  (** per episode; 2 = the no-thrash bound *)
  stage_ticks : int;  (** per-stage promotion deadline *)
  canary_invocations : int;
  canary_grace : int;
  window_capacity : int;  (** per-tenant sample ring *)
  min_retrain_samples : int;
  retrain_take : int;  (** newest samples fed to the candidate search *)
  teacher_depth : int;
  student_depths : int list;
  candidate_floor_milli : int;
      (** a candidate below this held-out accuracy is not installed *)
  model_budget : Kml.Model_cost.budget;
  resource_budget : Rmt.Resource.budget;
  drift_start : int;  (** first concept change, in ticks *)
  drift_period : int;  (** between changes; ignored when [drift_count <= 1] *)
  drift_count : int;  (** changes per tenant over the soak *)
  drift_stagger : int;  (** per-tenant offset; 0 = simultaneous storm *)
  tick_ns : int;  (** simulated time per tick; breaker backoffs resolve in it *)
}

val default_params : params
(** 12 tenants x 4 shards, two staggered drifts per tenant. *)

val storm_params : params
(** {!default_params} with one simultaneous drift across every tenant —
    the [drift] chaos flavor's schedule. *)

(** Staged-rollout state machine, factored out of the per-tenant episode
    loop so the serving layer ({!Serve.Serving.staged_rollout}) can drive
    the same 1 -> 25% -> all progression over its shard datapaths.  Pure
    poll-driven control: the caller owns the clock (ticks) and calls
    {!Rollout.step} once per tick. *)
module Rollout : sig
  type target = {
    label : int;  (** shard index, for accounting *)
    install : unit -> bool;
        (** begin the canary install; [false] = refused (verifier,
            resource budget, injected fault) and the rollout fails *)
    status : unit -> [ `Pending | `Promoted | `Failed ];
        (** poll the canary: promoted, still shadowing, or rolled back *)
    healthy : unit -> bool;  (** breaker closed; gates stage entry *)
    restore : unit -> bool;
        (** undo a promotion (or cancel a pending canary); [true] when
            something was actually rolled back *)
  }

  type t

  type outcome =
    [ `In_flight  (** canaries shadowing, or waiting out an open breaker *)
    | `Promoted  (** every stage promoted *)
    | `Failed of int  (** rolled back; the int counts rollbacks performed *)
    ]

  val stage_plan : int -> int array array
  (** [stage_plan n] partitions target indices [0..n-1] into the staged
      fan-out: 1 target, then 25% (at least 1), then the rest; degenerate
      stages are dropped for small [n]. *)

  val start :
    targets:target array ->
    stages:int array array ->
    now:int ->
    stage_ticks:int ->
    [ `Started of t | `Unhealthy | `Failed of int ]
  (** Enter stage 0.  [`Unhealthy] when a stage-0 target's breaker is
      open — nothing was installed, so the caller can defer without
      consuming a rollout attempt.  [`Failed] when an install was refused
      (the attempt is consumed and anything staged is restored). *)

  val step : t -> now:int -> outcome
  (** Poll canaries, fail the stage past its deadline or on an open
      breaker, advance to the next stage when every canary of the current
      one promoted.  On failure every promotion of this rollout is
      restored (newest first) before [`Failed] is returned. *)

  val installs : t -> int
  (** Canary installs performed so far by this rollout. *)

  val abort : t -> int
  (** Tear the rollout down: restore pending canaries and promotions
      (newest first) and finish it.  Returns the rollbacks performed;
      {!step} must not be called afterwards. *)
end

type t

val create :
  ?params:params -> ?fault_specs:(Rmt.Fault.point * float) list -> seed:int -> unit -> t
(** Build the fleet: one {!Rmt.Control} per shard (telemetry namespaced
    [rmt.fleet.shard<i>]), one installed program + table entry + context
    per tenant per shard, one protected hook per shard whose breaker
    degrades that shard to the stock heuristic.  When [fault_specs] is
    given, every shard task of every tick runs under its own
    deterministic {!Rmt.Fault.with_plan} scope keyed by
    (seed, shard, tick) — this is what keeps a faulted soak bit-identical
    across pool widths; without it an ambient [RKD_FAULTS] global plan
    draws from one process-wide rng and is only deterministic
    sequentially. *)

val params : t -> params
val tick : ?pool:Par.pool -> t -> unit
(** One control-loop iteration: drive every shard's event slice (fanned
    over [pool] when given — results are bit-identical at any width),
    then run the sequential control step (accuracy merge, drift
    detection, episode state machines). *)

val digest : t -> int
(** Order- and width-independent fold of every (shard, tenant) decision
    stream plus the control-plane event stream. *)

val breakers : t -> Rmt.Breaker.t array
val recover : ?max_ticks:int -> t -> bool
(** Fault-free ticks (default at most 256) until every shard breaker has
    re-closed; [true] on success.  Mirrors the chaos recovery phase. *)

type tenant_view = {
  t_id : int;
  t_accuracy_milli : int;
  t_episodes : int;
  t_installs : int;
  t_promotions : int;  (** fully promoted rollouts *)
  t_rollbacks : int;
  t_deferred : int;  (** rollouts deferred on an open breaker *)
  t_max_attempts : int;  (** worst rollout-attempt count over its episodes *)
}

type report = {
  ticks : int;
  events : int;
  digest : int;
  uncaught : int;
  episodes : int;
  installs : int;
  promotions : int;
  rollbacks : int;
  deferred : int;
  max_attempts : int;
  breaker_opens : int;
  breakers_reclosed : bool;
  fallback_served : int;
  mean_accuracy_milli : int;
  per_tenant : tenant_view array;
}

val report : t -> report
val report_json : report -> string
(** One [rkd-fleet/1] JSON object (summary + per-tenant rows), the CI
    artifact format. *)

val soak :
  ?params:params ->
  ?fault_specs:(Rmt.Fault.point * float) list ->
  ?pool:Par.pool ->
  ?ticks:int ->
  seed:int ->
  unit ->
  report
(** [create] + [ticks] (default 160) iterations + {!recover} + {!report}:
    the [rkdctl fleet] / chaos-flavor entry point. *)
