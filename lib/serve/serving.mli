(** Sharded multi-tenant serving front-end (DESIGN.md section 14).

    Tenants are hash-pinned to shards: a tenant's execution-context slab,
    table entries and circuit breaker live on exactly one shard, so
    cross-tenant isolation needs no locks and per-tenant event order is
    FIFO end to end.  Producers reach each shard through a private SPSC
    {!Ring}; admission ({!submit}) is rate-limited, allocation-free and
    lock-free.  Shards drain either inline on the caller's domain
    ({!drain}) or on one pinned worker domain each ({!start}).

    The steady-state loop — [submit] through [drain] with the
    {!Shard.Datapath} sink and warm tenants — allocates nothing, with
    telemetry on. *)

type config = {
  shards : int;
  producers : int;
  ring_capacity : int;    (** per (producer, shard) ring; rounded to 2^k *)
  max_batch : int;        (** drain batch size = VM batch capacity *)
  tokens_per_sec : int;   (** per-producer admission rate; 0 = unlimited *)
  burst : int;
}

val default_config : config
(** 1 shard, 1 producer, 1024-slot rings, batches of 64, no rate limit. *)

type t

val create :
  ?config:config -> make_sink:(index:int -> view_ns:string -> Shard.sink) -> unit -> t
(** [make_sink] is called once per shard at creation (on the creating
    domain) with the shard's telemetry namespace [rmt.serve.<index>]. *)

val create_datapath : ?config:config -> unit -> t * Shard.Datapath.dp array
(** A fleet over the standard {!Shard.Datapath} sink, one per shard. *)

val create_prefetch :
  ?config:config -> ?params:Rkd.Prefetch_rmt.params -> ?seed:int -> unit ->
  t * Rkd.Prefetch_rmt.t array
(** A fleet of shard-pinned prefetch case studies ({!Rkd.Prefetch_rmt}),
    one full instance (own control plane, trainer, breaker) per shard,
    seeded [seed + index]. *)

val config : t -> config
val shards : t -> Shard.t array
val shard : t -> int -> Shard.t
val shard_of_tenant : t -> int -> int

(** {2 Clock} *)

val now_ns : t -> int
val set_now : t -> int -> unit
(** Advance the shared coarse clock (monotone max — concurrent
    heartbeats never step it backwards).  Producers stamp admissions and
    workers stamp drains from this clock; whoever owns time in the host
    program drives it. *)

(** {2 Admission} *)

val submit : t -> producer:int -> tenant:int -> page:int -> [ `Admitted | `Throttled | `Backpressure ]
(** One event from [producer].  [`Throttled]: the producer's token
    bucket refused it.  [`Backpressure]: the tenant's shard ring is full
    (the shard is behind); the event is dropped and counted.  Must be
    called by at most one thread per [producer] index at a time (SPSC).
    Allocation-free. *)

val admitted : t -> int
val throttled : t -> int
val backpressure : t -> int

(** {2 Inline mode} *)

val drain : t -> int
(** One sweep over every shard on the calling domain (control commands,
    then up to [max_batch] events per ring).  Single-domain mode — must
    not be mixed with {!start}; a shard has exactly one consumer. *)

val drain_until_idle : t -> unit

(** {2 Pinned workers} *)

val start : t -> unit
(** Spawn one pinned worker domain per shard.  The caller's
    fault-injection scope is captured once and split per worker
    ({!Rmt.Fault.capture_for}), so a chaos plan armed on the control
    domain reaches every shard datapath with an independent rng stream.
    Workers spin briefly when idle, then park until {!submit} or
    {!post} wakes them. *)

val stop : t -> unit
(** Publish stop, wake and join every worker.  Events admitted before
    [stop] are served (each worker does a final sweep).  No-op when not
    running. *)

val running : t -> bool

(** {2 Fleet views} *)

val served : t -> int
(** Total events served.  Exact when quiescent (after {!stop} or between
    inline drains). *)

val digest : t -> int
(** Xor of the shards' sink digests: identical for any shard count and
    any batch boundaries when fed the same per-tenant event streams. *)

val post : t -> shard:int -> (unit -> unit) -> unit
(** Run a control command (canary install, breaker trip, …) on a shard's
    consumer domain before its next batch. *)

val post_tenant : t -> tenant:int -> (unit -> unit) -> unit
(** {!post} addressed by tenant. *)

(** {2 Staged rollout}

    The fleet control plane's staged canary progression ({!Rkd.Fleet.Rollout},
    DESIGN.md section 17) applied to a serving fleet: 1 shard, then 25%,
    then all, each stage shadow-running the candidate under its
    divergence budget and gated on the shard breakers. *)

val staged_rollout :
  ?invocations:int ->
  ?max_divergences:int ->
  ?grace:int ->
  ?stage_ticks_ns:int ->
  t ->
  dps:Shard.Datapath.dp array ->
  program:Rmt.Program.t ->
  unit ->
  [ `Started of Rkd.Fleet.Rollout.t | `Unhealthy | `Failed of int ]
(** Begin a staged rollout of [program] across [dps] on the serving
    clock.  Drive it with {!Rkd.Fleet.Rollout.step} between inline
    drains, passing [now_ns t]; stages time out after [stage_ticks_ns]
    (default 1 s).  Inline mode only — with consumer domains running,
    route installs through {!post}. *)
