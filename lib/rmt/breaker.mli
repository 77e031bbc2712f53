(** Circuit breaker guarding a learned datapath (DESIGN.md section 12).

    State machine: [Closed] (learned path serves) → [Open] (fallback
    heuristic serves) on a failure burst → [Half_open] (probe the learned
    path) once the backoff deadline passes → [Closed] again after enough
    probe successes, or back to [Open] (with doubled backoff) on a probe
    failure.

    Deterministic under the simulated clock: backoff grows exponentially
    from [backoff_base_ns] to [backoff_max_ns], plus jitter drawn from the
    breaker's own seeded rng, so a fault schedule replays to the same
    transition sequence at any pool width. *)

type state = Closed | Open | Half_open

type config = {
  failure_threshold : int;  (** consecutive failures (Closed) before opening *)
  success_threshold : int;  (** probe successes (Half_open) before closing *)
  backoff_base_ns : int;    (** first open-interval length *)
  backoff_max_ns : int;     (** backoff growth cap *)
  jitter_pct : int;         (** random extra backoff, percent of the interval *)
  guardrail_rate : float;   (** windowed violation rate treated as a failure *)
  saturation_streak : int;  (** consecutive throttled firings treated as a failure *)
}

val default_config : config
(** 3 failures to open, 2 probes to close, 1ms..1s backoff, 10% jitter,
    0.5 guardrail rate, 8-firing saturation streak. *)

type t

val create : ?config:config -> ?seed:int -> string -> t
(** A fresh closed breaker named for telemetry. *)

val name : t -> string
val config : t -> config
val state : t -> state
val state_code : state -> int
(** 0 = Closed, 1 = Open, 2 = Half_open (registry encoding). *)

val allow : t -> now:int -> bool
(** May the learned path serve this invocation?  [Closed]: yes.  [Open]:
    no, unless the backoff deadline has passed — then the breaker moves to
    [Half_open] and admits a probe.  [Half_open]: yes (probing). *)

val record_success : t -> now:int -> unit
val record_failure : t -> now:int -> unit
val trip : t -> now:int -> unit
(** Open immediately regardless of state (e.g. on an [Adapt] degrade
    signal); a no-op when already open. *)

val reset : t -> unit
(** Back to a fresh closed state (counters preserved). *)

val retry_at : t -> int
(** Next probe deadline (meaningful when open). *)

val opens : t -> int
val closes : t -> int
val transitions : t -> int
