(** Zero-overhead telemetry for the datapath (DESIGN.md section 11).

    The control plane of the paper reacts to runtime signals — accuracy
    drops, rate-limit pressure, model cost — so the reproduction needs a
    uniform, low-cost way to observe the datapath.  This library provides
    four primitives, all designed so the instrumented hot paths stay
    allocation free (Gc-verified in [test/test_obs.ml]) and within the
    micro-benchmark baseline tolerance:

    - {!Counter} / {!Gauge}: monotonic / signed totals kept in per-domain
      striped atomic cells, so multicore experiment fan-out never contends
      on a shared cache line.  Summed only at snapshot time.
    - {!Histo}: fixed 64-bucket log2 histograms with a zero-alloc
      [observe] and read-time percentile estimation.
    - {!Trace}: a bounded power-of-two ring buffer of fixed-size
      invocation events (a flight recorder): overwrites the oldest event
      under steady load, drops (and counts drops) while a reader has the
      ring frozen, and never allocates on [emit].
    - {!Registry} / {!Snapshot}: named registration of every metric plus
      read-only views over pre-existing counters, immutable point-in-time
      snapshots, interval [diff], and Prometheus-text / JSON exporters.

    Every write-side primitive is gated on {!enabled}: when telemetry is
    off (RKD_OBS=0 or {!set_enabled}[ false]) the primitives reduce to a
    single flag load and branch, so instrumentation can stay compiled
    into the datapath unconditionally. *)

val enabled : unit -> bool
(** Whether write-side primitives record anything.  Initially true unless
    the [RKD_OBS] environment variable is ["0"], ["false"] or ["off"]. *)

val set_enabled : bool -> unit

val intern : string -> int
(** Interns a string (hook names, mostly) to a small dense id for use in
    fixed-size trace events.  Stable for the life of the process. *)

val intern_name : int -> string
(** Inverse of {!intern}; ["?<id>"] for ids never interned. *)

(** {2 Stripe capacity guard}

    Counters, gauges and histogram sums are striped by domain id.  Domain
    ids are allocated monotonically by the runtime, so a process that
    spawns long-lived pinned domains after many pool resizes can exceed
    the stripe capacity; such domains alias earlier stripes.  Aliasing is
    benign for correctness (stripes are atomic cells, totals stay exact)
    but costs contention — the guard makes it observable instead of
    silent. *)

val stripe_capacity : int
(** Number of stripes per metric (128). *)

val stripe_of_id : int -> int
(** Stripe index a domain id maps to, always in
    [\[0, stripe_capacity)].  An id at or beyond the capacity is masked
    down and recorded in {!stripe_overflow_max_id} (also exported as the
    [obs.stripe.overflow_max_id] registry view). *)

val stripe_overflow_max_id : unit -> int
(** Largest domain id ever seen beyond the stripe capacity; -1 when no
    overflow has occurred. *)

module Counter : sig
  type t

  val make : string -> t
  (** Creates (or returns the already-registered counter of) this name.
      Registration order is preserved; snapshots report sorted names. *)

  val incr : t -> unit
  (** Adds 1 to the calling domain's stripe.  Zero allocation; a no-op
      (flag load + branch) when telemetry is disabled. *)

  val add : t -> int -> unit
  val value : t -> int
  (** Sum over all stripes.  Exact: stripes are atomic cells, so no
      increment is ever lost regardless of domain interleaving. *)

  val name : t -> string
end

module Gauge : sig
  type t

  val make : string -> t
  val add : t -> int -> unit
  val sub : t -> int -> unit

  val set : t -> int -> unit
  (** Clears every stripe then sets the calling domain's.  Not atomic as
      a whole; meant for single-writer gauges (sizes, capacities). *)

  val value : t -> int
  val name : t -> string
end

module Histo : sig
  type t

  val make : string -> t

  val observe : t -> int -> unit
  (** Records a value in its log2 bucket.  Zero allocation. *)

  val n_buckets : int
  (** 64: bucket 0 holds values <= 1, bucket [k >= 1] holds values in
      [[2^k, 2^(k+1))]; the last bucket absorbs everything above. *)

  val bucket_of_value : int -> int
  val bucket_lo : int -> int
  (** Smallest value mapping to the bucket (0 for bucket 0). *)

  val bucket_hi : int -> int
  (** Largest value mapping to the bucket ([max_int] for the last). *)

  val count : t -> int
  val sum : t -> int
  val buckets : t -> int array
  (** Copy of the 64 per-bucket counts. *)

  val percentile : t -> float -> int
  (** [percentile h p] for [p] in [0, 1]: upper bound of the bucket that
      contains the [ceil (p * count)]-th smallest observation; 0 when the
      histogram is empty.  A read-time estimate: resolution is the bucket
      width (a factor of 2). *)

  val name : t -> string
end

module Trace : sig
  (** Process-wide flight recorder of datapath invocation events. *)

  type event = {
    seq : int;  (** monotonically increasing emission index *)
    hook : int;  (** interned hook name ({!intern}), -1 outside any hook *)
    uid : int;  (** Loaded-program uid, -1 when not program-scoped *)
    engine : int;  (** 0 = interpreter, 1 = JIT *)
    steps : int;  (** dynamic instructions of this invocation *)
    result : int;  (** action result after guardrail/rate-limit *)
    flags : int;  (** or of [flag_*] below *)
  }

  val flag_throttled : int
  (** The rate limiter granted less than the program requested. *)

  val flag_guardrail : int
  (** The guardrail clamped the result during this invocation. *)

  val flag_privacy_denied : int
  (** At least one privacy-charged helper was denied. *)

  val configure : capacity:int -> unit
  (** Re-creates the ring with at least [capacity] slots (rounded up to a
      power of two, clamped to [8, 2^20]) and resets {!emitted},
      {!dropped} and the frozen bit.  Not safe concurrently with [emit];
      call it at startup or between test phases. *)

  val capacity : unit -> int

  val emit :
    hook:int ->
    uid:int ->
    engine:int ->
    steps:int ->
    result:int ->
    flags:int ->
    unit
  (** Claims the next slot with one atomic fetch-and-add and writes the
      six event words (slots are 8 words; word 5 is unused).  Steady state allocates nothing and never blocks:
      under wrap the oldest event is overwritten; while the ring is
      {!freeze}-d the event is dropped and counted instead.  Concurrent
      emitters that wrap the ring while another writer is mid-slot can
      tear that slot; [last] detects the torn slot by its seq word and
      skips it. *)

  val emitted : unit -> int
  (** Events ever accepted (drops excluded). *)

  val dropped : unit -> int

  val freeze : unit -> unit
  (** Readers freeze the ring around a dump so the events they walk are
      not overwritten mid-read; emitters drop (and count) meanwhile. *)

  val unfreeze : unit -> unit

  val last : int -> event list
  (** Up to [n] most recent events, oldest first. *)

  val set_current_hook : int -> unit
  (** Domain-local ambient hook id: the pipeline sets it around table
      dispatch so VM-level events can attribute themselves to a hook. *)

  val current_hook : unit -> int
end

module Snapshot : sig
  type kind = Counter | Gauge | View

  type t = {
    scalars : (string * kind * int) array;  (** sorted by name *)
    histos : (string * int array) array;  (** sorted by name; 64 buckets *)
    trace_emitted : int;
    trace_dropped : int;
    trace_capacity : int;
  }

  val scalar : t -> string -> int option
  val histo : t -> string -> int array option

  val diff : before:t -> after:t -> t
  (** Interval delta: [after] minus [before], per scalar and per histogram
      bucket.  Names only present in [after] pass through unchanged;
      names only present in [before] are dropped. *)

  val filter : t -> prefixes:string list -> t
  (** Keep only the scalars and histograms whose name starts with one of
      [prefixes] (e.g. [["rmt.breaker."; "rmt.fault."]] for the CI
      fault-injection artifact); trace totals pass through. *)

  val to_text : t -> string
  (** Human-readable listing (what [rkdctl stats] prints by default). *)

  val to_prometheus : t -> string
  (** Prometheus text exposition: scalars as counter/gauge families,
      histograms as cumulative [_bucket{le=...}] series plus [_sum] /
      [_count].  Metric names have [.] mapped to [_]. *)

  val to_json : t -> string
  (** One scalar/histogram per line ([rkd-obs-snapshot/1] schema), so the
      reader below can stay Scanf-only like the bench harness. *)

  val of_json : string -> (t, string) result
  (** Parses {!to_json} output; round-trips exactly. *)
end

module Registry : sig
  val register_view : string -> (unit -> int) -> unit
  (** Folds a pre-existing counter (a [.mli] accessor such as
      [Ctxt.reads] or [Vm.invocations]) into snapshots without moving its
      storage.  Re-registering a name replaces the previous view, so
      reinstalling a program keeps its view current. *)

  val unregister_view : string -> unit

  val snapshot : unit -> Snapshot.t
  (** Point-in-time snapshot of every counter, gauge, histogram and view.
      Per-cell reads are atomic; the snapshot as a whole is not a global
      barrier (counts being incremented concurrently land in this
      snapshot or the next). *)

  val reset_metrics : unit -> unit
  (** Zeroes every counter, gauge and histogram cell and resets the trace
      ring counters.  Views are left alone (their storage is elsewhere).
      Test isolation helper; not for the datapath. *)
end
