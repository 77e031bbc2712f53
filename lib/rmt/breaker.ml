type state = Closed | Open | Half_open

type config = {
  failure_threshold : int;
  success_threshold : int;
  backoff_base_ns : int;
  backoff_max_ns : int;
  jitter_pct : int;
  guardrail_rate : float;
  saturation_streak : int;
}

let default_config =
  { failure_threshold = 3;
    success_threshold = 2;
    backoff_base_ns = 1_000_000;
    backoff_max_ns = 1_000_000_000;
    jitter_pct = 10;
    guardrail_rate = 0.5;
    saturation_streak = 8 }

type t = {
  name : string;
  config : config;
  rng : Kml.Rng.t;
  mutable state : state;
  mutable consecutive_failures : int;
  mutable probe_successes : int;
  mutable open_streak : int; (* opens since the last close; drives backoff *)
  mutable retry_at : int;
  mutable opens : int;
  mutable closes : int;
  mutable transitions : int;
}

(* Process-wide transition totals (DESIGN.md section 11 discipline); the
   per-instance accessors below are the exact per-breaker story. *)
let c_opens = Obs.Counter.make "rmt.breaker.opens"
let c_closes = Obs.Counter.make "rmt.breaker.closes"
let c_half_opens = Obs.Counter.make "rmt.breaker.half_opens"
let c_trips = Obs.Counter.make "rmt.breaker.trips"

let create ?(config = default_config) ?(seed = 0xb4ea) name =
  if config.failure_threshold <= 0 || config.success_threshold <= 0 then
    invalid_arg "Breaker.create: thresholds must be positive";
  if config.backoff_base_ns <= 0 || config.backoff_max_ns < config.backoff_base_ns then
    invalid_arg "Breaker.create: need 0 < backoff_base_ns <= backoff_max_ns";
  { name;
    config;
    rng = Kml.Rng.create (seed lxor Hashtbl.hash name);
    state = Closed;
    consecutive_failures = 0;
    probe_successes = 0;
    open_streak = 0;
    retry_at = 0;
    opens = 0;
    closes = 0;
    transitions = 0 }

let name t = t.name
let config t = t.config
let state t = t.state
let state_code = function Closed -> 0 | Open -> 1 | Half_open -> 2
let retry_at t = t.retry_at
let opens t = t.opens
let closes t = t.closes
let transitions t = t.transitions

(* Saturating exponential backoff: base * 2^(open_streak - 1), capped. *)
let backoff_ns t =
  let cfg = t.config in
  let rec grow b k = if k <= 0 || b >= cfg.backoff_max_ns then b else grow (b * 2) (k - 1) in
  Stdlib.min cfg.backoff_max_ns (grow cfg.backoff_base_ns (t.open_streak - 1))

let open_now t ~now =
  t.state <- Open;
  t.opens <- t.opens + 1;
  t.transitions <- t.transitions + 1;
  t.open_streak <- t.open_streak + 1;
  t.probe_successes <- 0;
  let backoff = backoff_ns t in
  let jitter =
    if t.config.jitter_pct <= 0 then 0
    else Kml.Rng.int t.rng (Stdlib.max 1 (backoff * t.config.jitter_pct / 100))
  in
  t.retry_at <- now + backoff + jitter;
  Obs.Counter.incr c_opens

let allow t ~now =
  match t.state with
  | Closed -> true
  | Half_open -> true
  | Open ->
    if now >= t.retry_at then begin
      t.state <- Half_open;
      t.transitions <- t.transitions + 1;
      t.probe_successes <- 0;
      Obs.Counter.incr c_half_opens;
      true
    end
    else false

let record_success t ~now:_ =
  match t.state with
  | Closed -> t.consecutive_failures <- 0
  | Open -> ()
  | Half_open ->
    t.probe_successes <- t.probe_successes + 1;
    if t.probe_successes >= t.config.success_threshold then begin
      t.state <- Closed;
      t.transitions <- t.transitions + 1;
      t.consecutive_failures <- 0;
      t.open_streak <- 0;
      t.closes <- t.closes + 1;
      Obs.Counter.incr c_closes
    end

let record_failure t ~now =
  match t.state with
  | Open -> ()
  | Closed ->
    t.consecutive_failures <- t.consecutive_failures + 1;
    if t.consecutive_failures >= t.config.failure_threshold then open_now t ~now
  | Half_open -> open_now t ~now

let trip t ~now =
  match t.state with
  | Open -> ()
  | Closed | Half_open ->
    Obs.Counter.incr c_trips;
    open_now t ~now

let reset t =
  t.state <- Closed;
  t.consecutive_failures <- 0;
  t.probe_successes <- 0;
  t.open_streak <- 0;
  t.retry_at <- 0
