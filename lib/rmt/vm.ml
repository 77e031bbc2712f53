type engine = Interpreted | Jit_compiled

(* Datapath telemetry (DESIGN.md section 11): one counter bump, one
   histogram observation and one trace event per invocation, all behind
   [Obs.enabled] and all allocation-free — the steady-state zero-alloc
   contract of the JIT fast path is Gc-verified with telemetry on. *)
let c_invocations = Obs.Counter.make "rmt.vm.invocations"
let h_steps = Obs.Histo.make "rmt.vm.steps"
let c_traps = Obs.Counter.make "rmt.vm.traps"

(* Canary lifecycle totals (DESIGN.md section 12). *)
let c_shadow_runs = Obs.Counter.make "rmt.canary.shadow_runs"
let c_divergences = Obs.Counter.make "rmt.canary.divergences"
let c_promoted = Obs.Counter.make "rmt.canary.promoted"
let c_rolled_back = Obs.Counter.make "rmt.canary.rolled_back"
let c_grace_rollbacks = Obs.Counter.make "rmt.canary.grace_rollbacks"

(* Candidate slot of the two-slot install protocol: shadows the incumbent
   for [remaining] invocations, counting divergences (trap, fresh
   guardrail violation, or result mismatch). *)
type canary = {
  c_loaded : Loaded.t;
  mutable c_compiled : Jit.compiled option;
  mutable c_remaining : int;
  mutable c_divergences : int;
  c_max_divergences : int;
  c_grace : int;
}

(* Displaced incumbent, kept for [g_remaining] invocations after a
   promotion so a trap or breaker-open can roll the promotion back. *)
type grace = {
  g_loaded : Loaded.t;
  g_compiled : Jit.compiled option;
  mutable g_remaining : int;
}

type t = {
  mutable loaded : Loaded.t;
  mutable engine : engine;
  mutable compiled : Jit.compiled option;
  (* The limiter needs a creation timestamp, which is only known at the
     first invocation; hence the deferred initialization below. *)
  mutable limiter_state : Rate_limit.t option;
  mutable limiter_initialized : bool;
  mutable traps : int;
  mutable canary : canary option;
  mutable grace : grace option;
}

let create ?(engine = Jit_compiled) loaded =
  { loaded;
    engine;
    compiled = (match engine with Jit_compiled -> Some (Jit.compile loaded) | Interpreted -> None);
    limiter_state = None;
    limiter_initialized = false;
    traps = 0;
    canary = None;
    grace = None }

let engine t = t.engine

let set_engine t e =
  t.engine <- e;
  match e with
  | Jit_compiled -> if t.compiled = None then t.compiled <- Some (Jit.compile t.loaded)
  | Interpreted -> ()

let loaded t = t.loaded
let traps t = t.traps

let limiter_for t ~now =
  if not t.limiter_initialized then begin
    t.limiter_initialized <- true;
    t.limiter_state <-
      (match Program.rate_limited t.loaded.Loaded.prog with
       | Some (tokens_per_sec, burst) ->
         Some (Rate_limit.create ~tokens_per_sec ~burst ~now:(now ()))
       | None -> None)
  end;
  t.limiter_state

let compiled_for t =
  match t.compiled with
  | Some c -> c
  | None ->
    let c = Jit.compile t.loaded in
    t.compiled <- Some c;
    c

(* Point [t] at a different loaded instance in place.  In-place matters:
   table entries hold direct [Run vm] references (Table.action), so
   promotion and rollback must be visible through the existing Vm without
   touching any table. *)
let adopt t ?compiled loaded =
  t.loaded <- loaded;
  t.compiled <-
    (match t.engine with
     | Interpreted -> None
     | Jit_compiled ->
       (match compiled with Some _ as c -> c | None -> Some (Jit.compile loaded)));
  t.limiter_state <- None;
  t.limiter_initialized <- false

let swap t loaded =
  t.canary <- None;
  t.grace <- None;
  adopt t loaded

let rollback t =
  match t.grace with
  | None -> false
  | Some g ->
    adopt t ?compiled:g.g_compiled g.g_loaded;
    t.grace <- None;
    Obs.Counter.incr c_grace_rollbacks;
    true

let engine_code = function Interpreted -> 0 | Jit_compiled -> 1

(* One fixed-size flight-recorder event per invocation.  The guardrail
   clamps inside the engines, so its contribution is detected as a
   violation-count delta across the run; throttling and privacy denials
   are visible directly. *)
let record t ~violations_before ~steps ~result ~throttled ~denied =
  Obs.Counter.incr c_invocations;
  Obs.Histo.observe h_steps steps;
  let flags =
    (if throttled then Obs.Trace.flag_throttled else 0)
    lor
    (if denied > 0 then Obs.Trace.flag_privacy_denied else 0)
    lor
    match t.loaded.Loaded.guardrail with
    | Some g when Guardrail.violations g > violations_before -> Obs.Trace.flag_guardrail
    | Some _ | None -> 0
  in
  Obs.Trace.emit
    ~hook:(Obs.Trace.current_hook ())
    ~uid:t.loaded.Loaded.uid
    ~engine:(engine_code t.engine)
    ~steps ~result ~flags

let guardrail_violations_now t =
  match t.loaded.Loaded.guardrail with Some g -> Guardrail.violations g | None -> 0

(* ------------------------------------------------------------------ *)
(* Trap containment (DESIGN.md section 12)                              *)
(* ------------------------------------------------------------------ *)

(* Exception normalization lives in {!Interp.trap_of_exn}; the policy on
   a recognized trap is here.  Accounting — trap counters plus rolling
   back a promotion still inside its grace window, so the incumbent
   heuristic-vetted program serves the next invocation — is shared
   between the raising scalar path and the per-slot containing batch
   path. *)
let record_trap t =
  t.traps <- t.traps + 1;
  Obs.Counter.incr c_traps;
  match t.grace with Some _ -> ignore (rollback t : bool) | None -> ()

(* Called on the cold path, with the engine already unwound. *)
let contain_trap t exn =
  match Interp.trap_of_exn exn with
  | None -> raise exn
  | Some trap ->
    record_trap t;
    raise (Interp.Trap trap)

(* ------------------------------------------------------------------ *)
(* Canary shadowing (DESIGN.md section 12)                              *)
(* ------------------------------------------------------------------ *)

let canary_compiled c =
  match c.c_compiled with
  | Some jc -> jc
  | None ->
    let jc = Jit.compile c.c_loaded in
    c.c_compiled <- Some jc;
    jc

let promote t c =
  let prev_loaded = t.loaded and prev_compiled = t.compiled in
  adopt t
    ?compiled:(match t.engine with Jit_compiled -> Some (canary_compiled c) | Interpreted -> None)
    c.c_loaded;
  t.canary <- None;
  t.grace <-
    (if c.c_grace > 0 then
       Some { g_loaded = prev_loaded; g_compiled = prev_compiled; g_remaining = c.c_grace }
     else None);
  Obs.Counter.incr c_promoted

(* One shadow step per live invocation: run the candidate on [shadow_ctxt],
   a copy of the context taken before the incumbent ran (its maps and vmem
   are its own, so the live datapath state is untouched), compare against
   the incumbent's result, and promote or roll back when the canary budget
   is spent. *)
let shadow_step t c ~shadow_ctxt ~now incumbent_result =
  Obs.Counter.incr c_shadow_runs;
  let violations_before =
    match c.c_loaded.Loaded.guardrail with Some g -> Guardrail.violations g | None -> 0
  in
  let candidate_result =
    match t.engine with
    | Interpreted -> (Interp.run c.c_loaded ~ctxt:shadow_ctxt ~now).Interp.result
    | Jit_compiled -> Jit.exec (canary_compiled c) ~ctxt:shadow_ctxt ~now
  in
  match candidate_result with
  | result ->
    let violated =
      match c.c_loaded.Loaded.guardrail with
      | Some g -> Guardrail.violations g > violations_before
      | None -> false
    in
    if violated || result <> incumbent_result then begin
      c.c_divergences <- c.c_divergences + 1;
      Obs.Counter.incr c_divergences
    end;
    c.c_remaining <- c.c_remaining - 1;
    if c.c_remaining <= 0 then
      if c.c_divergences <= c.c_max_divergences then promote t c
      else begin
        t.canary <- None;
        Obs.Counter.incr c_rolled_back
      end
  | exception exn ->
    (match Interp.trap_of_exn exn with
     | None -> raise exn
     | Some _ ->
       (* A trapping candidate is disqualified outright. *)
       t.canary <- None;
       Obs.Counter.incr c_divergences;
       Obs.Counter.incr c_rolled_back)

let tick_grace t g =
  g.g_remaining <- g.g_remaining - 1;
  if g.g_remaining <= 0 then t.grace <- None

(* The context a candidate shadows on: a copy taken before the incumbent
   runs while a canary is in flight, so the candidate never sees the
   incumbent's context writes; the live context itself (no allocation)
   when idle, where no shadow run reads it. *)
let shadow_of t ctxt = if t.canary == None then ctxt else Ctxt.copy ctxt

(* Cold path hung off the hot invokes below: two option loads when idle. *)
let staging_step t ~shadow_ctxt ~now result =
  (match t.canary with Some c -> shadow_step t c ~shadow_ctxt ~now result | None -> ());
  match t.grace with Some g -> tick_grace t g | None -> ()

let stage_canary t ?(invocations = 64) ?max_divergences ?(grace = 256) loaded =
  if invocations <= 0 then invalid_arg "Vm.stage_canary: invocations must be positive";
  let max_divergences =
    match max_divergences with Some d -> Stdlib.max 0 d | None -> invocations / 4
  in
  t.canary <-
    Some
      { c_loaded = loaded;
        c_compiled = None;
        c_remaining = invocations;
        c_divergences = 0;
        c_max_divergences = max_divergences;
        c_grace = grace }

let cancel_canary t =
  match t.canary with
  | None -> false
  | Some _ ->
    t.canary <- None;
    Obs.Counter.incr c_rolled_back;
    true

let canary_status t =
  match (t.canary, t.grace) with
  | Some c, _ -> `Canary (c.c_remaining, c.c_divergences)
  | None, Some g -> `Grace g.g_remaining
  | None, None -> `Idle

(* ------------------------------------------------------------------ *)
(* Invocation                                                           *)
(* ------------------------------------------------------------------ *)

let invoke t ~ctxt ~now =
  let violations_before = guardrail_violations_now t in
  let shadow_ctxt = shadow_of t ctxt in
  let outcome =
    match
      (match t.engine with
       | Interpreted -> Interp.run t.loaded ~ctxt ~now
       | Jit_compiled -> Jit.run (compiled_for t) ~ctxt ~now)
    with
    | outcome -> outcome
    | exception exn -> contain_trap t exn
  in
  let outcome, throttled =
    match limiter_for t ~now with
    | None -> (outcome, false)
    | Some bucket ->
      let granted = Rate_limit.grant bucket ~now:(now ()) ~request:outcome.Interp.result in
      ({ outcome with Interp.result = granted }, granted < outcome.Interp.result)
  in
  if Obs.enabled () then
    record t ~violations_before ~steps:outcome.Interp.steps ~result:outcome.Interp.result
      ~throttled ~denied:outcome.Interp.privacy_denied;
  if t.canary != None || t.grace != None then
    staging_step t ~shadow_ctxt ~now outcome.Interp.result;
  outcome

let invoke_result t ~ctxt ~now =
  let violations_before = guardrail_violations_now t in
  let shadow_ctxt = shadow_of t ctxt in
  (* The trap handlers sit inside each engine arm, on an immediate (int)
     or already-boxed (outcome) value: a handler around the whole match
     would force the triple to materialize and break the JIT path's
     zero-allocation contract (the let-tuple below compiles to direct
     assignments only when every arm ends in a syntactic tuple). *)
  let result, steps, denied =
    match t.engine with
    | Interpreted ->
      let o =
        match Interp.run t.loaded ~ctxt ~now with
        | o -> o
        | exception exn -> contain_trap t exn
      in
      (o.Interp.result, o.Interp.steps, o.Interp.privacy_denied)
    | Jit_compiled ->
      let c = compiled_for t in
      let result =
        match Jit.exec c ~ctxt ~now with
        | r -> r
        | exception exn -> contain_trap t exn
      in
      (result, Jit.last_steps c, Jit.last_privacy_denied c)
  in
  let result, throttled =
    match limiter_for t ~now with
    | None -> (result, false)
    | Some bucket ->
      let granted = Rate_limit.grant bucket ~now:(now ()) ~request:result in
      (granted, granted < result)
  in
  if Obs.enabled () then record t ~violations_before ~steps ~result ~throttled ~denied;
  if t.canary != None || t.grace != None then staging_step t ~shadow_ctxt ~now result;
  result

let invoke_checked t ~ctxt ~now =
  match invoke t ~ctxt ~now with
  | outcome -> Ok outcome
  | exception Interp.Trap trap -> Error trap

let invoke_result_checked t ~ctxt ~now =
  match invoke_result t ~ctxt ~now with
  | result -> Ok result
  | exception Interp.Trap trap -> Error trap

(* ------------------------------------------------------------------ *)
(* Batched invocation (DESIGN.md section 13)                           *)
(* ------------------------------------------------------------------ *)

(* One slot of the per-slot fallback loop.  Traps are contained in the
   slot, never raised: the slot's columns record (0, 0, 0, Some trap) and
   the remaining slots still run.  Trap accounting matches the scalar
   path — including a grace-window rollback, after which the *rest of the
   batch* runs the rolled-back incumbent (per-slot failsafe, not
   batch-atomic). *)
let run_slot_fallback t b s ~now =
  let ctxt = b.Batch.ctxts.(s) in
  match t.engine with
  | Interpreted ->
    (match Interp.run t.loaded ~ctxt ~now with
     | o ->
       b.Batch.results.(s) <- o.Interp.result;
       b.Batch.steps.(s) <- o.Interp.steps;
       b.Batch.denied.(s) <- o.Interp.privacy_denied;
       b.Batch.traps.(s) <- None
     | exception exn ->
       (match Interp.trap_of_exn exn with
        | None -> raise exn
        | Some trap ->
          record_trap t;
          b.Batch.results.(s) <- 0;
          b.Batch.steps.(s) <- 0;
          b.Batch.denied.(s) <- 0;
          b.Batch.traps.(s) <- Some trap))
  | Jit_compiled ->
    let c = compiled_for t in
    (match Jit.exec c ~ctxt ~now with
     | result ->
       b.Batch.results.(s) <- result;
       b.Batch.steps.(s) <- Jit.last_steps c;
       b.Batch.denied.(s) <- Jit.last_privacy_denied c;
       b.Batch.traps.(s) <- None
     | exception exn ->
       (match Interp.trap_of_exn exn with
        | None -> raise exn
        | Some trap ->
          record_trap t;
          b.Batch.results.(s) <- 0;
          b.Batch.steps.(s) <- 0;
          b.Batch.denied.(s) <- 0;
          b.Batch.traps.(s) <- Some trap))

let invoke_batch t b ~now =
  let n = b.Batch.n in
  if n > 0 then begin
    let violations_before = guardrail_violations_now t in
    (* Shadow contexts are snapshotted for the whole batch before either
       path runs the incumbent on any slot. *)
    let shadows =
      if t.canary == None then b.Batch.ctxts
      else Array.init n (fun s -> Ctxt.copy b.Batch.ctxts.(s))
    in
    (* The SoA kernel runs only on the JIT engine with fault injection
       quiescent: under an active injection plan every per-slot seam
       (Engine_trap, model faults) must get its own draw, which the
       per-slot loop provides and an instruction-major kernel cannot. *)
    let used_kernel =
      (match t.engine with
       | Jit_compiled when not (Fault.active ()) -> Jit.exec_batch (compiled_for t) b
       | Interpreted | Jit_compiled -> false)
    in
    if not used_kernel then
      for s = 0 to n - 1 do
        run_slot_fallback t b s ~now
      done;
    (* Per-slot epilogue in slot order, exactly as a loop of scalar
       invokes would run it: rate-limiter grant (inherently sequential
       shared state), flight-recorder event, canary/grace staging step.
       Trapped slots are skipped — they produced no result to limit,
       record or shadow.  For the SoA kernel, guardrail violations cannot
       be attributed to a single slot, so the trace flag means "some slot
       of this batch". *)
    for s = 0 to n - 1 do
      if b.Batch.traps.(s) == None then begin
        let result = b.Batch.results.(s) in
        let result, throttled =
          match limiter_for t ~now with
          | None -> (result, false)
          | Some bucket ->
            let granted = Rate_limit.grant bucket ~now:(now ()) ~request:result in
            (granted, granted < result)
        in
        b.Batch.results.(s) <- result;
        if Obs.enabled () then
          record t ~violations_before ~steps:b.Batch.steps.(s) ~result ~throttled
            ~denied:b.Batch.denied.(s);
        if t.canary != None || t.grace != None then
          staging_step t ~shadow_ctxt:shadows.(s) ~now result
      end
    done
  end

let jit_units t =
  match t.compiled with Some c -> Jit.compiled_units c | None -> 0

let invocations t = t.loaded.Loaded.runs
let total_steps t = t.loaded.Loaded.total_steps

let throttled_units t =
  match t.limiter_state with Some bucket -> Rate_limit.throttled bucket | None -> 0

let guardrail_violations t =
  match t.loaded.Loaded.guardrail with Some g -> Guardrail.violations g | None -> 0

let guardrail_degraded t ~rate =
  match t.loaded.Loaded.guardrail with
  | Some g -> Guardrail.violation_rate_ge g rate
  | None -> false
