(* One round: set up a fresh fleet, run the saturating phase, then the
   paced phase, on one workload's inputs.  Untraced rounds feed the
   end-to-end metrics; a traced round additionally records a span around
   every call the benchmark makes into the serving plane, and the sink
   wrapper records one around every sink call. *)

open Workload

let max_batch = 64

let config ~shards =
  { Serve.Serving.shards;
    producers = 1;
    ring_capacity = 4096;
    max_batch;
    tokens_per_sec = 0;
    burst = 0 }

(* The program's own counters, read as before/after deltas around each
   phase through the public registry. *)
let prefixes =
  [ "rmt.jit."; "rmt.table."; "rmt.canary."; "rmt.breaker."; "rmt.pipeline."; "rmt.serve." ]

let snapshot () = Obs.Snapshot.filter (Obs.Registry.snapshot ()) ~prefixes
let delta before = Obs.Snapshot.diff ~before ~after:(snapshot ())
let count snap name = Option.value (Obs.Snapshot.scalar snap name) ~default:0

(* Buffers allocated once per run and reused by every round, so the heap
   a round sees does not depend on how many rounds came before. *)
type ctx = {
  spec : spec;
  inputs : inputs;
  seed : int;
  shards : int;
  main : Spans.t;  (** main-domain spans; empty capacity when untraced *)
  sinks : Spans.t array;  (** per-shard sink calls *)
  record_sinks : bool Atomic.t;
      (** whether the wrapper records sink calls: always when traced,
          only in the paced phase (for latency) otherwise *)
  served : int Atomic.t array;  (** per-shard events through the sink wrapper *)
  parent : int ref;  (** innermost open main-domain span (inline sinks) *)
  fifo : int array array;  (** per shard: paced event ids in admission order *)
  fifo_len : int array;
  due : int array;  (** paced event j: due time *)
  issued : int array;  (** paced event j: when the generator submitted it *)
  served_at : int array;  (** paced event j: return of the sink call that served it *)
  sink_start : int array;  (** paced event j: start of that sink call *)
  refused : bool array;
  collect : Rmt.Program.t;  (** the stock program churn rolls out *)
}

let create_ctx spec inputs ~seed ~shards ~traced =
  let events = total_events spec + Array.length inputs.warm_tenants in
  let n_paced = spec.paced_events in
  { spec;
    inputs;
    seed;
    shards;
    main = Spans.create (if traced then (2 * events) + 65_536 else 0);
    sinks =
      Array.init shards (fun _ ->
          Spans.create (if spec.learned then 0 else if traced then events else n_paced));
    record_sinks = Atomic.make traced;
    served = Array.init shards (fun _ -> Atomic.make 0);
    parent = ref (-1);
    fifo = Array.init shards (fun _ -> Array.make n_paced 0);
    fifo_len = Array.make shards 0;
    due = Array.make n_paced 0;
    issued = Array.make n_paced 0;
    served_at = Array.make n_paced 0;
    sink_start = Array.make n_paced 0;
    refused = Array.make n_paced false;
    collect = Rkd.Prefetch_rmt.build_collect_program Rkd.Prefetch_rmt.default_params }

let traced ctx = Spans.capacity ctx.main > 0
let pinned ctx = ctx.spec.mode = Pinned

type fleet = {
  serving : Serve.Serving.t;
  dps : Serve.Shard.Datapath.dp array;
  pfs : Rkd.Prefetch_rmt.t array;
}

(* The standard Datapath sink inside a wrapper that records each call:
   start, end, events and (traced) table entries added.  Inline, the
   parent is the drain span open on the main domain; pinned, -1 (the
   shard worker). *)
let wrap ctx ~index dp =
  let inner = Serve.Shard.Datapath.sink dp in
  let table = Serve.Shard.Datapath.table dp in
  let store = ctx.sinks.(index) and served = ctx.served.(index) in
  let parent = if pinned ctx then ref (-1) else ctx.parent in
  let traced = traced ctx and record = ctx.record_sinks in
  { inner with
    Serve.Shard.run =
      (fun ~n ~tenants ~pages ~now ->
        let entries = if traced then Rmt.Table.entry_count table else 0 in
        let t0 = Clock.now () in
        inner.Serve.Shard.run ~n ~tenants ~pages ~now;
        let t1 = Clock.now () in
        let added = if traced then Rmt.Table.entry_count table - entries else 0 in
        if Atomic.get record then Spans.add store Sink ~t0 ~t1 ~parent:!parent ~arg:n ~aux:added;
        ignore (Atomic.fetch_and_add served n : int)) }

let make_fleet ctx =
  let config = config ~shards:ctx.shards in
  if ctx.spec.learned then begin
    let serving, pfs = Serve.Serving.create_prefetch ~config ~seed:ctx.seed () in
    { serving; dps = [||]; pfs }
  end
  else begin
    let dps = Array.make ctx.shards None in
    let serving =
      Serve.Serving.create ~config
        ~make_sink:(fun ~index ~view_ns ->
          let dp = Serve.Shard.Datapath.create ~view_ns ~max_batch () in
          dps.(index) <- Some dp;
          wrap ctx ~index dp)
        ()
    in
    { serving; dps = Array.map Option.get dps; pfs = [||] }
  end

let pf_stats fleet = Array.to_list (Array.map Rkd.Prefetch_rmt.stats fleet.pfs)
let retrains fleet = (Gate.learned_of_stats (pf_stats fleet)).Gate.retrains

(* Events served so far: the wrapper's counts for Datapath fleets (exact
   from the producer while workers run), the fleet's own count for the
   inline prefetch fleet. *)
let served_total ctx fleet =
  if ctx.spec.learned then Serve.Serving.served fleet.serving
  else Array.fold_left (fun acc a -> acc + Atomic.get a) 0 ctx.served

(* --- the calls into the serving plane, spanned when traced ----------- *)

let outcome_code = function `Admitted -> 0 | `Throttled -> 1 | `Backpressure -> 2

let submit ctx fleet ~tenant ~page =
  if not (traced ctx) then Serve.Serving.submit fleet.serving ~producer:0 ~tenant ~page
  else begin
    let t0 = Clock.now () in
    let r = Serve.Serving.submit fleet.serving ~producer:0 ~tenant ~page in
    let t1 = Clock.now () in
    Spans.add ctx.main Submit ~t0 ~t1 ~parent:!(ctx.parent) ~arg:(outcome_code r) ~aux:0;
    r
  end

let drain ctx fleet =
  if not (traced ctx) then Serve.Serving.drain fleet.serving
  else begin
    let r0 = if ctx.spec.learned then retrains fleet else 0 in
    let outer = !(ctx.parent) in
    let id = Spans.open_ ctx.main Drain ~t0:(Clock.now ()) ~parent:outer in
    ctx.parent := id;
    let n = Serve.Serving.drain fleet.serving in
    let t1 = Clock.now () in
    ctx.parent := outer;
    let r1 = if ctx.spec.learned then retrains fleet else 0 in
    Spans.close ctx.main id ~t1 ~arg:n ~aux:(r1 - r0);
    n
  end

let drain_until_idle ctx fleet =
  if traced ctx then
    while drain ctx fleet > 0 do
      ()
    done
  else Serve.Serving.drain_until_idle fleet.serving

(* Block the producer until the shard workers have served [target]
   events in total.  A stuck fleet is a failure, not a hang. *)
let wait_served ctx fleet target =
  let deadline = Clock.now () + 60_000_000_000 in
  while served_total ctx fleet < target do
    if Clock.now () > deadline then failwith "shard workers stopped serving";
    Domain.cpu_relax ()
  done

(* Saturating admission: retry until admitted.  Inline, a full ring is
   drained on the spot; pinned, the producer waits for the worker to
   serve something before retrying. *)
let submit_retry ctx fleet ~tenant ~page =
  let rec go () =
    match submit ctx fleet ~tenant ~page with
    | `Admitted -> ()
    | `Throttled -> failwith "admission throttled with no rate limit configured"
    | `Backpressure ->
      if pinned ctx then wait_served ctx fleet (served_total ctx fleet + 1)
      else ignore (drain ctx fleet : int);
      go ()
  in
  go ()

let set_clock ctx fleet i =
  if ctx.spec.schedule_clock then Serve.Serving.set_now fleet.serving (schedule_ns ctx.spec i)
  else Serve.Serving.set_now fleet.serving (Clock.now ())

(* --- churn's staged rollouts ----------------------------------------- *)

type rollouts = {
  mutable live : (Rkd.Fleet.Rollout.t * int) option;  (** with its wall start *)
  mutable started : int;
  mutable ms : float list;  (** start -> Promoted/Failed, wall ms *)
}

let rollout_code = function `In_flight -> 0 | `Promoted -> 1 | `Failed _ -> 2

let rollout_begin ctx fleet ro =
  match ro.live with
  | Some _ -> ()
  | None ->
    let t0 = Clock.now () in
    let r = Serve.Serving.staged_rollout fleet.serving ~dps:fleet.dps ~program:ctx.collect () in
    let t1 = Clock.now () in
    let code = match r with `Started _ -> 0 | `Unhealthy -> 1 | `Failed _ -> 2 in
    if traced ctx then Spans.add ctx.main Rollout_start ~t0 ~t1 ~parent:(-1) ~arg:code ~aux:0;
    (match r with
     | `Started r ->
       ro.live <- Some (r, t0);
       ro.started <- ro.started + 1
     | `Unhealthy | `Failed _ -> ())

let rollout_poll ctx fleet ro =
  match ro.live with
  | None -> ()
  | Some (r, started) ->
    let t0 = Clock.now () in
    let o = Rkd.Fleet.Rollout.step r ~now:(Serve.Serving.now_ns fleet.serving) in
    let t1 = Clock.now () in
    if traced ctx then
      Spans.add ctx.main Rollout_step ~t0 ~t1 ~parent:(-1) ~arg:(rollout_code o) ~aux:0;
    (match o with
     | `In_flight -> ()
     | `Promoted | `Failed _ ->
       ro.live <- None;
       ro.ms <- (float_of_int (t1 - started) /. 1e6) :: ro.ms)

let rollout_due ctx i = ctx.spec.rollout_every > 0 && i mod ctx.spec.rollout_every = 0

(* --- phases ---------------------------------------------------------- *)

type phase = {
  attempted : int;
  served : int;
  refused : int;
  wall_ns : int;
  counters : Obs.Snapshot.t;  (** registry deltas over the phase *)
  main_from : int;  (** main-store span range of the phase *)
  main_to : int;
  sink_from : int array;  (** per-shard sink-store span ranges *)
  sink_to : int array;
  retrains : int;  (** learned: retrains during the phase *)
  model_invocations : int;
}

let run_phase ctx fleet body =
  let before = snapshot () in
  let served0 = served_total ctx fleet in
  let r0 = pf_stats fleet in
  let main_from = Spans.stored ctx.main in
  let sink_from = Array.map Spans.stored ctx.sinks in
  let t0 = Clock.now () in
  let attempted, refused = body () in
  let t1 = Clock.now () in
  let r1 = pf_stats fleet in
  let l0 = Gate.learned_of_stats r0 and l1 = Gate.learned_of_stats r1 in
  { attempted;
    served = served_total ctx fleet - served0;
    refused;
    wall_ns = t1 - t0;
    counters = delta before;
    main_from;
    main_to = Spans.stored ctx.main;
    sink_from;
    sink_to = Array.map Spans.stored ctx.sinks;
    retrains = l1.Gate.retrains - l0.Gate.retrains;
    model_invocations = l1.Gate.model_invocations - l0.Gate.model_invocations }

(* The saturating phase ends when every event has been served. *)
let saturate ctx fleet ro () =
  let inp = ctx.inputs in
  let target = served_total ctx fleet + inp.n_sat in
  for i = 0 to inp.n_sat - 1 do
    if ctx.spec.schedule_clock || i land 63 = 0 then set_clock ctx fleet i;
    if rollout_due ctx i then rollout_begin ctx fleet ro;
    submit_retry ctx fleet ~tenant:inp.tenants.(i) ~page:inp.pages.(i);
    if (not (pinned ctx)) && (i + 1) mod max_batch = 0 then begin
      ignore (drain ctx fleet : int);
      rollout_poll ctx fleet ro
    end
  done;
  if pinned ctx then wait_served ctx fleet target
  else begin
    drain_until_idle ctx fleet;
    rollout_poll ctx fleet ro
  end;
  (inp.n_sat, 0)

(* Open loop.  Consecutive events of one tenant arrive together, as one
   burst: a burst starting at paced event j is due at [base + j / rate],
   so the offered rate stays [paced_rate] events/s.  The generator spins
   until a burst is due, submits its events once each (a refusal is
   final) and, inline, then drains until idle.  Latency runs from the due
   time, so a late generator or a slow predecessor shows in it. *)
let pace ctx fleet ro () =
  let inp = ctx.inputs and spec = ctx.spec in
  let n = spec.paced_events in
  Array.fill ctx.fifo_len 0 ctx.shards 0;
  Array.fill ctx.refused 0 n false;
  let served0 = served_total ctx fleet in
  let base = Clock.now () + 100_000 in
  let admitted = ref 0 and first = ref 0 in
  for j = 0 to n - 1 do
    let i = inp.n_sat + j in
    let tenant = inp.tenants.(i) in
    if j = 0 || tenant <> inp.tenants.(i - 1) then begin
      first := j;
      Clock.spin_until (base + (j * 1_000_000_000 / spec.paced_rate))
    end;
    ctx.due.(j) <- base + (!first * 1_000_000_000 / spec.paced_rate);
    ctx.issued.(j) <- Clock.now ();
    set_clock ctx fleet i;
    if rollout_due ctx i then rollout_begin ctx fleet ro;
    (match submit ctx fleet ~tenant ~page:inp.pages.(i) with
     | `Admitted ->
       incr admitted;
       let s = Serve.Serving.shard_of_tenant fleet.serving tenant in
       ctx.fifo.(s).(ctx.fifo_len.(s)) <- j;
       ctx.fifo_len.(s) <- ctx.fifo_len.(s) + 1
     | `Throttled | `Backpressure -> ctx.refused.(j) <- true);
    let burst_ends = j = n - 1 || inp.tenants.(i + 1) <> tenant in
    if burst_ends && not (pinned ctx) then begin
      let t0 = Clock.now () in
      drain_until_idle ctx fleet;
      if spec.learned then begin
        (* One shard, one ring: the drain's one sink call served the burst. *)
        let t1 = Clock.now () in
        for k = !first to j do
          ctx.sink_start.(k) <- t0;
          ctx.served_at.(k) <- t1
        done
      end;
      rollout_poll ctx fleet ro
    end
  done;
  if pinned ctx then wait_served ctx fleet (served0 + !admitted);
  (n, n - !admitted)

(* Map each paced event to the sink call that served it: per shard, sink
   calls consume that shard's admitted events in FIFO order. *)
let attribute_sink_calls ctx (p : phase) =
  if not ctx.spec.learned then
    Array.iteri
      (fun s store ->
        let pos = ref 0 in
        for k = p.sink_from.(s) to p.sink_to.(s) - 1 do
          for _ = 1 to store.Spans.arg.(k) do
            let j = ctx.fifo.(s).(!pos) in
            ctx.served_at.(j) <- store.Spans.t1.(k);
            ctx.sink_start.(j) <- store.Spans.t0.(k);
            incr pos
          done
        done)
      ctx.sinks

(* --- a whole round --------------------------------------------------- *)

type round = {
  setup_ns : int;
  setup_counters : Obs.Snapshot.t;
  sat : phase;
  paced : phase option;
  latency_ns : int array;  (** paced events; [max_int] when refused *)
  queue_ns : int array;  (** paced events: due -> start of the serving sink call *)
  late_ns : int array;  (** paced events: how late the generator issued them *)
  digest : int;
  learned : Gate.learned option;
  pf_trips : int;  (** learned: breaker trips reported by the prefetch instances *)
  pf_fallback : int;  (** learned: accesses served by stock readahead *)
  rollouts : rollouts;
  spans_dropped : int;
  origin : int;  (** round start, for the span dump *)
}

let warm_up ctx fleet =
  let inp = ctx.inputs in
  let n = Array.length inp.warm_tenants in
  for k = 0 to n - 1 do
    if not ctx.spec.schedule_clock then Serve.Serving.set_now fleet.serving (Clock.now ());
    submit_retry ctx fleet ~tenant:inp.warm_tenants.(k) ~page:inp.warm_pages.(k);
    if (not (pinned ctx)) && (k + 1) mod max_batch = 0 then ignore (drain ctx fleet : int)
  done;
  if pinned ctx then wait_served ctx fleet n else drain_until_idle ctx fleet

let reset ctx =
  Spans.reset ctx.main;
  Array.iter Spans.reset ctx.sinks;
  Array.iter (fun a -> Atomic.set a 0) ctx.served;
  Atomic.set ctx.record_sinks (traced ctx)

(* Fleet creation, program verification and JIT, model registration and
   tenant warm-up: everything up to the first timed event.  Returns the
   fleet (its workers running, when pinned), the start time and the
   set-up time. *)
let set_up ctx =
  let t0 = Clock.now () in
  let span = if traced ctx then Spans.open_ ctx.main Setup ~t0 ~parent:(-1) else -1 in
  ctx.parent := span;
  let fleet = make_fleet ctx in
  if pinned ctx then Serve.Serving.start fleet.serving;
  (try warm_up ctx fleet
   with e ->
     Serve.Serving.stop fleet.serving;
     raise e);
  let t1 = Clock.now () in
  Spans.close ctx.main span ~t1 ~arg:(Array.length ctx.inputs.warm_tenants) ~aux:0;
  ctx.parent := -1;
  (fleet, t0, t1 - t0)

(* A set-up with no phases after it: more samples for setup_s. *)
let setup_only ctx =
  reset ctx;
  let fleet, _, ns = set_up ctx in
  Serve.Serving.stop fleet.serving;
  ns

let run ctx ~paced:with_paced =
  reset ctx;
  let ro = { live = None; started = 0; ms = [] } in
  let before = snapshot () in
  let fleet, t0, setup_ns = set_up ctx in
  Fun.protect
    ~finally:(fun () -> Serve.Serving.stop fleet.serving)
    (fun () ->
      let setup_counters = delta before in
      let sat = run_phase ctx fleet (saturate ctx fleet ro) in
      Atomic.set ctx.record_sinks true;
      let paced = if with_paced then Some (run_phase ctx fleet (pace ctx fleet ro)) else None in
      Serve.Serving.stop fleet.serving;
      (match ro.live with
       | Some (r, _) ->
         ignore (Rkd.Fleet.Rollout.abort r : int);
         ro.live <- None
       | None -> ());
      let n = if with_paced then ctx.spec.paced_events else 0 in
      Option.iter (attribute_sink_calls ctx) paced;
      let latency_ns =
        Array.init n (fun j ->
            if ctx.refused.(j) then max_int else ctx.served_at.(j) - ctx.due.(j))
      in
      let queue_ns =
        Array.init n (fun j ->
            if ctx.refused.(j) then max_int else ctx.sink_start.(j) - ctx.due.(j))
      in
      let late_ns = Array.init n (fun j -> ctx.issued.(j) - ctx.due.(j)) in
      let stats = pf_stats fleet in
      let learned = if ctx.spec.learned then Some (Gate.learned_of_stats stats) else None in
      { setup_ns;
        setup_counters;
        sat;
        paced;
        latency_ns;
        queue_ns;
        late_ns;
        digest = Serve.Serving.digest fleet.serving;
        learned;
        pf_trips = List.fold_left (fun acc s -> acc + s.Rkd.Prefetch_rmt.breaker_trips) 0 stats;
        pf_fallback =
          List.fold_left (fun acc s -> acc + s.Rkd.Prefetch_rmt.fallback_accesses) 0 stats;
        rollouts = ro;
        spans_dropped =
          Array.fold_left
            (fun acc s -> acc + s.Spans.len - Spans.stored s)
            (ctx.main.Spans.len - Spans.stored ctx.main)
            ctx.sinks;
        origin = t0 })

(* The correctness reference for Datapath workloads: the same warm-up and
   events through one inline shard, no rollouts, plain sink. *)
let reference_digest inputs ~events =
  let fleet, _ = Serve.Serving.create_datapath ~config:(config ~shards:1) () in
  let feed tenants pages =
    Array.iteri
      (fun k tenant ->
        (match Serve.Serving.submit fleet ~producer:0 ~tenant ~page:pages.(k) with
         | `Admitted -> ()
         | `Throttled | `Backpressure -> failwith "reference replay refused an event");
        if (k + 1) mod max_batch = 0 then ignore (Serve.Serving.drain fleet : int))
      tenants;
    Serve.Serving.drain_until_idle fleet
  in
  feed inputs.warm_tenants inputs.warm_pages;
  feed (Array.sub inputs.tenants 0 events) (Array.sub inputs.pages 0 events);
  Serve.Serving.digest fleet
