(* Per-layer metrics of one traced round, read from its spans and from
   the program's counter deltas.  Each metric carries the base count its
   value was computed from. *)

type metric = { name : string; unit_ : string; value : float; base : int }

(* Nearest-rank percentile of an int array; 0 when empty. *)
let percentile a q =
  let n = Array.length a in
  if n = 0 then 0
  else begin
    let s = Array.copy a in
    Array.sort compare s;
    let k = int_of_float (ceil (q *. float_of_int n)) - 1 in
    s.(max 0 (min (n - 1) k))
  end

let median_float l =
  match List.sort compare l with
  | [] -> 0.0
  | s ->
    let a = Array.of_list s in
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let ratio num den = if den = 0 then 0.0 else float_of_int num /. float_of_int den

(* Extra time of flagged calls: each flagged call's duration minus the
   median duration of unflagged calls of the same size (or of all sizes
   when none matches), then the median of those excesses. *)
let excess calls =
  let plain = Hashtbl.create 16 in
  List.iter
    (fun (n, d, flagged) -> if not flagged then Hashtbl.add plain n (float_of_int d))
    calls;
  let all_plain =
    median_float
      (List.filter_map (fun (_, d, f) -> if f then None else Some (float_of_int d)) calls)
  in
  let diffs =
    List.filter_map
      (fun (n, d, flagged) ->
        if not flagged then None
        else begin
          let base =
            match Hashtbl.find_all plain n with [] -> all_plain | l -> median_float l
          in
          Some (float_of_int d -. base)
        end)
      calls
  in
  (median_float diffs, List.length diffs)

let compute (ctx : Round.ctx) (r : Round.round) =
  let open Round in
  let main = ctx.main in
  let phases = r.sat :: Option.to_list r.paced in
  let timed name = List.fold_left (fun acc p -> acc + count p.counters name) 0 phases in
  let events = List.fold_left (fun acc p -> acc + p.attempted) 0 phases in
  let sat = r.sat in
  (* Main-store spans of one kind within a phase's range. *)
  let spans_in (p : phase) kind =
    let acc = ref [] in
    for i = p.main_from to p.main_to - 1 do
      if main.Spans.kind.(i) = Spans.kind_code kind then acc := i :: !acc
    done;
    !acc
  in
  let timed_spans kind = List.concat_map (fun p -> spans_in p kind) phases in
  let submits = Array.of_list (List.map (Spans.duration main) (spans_in sat Submit)) in
  let submit_calls =
    timed "rmt.serve.admitted" + timed "rmt.serve.backpressure" + timed "rmt.serve.throttled"
  in
  (* Sink calls of the saturating phase: the wrapper's spans, or for the
     prefetch fleet (whose sink the benchmark cannot wrap) its drains
     that served events — one shard, one ring, one sink call each. *)
  let sink_calls =
    if ctx.spec.Workload.learned then
      List.filter_map
        (fun i ->
          if main.Spans.arg.(i) > 0 then Some (main.Spans.arg.(i), Spans.duration main i)
          else None)
        (spans_in sat Drain)
    else
      List.concat
        (Array.to_list
           (Array.mapi
              (fun s store ->
                List.init (sat.sink_to.(s) - sat.sink_from.(s)) (fun k ->
                    let i = sat.sink_from.(s) + k in
                    (store.Spans.arg.(i), Spans.duration store i)))
              ctx.sinks))
  in
  let sink_events = List.fold_left (fun acc (n, _) -> acc + n) 0 sink_calls in
  let sink_ns = List.fold_left (fun acc (_, d) -> acc + d) 0 sink_calls in
  let drains = timed_spans Drain in
  let empty_drains = List.length (List.filter (fun i -> main.Spans.arg.(i) = 0) drains) in
  let first_touch, touched =
    excess
      (List.concat
         (Array.to_list
            (Array.map
               (fun store ->
                 List.init (Spans.stored store) (fun i ->
                     (store.Spans.arg.(i), Spans.duration store i, store.Spans.aux.(i) > 0)))
               ctx.sinks)))
  in
  let round_drains =
    List.filter_map
      (fun i ->
        if main.Spans.kind.(i) = Spans.kind_code Drain && main.Spans.arg.(i) > 0 then
          Some (main.Spans.arg.(i), Spans.duration main i, main.Spans.aux.(i) > 0)
        else None)
      (List.init (Spans.stored main) Fun.id)
  in
  let retrain, retrained = excess round_drains in
  let plain_drains =
    if ctx.spec.Workload.learned then
      List.filter_map
        (fun i ->
          if main.Spans.arg.(i) > 0 && main.Spans.aux.(i) = 0 then
            Some (main.Spans.arg.(i), Spans.duration main i)
          else None)
        drains
    else []
  in
  let plain_events = List.fold_left (fun acc (n, _) -> acc + n) 0 plain_drains in
  let plain_ns = List.fold_left (fun acc (_, d) -> acc + d) 0 plain_drains in
  (* Time the serving domain spent outside every top-level span: inline,
     the main domain's submits, drains and rollout calls; pinned, each
     shard worker's sink calls (averaged over shards). *)
  let top_level_ns =
    if ctx.spec.Workload.mode = Workload.Pinned then
      sink_ns / max 1 (Array.length ctx.sinks)
    else begin
      let acc = ref 0 in
      for i = sat.main_from to sat.main_to - 1 do
        if main.Spans.parent.(i) < 0 then acc := !acc + Spans.duration main i
      done;
      !acc
    end
  in
  let paced_n = Array.length r.queue_ns in
  let us ns = float_of_int ns /. 1e3 in
  let m name unit_ value base = { name; unit_; value; base } in
  [ m "serve.submit_ns_p50" "ns" (float_of_int (percentile submits 0.5)) (Array.length submits);
    m "serve.backpressure_ratio" "ratio" (ratio (timed "rmt.serve.backpressure") submit_calls)
      submit_calls;
    m "serve.queue_wait_us_p50" "us" (us (percentile r.queue_ns 0.5)) paced_n;
    m "serve.queue_wait_us_p99" "us" (us (percentile r.queue_ns 0.99)) paced_n;
    m "serve.batch_events_mean" "events" (ratio sink_events (List.length sink_calls))
      (List.length sink_calls);
    m "serve.sink_busy_ratio" "ratio" (ratio sink_ns sat.wall_ns) sat.wall_ns;
    m "serve.drain_empty_ratio" "ratio" (ratio empty_drains (List.length drains))
      (List.length drains);
    m "rmt.sink_ns_per_event" "ns" (ratio sink_ns sink_events) sink_events;
    m "rmt.chunk_width_mean" "slots"
      (ratio (count sat.counters "rmt.jit.batch_slots") (count sat.counters "rmt.jit.batch_runs"))
      (count sat.counters "rmt.jit.batch_runs");
    m "rmt.steps_per_event" "steps" (ratio (count sat.counters "rmt.jit.steps") sat.served)
      sat.served;
    m "rmt.first_touch_us_p50" "us" (first_touch /. 1e3) touched;
    m "rmt.table_inserts" "count" (float_of_int (timed "rmt.table.inserts")) events;
    m "rmt.canary_shadow_runs" "count" (float_of_int (timed "rmt.canary.shadow_runs")) events;
    m "rmt.canary_promoted" "count" (float_of_int (timed "rmt.canary.promoted")) r.rollouts.started;
    m "rmt.canary_rolled_back" "count" (float_of_int (timed "rmt.canary.rolled_back"))
      r.rollouts.started;
    m "rmt.rollout_ms_p50" "ms" (median_float r.rollouts.ms) (List.length r.rollouts.ms);
    m "rmt.fallback_served" "count" (float_of_int (timed "rmt.pipeline.fallback_served")) events;
    m "rmt.breaker_trips" "count" (float_of_int (timed "rmt.breaker.trips")) events;
    m "kml.retrains" "count"
      (float_of_int (List.fold_left (fun acc p -> acc + p.retrains) 0 phases))
      events;
    m "kml.retrain_ms_p50" "ms" (retrain /. 1e6) retrained;
    m "kml.model_invocations_per_event" "calls"
      (ratio (List.fold_left (fun acc p -> acc + p.model_invocations) 0 phases) events)
      events;
    m "core.prefetch_ns_per_event" "ns" (ratio plain_ns plain_events) plain_events;
    m "bench.generator_late_us_p99" "us" (us (percentile r.late_ns 0.99)) paced_n;
    m "bench.unattributed_ratio" "ratio" (ratio (sat.wall_ns - top_level_ns) sat.wall_ns)
      sat.wall_ns ]
