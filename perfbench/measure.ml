(* One benchmark run: the rounds of one workload within the time budget,
   the correctness gate over every round, and the metrics.

   Untraced ([~trace:false]): full rounds; events_per_s and the latency
   percentiles pool every round, and setup_s is the median set-up.
   Traced: pairs of saturating-only rounds with telemetry on and off
   (obs.overhead_ratio), then full traced rounds whose per-layer metrics
   are medians over those rounds. *)

open Workload

type result = {
  metrics : Layer.metric list;  (** the result object's metrics *)
  printed : Layer.metric list;
      (** printed beside them but left out of the result object: the paced
          latencies, whose run-to-run spread on a shared host is wider than
          any bound BENCHMARK.json may set (README.md) *)
  attempted : int;
  failed : int;
  failures : string list;
  rounds : int;
  domains : int;
}

(* Saturating events/s over [rounds]: all events served over all the
   time the saturating phases took. *)
let pooled_rate (rounds : Round.round list) =
  let sum f = float_of_int (List.fold_left (fun acc r -> acc + f r) 0 rounds) in
  sum (fun (r : Round.round) -> r.sat.served) /. (sum (fun r -> r.sat.wall_ns) /. 1e9)

(* Latency percentile [q] over every paced sample of every round, us. *)
let pooled_latency_us (rounds : Round.round list) q =
  float_of_int
    (Layer.percentile (Array.concat (List.map (fun (r : Round.round) -> r.latency_ns) rounds)) q)
  /. 1e3

(* Repeat [f] while fewer than [min] runs are done or the last one would
   still fit before [until]. *)
let repeat ~min ~until f =
  let rec go k last =
    if k < min || Clock.now () + last < until then begin
      let t0 = Clock.now () in
      f ();
      go (k + 1) (Clock.now () - t0)
    end
  in
  go 0 0

let median_by name (per_round : Layer.metric list list) =
  let values =
    List.concat_map
      (fun l -> List.filter_map (fun m -> if m.Layer.name = name then Some m else None) l)
      per_round
  in
  match values with
  | [] -> None
  | m :: _ ->
    Some { m with Layer.value = Layer.median_float (List.map (fun m -> m.Layer.value) values) }

let peak_heap_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576.0

let run spec ~seed ~seconds ~trace ~nproc ~spans_out =
  let deadline = Clock.now () + (seconds * 1_000_000_000) in
  Obs.set_enabled true;
  let inputs = generate spec ~seed in
  (* Collect the generator's garbage (and, below, each round's) outside
     the timed regions, so peak_heap_mb tracks what the serving plane
     holds rather than when the major GC happened to run. *)
  Gc.full_major ();
  let shards = match spec.mode with Inline -> 1 | Pinned -> max 1 (nproc - 1) in
  if spec.learned then Par.set_global_domains nproc;
  let domains =
    match spec.mode with
    | Pinned -> 1 + shards
    | Inline -> if spec.learned then Par.global_domains () else 1
  in
  let failures = ref [] and attempted = ref 0 and failed = ref 0 and rounds = ref 0 in
  let fallback = ref 0 in
  let fail = Option.iter (fun f -> failures := f :: !failures) in
  let reference events =
    if spec.learned then 0 else Round.reference_digest inputs ~events
  in
  let ref_full = lazy (reference (total_events spec)) in
  let ref_sat = lazy (reference spec.sat_events) in
  if not trace then ignore (Lazy.force ref_full : int);
  Gc.full_major ();
  let learned_first = Hashtbl.create 2 in
  let gate (r : Round.round) ~obs =
    Gc.full_major ();
    incr rounds;
    let full = Option.is_some r.paced in
    if not spec.learned then
      fail
        (Gate.digest ~got:r.digest ~reference:(Lazy.force (if full then ref_full else ref_sat)));
    let phases =
      ("saturating", r.sat) :: List.map (fun p -> ("paced", p)) (Option.to_list r.paced)
    in
    List.iter
      (fun (phase, (p : Round.phase)) ->
        fail
          (Gate.conservation ~phase ~attempted:p.attempted ~served:p.served ~refused:p.refused);
        attempted := !attempted + p.attempted;
        let fb = Round.count p.counters "rmt.pipeline.fallback_served" in
        fallback := !fallback + fb;
        failed := !failed + p.refused + fb)
      phases;
    Option.iter
      (fun l ->
        match Hashtbl.find_opt learned_first full with
        | None -> Hashtbl.replace learned_first full l
        | Some first -> fail (Gate.learned_repeat ~first ~again:l))
      r.learned;
    (* With telemetry off the counters stand still; the digest still
       catches a fallback decision. *)
    if obs then begin
      let all name =
        List.fold_left
          (fun acc (_, (p : Round.phase)) -> acc + Round.count p.counters name)
          (Round.count r.setup_counters name) phases
      in
      fail
        (Gate.clean ~phase:spec.name
           ~breaker_trips:(all "rmt.breaker.trips" + r.pf_trips)
           ~fallback_served:(all "rmt.pipeline.fallback_served" + r.pf_fallback))
    end
  in
  let m name unit_ value base = { Layer.name; unit_; value; base } in
  let metrics, printed =
    if not trace then begin
      let ctx = Round.create_ctx spec inputs ~seed ~shards ~traced:false in
      (* Every round replays the same inputs on a fresh fleet; the
         estimates pool all rounds.  Set-ups are sampled between rounds
         ([extra_setups] more each time) and setup_s is their median.
         Every fleet the library creates keeps some heap for good, so
         peak_heap_mb is read after the third round — a fixed amount of
         work — not at the end. *)
      let setups = ref [] and rs = ref [] and heap = ref 0.0 in
      repeat ~min:3 ~until:deadline (fun () ->
          let r = Round.run ctx ~paced:true in
          setups := r.setup_ns :: !setups;
          for _ = 1 to spec.extra_setups do
            setups := Round.setup_only ctx :: !setups
          done;
          gate r ~obs:true;
          rs := r :: !rs;
          if List.length !rs = 3 then heap := peak_heap_mb ());
      let rs = !rs in
      let sum f = List.fold_left (fun acc r -> acc + f r) 0 rs in
      let samples = sum (fun (r : Round.round) -> Array.length r.latency_ns) in
      let decisions =
        sum (fun (r : Round.round) ->
            r.sat.served + Option.fold ~none:0 ~some:(fun (p : Round.phase) -> p.served) r.paced)
      in
      ( [ m "events_per_s" "events/s" (pooled_rate rs) (spec.sat_events * List.length rs);
        m "setup_s" "s"
          (float_of_int (Layer.percentile (Array.of_list !setups) 0.5) /. 1e9)
          (List.length !setups);
        m "peak_heap_mb" "MB" !heap 3;
        (match rs with
         | { learned = Some l; _ } :: _ ->
           m "decision_accuracy_pct" "%" (float_of_int l.Gate.accuracy_ppm /. 1e4) decisions
         | _ ->
           m "decision_accuracy_pct" "%"
             (100.0 *. (1.0 -. Layer.ratio !fallback decisions))
             decisions) ],
        [ m "latency_p50_us" "us" (pooled_latency_us rs 0.5) samples;
          m "latency_p99_us" "us" (pooled_latency_us rs 0.99) samples ] )
    end
    else begin
      let ctx = Round.create_ctx spec inputs ~seed ~shards ~traced:false in
      let on = ref [] and off = ref [] in
      let run_sat () =
        let r = Round.run ctx ~paced:false in
        gate r ~obs:(Obs.enabled ());
        r
      in
      let pairs_until = Clock.now () + ((deadline - Clock.now ()) * 2 / 5) in
      repeat ~min:2 ~until:pairs_until (fun () ->
          on := run_sat () :: !on;
          Obs.set_enabled false;
          off := Fun.protect ~finally:(fun () -> Obs.set_enabled true) run_sat :: !off);
      let ctx = Round.create_ctx spec inputs ~seed ~shards ~traced:true in
      let traced = ref [] and layers = ref [] and last = ref None in
      repeat ~min:(if spec.learned then 2 else 1) ~until:deadline (fun () ->
          let r = Round.run ctx ~paced:true in
          gate r ~obs:true;
          traced := r :: !traced;
          layers := Layer.compute ctx r :: !layers;
          last := Some r);
      Option.iter
        (fun (r : Round.round) ->
          let oc = open_out spans_out in
          Fun.protect
            ~finally:(fun () -> close_out oc)
            (fun () ->
              Spans.write oc ~origin:r.origin ~main:ctx.main ~sinks:ctx.sinks ~limit:20_000);
          if r.spans_dropped > 0 then
            Printf.eprintf "perfbench: %d spans past the store capacity were not kept\n"
              r.spans_dropped)
        !last;
      let names = List.map (fun x -> x.Layer.name) (List.hd !layers) in
      ( List.filter_map (fun name -> median_by name !layers) names
      @ [ m "obs.overhead_ratio" "ratio"
            (pooled_rate !off /. pooled_rate !on)
            (List.length !on);
          m "bench.trace_overhead_ratio" "ratio"
            (pooled_rate !on /. pooled_rate !traced)
            (List.length !traced) ],
        [] )
    end
  in
  { metrics;
    printed;
    attempted = !attempted;
    failed = !failed;
    failures = List.rev !failures;
    rounds = !rounds;
    domains }
