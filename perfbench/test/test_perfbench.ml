(* Each correctness check of the benchmark holds on a real round and
   fails against a deliberately corrupted reference. *)

open Perfbench

let failures = ref 0

let expect name cond =
  if not cond then begin
    incr failures;
    Printf.printf "FAIL %s\n%!" name
  end
  else Printf.printf "ok   %s\n%!" name

let holds = Option.is_none
let fails = Option.is_some

let small =
  { Workload.bursty with
    name = "small";
    tenants = 8;
    sat_events = 1_024;
    paced_events = 256;
    paced_rate = 200_000 }

let run_round spec ~seed =
  let inputs = Workload.generate spec ~seed in
  let ctx = Round.create_ctx spec inputs ~seed ~shards:1 ~traced:false in
  (inputs, Round.run ctx ~paced:true)

let test_digest () =
  let inputs, r = run_round small ~seed:3 in
  let events = Workload.total_events small in
  let reference = Round.reference_digest inputs ~events in
  expect "digest: matches the inline reference" (holds (Gate.digest ~got:r.digest ~reference));
  let pages = Array.copy inputs.pages in
  pages.(events / 2) <- pages.(events / 2) + 1;
  let corrupted = Round.reference_digest { inputs with pages } ~events in
  expect "digest: fails against a reference with one page changed"
    (fails (Gate.digest ~got:r.digest ~reference:corrupted))

let test_conservation () =
  let _, r = run_round small ~seed:4 in
  let check (p : Round.phase) ~attempted =
    Gate.conservation ~phase:"t" ~attempted ~served:p.served ~refused:p.refused
  in
  let paced = Option.get r.paced in
  expect "conservation: saturating phase" (holds (check r.sat ~attempted:r.sat.attempted));
  expect "conservation: paced phase" (holds (check paced ~attempted:paced.attempted));
  expect "conservation: fails when one more event was attempted"
    (fails (check paced ~attempted:(paced.attempted + 1)))

let test_learned_repeat () =
  let spec =
    { Workload.learned with
      sat_events = 640;
      paced_events = 64;
      paced_rate = 100_000 }
  in
  let learned seed = Option.get (snd (run_round spec ~seed)).learned in
  let first = learned 5 in
  expect "learned: at least one retrain" (first.Gate.retrains > 0);
  expect "learned: two runs on one seed agree"
    (holds (Gate.learned_repeat ~first ~again:(learned 5)));
  expect "learned: fails against a run on another seed"
    (fails (Gate.learned_repeat ~first ~again:(learned 6)))

(* A fleet whose shard breaker was tripped serves the stock fallback:
   the counters the gate reads see it, and so does the digest. *)
let test_clean () =
  let serve ~trip =
    let fleet, dps = Serve.Serving.create_datapath () in
    if trip then Rmt.Breaker.trip (Serve.Shard.Datapath.breaker dps.(0)) ~now:0;
    let before = Round.snapshot () in
    for k = 0 to 255 do
      ignore
        (Serve.Serving.submit fleet ~producer:0 ~tenant:(k mod 8) ~page:k
          : [ `Admitted | `Throttled | `Backpressure ]);
      if k mod 64 = 63 then ignore (Serve.Serving.drain fleet : int)
    done;
    Serve.Serving.drain_until_idle fleet;
    let d = Round.delta before in
    ( Gate.clean ~phase:"t" ~breaker_trips:(Round.count d "rmt.breaker.trips")
        ~fallback_served:(Round.count d "rmt.pipeline.fallback_served"),
      Serve.Serving.digest fleet )
  in
  let clean, digest = serve ~trip:false in
  let tripped, tripped_digest = serve ~trip:true in
  expect "clean: an untripped fleet passes" (holds clean);
  expect "clean: a tripped breaker fails the run" (fails tripped);
  expect "clean: fallback decisions change the digest"
    (fails (Gate.digest ~got:tripped_digest ~reference:digest))

let () =
  Obs.set_enabled true;
  test_digest ();
  test_conservation ();
  test_learned_repeat ();
  test_clean ();
  if !failures > 0 then exit 1
