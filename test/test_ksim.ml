(* Tests for the kernel-substrate simulators: event queue, clock, swap
   device, page cache, prefetcher baselines, memory simulation, CFS. *)

(* ---------------- Event queue ---------------- *)

let test_event_queue_order () =
  let q = Ksim.Event_queue.create () in
  List.iter (fun (t, v) -> Ksim.Event_queue.push q ~time:t v) [ (5, "e"); (1, "a"); (3, "c") ];
  Alcotest.(check (option (pair int string))) "min first" (Some (1, "a"))
    (Ksim.Event_queue.pop q);
  Alcotest.(check (option (pair int string))) "then 3" (Some (3, "c")) (Ksim.Event_queue.pop q);
  Ksim.Event_queue.push q ~time:2 "b";
  Alcotest.(check (option (pair int string))) "interleaved" (Some (2, "b"))
    (Ksim.Event_queue.pop q);
  Alcotest.(check (option (pair int string))) "last" (Some (5, "e")) (Ksim.Event_queue.pop q);
  Alcotest.(check (option (pair int string))) "empty" None (Ksim.Event_queue.pop q)

let test_event_queue_fifo_ties () =
  let q = Ksim.Event_queue.create () in
  List.iter (fun v -> Ksim.Event_queue.push q ~time:7 v) [ 1; 2; 3 ];
  let order = List.init 3 (fun _ -> snd (Option.get (Ksim.Event_queue.pop q))) in
  Alcotest.(check (list int)) "fifo on equal times" [ 1; 2; 3 ] order

let prop_event_queue_sorted =
  QCheck2.Test.make ~name:"event queue pops in nondecreasing time order" ~count:200
    QCheck2.Gen.(list_size (int_range 0 100) (int_range 0 1000))
    (fun times ->
      let q = Ksim.Event_queue.create () in
      List.iter (fun t -> Ksim.Event_queue.push q ~time:t t) times;
      let rec drain last =
        match Ksim.Event_queue.pop q with
        | None -> true
        | Some (t, _) -> t >= last && drain t
      in
      drain min_int)

(* ---------------- Clock ---------------- *)

let test_clock () =
  let c = Ksim.Sim_clock.create () in
  Alcotest.(check int) "starts at 0" 0 (Ksim.Sim_clock.now c);
  Ksim.Sim_clock.advance c (Ksim.Sim_clock.us 5);
  Alcotest.(check int) "advance" 5_000 (Ksim.Sim_clock.now c);
  Ksim.Sim_clock.advance_to c (Ksim.Sim_clock.ms 1);
  Alcotest.(check int) "advance_to" 1_000_000 (Ksim.Sim_clock.now c);
  Alcotest.check_raises "backward" (Invalid_argument "Sim_clock.advance_to: moving backward")
    (fun () -> Ksim.Sim_clock.advance_to c 0);
  Alcotest.(check int) "reader" 1_000_000 (Ksim.Sim_clock.reader c ())

(* ---------------- Swap device ---------------- *)

let test_swap_device_queueing () =
  let d = Ksim.Swap_device.create ~service_time_ns:100 () in
  Alcotest.(check int) "first read" 1100 (Ksim.Swap_device.read d ~now:1000);
  Alcotest.(check int) "queued behind" 1200 (Ksim.Swap_device.read d ~now:1000);
  Alcotest.(check int) "idle gap" 5100 (Ksim.Swap_device.read d ~now:5000);
  Alcotest.(check int) "reads" 3 (Ksim.Swap_device.reads_issued d);
  Alcotest.(check int) "busy" 300 (Ksim.Swap_device.busy_ns d)

(* ---------------- Page cache ---------------- *)

let test_page_cache_lru () =
  let c = Ksim.Page_cache.create ~capacity:2 in
  Ksim.Page_cache.insert c ~page:1 ~origin:Ksim.Page_cache.Demand ~ready_time:0;
  Ksim.Page_cache.insert c ~page:2 ~origin:Ksim.Page_cache.Demand ~ready_time:0;
  ignore (Ksim.Page_cache.lookup c ~page:1);
  Ksim.Page_cache.insert c ~page:3 ~origin:Ksim.Page_cache.Demand ~ready_time:0;
  Alcotest.(check bool) "2 evicted" false (Ksim.Page_cache.contains c ~page:2);
  Alcotest.(check bool) "1 kept" true (Ksim.Page_cache.contains c ~page:1)

let test_page_cache_prefetch_tracking () =
  let c = Ksim.Page_cache.create ~capacity:4 in
  Ksim.Page_cache.insert c ~page:1 ~origin:Ksim.Page_cache.Prefetch ~ready_time:500;
  (match Ksim.Page_cache.lookup c ~page:1 with
   | Ksim.Page_cache.Hit { ready_time; first_use_of_prefetch } ->
     Alcotest.(check int) "ready time" 500 ready_time;
     Alcotest.(check bool) "first use" true first_use_of_prefetch
   | Ksim.Page_cache.Miss -> Alcotest.fail "should hit");
  (match Ksim.Page_cache.lookup c ~page:1 with
   | Ksim.Page_cache.Hit { first_use_of_prefetch; _ } ->
     Alcotest.(check bool) "second use is plain hit" false first_use_of_prefetch
   | Ksim.Page_cache.Miss -> Alcotest.fail "should hit");
  (* unused prefetch evicted -> counted *)
  Ksim.Page_cache.insert c ~page:10 ~origin:Ksim.Page_cache.Prefetch ~ready_time:0;
  Ksim.Page_cache.insert c ~page:11 ~origin:Ksim.Page_cache.Demand ~ready_time:0;
  Ksim.Page_cache.insert c ~page:12 ~origin:Ksim.Page_cache.Demand ~ready_time:0;
  Ksim.Page_cache.insert c ~page:13 ~origin:Ksim.Page_cache.Demand ~ready_time:0;
  Ksim.Page_cache.insert c ~page:14 ~origin:Ksim.Page_cache.Demand ~ready_time:0;
  Alcotest.(check int) "wasted prefetch counted" 1
    (Ksim.Page_cache.evicted_unused_prefetches c)

(* ---------------- Readahead baseline ---------------- *)

let collect_prefetches prefetcher pages =
  List.concat_map
    (fun page -> prefetcher.Ksim.Prefetcher.on_access ~pid:1 ~page ~hit:false ~now:0)
    pages

let test_readahead_sequential_detection () =
  let ra = Ksim.Readahead.create () in
  let issued = collect_prefetches ra [ 100; 101; 102 ] in
  Alcotest.(check bool) "prefetches ahead" true (List.mem 103 issued);
  Alcotest.(check bool) "never behind" true (List.for_all (fun p -> p >= 102) issued)

let test_readahead_resets_on_jump () =
  let ra = Ksim.Readahead.create () in
  ignore (collect_prefetches ra [ 100; 101; 102 ]);
  let issued = ra.Ksim.Prefetcher.on_access ~pid:1 ~page:500 ~hit:false ~now:0 in
  Alcotest.(check (list int)) "silent after jump" [] issued

let test_readahead_per_pid_streams () =
  let ra = Ksim.Readahead.create () in
  ignore (ra.Ksim.Prefetcher.on_access ~pid:1 ~page:100 ~hit:false ~now:0);
  ignore (ra.Ksim.Prefetcher.on_access ~pid:2 ~page:200 ~hit:false ~now:0);
  let issued = ra.Ksim.Prefetcher.on_access ~pid:1 ~page:101 ~hit:false ~now:0 in
  Alcotest.(check bool) "pid-1 stream sequential despite pid-2 interleave" true
    (List.mem 102 issued)

(* ---------------- Leap baseline ---------------- *)

let test_leap_majority () =
  Alcotest.(check (option (pair int int))) "majority" (Some (3, 4))
    (Ksim.Leap.majority [| 3; 1; 3; 3; 2; 3 |]);
  Alcotest.(check (option (pair int int))) "empty" None (Ksim.Leap.majority [||])

let test_leap_detects_stride () =
  let leap =
    Ksim.Leap.create ~params:{ Ksim.Leap.history = 8; depth = 4; min_support = 4 } ()
  in
  let issued = collect_prefetches leap (List.init 8 (fun i -> 1000 + (i * 7))) in
  Alcotest.(check bool) "prefetches along +7 trend" true
    (List.mem (1000 + (7 * 7) + 7) issued)

let test_leap_silent_without_majority () =
  let leap =
    Ksim.Leap.create ~params:{ Ksim.Leap.history = 8; depth = 4; min_support = 5 } ()
  in
  (* alternate +1/+9: no delta reaches support 5 in window 8 *)
  let pages = [ 0; 1; 10; 11; 20; 21; 30; 31; 40 ] in
  let issued = collect_prefetches leap pages in
  Alcotest.(check (list int)) "no trend, no prefetch" [] issued

(* ---------------- Mem sim ---------------- *)

let test_mem_sim_no_prefetch_all_cold_miss () =
  let trace = Ksim.Workload_mem.sequential ~pid:1 ~start:0 ~n:100 in
  let r = Ksim.Mem_sim.run ~prefetcher:Ksim.Prefetcher.none trace in
  Alcotest.(check int) "all cold misses" 100 r.Ksim.Mem_sim.faults;
  Alcotest.(check (float 0.001)) "no coverage" 0.0 r.Ksim.Mem_sim.coverage;
  (* 100 accesses * 1us cpu + 100 faults * 50us *)
  Alcotest.(check int) "completion" ((100 * 1_000) + (100 * 50_000))
    r.Ksim.Mem_sim.completion_ns

let test_mem_sim_perfect_prefetcher () =
  let trace = Ksim.Workload_mem.sequential ~pid:1 ~start:0 ~n:500 in
  let r = Ksim.Mem_sim.run ~prefetcher:(Ksim.Prefetcher.next_n ~depth:8) trace in
  Alcotest.(check bool) "high coverage" true (r.Ksim.Mem_sim.coverage > 0.95);
  Alcotest.(check bool) "high accuracy" true (r.Ksim.Mem_sim.accuracy > 0.95);
  Alcotest.(check bool) "fewer faults" true (r.Ksim.Mem_sim.faults < 25)

let test_mem_sim_metric_bounds () =
  let rng = Kml.Rng.create 5 in
  let trace = Ksim.Workload_mem.random ~rng ~pid:1 ~pages:2000 ~n:1500 in
  List.iter
    (fun prefetcher ->
      let r = Ksim.Mem_sim.run ~prefetcher trace in
      Alcotest.(check bool) "accuracy in [0,1]" true
        (r.Ksim.Mem_sim.accuracy >= 0.0 && r.Ksim.Mem_sim.accuracy <= 1.0);
      Alcotest.(check bool) "coverage in [0,1]" true
        (r.Ksim.Mem_sim.coverage >= 0.0 && r.Ksim.Mem_sim.coverage <= 1.0);
      Alcotest.(check bool) "used <= issued" true
        (r.Ksim.Mem_sim.prefetches_used <= r.Ksim.Mem_sim.prefetches_issued))
    [ Ksim.Prefetcher.none;
      Ksim.Prefetcher.next_n ~depth:4;
      Ksim.Readahead.create ();
      Ksim.Leap.create () ]

(* ---------------- Workload generators ---------------- *)

let test_workload_shapes () =
  let video = Ksim.Workload_mem.video_resize ~pid:1 () in
  let conv = Ksim.Workload_mem.matrix_conv ~pid:1 () in
  Alcotest.(check bool) "video nonempty" true (Ksim.Workload_mem.length video > 1000);
  Alcotest.(check bool) "conv nonempty" true (Ksim.Workload_mem.length conv > 1000);
  Alcotest.(check bool) "video big footprint" true
    (Ksim.Workload_mem.footprint video > 1000);
  List.iter
    (fun { Ksim.Mem_sim.pid; page } ->
      Alcotest.(check int) "pid" 1 pid;
      Alcotest.(check bool) "page nonneg" true (page >= 0))
    video

let test_workload_determinism () =
  let a = Ksim.Workload_mem.matrix_conv ~pid:1 () in
  let b = Ksim.Workload_mem.matrix_conv ~pid:1 () in
  Alcotest.(check bool) "deterministic" true (a = b);
  let v1 = Ksim.Workload_mem.video_resize ~rng:(Kml.Rng.create 1) ~pid:1 () in
  let v2 = Ksim.Workload_mem.video_resize ~rng:(Kml.Rng.create 1) ~pid:1 () in
  Alcotest.(check bool) "video deterministic per seed" true (v1 = v2)

let test_zipf_skew () =
  let rng = Kml.Rng.create 11 in
  let trace = Ksim.Workload_mem.zipf ~rng ~pid:1 ~pages:1000 ~n:10_000 () in
  let counts = Hashtbl.create 64 in
  List.iter
    (fun { Ksim.Mem_sim.page; _ } ->
      Hashtbl.replace counts page (1 + Option.value ~default:0 (Hashtbl.find_opt counts page)))
    trace;
  let rank0 = Option.value ~default:0 (Hashtbl.find_opt counts 0) in
  let rank100 = Option.value ~default:0 (Hashtbl.find_opt counts 100) in
  Alcotest.(check bool) "rank 0 much hotter than rank 100" true (rank0 > 5 * max 1 rank100)

let suite =
  [ ( "event_queue",
      [ Alcotest.test_case "order" `Quick test_event_queue_order;
        Alcotest.test_case "fifo ties" `Quick test_event_queue_fifo_ties;
        Prop.to_alcotest prop_event_queue_sorted ] );
    ( "sim_clock",
      [ Alcotest.test_case "basics" `Quick test_clock ] );
    ( "swap_device",
      [ Alcotest.test_case "queueing" `Quick test_swap_device_queueing ] );
    ( "page_cache",
      [ Alcotest.test_case "lru" `Quick test_page_cache_lru;
        Alcotest.test_case "prefetch tracking" `Quick test_page_cache_prefetch_tracking ] );
    ( "readahead",
      [ Alcotest.test_case "sequential detection" `Quick test_readahead_sequential_detection;
        Alcotest.test_case "resets on jump" `Quick test_readahead_resets_on_jump;
        Alcotest.test_case "per-pid streams" `Quick test_readahead_per_pid_streams ] );
    ( "leap",
      [ Alcotest.test_case "majority" `Quick test_leap_majority;
        Alcotest.test_case "detects stride" `Quick test_leap_detects_stride;
        Alcotest.test_case "silent without majority" `Quick test_leap_silent_without_majority ] );
    ( "mem_sim",
      [ Alcotest.test_case "no prefetch cold misses" `Quick
          test_mem_sim_no_prefetch_all_cold_miss;
        Alcotest.test_case "perfect prefetcher" `Quick test_mem_sim_perfect_prefetcher;
        Alcotest.test_case "metric bounds" `Quick test_mem_sim_metric_bounds ] );
    ( "workload_mem",
      [ Alcotest.test_case "shapes" `Quick test_workload_shapes;
        Alcotest.test_case "determinism" `Quick test_workload_determinism;
        Alcotest.test_case "zipf skew" `Quick test_zipf_skew ] ) ]
