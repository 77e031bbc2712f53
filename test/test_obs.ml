(* lib/obs: counters, histograms, flight recorder, registry, exporters.

   The contract under test (DESIGN.md section 11): write-side primitives
   never allocate in steady state, totals are exact under domain fan-out
   at any pool width, the trace ring wraps/drops as documented, and the
   JSON exporter round-trips snapshots bit-for-bit. *)

let now0 () = 0

let contains ~affix s =
  let n = String.length affix and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = affix || go (i + 1)) in
  n = 0 || go 0

(* ---------------- scalars ---------------- *)

let test_counter_basics () =
  let c = Obs.Counter.make "test.obs.counter_basics" in
  Alcotest.(check int) "starts at zero" 0 (Obs.Counter.value c);
  Obs.Counter.incr c;
  Obs.Counter.incr c;
  Obs.Counter.add c 5;
  Alcotest.(check int) "incr and add sum" 7 (Obs.Counter.value c);
  (* [make] is an interning point: same name = same counter. *)
  let c' = Obs.Counter.make "test.obs.counter_basics" in
  Obs.Counter.incr c';
  Alcotest.(check int) "same name shares storage" 8 (Obs.Counter.value c);
  Alcotest.(check string) "name" "test.obs.counter_basics" (Obs.Counter.name c);
  (* Disabled: a flag load and nothing else. *)
  Obs.set_enabled false;
  Obs.Counter.incr c;
  Obs.Counter.add c 100;
  Obs.set_enabled true;
  Alcotest.(check int) "disabled writes are dropped" 8 (Obs.Counter.value c)

let test_gauge_basics () =
  let g = Obs.Gauge.make "test.obs.gauge_basics" in
  Obs.Gauge.add g 10;
  Obs.Gauge.sub g 3;
  Alcotest.(check int) "add/sub" 7 (Obs.Gauge.value g);
  Obs.Gauge.set g 42;
  Alcotest.(check int) "set clears other stripes" 42 (Obs.Gauge.value g)

(* ---------------- histograms ---------------- *)

let test_histo_bucketing () =
  Alcotest.(check int) "negative -> bucket 0" 0 (Obs.Histo.bucket_of_value (-5));
  Alcotest.(check int) "zero -> bucket 0" 0 (Obs.Histo.bucket_of_value 0);
  Alcotest.(check int) "one -> bucket 0" 0 (Obs.Histo.bucket_of_value 1);
  Alcotest.(check int) "two -> bucket 1" 1 (Obs.Histo.bucket_of_value 2);
  Alcotest.(check int) "three -> bucket 1" 1 (Obs.Histo.bucket_of_value 3);
  Alcotest.(check int) "four -> bucket 2" 2 (Obs.Histo.bucket_of_value 4);
  Alcotest.(check int) "1023 -> bucket 9" 9 (Obs.Histo.bucket_of_value 1023);
  Alcotest.(check int) "1024 -> bucket 10" 10 (Obs.Histo.bucket_of_value 1024);
  (* 63-bit OCaml ints: max_int = 2^62 - 1 lands in bucket 61 < 64. *)
  Alcotest.(check bool) "max_int fits the fixed buckets" true
    (Obs.Histo.bucket_of_value max_int < Obs.Histo.n_buckets);
  (* Bucket bounds partition the int range. *)
  Alcotest.(check int) "bucket 0 lo" 0 (Obs.Histo.bucket_lo 0);
  Alcotest.(check int) "bucket 0 hi" 1 (Obs.Histo.bucket_hi 0);
  Alcotest.(check int) "bucket 10 lo" 1024 (Obs.Histo.bucket_lo 10);
  Alcotest.(check int) "bucket 9 hi" 1023 (Obs.Histo.bucket_hi 9);
  Alcotest.(check int) "last bucket hi" max_int (Obs.Histo.bucket_hi 63);
  Alcotest.(check int) "top reachable bucket hi" max_int (Obs.Histo.bucket_hi 61);
  for k = 1 to 61 do
    Alcotest.(check int)
      (Printf.sprintf "bucket %d boundary round-trips" k)
      k
      (Obs.Histo.bucket_of_value (Obs.Histo.bucket_lo k))
  done

let test_histo_observe_and_percentile () =
  let h = Obs.Histo.make "test.obs.histo_pct" in
  Alcotest.(check int) "empty percentile" 0 (Obs.Histo.percentile h 0.5);
  for _ = 1 to 50 do
    Obs.Histo.observe h 1
  done;
  for _ = 1 to 50 do
    Obs.Histo.observe h 1000
  done;
  Alcotest.(check int) "count" 100 (Obs.Histo.count h);
  Alcotest.(check int) "sum" (50 + 50_000) (Obs.Histo.sum h);
  let b = Obs.Histo.buckets h in
  Alcotest.(check int) "low bucket" 50 b.(0);
  Alcotest.(check int) "1000 bucket" 50 b.(9);
  (* p25 falls in the low half, p90 in the 1000s bucket (upper bound). *)
  Alcotest.(check int) "p25" 1 (Obs.Histo.percentile h 0.25);
  Alcotest.(check int) "p90" 1023 (Obs.Histo.percentile h 0.9);
  Alcotest.(check int) "p0 clamps to first observation" 1 (Obs.Histo.percentile h (-1.0));
  Alcotest.(check int) "p1 clamps to last" 1023 (Obs.Histo.percentile h 2.0)

(* ---------------- steady-state allocation ---------------- *)

(* Same pattern as test_datapath: Gc.minor_words itself boxes a float, so
   allow a few words of measurement noise; a single word allocated per
   call would cost >= 10_000. *)
let check_zero_alloc name f =
  for _ = 1 to 100 do
    f ()
  done;
  let before = Gc.minor_words () in
  for _ = 1 to 10_000 do
    f ()
  done;
  let delta = Gc.minor_words () -. before in
  if delta > 256.0 then
    Alcotest.failf "%s allocated %.0f minor words over 10k calls" name delta

let test_zero_alloc_primitives () =
  let c = Obs.Counter.make "test.obs.zero_alloc_counter" in
  let h = Obs.Histo.make "test.obs.zero_alloc_histo" in
  check_zero_alloc "Counter.incr" (fun () -> Obs.Counter.incr c);
  check_zero_alloc "Counter.add" (fun () -> Obs.Counter.add c 3);
  check_zero_alloc "Histo.observe" (fun () -> Obs.Histo.observe h 777);
  check_zero_alloc "Trace.emit" (fun () ->
      Obs.Trace.emit ~hook:1 ~uid:2 ~engine:1 ~steps:9 ~result:1 ~flags:0);
  Obs.set_enabled false;
  check_zero_alloc "disabled Counter.incr" (fun () -> Obs.Counter.incr c);
  check_zero_alloc "disabled Trace.emit" (fun () ->
      Obs.Trace.emit ~hook:1 ~uid:2 ~engine:1 ~steps:9 ~result:1 ~flags:0);
  Obs.set_enabled true

(* ---------------- exactness under domain fan-out ---------------- *)

let test_counter_exact_under_par () =
  let saved = Par.global_domains () in
  Fun.protect
    ~finally:(fun () -> Par.set_global_domains saved)
    (fun () ->
      List.iter
        (fun width ->
          Par.set_global_domains width;
          let c = Obs.Counter.make (Printf.sprintf "test.obs.par.%d" width) in
          let h = Obs.Histo.make (Printf.sprintf "test.obs.par_h.%d" width) in
          let inputs = Array.init 512 (fun i -> i) in
          let _ =
            Par.parallel_map_array (Par.global ())
              (fun i ->
                Obs.Counter.incr c;
                Obs.Counter.add c 2;
                Obs.Histo.observe h (i + 1);
                i)
              inputs
          in
          (* Striped atomic cells: totals are exact at every width. *)
          Alcotest.(check int)
            (Printf.sprintf "counter exact at width %d" width)
            (512 * 3) (Obs.Counter.value c);
          Alcotest.(check int)
            (Printf.sprintf "histo count exact at width %d" width)
            512 (Obs.Histo.count h);
          Alcotest.(check int)
            (Printf.sprintf "histo sum exact at width %d" width)
            (512 * 513 / 2)
            (Obs.Histo.sum h))
        [ 1; 2; 4; 8 ])

(* ---------------- flight recorder ---------------- *)

let emit_n ?(start = 0) n =
  for i = start to start + n - 1 do
    Obs.Trace.emit ~hook:1 ~uid:7 ~engine:1 ~steps:i ~result:(i * 2) ~flags:0
  done

let test_trace_wrap_and_drop () =
  Fun.protect
    ~finally:(fun () -> Obs.Trace.configure ~capacity:1024)
    (fun () ->
      Obs.Trace.configure ~capacity:8;
      Alcotest.(check int) "capacity rounds to power of two" 8 (Obs.Trace.capacity ());
      Alcotest.(check int) "configure resets emitted" 0 (Obs.Trace.emitted ());
      emit_n 20;
      Alcotest.(check int) "emitted counts accepted events" 20 (Obs.Trace.emitted ());
      Alcotest.(check int) "no drops while unfrozen" 0 (Obs.Trace.dropped ());
      let events = Obs.Trace.last 100 in
      Alcotest.(check int) "wrap keeps only capacity events" 8 (List.length events);
      List.iteri
        (fun i (e : Obs.Trace.event) ->
          Alcotest.(check int) "oldest-first seqs" (12 + i) e.Obs.Trace.seq;
          Alcotest.(check int) "payload survives wrap" (e.Obs.Trace.seq * 2)
            e.Obs.Trace.result)
        events;
      Alcotest.(check int) "last n < capacity" 3 (List.length (Obs.Trace.last 3));
      (* Frozen ring: emitters drop and count instead of overwriting. *)
      Obs.Trace.freeze ();
      emit_n ~start:20 2;
      Alcotest.(check int) "frozen drops" 2 (Obs.Trace.dropped ());
      Alcotest.(check int) "frozen does not emit" 20 (Obs.Trace.emitted ());
      Alcotest.(check int) "frozen snapshot stable" 8 (List.length (Obs.Trace.last 100));
      Obs.Trace.unfreeze ();
      emit_n ~start:22 1;
      Alcotest.(check int) "resumes after unfreeze" 21 (Obs.Trace.emitted ()))

let test_trace_capacity_clamps () =
  Fun.protect
    ~finally:(fun () -> Obs.Trace.configure ~capacity:1024)
    (fun () ->
      Obs.Trace.configure ~capacity:1000;
      Alcotest.(check int) "rounds up" 1024 (Obs.Trace.capacity ());
      Obs.Trace.configure ~capacity:1;
      Alcotest.(check int) "clamps below" 8 (Obs.Trace.capacity ()))

let test_trace_hook_attribution () =
  let id = Obs.intern "test/hook" in
  Alcotest.(check int) "intern is stable" id (Obs.intern "test/hook");
  Alcotest.(check string) "intern_name inverts" "test/hook" (Obs.intern_name id);
  Alcotest.(check bool) "unknown ids print as ?id" true
    (String.length (Obs.intern_name 99_999) > 1);
  Obs.Trace.set_current_hook id;
  Alcotest.(check int) "ambient hook" id (Obs.Trace.current_hook ());
  Obs.Trace.set_current_hook (-1);
  Alcotest.(check int) "cleared" (-1) (Obs.Trace.current_hook ())

(* ---------------- registry, snapshots, exporters ---------------- *)

let test_snapshot_diff_and_views () =
  let c = Obs.Counter.make "test.obs.diff_counter" in
  let cell = ref 10 in
  Obs.Registry.register_view "test.obs.view" (fun () -> !cell);
  let before = Obs.Registry.snapshot () in
  Alcotest.(check (option int)) "view visible" (Some 10)
    (Obs.Snapshot.scalar before "test.obs.view");
  Obs.Counter.add c 4;
  cell := 25;
  let after = Obs.Registry.snapshot () in
  let d = Obs.Snapshot.diff ~before ~after in
  Alcotest.(check (option int)) "counter delta" (Some 4)
    (Obs.Snapshot.scalar d "test.obs.diff_counter");
  Alcotest.(check (option int)) "view delta" (Some 15) (Obs.Snapshot.scalar d "test.obs.view");
  Obs.Registry.unregister_view "test.obs.view";
  let gone = Obs.Registry.snapshot () in
  Alcotest.(check (option int)) "unregistered view absent" None
    (Obs.Snapshot.scalar gone "test.obs.view");
  (* Reinstalling under the same name replaces the closure. *)
  Obs.Registry.register_view "test.obs.view" (fun () -> 1);
  Obs.Registry.register_view "test.obs.view" (fun () -> 2);
  let s = Obs.Registry.snapshot () in
  Alcotest.(check (option int)) "re-register replaces" (Some 2)
    (Obs.Snapshot.scalar s "test.obs.view");
  Obs.Registry.unregister_view "test.obs.view"

let test_snapshot_sorted_and_text () =
  let _ = Obs.Counter.make "test.obs.zzz" in
  let _ = Obs.Counter.make "test.obs.aaa" in
  let s = Obs.Registry.snapshot () in
  let names = Array.map (fun (n, _, _) -> n) s.Obs.Snapshot.scalars in
  let sorted = Array.copy names in
  Array.sort compare sorted;
  Alcotest.(check bool) "scalars sorted by name" true (names = sorted);
  let text = Obs.Snapshot.to_text s in
  Alcotest.(check bool) "text lists metrics" true
    (String.length text > 0
    && contains ~affix:"test.obs.aaa" text
    && contains ~affix:"trace.emitted" text)

let test_json_round_trip () =
  let h = Obs.Histo.make "test.obs.json_histo" in
  Obs.Histo.observe h 3;
  Obs.Histo.observe h 300;
  let s = Obs.Registry.snapshot () in
  match Obs.Snapshot.of_json (Obs.Snapshot.to_json s) with
  | Error e -> Alcotest.failf "of_json: %s" e
  | Ok s' ->
    Alcotest.(check bool) "scalars round-trip" true
      (s.Obs.Snapshot.scalars = s'.Obs.Snapshot.scalars);
    Alcotest.(check bool) "histos round-trip" true
      (s.Obs.Snapshot.histos = s'.Obs.Snapshot.histos);
    Alcotest.(check int) "trace emitted round-trips" s.Obs.Snapshot.trace_emitted
      s'.Obs.Snapshot.trace_emitted;
    Alcotest.(check int) "trace capacity round-trips" s.Obs.Snapshot.trace_capacity
      s'.Obs.Snapshot.trace_capacity

let test_prometheus_export () =
  let c = Obs.Counter.make "test.obs.prom_counter" in
  Obs.Counter.add c 3;
  let h = Obs.Histo.make "test.obs.prom_histo" in
  Obs.Histo.observe h 5;
  let out = Obs.Snapshot.to_prometheus (Obs.Registry.snapshot ()) in
  let has affix = contains ~affix out in
  Alcotest.(check bool) "dots become underscores" true
    (has "# TYPE test_obs_prom_counter counter");
  Alcotest.(check bool) "histogram family" true (has "# TYPE test_obs_prom_histo histogram");
  Alcotest.(check bool) "+Inf bucket present" true
    (has "test_obs_prom_histo_bucket{le=\"+Inf\"}");
  Alcotest.(check bool) "trace totals exported" true (has "rkd_trace_emitted")

(* ---------------- datapath integration ---------------- *)

let test_vm_emits_telemetry () =
  let program =
    Rmt.Program.make ~name:"obs_probe"
      [ Rmt.Insn.Ld_ctxt_k (1, 0); Rmt.Insn.Alu_imm (Rmt.Insn.Add, 1, 1);
        Rmt.Insn.Mov (0, 1); Rmt.Insn.Exit ]
  in
  let control = Rmt.Control.create ~engine:Rmt.Vm.Jit_compiled () in
  let vm =
    match Rmt.Control.install control program with
    | Ok vm -> vm
    | Error e -> Alcotest.failf "install: %s" e
  in
  let ctxt = Rmt.Ctxt.of_list [ (0, 5) ] in
  let hook = Obs.intern "test/vm_probe" in
  let before = Obs.Registry.snapshot () in
  Obs.Trace.set_current_hook hook;
  for _ = 1 to 5 do
    ignore (Rmt.Vm.invoke_result vm ~ctxt ~now:now0)
  done;
  Obs.Trace.set_current_hook (-1);
  let d = Obs.Snapshot.diff ~before ~after:(Obs.Registry.snapshot ()) in
  Alcotest.(check (option int)) "vm invocations counted" (Some 5)
    (Obs.Snapshot.scalar d "rmt.vm.invocations");
  Alcotest.(check (option int)) "jit runs counted" (Some 5)
    (Obs.Snapshot.scalar d "rmt.jit.runs");
  Alcotest.(check int) "one trace event per invocation" 5 d.Obs.Snapshot.trace_emitted;
  (* The installed program's registry views track its accessors. *)
  Alcotest.(check (option int)) "program invocation view" (Some 5)
    (Obs.Snapshot.scalar d "rmt.program.obs_probe.invocations");
  match List.rev (Obs.Trace.last 5) with
  | [] -> Alcotest.fail "no trace events recorded"
  | (e : Obs.Trace.event) :: _ ->
    Alcotest.(check int) "event attributed to ambient hook" hook e.Obs.Trace.hook;
    Alcotest.(check int) "event uid is the loaded program's" (Rmt.Loaded.uid (Rmt.Vm.loaded vm))
      e.Obs.Trace.uid;
    Alcotest.(check int) "event engine is jit" 1 e.Obs.Trace.engine;
    Alcotest.(check int) "event carries the action result" 6 e.Obs.Trace.result;
    Alcotest.(check int) "event steps" 4 e.Obs.Trace.steps

let test_disabled_vm_is_silent () =
  let program = Rmt.Program.make ~name:"obs_quiet" [ Rmt.Insn.Ld_imm (0, 1); Rmt.Insn.Exit ] in
  let control = Rmt.Control.create () in
  let vm = Result.get_ok (Rmt.Control.install control program) in
  let ctxt = Rmt.Ctxt.create () in
  Obs.set_enabled false;
  let before = Obs.Registry.snapshot () in
  for _ = 1 to 10 do
    ignore (Rmt.Vm.invoke_result vm ~ctxt ~now:now0)
  done;
  let d = Obs.Snapshot.diff ~before ~after:(Obs.Registry.snapshot ()) in
  Obs.set_enabled true;
  Alcotest.(check (option int)) "no counter movement when disabled" (Some 0)
    (Obs.Snapshot.scalar d "rmt.vm.invocations");
  Alcotest.(check int) "no trace events when disabled" 0 d.Obs.Snapshot.trace_emitted;
  (* The datapath itself still runs. *)
  Alcotest.(check int) "program still executes" 1 (Rmt.Vm.invoke_result vm ~ctxt ~now:now0)

let suite =
  [ ( "obs",
      [ Alcotest.test_case "counter basics" `Quick test_counter_basics;
        Alcotest.test_case "gauge basics" `Quick test_gauge_basics;
        Alcotest.test_case "histo bucketing" `Quick test_histo_bucketing;
        Alcotest.test_case "histo percentiles" `Quick test_histo_observe_and_percentile;
        Alcotest.test_case "zero allocation" `Quick test_zero_alloc_primitives;
        Alcotest.test_case "exact under par fan-out" `Quick test_counter_exact_under_par;
        Alcotest.test_case "trace wrap and drop" `Quick test_trace_wrap_and_drop;
        Alcotest.test_case "trace capacity clamps" `Quick test_trace_capacity_clamps;
        Alcotest.test_case "trace hook attribution" `Quick test_trace_hook_attribution;
        Alcotest.test_case "snapshot diff and views" `Quick test_snapshot_diff_and_views;
        Alcotest.test_case "snapshot sorted, text export" `Quick
          test_snapshot_sorted_and_text;
        Alcotest.test_case "json round-trip" `Quick test_json_round_trip;
        Alcotest.test_case "prometheus export" `Quick test_prometheus_export;
        Alcotest.test_case "vm emits telemetry" `Quick test_vm_emits_telemetry;
        Alcotest.test_case "disabled vm is silent" `Quick test_disabled_vm_is_silent ] ) ]
