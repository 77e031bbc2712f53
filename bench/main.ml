(* Benchmark harness.

   Usage:
     bench/main.exe             -- everything: tables, ablations, microbenches
     bench/main.exe table1      -- Table 1 only
     bench/main.exe table2      -- Table 2 only
     bench/main.exe ablations   -- ablations A-F
     bench/main.exe overhead    -- Figure 1 family (wall-clock VM overhead)
     bench/main.exe micro       -- Bechamel microbenchmarks
     bench/main.exe json [path]       -- microbenchmarks, machine readable
                                         (default path: BENCH_micro.json)
     bench/main.exe perf-check [base] -- fail if any fig1/* or batch/*
                                         microbench is >25% slower than the
                                         baseline file
                                         (default: bench/BASELINE_micro.json),
                                         or the within-run batch amortization
                                         ratio collapses
     bench/main.exe macro [path]      -- time table1/table2/ablations at
                                         domains=1 vs domains=N (RKD_DOMAINS
                                         or the core count) and write the
                                         rkd-bench-macro/1 json
                                         (default path: BENCH_macro.json)
     bench/main.exe perf-check-macro  -- fail if the parallel experiment
                                         harness is slower than sequential

   The Bechamel suite carries one Test.make group per paper table (the
   per-invocation datapath cost behind that table's system) plus the
   Figure 1 interpreter-vs-JIT comparison. *)

open Bechamel
open Toolkit

(* ------------------------------------------------------------------ *)
(* Microbenchmark fixtures                                              *)
(* ------------------------------------------------------------------ *)

let prefetch_fixture engine =
  let params = Rkd.Prefetch_rmt.default_params in
  let collect = Rkd.Prefetch_rmt.build_collect_program params in
  let predict = Rkd.Prefetch_rmt.build_predict_program params in
  let control = Rmt.Control.create ~engine () in
  let rng = Kml.Rng.create 7 in
  let nf = params.Rkd.Prefetch_rmt.history + 3 in
  let ds = Kml.Dataset.create ~n_features:nf ~n_classes:params.Rkd.Prefetch_rmt.n_delta_classes in
  for _ = 1 to 512 do
    Kml.Dataset.add ds
      { Kml.Dataset.features = Array.init nf (fun _ -> Kml.Rng.int rng 128);
        label = Kml.Rng.int rng 8 }
  done;
  let tree = Kml.Decision_tree.train ds in
  let (_ : Rmt.Model_store.handle) =
    Rmt.Control.register_model control ~name:"m" (Rmt.Model_store.Tree tree)
  in
  let collect_vm = Result.get_ok (Rmt.Control.install control collect) in
  let predict_vm = Result.get_ok (Rmt.Control.install control ~model_names:[ "m" ] predict) in
  let ctxt = Rmt.Ctxt.create () in
  Rmt.Ctxt.set ctxt Rkd.Hooks.key_page 1234;
  Rmt.Ctxt.set ctxt Rkd.Hooks.key_last_page 1230;
  for i = 0 to nf - 1 do
    Rmt.Ctxt.set ctxt (Rkd.Hooks.key_feature_base + i) (i + 1)
  done;
  (collect_vm, predict_vm, ctxt, tree)

let sched_fixture () =
  (* A trained quantized MLP over the 15 LB features, as in case study 2. *)
  let rng = Kml.Rng.create 3 in
  let ds = Kml.Dataset.create ~n_features:15 ~n_classes:2 in
  for _ = 1 to 1024 do
    let features = Array.init 15 (fun _ -> Kml.Rng.int rng 4096) in
    let label = if features.(4) > 2048 then 1 else 0 in
    Kml.Dataset.add ds { Kml.Dataset.features; label }
  done;
  let mlp = Kml.Mlp.train ~params:{ Kml.Mlp.default_params with epochs = 10 } ~rng ds in
  let q = Kml.Quantize.Qmlp.of_mlp mlp in
  let sched = Rkd.Sched_rmt.create ~model:(Rmt.Model_store.Qmlp q) () in
  (Rkd.Sched_rmt.decider sched, q, mlp)

(* A context-streaming loop for the absint/analyze row: the cost of the
   verifier's abstract interpretation at load time. *)
let absint_fixture () =
  let open Rmt.Insn in
  let prog =
    Rmt.Program.make ~name:"ctxt_stream"
      [ Ld_imm (0, 0); Ld_imm (1, 0); Ld_imm (2, 0);
        Rep (64, 5);
        Alu_imm (And, 1, 63); Ld_ctxt (2, 1); Alu (Add, 0, 2); St_ctxt_r (1, 2);
        Alu_imm (Add, 1, 1);
        Exit ]
  in
  (prog, Rmt.Helper.with_defaults ())

(* Batched-invocation fixture (DESIGN.md section 13): a qMLP prefetch
   program — vector-load the feature block, one CALL_ML inference, store
   the predicted class — run either as looped scalar invokes or through
   Vm.invoke_batch at increasing widths.  The program is SoA-eligible, so
   the batch rows exercise the instruction-major kernel with the tiled
   Qmat.mul_vec_batch matmuls. *)
let batch_fixture () =
  let open Rmt in
  let nf = 11 in
  let prog =
    let b = Builder.create ~name:"qmlp_prefetch" ~vmem_size:nf () in
    let (_ : int) = Builder.add_model b ~n_features:nf in
    Builder.emit b (Insn.Vec_ld_ctxt (0, Rkd.Hooks.key_feature_base, nf));
    Builder.emit b (Insn.Call_ml (0, 0, nf));
    Builder.emit b (Insn.St_ctxt (64, 0));
    Builder.emit b Insn.Exit;
    Builder.finish b ()
  in
  let rng = Kml.Rng.create 11 in
  let ds = Kml.Dataset.create ~n_features:nf ~n_classes:8 in
  for _ = 1 to 512 do
    let features = Array.init nf (fun _ -> Kml.Rng.int rng 256) in
    Kml.Dataset.add ds { Kml.Dataset.features; label = features.(0) land 7 }
  done;
  (* Two 64-wide hidden layers: the quantized weights (~42 KB) overflow
     L1, so the looped scalar path re-streams them per invocation while
     the SoA kernel touches each row once per batch — the cache-reuse
     half of the batching win, on top of amortized dispatch. *)
  let mlp =
    Kml.Mlp.train
      ~params:{ Kml.Mlp.default_params with hidden = [ 64; 64 ]; epochs = 5 }
      ~rng ds
  in
  let q = Kml.Quantize.Qmlp.of_mlp mlp in
  let control = Control.create () in
  let (_ : Model_store.handle) =
    Control.register_model control ~name:"q" (Model_store.Qmlp q)
  in
  let vm = Result.get_ok (Control.install control ~model_names:[ "q" ] prog) in
  let ctxt = Ctxt.create () in
  for i = 0 to nf - 1 do
    Ctxt.set ctxt (Rkd.Hooks.key_feature_base + i) ((i * 37) land 255)
  done;
  let batch = Batch.create ~capacity:256 in
  for s = 0 to 255 do
    let c = batch.Batch.ctxts.(s) in
    for i = 0 to nf - 1 do
      Ctxt.set c (Rkd.Hooks.key_feature_base + i) (((s + i) * 37) land 255)
    done
  done;
  (vm, ctxt, batch)

(* Failsafe-layer fixture (DESIGN.md section 12): the same hook wired
   bare and breaker-protected, so the failsafe/* rows quantify what the
   protection costs on a healthy (closed-breaker, no-fault) datapath. *)
let failsafe_fixture () =
  let open Rmt in
  let prog =
    let b = Builder.create ~name:"fs_bench" ~vmem_size:1 () in
    Builder.add_capability b (Program.Guarded { lo = 0; hi = 4095 });
    Builder.emit b (Insn.Ld_ctxt_k (0, 0));
    Builder.emit b (Insn.Alu_imm (Insn.And, 0, 4095));
    Builder.emit b Insn.Exit;
    Builder.finish b ()
  in
  let control = Control.create () in
  let vm = Result.get_ok (Control.install control prog) in
  let bare = Control.create_table control ~name:"fs_bare" ~match_keys:[||] ~default:(Table.Run vm) in
  let guarded =
    Control.create_table control ~name:"fs_guarded" ~match_keys:[||] ~default:(Table.Run vm)
  in
  Control.attach control ~hook:"fs_bare" bare;
  Control.attach control ~hook:"fs_guarded" guarded;
  let breaker =
    Control.protect control ~hook:"fs_guarded" ~programs:[ "fs_bench" ]
      ~fallback:(fun _ -> 0) ()
  in
  let ctxt = Ctxt.of_list [ (0, 1234) ] in
  (control, breaker, ctxt)

let micro_tests () =
  let collect_i, predict_i, ctxt_i, _ = prefetch_fixture Rmt.Vm.Interpreted in
  let collect_j, predict_j, ctxt_j, tree = prefetch_fixture Rmt.Vm.Jit_compiled in
  let decider, qmlp, mlp = sched_fixture () in
  let ai_prog, ai_helpers = absint_fixture () in
  let now () = 0 in
  let features15 = Array.init 15 (fun i -> i * 17) in
  let tree_features =
    Array.init (Rkd.Prefetch_rmt.default_params.Rkd.Prefetch_rmt.history + 3) (fun i -> i)
  in
  let table =
    let t = Rmt.Table.create ~name:"bench" ~match_keys:[| 0 |] ~default:(Rmt.Table.Const 0) in
    for pid = 0 to 63 do
      ignore (Rmt.Table.insert t ~patterns:[| Rmt.Table.Eq pid |] (Rmt.Table.Const pid))
    done;
    t
  in
  let table_ctxt = Rmt.Ctxt.of_list [ (0, 40) ] in
  let bvm, bctxt, batch = batch_fixture () in
  let fs_control, fs_breaker, fs_ctxt = failsafe_fixture () in
  let obs_counter = Obs.Counter.make "bench.obs.counter" in
  let obs_histo = Obs.Histo.make "bench.obs.histo" in
  [ (* Figure 1 family: the VM itself, interpreted vs JIT. *)
    Test.make ~name:"fig1/collect/interp"
      (Staged.stage (fun () -> Rmt.Vm.invoke collect_i ~ctxt:ctxt_i ~now));
    Test.make ~name:"fig1/collect/jit"
      (Staged.stage (fun () -> Rmt.Vm.invoke collect_j ~ctxt:ctxt_j ~now));
    Test.make ~name:"fig1/predict/interp"
      (Staged.stage (fun () -> Rmt.Vm.invoke predict_i ~ctxt:ctxt_i ~now));
    Test.make ~name:"fig1/predict/jit"
      (Staged.stage (fun () -> Rmt.Vm.invoke predict_j ~ctxt:ctxt_j ~now));
    (* Table 1 datapath pieces: tree inference and table match. *)
    Test.make ~name:"table1/tree-predict"
      (Staged.stage (fun () -> Kml.Decision_tree.predict tree tree_features));
    Test.make ~name:"table1/table-match"
      (Staged.stage (fun () -> Rmt.Table.lookup table ~ctxt:table_ctxt ~now));
    (* Table 2 datapath pieces: quantized vs float MLP and the full RMT
       migration decision. *)
    Test.make ~name:"table2/qmlp-predict"
      (Staged.stage (fun () -> Kml.Quantize.Qmlp.predict qmlp features15));
    Test.make ~name:"table2/float-mlp-predict"
      (Staged.stage (fun () -> Kml.Mlp.predict mlp features15));
    Test.make ~name:"table2/migration-decision"
      (Staged.stage (fun () -> decider ~features:features15 ~heuristic:false));
    (* The cost of the verifier's abstract interpretation at load time. *)
    Test.make ~name:"absint/analyze"
      (Staged.stage (fun () -> Rmt.Absint.analyze ~helpers:ai_helpers ai_prog));
    (* Observability rows (DESIGN.md section 11): the telemetry primitives
       themselves, and the instrumented JIT fast path with telemetry
       disabled — quantifying the "reduces to a flag load" claim.  The
       disabled rows bracket the flag with allocate/free so every other
       row still measures with telemetry on (the shipping default). *)
    Test.make ~name:"obs/counter-incr"
      (Staged.stage (fun () -> Obs.Counter.incr obs_counter));
    Test.make ~name:"obs/histo-observe"
      (Staged.stage (fun () -> Obs.Histo.observe obs_histo 777));
    Test.make ~name:"obs/trace-emit"
      (Staged.stage (fun () ->
           Obs.Trace.emit ~hook:0 ~uid:1 ~engine:1 ~steps:12 ~result:1 ~flags:0));
    Test.make_with_resource ~name:"obs/counter-incr-off" Test.uniq
      ~allocate:(fun () -> Obs.set_enabled false)
      ~free:(fun () -> Obs.set_enabled true)
      (Staged.stage (fun () -> Obs.Counter.incr obs_counter));
    Test.make_with_resource ~name:"obs/invoke-jit-off" Test.uniq
      ~allocate:(fun () -> Obs.set_enabled false)
      ~free:(fun () -> Obs.set_enabled true)
      (Staged.stage (fun () -> Rmt.Vm.invoke predict_j ~ctxt:ctxt_j ~now));
    (* Batched invocation (DESIGN.md section 13): one qMLP inference per
       slot, scalar loop vs the SoA kernel at widths 1/8/64/256.  The
       b64-vs-loop64 ratio is the headline amortization win and is gated
       relative in perf-check. *)
    Test.make ~name:"batch/qmlp/loop64"
      (Staged.stage (fun () ->
           for _ = 1 to 64 do
             ignore (Rmt.Vm.invoke_result bvm ~ctxt:bctxt ~now : int)
           done));
    Test.make ~name:"batch/qmlp/b1"
      (Staged.stage (fun () ->
           Rmt.Batch.set_n batch 1;
           Rmt.Vm.invoke_batch bvm batch ~now));
    Test.make ~name:"batch/qmlp/b8"
      (Staged.stage (fun () ->
           Rmt.Batch.set_n batch 8;
           Rmt.Vm.invoke_batch bvm batch ~now));
    Test.make ~name:"batch/qmlp/b64"
      (Staged.stage (fun () ->
           Rmt.Batch.set_n batch 64;
           Rmt.Vm.invoke_batch bvm batch ~now));
    Test.make ~name:"batch/qmlp/b256"
      (Staged.stage (fun () ->
           Rmt.Batch.set_n batch 256;
           Rmt.Vm.invoke_batch bvm batch ~now));
    (* Failsafe rows (DESIGN.md section 12): hook dispatch bare vs
       breaker-protected on the healthy path (closed breaker, no faults),
       plus the breaker admission check itself. *)
    Test.make ~name:"failsafe/fire-bare"
      (Staged.stage (fun () -> Rmt.Control.fire fs_control ~hook:"fs_bare" ~ctxt:fs_ctxt));
    Test.make ~name:"failsafe/fire-protected"
      (Staged.stage (fun () -> Rmt.Control.fire fs_control ~hook:"fs_guarded" ~ctxt:fs_ctxt));
    Test.make ~name:"failsafe/breaker-allow"
      (Staged.stage (fun () -> Rmt.Breaker.allow fs_breaker ~now:0)) ]

(* Run the Bechamel suite and return [(name, ns_per_run)] in suite order. *)
let measure_micro () =
  let instances = Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~stabilize:true () in
  List.concat_map
    (fun test ->
      let results = Benchmark.all cfg instances test in
      let ols = Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |] in
      let estimates = Analyze.all ols Instance.monotonic_clock results in
      Hashtbl.fold
        (fun name result acc ->
          match Analyze.OLS.estimates result with
          | Some [ est ] -> (name, est) :: acc
          | Some _ | None -> acc)
        estimates [])
    (micro_tests ())

let run_micro () =
  Format.printf "@.Microbenchmarks (Bechamel, monotonic clock)@.";
  Format.printf "  %-32s %14s@." "benchmark" "ns/run";
  List.iter (fun (name, ns) -> Format.printf "  %-32s %14.1f@." name ns) (measure_micro ())

(* ------------------------------------------------------------------ *)
(* Machine-readable results and regression gate                        *)
(* ------------------------------------------------------------------ *)

(* One result per line so the reader below can stay Scanf-only. *)
let write_json path results =
  let oc = open_out path in
  let n = List.length results in
  output_string oc "{\n  \"schema\": \"rkd-bench-micro/1\",\n  \"results\": [\n";
  List.iteri
    (fun i (name, ns) ->
      Printf.fprintf oc "    { \"name\": %S, \"ns_per_run\": %.2f }%s\n" name ns
        (if i = n - 1 then "" else ","))
    results;
  output_string oc "  ]\n}\n";
  close_out oc

let read_json path =
  let ic = open_in path in
  let results = ref [] in
  (try
     while true do
       let line = input_line ic in
       match
         Scanf.sscanf line " { \"name\": %S, \"ns_per_run\": %f" (fun name ns -> (name, ns))
       with
       | pair -> results := pair :: !results
       | exception Scanf.Scan_failure _ -> ()
       | exception End_of_file -> ()
       | exception Failure _ -> ()
     done
   with End_of_file -> ());
  close_in ic;
  List.rev !results

let run_json path =
  let results = measure_micro () in
  write_json path results;
  Format.printf "wrote %d results to %s@." (List.length results) path

(* Fail (exit 1) when any fig1/* or batch/* microbench regresses more
   than 25%% against the checked-in baseline, or when the within-run
   batch amortization ratio collapses: loop64 / b64 — 2x+ when measured
   quietly (max-of-7, see BASELINE_micro.json), gated at a loose 1.35x
   so noisy shared-CPU runs don't flake.

   A within-run ratio compares two rows from the same process on the
   same machine moments apart, so it survives the machine-speed drift
   the absolute baseline tolerance has to absorb. *)
let prefix_gated name =
  List.exists
    (fun p -> String.length name >= String.length p && String.sub name 0 (String.length p) = p)
    [ "fig1/"; "batch/" ]

let run_perf_check baseline_path =
  if not (Sys.file_exists baseline_path) then begin
    Format.eprintf "perf-check: baseline %s not found@." baseline_path;
    exit 2
  end;
  let baseline = read_json baseline_path in
  let current = measure_micro () in
  let tolerance = 1.25 in
  let failed = ref false in
  Format.printf "@.perf-check vs %s (fail above %.0f%% regression)@." baseline_path
    ((tolerance -. 1.) *. 100.);
  Format.printf "  %-32s %12s %12s %8s  %s@." "benchmark" "baseline" "current" "ratio" "gate";
  List.iter
    (fun (name, base_ns) ->
      match List.assoc_opt name current with
      | None ->
        failed := true;
        Format.printf "  %-32s %12.1f %12s %8s  MISSING@." name base_ns "-" "-"
      | Some ns ->
        let ratio = ns /. base_ns in
        let gated = prefix_gated name in
        let bad = gated && ratio > tolerance in
        if bad then failed := true;
        Format.printf "  %-32s %12.1f %12.1f %8.2f  %s@." name base_ns ns ratio
          (if bad then "FAIL" else if gated then "ok" else "info"))
    baseline;
  let structural label num den ~min_ratio =
    match (List.assoc_opt num current, List.assoc_opt den current) with
    | Some num_ns, Some den_ns ->
      let r = num_ns /. den_ns in
      let bad = r < min_ratio in
      if bad then failed := true;
      Format.printf "  %-45s %8.2fx  %s@."
        (Printf.sprintf "%s (%s / %s)" label num den)
        r
        (if bad then Printf.sprintf "FAIL (< %.2fx)" min_ratio else "ok")
    | _ ->
      failed := true;
      Format.printf "  %-45s %8s  MISSING@." label "-"
  in
  Format.printf "@.within-run structural gates@.";
  structural "batch amortization" "batch/qmlp/loop64" "batch/qmlp/b64" ~min_ratio:1.35;
  if !failed then begin
    Format.printf "perf-check: FAILED@.";
    exit 1
  end
  else Format.printf "perf-check: ok@."

(* ------------------------------------------------------------------ *)
(* Macro benchmark: the experiment layer at domains=1 vs domains=N     *)
(* ------------------------------------------------------------------ *)

let quiet_ablations () =
  ignore (Rkd.Experiment.ablation_lean_monitoring ());
  ignore (Rkd.Experiment.ablation_window ());
  ignore (Rkd.Experiment.ablation_quantization ());
  ignore (Rkd.Experiment.ablation_adaptivity ());
  ignore (Rkd.Experiment.ablation_distillation ());
  ignore (Rkd.Experiment.ablation_privacy ());
  ignore (Rkd.Experiment.ablation_model_family ());
  ignore (Rkd.Experiment.ablation_nas ());
  ignore (Rkd.Experiment.ablation_granularity ());
  ignore (Rkd.Experiment.ablation_cross_app ());
  ignore (Rkd.Experiment.ablation_online_training ())

let macro_targets =
  [ ("table1", fun () -> ignore (Rkd.Experiment.table1 ()));
    ("table2", fun () -> ignore (Rkd.Experiment.table2 ()));
    ("ablations", quiet_ablations);
    ("net", fun () -> ignore (Rkd.Experiment.table3 ~faults:[] ())) ]

(* Timed into the macro artifact but exempt from the speedup gate: the
   fleet control loop's parallel property is width {e invariance} (same
   digest at any pool width), not speedup — its sequential control step
   and per-tick barrier dominate at the default 12x4 scale. *)
let macro_report_only =
  [ ("fleet", fun () -> ignore (Rkd.Experiment.fleet_soak ~faults:[] ())) ]

type macro_row = { m_name : string; wall_ms : float; wall_ms_seq : float; speedup : float }

(* Wall-clock, not [Sys.time]: CPU time sums across domains, so the
   parallel harness would look no faster even when it is. *)
let wall_ms f =
  let t0 = Unix.gettimeofday () in
  f ();
  (Unix.gettimeofday () -. t0) *. 1e3

let measure_macro ?(targets = macro_targets) ~domains () =
  List.map
    (fun (m_name, f) ->
      Par.set_global_domains 1;
      let wall_ms_seq = wall_ms f in
      Par.set_global_domains domains;
      let wall_ms = wall_ms f in
      Format.printf "  %-12s %10.0f ms seq %10.0f ms par (domains=%d)  %.2fx@." m_name
        wall_ms_seq wall_ms domains (wall_ms_seq /. wall_ms);
      { m_name; wall_ms; wall_ms_seq; speedup = wall_ms_seq /. wall_ms })
    targets

let write_macro_json path ~domains rows =
  let oc = open_out path in
  Printf.fprintf oc "{\n  \"schema\": \"rkd-bench-macro/1\",\n  \"domains\": %d,\n  \"results\": [\n"
    domains;
  let n = List.length rows in
  List.iteri
    (fun i r ->
      Printf.fprintf oc
        "    { \"name\": %S, \"wall_ms\": %.1f, \"wall_ms_seq\": %.1f, \"speedup\": %.2f }%s\n"
        r.m_name r.wall_ms r.wall_ms_seq r.speedup
        (if i = n - 1 then "" else ","))
    rows;
  output_string oc "  ]\n}\n";
  close_out oc

let run_macro path =
  let domains = Par.default_domains () in
  Format.printf "macro benchmark: experiment harness at domains=1 vs domains=%d@." domains;
  let rows = measure_macro ~targets:(macro_targets @ macro_report_only) ~domains () in
  write_macro_json path ~domains rows;
  Format.printf "wrote %d results to %s@." (List.length rows) path

(* The gate asks only that the pool never loses to the sequential
   harness.  On a single hardware thread domains=N degenerates to
   timesharing plus multi-domain GC overhead, so the tolerance is looser
   there; with real cores the parallel run must at least break even. *)
let run_perf_check_macro () =
  let domains = Par.default_domains () in
  let cores = Domain.recommended_domain_count () in
  (* Parallelism must pay for itself when it genuinely fans out
     (domains > 1, each with a core to run on); a lone domain or an
     oversubscribed pool (domains > cores, e.g. RKD_DOMAINS=4 forced on
     a small runner) only has to stay clear of a pathological slowdown. *)
  let min_speedup = if domains > 1 && domains <= cores then 1.0 else 0.70 in
  Format.printf
    "perf-check-macro: domains=%d on %d hardware thread%s (fail below %.2fx speedup)@." domains
    cores
    (if cores = 1 then "" else "s")
    min_speedup;
  let rows = measure_macro ~domains () in
  let failed = ref false in
  List.iter
    (fun r ->
      let bad = r.speedup < min_speedup in
      if bad then failed := true;
      Format.printf "  %-12s %8.2fx  %s@." r.m_name r.speedup (if bad then "FAIL" else "ok"))
    rows;
  if !failed then begin
    Format.printf "perf-check-macro: FAILED@.";
    exit 1
  end
  else Format.printf "perf-check-macro: ok@."

(* ------------------------------------------------------------------ *)
(* Serving-layer throughput (DESIGN.md section 14)                     *)
(* ------------------------------------------------------------------ *)

(* One multi-tenant event stream pushed through the sharded serving
   layer at 1, 4 and 8 shard domains: width 1 drains inline on the
   producer's domain, wider fleets run one pinned worker per shard.  The
   p99 is read from the shared rmt.serve.latency_ns histogram (bucket
   delta across the run, so earlier widths in the same process don't
   leak in), and the per-tenant decision digests must be bit-identical
   across widths — the bench doubles as a determinism check. *)

type tput_row = {
  t_domains : int;
  t_events : int;
  t_wall_ms : float;
  t_events_per_sec : float;
  t_p99_ns : int;
  t_backpressure : int;
  t_digest : int;
}

let now_wall_ns () = int_of_float (Unix.gettimeofday () *. 1e9)

(* p99 from a histogram bucket delta: rank-walk the per-bucket counts,
   report the matched bucket's upper bound (as Obs.Histo.percentile). *)
let p99_of_delta before after =
  let n = Array.length after in
  let total = ref 0 in
  for k = 0 to n - 1 do
    total := !total + (after.(k) - before.(k))
  done;
  if !total = 0 then 0
  else begin
    let rank = Stdlib.max 1 (int_of_float (ceil (0.99 *. float_of_int !total))) in
    let rec walk k seen =
      if k >= n then Obs.Histo.bucket_hi (n - 1)
      else begin
        let seen = seen + (after.(k) - before.(k)) in
        if seen >= rank then Obs.Histo.bucket_hi k else walk (k + 1) seen
      end
    in
    walk 0 0
  end

let measure_throughput ~domains ~tenants ~pages =
  let n = Array.length tenants in
  let config =
    { Serve.Serving.shards = domains;
      producers = 1;
      ring_capacity = 4096;
      max_batch = 64;
      tokens_per_sec = 0;
      burst = 0 }
  in
  let fleet, _dps = Serve.Serving.create_datapath ~config () in
  let latency = Obs.Histo.make "rmt.serve.latency_ns" in
  let before = Obs.Histo.buckets latency in
  let backpressure = ref 0 in
  let pinned = domains > 1 in
  if pinned then Serve.Serving.start fleet;
  let t0 = Unix.gettimeofday () in
  Serve.Serving.set_now fleet (now_wall_ns ());
  for i = 0 to n - 1 do
    (* Coarse clock heartbeat: one syscall per 64 events is plenty for
       log2-bucketed queue latency. *)
    if i land 63 = 0 then Serve.Serving.set_now fleet (now_wall_ns ());
    let tenant = Array.unsafe_get tenants i and page = Array.unsafe_get pages i in
    let rec push () =
      match Serve.Serving.submit fleet ~producer:0 ~tenant ~page with
      | `Admitted -> ()
      | `Throttled -> assert false (* no limiter configured *)
      | `Backpressure ->
        incr backpressure;
        if pinned then Domain.cpu_relax () else ignore (Serve.Serving.drain fleet : int);
        push ()
    in
    push ()
  done;
  if pinned then Serve.Serving.stop fleet
  else begin
    Serve.Serving.set_now fleet (now_wall_ns ());
    Serve.Serving.drain_until_idle fleet
  end;
  let wall_s = Unix.gettimeofday () -. t0 in
  let after = Obs.Histo.buckets latency in
  let served = Serve.Serving.served fleet in
  if served <> n then begin
    Format.eprintf "throughput: served %d of %d events at domains=%d@." served n domains;
    exit 1
  end;
  { t_domains = domains;
    t_events = served;
    t_wall_ms = wall_s *. 1000.0;
    t_events_per_sec = float_of_int served /. wall_s;
    t_p99_ns = p99_of_delta before after;
    t_backpressure = !backpressure;
    t_digest = Serve.Serving.digest fleet }

let write_throughput_json path rows =
  let oc = open_out path in
  let n = List.length rows in
  output_string oc "{\n  \"schema\": \"rkd-bench-throughput/1\",\n  \"results\": [\n";
  List.iteri
    (fun i r ->
      Printf.fprintf oc
        "    { \"name\": \"serve/%d\", \"domains\": %d, \"events\": %d, \"wall_ms\": %.1f, \
         \"events_per_sec\": %.0f, \"p99_ns\": %d, \"backpressure\": %d }%s\n"
        r.t_domains r.t_domains r.t_events r.t_wall_ms r.t_events_per_sec r.t_p99_ns
        r.t_backpressure
        (if i = n - 1 then "" else ","))
    rows;
  output_string oc "  ]\n}\n";
  close_out oc

let run_throughput ~quick path =
  Obs.set_enabled true;
  let tenants_n = if quick then 16 else 32 in
  let events_per_tenant = if quick then 2_000 else 10_000 in
  let trace =
    Ksim.Workload_mem.multi_tenant ~rng:(Kml.Rng.create 0x7569) ~tenants:tenants_n
      ~events_per_tenant ()
  in
  let n = List.length trace in
  let tenants = Array.make n 0 and pages = Array.make n 0 in
  List.iteri
    (fun i a ->
      tenants.(i) <- a.Ksim.Mem_sim.pid;
      pages.(i) <- a.Ksim.Mem_sim.page)
    trace;
  let cores = Domain.recommended_domain_count () in
  Format.printf "throughput: %d events, %d tenants, %d hardware thread%s@." n tenants_n cores
    (if cores = 1 then "" else "s");
  let rows =
    List.map
      (fun domains -> measure_throughput ~domains ~tenants ~pages)
      [ 1; 4; 8 ]
  in
  let base =
    match rows with r :: _ -> r | [] -> assert false
  in
  List.iter
    (fun r ->
      Format.printf
        "  serve/%-2d %10.0f events/s  p99 %9d ns  wall %7.1f ms  backpressure %d  (%.2fx \
         vs 1)@."
        r.t_domains r.t_events_per_sec r.t_p99_ns r.t_wall_ms r.t_backpressure
        (r.t_events_per_sec /. base.t_events_per_sec))
    rows;
  (* The digest must not depend on how tenants were sharded or batched. *)
  List.iter
    (fun r ->
      if r.t_digest <> base.t_digest then begin
        Format.eprintf "throughput: digest mismatch at domains=%d (%x vs %x)@." r.t_domains
          r.t_digest base.t_digest;
        exit 1
      end)
    rows;
  Format.printf "  digests bit-identical across shard widths (%x)@." base.t_digest;
  (* Scaling gate, same spirit as perf-check-macro: a fleet wider than
     the machine (every CI runner here is small) only has to avoid a
     pathological collapse; real fan-out must pay for itself, and a full
     8-wide fleet on >= 8 cores must clear the 2.5x the serving layer is
     for. *)
  let failed = ref false in
  List.iter
    (fun r ->
      if r.t_domains > 1 then begin
        let speedup = r.t_events_per_sec /. base.t_events_per_sec in
        let min_speedup =
          if r.t_domains <= cores then if r.t_domains >= 8 then 2.5 else 1.0 else 0.35
        in
        if speedup < min_speedup then begin
          Format.eprintf "throughput: serve/%d speedup %.2fx below %.2fx@." r.t_domains
            speedup min_speedup;
          failed := true
        end
      end)
    rows;
  write_throughput_json path rows;
  Format.printf "wrote %d rows to %s@." (List.length rows) path;
  if !failed then exit 1

(* ------------------------------------------------------------------ *)
(* Table / ablation harness                                            *)
(* ------------------------------------------------------------------ *)

let run_table1 () = Rkd.Report.print_table1 Format.std_formatter (Rkd.Experiment.table1 ())
let run_table2 () = Rkd.Report.print_table2 Format.std_formatter (Rkd.Experiment.table2 ())

let run_overhead () =
  Rkd.Report.print_overhead Format.std_formatter (Rkd.Experiment.vm_overhead ())

let run_ablations () =
  Rkd.Report.print_lean Format.std_formatter (Rkd.Experiment.ablation_lean_monitoring ());
  Format.printf "@.";
  Rkd.Report.print_window Format.std_formatter (Rkd.Experiment.ablation_window ());
  Format.printf "@.";
  Rkd.Report.print_quant Format.std_formatter (Rkd.Experiment.ablation_quantization ());
  Format.printf "@.";
  Rkd.Report.print_adapt Format.std_formatter (Rkd.Experiment.ablation_adaptivity ());
  Format.printf "@.";
  Rkd.Report.print_distill Format.std_formatter (Rkd.Experiment.ablation_distillation ());
  Format.printf "@.";
  Rkd.Report.print_privacy Format.std_formatter (Rkd.Experiment.ablation_privacy ());
  Format.printf "@.";
  Rkd.Report.print_family Format.std_formatter (Rkd.Experiment.ablation_model_family ());
  Format.printf "@.";
  Rkd.Report.print_nas Format.std_formatter (Rkd.Experiment.ablation_nas ());
  Format.printf "@.";
  Rkd.Report.print_granularity Format.std_formatter (Rkd.Experiment.ablation_granularity ());
  Format.printf "@.";
  Rkd.Report.print_cross Format.std_formatter (Rkd.Experiment.ablation_cross_app ());
  Format.printf "@.";
  Rkd.Report.print_online Format.std_formatter (Rkd.Experiment.ablation_online_training ())

let run_shapes () =
  let t1 = Rkd.Experiment.table1 () in
  let t2 = Rkd.Experiment.table2 () in
  Rkd.Report.print_table1 Format.std_formatter t1;
  Format.printf "@.";
  Rkd.Report.print_table2 Format.std_formatter t2;
  Format.printf "@.Shape checks (DESIGN.md section 4):@.";
  List.iter
    (fun (name, ok) -> Format.printf "  [%s] %s@." (if ok then "PASS" else "FAIL") name)
    (Rkd.Report.shape_checks t1 t2)

let () =
  let arg i default = if Array.length Sys.argv > i then Sys.argv.(i) else default in
  match arg 1 "all" with
  | "micro" -> run_micro ()
  | "json" -> run_json (arg 2 "BENCH_micro.json")
  | "perf-check" -> run_perf_check (arg 2 "bench/BASELINE_micro.json")
  | "macro" -> run_macro (arg 2 "BENCH_macro.json")
  | "perf-check-macro" -> run_perf_check_macro ()
  | "throughput" ->
    let quick = ref false in
    let path = ref "BENCH_throughput.json" in
    for i = 2 to Array.length Sys.argv - 1 do
      match Sys.argv.(i) with
      | "--quick" | "quick" -> quick := true
      | p -> path := p
    done;
    run_throughput ~quick:!quick !path
  | "table1" -> run_table1 ()
  | "table2" -> run_table2 ()
  | "ablations" -> run_ablations ()
  | "overhead" -> run_overhead ()
  | "all" ->
    run_shapes ();
    Format.printf "@.";
    run_overhead ();
    Format.printf "@.";
    run_ablations ();
    Format.printf "@.";
    run_micro ()
  | other ->
    Format.eprintf
      "unknown mode %s (expected \
       micro|json|perf-check|macro|perf-check-macro|table1|table2|ablations|overhead|all)@."
      other;
    exit 1
