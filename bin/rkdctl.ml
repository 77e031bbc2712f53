(* rkdctl — control-plane CLI for the reconfigurable-kernel-datapaths
   reproduction.

   Subcommands:
     verify <file.rmt>    verify an RMT assembly program and print the report
     disasm <file.rmt>    parse and pretty-print (round-trip) a program
     run <file.rmt>       verify, install and run a program once
     stats [file.rmt]     telemetry snapshot (optionally after N runs)
     trace <file.rmt>     run a program and dump the flight recorder
     table1 | table2      regenerate the paper's tables
     ablations            run the ablation suite
     overhead             Figure 1 family: interpreter vs JIT cost
     shapes               tables + the qualitative shape checks *)

open Cmdliner

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let program_arg =
  let doc = "RMT assembly file (see lib/rmt/asm.mli for the syntax)." in
  Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE" ~doc)

let ctxt_arg =
  let doc = "Initial execution-context binding KEY=VALUE (repeatable)." in
  Arg.(value & opt_all (pair ~sep:'=' int int) [] & info [ "c"; "ctxt" ] ~docv:"K=V" ~doc)

let engine_conv = Arg.enum [ ("interp", Rmt.Vm.Interpreted); ("jit", Rmt.Vm.Jit_compiled) ]

let engine_arg =
  let doc = "Execution engine: 'interp' or 'jit'." in
  Arg.(value & opt engine_conv Rmt.Vm.Jit_compiled & info [ "e"; "engine" ] ~docv:"ENGINE" ~doc)

let parse_program path =
  (* Accept both the assembly text format and the RMTB wire format. *)
  let contents = read_file path in
  if String.length contents >= 4 && String.sub contents 0 4 = Rmt.Encoding.magic then
    match Rmt.Encoding.decode (Bytes.of_string contents) with
    | Ok program -> Ok program
    | Error e -> Error (Printf.sprintf "%s: %s" path e)
  else begin
    match Rmt.Asm.parse contents with
    | Ok program -> Ok program
    | Error e -> Error (Format.asprintf "%s: %a" path Rmt.Asm.pp_error e)
  end

let strict_arg =
  let doc =
    "Strict mode: also reject dynamic context keys and vector map windows the abstract \
     interpreter cannot prove in bounds (privacy-flow violations are enforced either way)."
  in
  Arg.(value & flag & info [ "strict" ] ~doc)

(* Declared resource budget (Homunculus-style admission): any axis left
   unset inherits Resource.default_budget. *)
let max_steps_arg =
  Arg.(value & opt (some int) None
       & info [ "max-steps" ] ~docv:"N" ~doc:"Budget: worst-case dynamic instructions.")

let max_scratch_arg =
  Arg.(value & opt (some int) None
       & info [ "max-scratch" ] ~docv:"N" ~doc:"Budget: vector scratchpad words.")

let max_slots_arg =
  Arg.(value & opt (some int) None
       & info [ "max-slots" ] ~docv:"N"
           ~doc:"Budget: kernel-object table slots (maps + models + tail calls).")

let budget_of_flags max_steps max_scratch max_slots =
  let d = Rmt.Resource.default_budget in
  { Rmt.Resource.max_steps = Option.value max_steps ~default:d.Rmt.Resource.max_steps;
    max_scratch_words = Option.value max_scratch ~default:d.Rmt.Resource.max_scratch_words;
    max_table_slots = Option.value max_slots ~default:d.Rmt.Resource.max_table_slots }

let verify_cmd =
  let run path strict max_steps max_scratch max_slots =
    match parse_program path with
    | Error e ->
      prerr_endline e;
      1
    | Ok program ->
      let helpers = Rmt.Helper.with_defaults () in
      (match Rmt.Verifier.check_structure_only ~strict ~helpers program with
       | Ok report ->
         Format.printf "%s: OK@." program.Rmt.Program.name;
         Format.printf "  worst-case dynamic instructions: %d@."
           report.Rmt.Verifier.worst_case_steps;
         Format.printf "  uses privacy-charged helpers: %b@." report.Rmt.Verifier.uses_privacy;
         Format.printf "  helpers used: [%s]@."
           (String.concat "; " (List.map string_of_int report.Rmt.Verifier.helper_ids_used));
         let resource = Rmt.Resource.of_report report program in
         Format.printf "  %a@." Rmt.Resource.pp resource;
         let ai = Rmt.Absint.analyze ~helpers program in
         Format.printf "  abstract interpretation:@.";
         Rmt.Absint.pp Format.std_formatter ai program;
         let budget = budget_of_flags max_steps max_scratch max_slots in
         (match Rmt.Resource.violations resource budget with
          | [] -> 0
          | vs ->
            List.iter (fun v -> Format.printf "  BUDGET EXCEEDED: %s@." v) vs;
            1)
       | Error v ->
         Format.printf "%s: REJECTED: %a@." program.Rmt.Program.name Rmt.Verifier.pp_violation
           v;
         1)
  in
  let doc =
    "verify an RMT assembly program, print the resource and abstract-interpretation \
     reports, and fail if a declared budget is exceeded"
  in
  Cmd.v (Cmd.info "verify" ~doc)
    Term.(const run $ program_arg $ strict_arg $ max_steps_arg $ max_scratch_arg
          $ max_slots_arg)

let resources_cmd =
  let run json_path =
    let helpers = Rmt.Helper.with_defaults () in
    let params = Rkd.Prefetch_rmt.default_params in
    let progs =
      [ Rkd.Prefetch_rmt.build_collect_program params;
        Rkd.Prefetch_rmt.build_predict_program params ]
    in
    let reports =
      List.filter_map
        (fun (prog : Rmt.Program.t) ->
          match Rmt.Verifier.check_structure_only ~helpers prog with
          | Ok report -> Some (Rmt.Resource.of_report report prog)
          | Error v ->
            Format.printf "%s: REJECTED: %a@." prog.Rmt.Program.name Rmt.Verifier.pp_violation
              v;
            None)
        progs
    in
    List.iter (fun r -> Format.printf "%a@." Rmt.Resource.pp r) reports;
    (match json_path with
     | None -> ()
     | Some path ->
       let oc = open_out path in
       Fun.protect
         ~finally:(fun () -> close_out_noerr oc)
         (fun () ->
           List.iter (fun r -> output_string oc (Rmt.Resource.to_json r ^ "\n")) reports);
       Format.printf "wrote %d resource reports to %s@." (List.length reports) path);
    if List.length reports = List.length progs then 0 else 1
  in
  let json_arg =
    Arg.(value & opt (some string) None
         & info [ "json" ] ~docv:"FILE"
             ~doc:"Also write the reports as JSON lines to FILE (CI artifact).")
  in
  let doc =
    "print compile-time resource reports (steps, scratch, table slots) for the example \
     prefetch programs"
  in
  Cmd.v (Cmd.info "resources" ~doc) Term.(const run $ json_arg)

(* Lint a list of (name, program) pairs, printing findings and the
   resource-use summary; returns the total finding count and the JSON
   lines for --json. *)
let lint_programs ~helpers progs =
  let budget = Rmt.Resource.default_budget in
  let total = ref 0 in
  let json = ref [] in
  let failed = ref false in
  List.iter
    (fun (name, prog) ->
      match Analysis.Lint.analyze ~helpers prog with
      | Error e ->
        Format.printf "%s: NOT VERIFIABLE: %s@." name e;
        failed := true
      | Ok findings ->
        Format.printf "%s: %d finding%s@." name (List.length findings)
          (if List.length findings = 1 then "" else "s");
        List.iter (fun f -> Format.printf "  %a@." Analysis.Lint.pp_finding f) findings;
        (match Rmt.Verifier.check_structure_only ~helpers prog with
         | Ok report ->
           List.iter
             (fun (axis, used, allowed) ->
               Format.printf "  resource %s: %d / %d@." axis used allowed)
             (Analysis.Lint.resource_waste report prog ~budget)
         | Error _ -> ());
        total := !total + List.length findings;
        json := Analysis.Lint.findings_to_json ~program:name findings :: !json)
    progs;
  (!total, List.rev !json, !failed)

let write_json_lines path lines =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> List.iter (fun l -> output_string oc (l ^ "\n")) lines)

let analyze_cmd =
  let run files json_path strict mutations =
    let helpers = Rmt.Helper.with_defaults () in
    if mutations then begin
      (* Validate the lint itself: every seeded-defect mutant must be
         caught by its expected rule. *)
      let missed = ref 0 in
      let json = ref [] in
      List.iter
        (fun (name, expected, prog) ->
          match Analysis.Lint.analyze ~helpers prog with
          | Error e ->
            Format.printf "[MISS] %s: did not verify: %s@." name e;
            incr missed
          | Ok findings ->
            let caught =
              List.exists (fun f -> f.Analysis.Lint.rule = expected) findings
            in
            Format.printf "[%s] %s: expected %s, got %d finding%s@."
              (if caught then "CAUGHT" else "MISS")
              name expected (List.length findings)
              (if List.length findings = 1 then "" else "s");
            if not caught then begin
              List.iter (fun f -> Format.printf "  %a@." Analysis.Lint.pp_finding f) findings;
              incr missed
            end;
            json := Analysis.Lint.findings_to_json ~program:name findings :: !json)
        (Analysis.Corpus.mutants ());
      Option.iter (fun p -> write_json_lines p (List.rev !json)) json_path;
      Format.printf "mutation corpus: %d/%d caught@."
        (List.length (Analysis.Corpus.mutants ()) - !missed)
        (List.length (Analysis.Corpus.mutants ()));
      if !missed = 0 then 0 else 1
    end
    else begin
      let progs =
        match files with
        | [] ->
          (* No files: lint every real program the repo ships. *)
          Analysis.Corpus.clean ()
        | files ->
          List.filter_map
            (fun path ->
              match parse_program path with
              | Ok prog -> Some (prog.Rmt.Program.name, prog)
              | Error e ->
                prerr_endline e;
                None)
            files
      in
      let total, json, failed = lint_programs ~helpers progs in
      Option.iter (fun p -> write_json_lines p json) json_path;
      Format.printf "%d program%s, %d finding%s@." (List.length progs)
        (if List.length progs = 1 then "" else "s")
        total
        (if total = 1 then "" else "s");
      if failed || List.length progs < List.length files then 1
      else if strict && total > 0 then 1
      else 0
    end
  in
  let files_arg =
    Arg.(value & pos_all string []
         & info [] ~docv:"FILE"
             ~doc:"RMT assembly or encoded programs to lint; with no FILE, lint every \
                   program the repo ships (the clean corpus).")
  in
  let json_arg =
    Arg.(value & opt (some string) None
         & info [ "json" ] ~docv:"FILE"
             ~doc:"Write per-program findings as JSON lines to FILE (CI artifact).")
  in
  let strict_arg =
    Arg.(value & flag
         & info [ "strict" ] ~doc:"Exit nonzero when any finding is reported.")
  in
  let mutations_arg =
    Arg.(value & flag
         & info [ "mutations" ]
             ~doc:"Run the seeded-defect mutation corpus instead: exit nonzero unless \
                   every mutant is caught by its expected rule.")
  in
  let doc =
    "lint datapath programs against the verifier's abstract-interpretation facts: dead \
     stores, unreachable code, statically dead branch arms, redundant guards, \
     taint-laundering map reads, unused declarations, oversized scratchpads"
  in
  Cmd.v (Cmd.info "analyze" ~doc)
    Term.(const run $ files_arg $ json_arg $ strict_arg $ mutations_arg)

let mc_cmd =
  let run json_path self_test no_reduction max_states =
    let reduction = not no_reduction in
    let json = ref [] in
    let check expect_fail model =
      let module M = (val model : Analysis.Mc.MODEL) in
      let t0 = Unix.gettimeofday () in
      let outcome = Analysis.Mc.run ~reduction ?max_states model in
      let dt = Unix.gettimeofday () -. t0 in
      let stats = Analysis.Mc.stats_of outcome in
      let ok =
        match (outcome, expect_fail) with
        | Analysis.Mc.Pass _, false | Analysis.Mc.Fail _, true -> true
        | _ -> false
      in
      Format.printf "[%s] %s: %a (%.2fs)@."
        (if ok then "PASS" else "FAIL")
        M.name Analysis.Mc.pp_outcome outcome dt;
      (match (outcome, expect_fail) with
       | Analysis.Mc.Pass _, true ->
         Format.printf "  expected a counterexample from this broken variant@."
       | Analysis.Mc.Fail _, false -> ()
       | _ -> ());
      json :=
        Printf.sprintf
          "{\"model\":\"%s\",\"verdict\":\"%s\",\"expected\":\"%s\",\"states\":%d,\
           \"transitions\":%d,\"sleep_skips\":%d,\"max_depth\":%d,\"seconds\":%.3f}"
          M.name
          (Analysis.Mc.verdict_name outcome)
          (if expect_fail then "fail" else "pass")
          stats.Analysis.Mc.states stats.Analysis.Mc.transitions
          stats.Analysis.Mc.sleep_skips stats.Analysis.Mc.max_depth dt
        :: !json;
      ok
    in
    let results =
      if self_test then
        (* Broken protocol variants: each must yield a counterexample
           trace — the models (and properties) can detect the bugs they
           were built to catch. *)
        [ check true
            (Analysis.Mc_models.ring ~bug:Analysis.Mc_models.Stale_cached_head ~capacity:2
               ~pushes:3 ~max_batch:2 ());
          check true
            (Analysis.Mc_models.ring ~bug:Analysis.Mc_models.No_drain_refresh ~capacity:2
               ~pushes:3 ~max_batch:2 ());
          check true
            (Analysis.Mc_models.shard ~bug:Analysis.Mc_models.Dropped_wake ~pushes:2
               ~posts:1 ()) ]
      else
        [ check false (Analysis.Mc_models.ring ~capacity:2 ~pushes:4 ~max_batch:2 ());
          check false (Analysis.Mc_models.ring ~capacity:4 ~pushes:6 ~max_batch:2 ());
          check false (Analysis.Mc_models.shard ~pushes:3 ~posts:1 ()) ]
    in
    Option.iter (fun p -> write_json_lines p (List.rev !json)) json_path;
    if List.for_all Fun.id results then 0 else 1
  in
  let json_arg =
    Arg.(value & opt (some string) None
         & info [ "json" ] ~docv:"FILE"
             ~doc:"Write per-model verdicts and state counts as JSON lines to FILE (CI \
                   artifact).")
  in
  let self_test_arg =
    Arg.(value & flag
         & info [ "self-test" ]
             ~doc:"Check the deliberately broken protocol variants instead: each must \
                   produce a counterexample trace.")
  in
  let no_reduction_arg =
    Arg.(value & flag
         & info [ "no-reduction" ]
             ~doc:"Disable the sleep-set reduction (same verdicts, more transitions).")
  in
  let max_states_arg =
    Arg.(value & opt (some int) None
         & info [ "max-states" ] ~docv:"N" ~doc:"Abort after exploring N states.")
  in
  let doc =
    "exhaustively model-check the serving-plane protocols (SPSC ring push/drain, shard \
     park/wake + pending CAS) at small scope: FIFO order, no lost push, no lost wake, \
     cursor monotonicity, quiescent-drain completeness"
  in
  Cmd.v (Cmd.info "mc" ~doc)
    Term.(const run $ json_arg $ self_test_arg $ no_reduction_arg $ max_states_arg)

let absint_fuzz_cmd =
  let run trials seed =
    match Rmt.Fuzz.run ~seed ~trials () with
    | stats ->
      Format.printf "absint-fuzz: %a@." Rmt.Fuzz.pp_stats stats;
      0
    | exception Rmt.Fuzz.Unsound msg ->
      Format.printf "absint-fuzz: SOUNDNESS VIOLATION@.%s@." msg;
      1
  in
  let trials_arg =
    Arg.(value & opt int 300 & info [ "t"; "trials" ] ~docv:"N" ~doc:"Random programs to try.")
  in
  let seed_arg =
    Arg.(value & opt int 0x50FA & info [ "s"; "seed" ] ~docv:"SEED" ~doc:"Generator seed.")
  in
  let doc =
    "differentially fuzz the abstract interpreter (interpreter, JIT and batch engines vs \
     an always-guarded reference)"
  in
  Cmd.v (Cmd.info "absint-fuzz" ~doc) Term.(const run $ trials_arg $ seed_arg)

let decode_fuzz_cmd =
  let run trials seed =
    match Rmt.Fuzz.decode_fuzz ~seed ~trials () with
    | stats ->
      Format.printf "decode-fuzz: %a@." Rmt.Fuzz.pp_decode_stats stats;
      0
    | exception Rmt.Fuzz.Unsound msg ->
      Format.printf "decode-fuzz: DECODER ESCAPE@.%s@." msg;
      1
  in
  let trials_arg =
    Arg.(value & opt int 300 & info [ "t"; "trials" ] ~docv:"N" ~doc:"Random programs to try.")
  in
  let seed_arg =
    Arg.(value & opt int 0xdec0de & info [ "s"; "seed" ] ~docv:"SEED" ~doc:"Generator seed.")
  in
  let doc =
    "fuzz the wire-format decoder with seeded bit flips, truncations and appends (a decode \
     must return Ok or Error, never raise)"
  in
  Cmd.v (Cmd.info "decode-fuzz" ~doc) Term.(const run $ trials_arg $ seed_arg)

let chaos_cmd =
  let run scenarios events seed domains snapshot =
    (match domains with Some n -> Par.set_global_domains n | None -> ());
    let before = Obs.Registry.snapshot () in
    let t0 = Unix.gettimeofday () in
    let summary, _reports = Rkd.Chaos.run ~seed ~events ~pool:(Par.global ()) ~scenarios () in
    Format.printf "%a@." Rkd.Chaos.pp_summary summary;
    Format.printf "[chaos] elapsed %.2f s (domains=%d)@."
      (Unix.gettimeofday () -. t0)
      (Par.global_domains ());
    (match snapshot with
     | None -> ()
     | Some path ->
       let after = Obs.Registry.snapshot () in
       let snap =
         Obs.Snapshot.filter
           (Obs.Snapshot.diff ~before ~after)
           ~prefixes:
             [ "rmt.breaker"; "rmt.fault"; "rmt.canary"; "rmt.vm"; "rmt.pipeline";
               "rmt.control" ]
       in
       let oc = open_out path in
       Fun.protect
         ~finally:(fun () -> close_out_noerr oc)
         (fun () -> output_string oc (Obs.Snapshot.to_json snap));
       Format.printf "wrote breaker/fault snapshot to %s@." path);
    if summary.Rkd.Chaos.total_uncaught > 0 || summary.Rkd.Chaos.not_reclosed > 0 then 1
    else 0
  in
  let scenarios_arg =
    Arg.(value & opt int 200 & info [ "n"; "scenarios" ] ~docv:"N" ~doc:"Fault scenarios to run.")
  in
  let events_arg =
    Arg.(value & opt int 200 & info [ "events" ] ~docv:"N" ~doc:"Faulted events per scenario.")
  in
  let seed_arg =
    Arg.(value & opt int 0xc4a05 & info [ "s"; "seed" ] ~docv:"SEED" ~doc:"Master seed.")
  in
  let domains_arg =
    Arg.(value & opt (some int) None & info [ "d"; "domains" ] ~docv:"N"
           ~doc:"Domain-pool width (defaults to \\$(b,RKD_DOMAINS) or the core count).")
  in
  let snapshot_arg =
    Arg.(value & opt (some string) None
         & info [ "snapshot" ] ~docv:"FILE"
             ~doc:"Write the breaker/fault/canary telemetry delta as JSON to FILE.")
  in
  let doc =
    "chaos soak: seeded fault-injection scenarios over the failsafe datapath; fails unless \
     every scenario contains its faults and every breaker re-closes"
  in
  Cmd.v (Cmd.info "chaos" ~doc)
    Term.(const run $ scenarios_arg $ events_arg $ seed_arg $ domains_arg $ snapshot_arg)

(* Determinism witness shared by [net], [fleet] and [serve --soak]: rerun
   the experiment at each pool width in [widths], print one verdict line
   per rerun ([print width rerun same], where [same] compares the rerun
   with the first run), then restore the pool width.  Returns whether
   every rerun matched, and the reruns. *)
let replay ~widths ~rerun ~same ~print =
  let width = Par.global_domains () in
  let set w = if Par.global_domains () <> w then Par.set_global_domains w in
  let reruns =
    List.map
      (fun w ->
        set w;
        let r = rerun () in
        let s = same r in
        print w r s;
        (r, s))
      widths
  in
  set width;
  (List.for_all snd reruns, List.map fst reruns)

let net_cmd =
  let run json_path domains seed learned baseline =
    (match domains with Some n -> Par.set_global_domains n | None -> ());
    let systems =
      match (learned, baseline) with
      | true, false -> [ "rmt-ml" ]
      | false, true -> [ "cubic"; "bbr" ]
      | _ -> Rkd.Experiment.net_systems
    in
    let t0 = Unix.gettimeofday () in
    let rows = Rkd.Experiment.table3 ~seed ~systems () in
    let digest = Rkd.Experiment.table3_digest rows in
    Rkd.Report.print_table3 Format.std_formatter rows;
    let checks = Rkd.Report.net_checks rows in
    List.iter
      (fun (name, ok) -> Format.printf "  [%s] %s@." (if ok then "PASS" else "FAIL") name)
      checks;
    (* Determinism witness: replay the whole experiment at a different
       pool width; the digests must be bit-identical (including any
       RKD_FAULTS plan, which table3 re-arms per task). *)
    let width = Par.global_domains () in
    let deterministic, alt_digests =
      replay
        ~widths:[ (if width = 1 then 4 else 1) ]
        ~rerun:(fun () -> Rkd.Experiment.table3_digest (Rkd.Experiment.table3 ~seed ~systems ()))
        ~same:(fun alt_digest -> alt_digest = digest)
        ~print:(fun alt_width alt_digest same ->
          Format.printf "net digest %016x (domains=%d) / %016x (domains=%d): %s@." digest width
            alt_digest alt_width
            (if same then "identical" else "DIVERGED"))
    in
    let alt_digest = List.hd alt_digests in
    Format.printf "[net] elapsed %.2f s (domains=%d)@." (Unix.gettimeofday () -. t0) width;
    (match json_path with
     | None -> ()
     | Some path ->
       let row_lines =
         List.map
           (fun (r : Rkd.Experiment.table3_row) ->
             Printf.sprintf
               "{\"schema\":\"rkd-net/1\",\"seed\":%d,\"mix\":\"%s\",\"system\":\"%s\",\
                \"goodput_mbps\":%.3f,\"mean_fct_ms\":%.3f,\"p99_fct_ms\":%.3f,\
                \"fairness\":%.4f,\"retransmits\":%d,\"incomplete\":%d,\"fallbacks\":%d,\
                \"digest\":\"%016x\"}"
               seed r.Rkd.Experiment.net_mix r.Rkd.Experiment.cc_system
               r.Rkd.Experiment.goodput_mbps r.Rkd.Experiment.net_mean_fct_ms
               r.Rkd.Experiment.net_p99_fct_ms r.Rkd.Experiment.net_fairness
               r.Rkd.Experiment.net_retransmits r.Rkd.Experiment.net_incomplete
               r.Rkd.Experiment.net_fallbacks r.Rkd.Experiment.net_digest)
           rows
       in
       let summary =
         Printf.sprintf
           "{\"schema\":\"rkd-net-summary/1\",\"seed\":%d,\"rows\":%d,\
            \"digest\":\"%016x\",\"alt_width_digest\":\"%016x\",\"deterministic\":%b,\
            \"checks_failed\":%d}"
           seed (List.length rows) digest alt_digest deterministic
           (List.length (List.filter (fun (_, ok) -> not ok) checks))
       in
       write_json_lines path (row_lines @ [ summary ]);
       Format.printf "wrote net experiment rows to %s@." path);
    let checks_ok = List.for_all snd checks in
    (* Under an RKD_FAULTS chaos plan the learned path degrades to the
       stock fallback by design, so only determinism gates the exit. *)
    let faulted = Sys.getenv_opt "RKD_FAULTS" <> None in
    if deterministic && (checks_ok || faulted) then 0 else 1
  in
  let json_arg =
    Arg.(value & opt (some string) None
         & info [ "json" ] ~docv:"FILE" ~doc:"Write rkd-net/1 JSON rows to FILE.")
  in
  let domains_arg =
    Arg.(value & opt (some int) None & info [ "d"; "domains" ] ~docv:"N"
           ~doc:"Domain-pool width (defaults to \\$(b,RKD_DOMAINS) or the core count).")
  in
  let seed_arg =
    Arg.(value & opt int 42 & info [ "s"; "seed" ] ~docv:"SEED" ~doc:"Master seed.")
  in
  let learned_arg =
    Arg.(value & flag & info [ "learned" ] ~doc:"Run only the learned (rmt-ml) controller.")
  in
  let baseline_arg =
    Arg.(value & flag & info [ "baseline" ] ~doc:"Run only the stock Cubic/BBR baselines.")
  in
  let doc =
    "Table 3: learned congestion control on the net.cc decision point; replays the \
     experiment at a second pool width and fails on digest divergence"
  in
  Cmd.v (Cmd.info "net" ~doc)
    Term.(const run $ json_arg $ domains_arg $ seed_arg $ learned_arg $ baseline_arg)

let serve_cmd =
  let run tenants events shards producers pinned soak seed =
    let config =
      { Serve.Serving.default_config with
        Serve.Serving.shards;
        producers;
        ring_capacity = 1024;
        max_batch = 64 }
    in
    let hook = Serve.Shard.Datapath.hook in
    (* One full pass of the multi-tenant trace through a fresh fleet;
       inline (single-consumer) mode is fully deterministic — batch
       boundaries, fault draws and clock reads replay exactly — so the
       soak runs it twice and compares decision digests.  The clock is a
       synthetic nanosecond tick per submitted event. *)
    (* The module-init RKD_FAULTS plan owns one process-wide rng, so a
       second run would continue the first run's draw stream.  Re-arm a
       fresh plan with a run-independent seed before each pass: the soak
       replay then sees the exact same fault schedule. *)
    let fault_specs =
      match Sys.getenv_opt "RKD_FAULTS" with
      | None -> None
      | Some spec ->
        (match Rmt.Fault.parse_spec spec with Ok specs -> Some specs | Error _ -> None)
    in
    let run_once ~pinned =
      (match fault_specs with
       | Some specs -> Rmt.Fault.set_global ~seed:(seed lxor 0xfa17) specs
       | None -> ());
      let trace =
        Ksim.Workload_mem.multi_tenant ~rng:(Kml.Rng.create seed) ~tenants
          ~events_per_tenant:events ()
      in
      let fleet, dps = Serve.Serving.create_datapath ~config () in
      if pinned then Serve.Serving.start fleet;
      let tick = ref 0 in
      List.iter
        (fun a ->
          incr tick;
          Serve.Serving.set_now fleet (!tick * 1000);
          let rec push () =
            match
              Serve.Serving.submit fleet ~producer:0 ~tenant:a.Ksim.Mem_sim.pid
                ~page:a.Ksim.Mem_sim.page
            with
            | `Admitted -> ()
            | `Throttled -> assert false
            | `Backpressure ->
              if pinned then Domain.cpu_relax ()
              else ignore (Serve.Serving.drain fleet : int);
              push ()
          in
          push ())
        trace;
      if pinned then Serve.Serving.stop fleet else Serve.Serving.drain_until_idle fleet;
      (* Measure before the re-close probes below: their synthetic events
         are served too and must not fold into the replayed digest. *)
      let served = Serve.Serving.served fleet in
      let digest = Serve.Serving.digest fleet in
      (* Faults (e.g. RKD_FAULTS=all:...) may leave shard breakers open
         at stream end; every one must re-close under fault-free probe
         traffic within its backoff — the chaos invariant. *)
      let reclosed =
        Rmt.Fault.without (fun () ->
            Array.for_all
              (fun shard ->
                match Serve.Shard.control shard with
                | None -> true
                | Some control ->
                  (match Rmt.Pipeline.breaker (Rmt.Control.pipeline control) ~hook with
                   | None -> true
                   | Some breaker ->
                     let rec probe k =
                       Rmt.Breaker.state breaker = Rmt.Breaker.Closed
                       ||
                       if k = 0 then false
                       else begin
                         tick := !tick + 2_000_000;
                         Serve.Serving.set_now fleet (!tick * 1000);
                         for t = 0 to tenants - 1 do
                           (match
                              Serve.Serving.submit fleet ~producer:0 ~tenant:t ~page:t
                            with
                           | `Admitted | `Throttled | `Backpressure -> ());
                           Serve.Serving.drain_until_idle fleet
                         done;
                         probe (k - 1)
                       end
                     in
                     probe 64))
              (Serve.Serving.shards fleet))
      in
      (served, digest, reclosed, Array.map Serve.Shard.Datapath.tenant_count dps)
    in
    let expected = tenants * events in
    let served, digest, reclosed, per_shard = run_once ~pinned:(pinned && not soak) in
    Format.printf "serve: %d events, %d tenants over %d shard%s (%s)@." served tenants shards
      (if shards = 1 then "" else "s")
      (if pinned && not soak then "pinned workers" else "inline");
    Array.iteri (fun i n -> Format.printf "  shard %d: %d tenants@." i n) per_shard;
    Format.printf "  digest %016x  breakers %s@." digest
      (if reclosed then "re-closed" else "STUCK OPEN");
    let ok = ref (served >= expected && reclosed) in
    if soak then begin
      let same, reruns =
        replay
          ~widths:[ Par.global_domains () ]
          ~rerun:(fun () -> run_once ~pinned:false)
          ~same:(fun (served2, digest2, _, _) -> digest2 = digest && served2 = served)
          ~print:(fun _ (_, digest2, _, _) same ->
            Format.printf "  soak replay: digest %016x %s@." digest2
              (if same then "bit-identical" else "MISMATCH"))
      in
      if (not same) || List.exists (fun (_, _, reclosed2, _) -> not reclosed2) reruns then
        ok := false
    end;
    if !ok then 0 else 1
  in
  let tenants_arg =
    Arg.(value & opt int 32 & info [ "tenants" ] ~docv:"N" ~doc:"Distinct tenants.")
  in
  let events_arg =
    Arg.(value & opt int 200 & info [ "events" ] ~docv:"N" ~doc:"Events per tenant.")
  in
  let shards_arg =
    Arg.(value & opt int 4 & info [ "shards" ] ~docv:"N" ~doc:"Serving shards.")
  in
  let producers_arg =
    Arg.(value & opt int 1 & info [ "producers" ] ~docv:"N" ~doc:"Producer rings per shard.")
  in
  let pinned_arg =
    Arg.(value & flag
         & info [ "pinned" ]
             ~doc:"Drain with one pinned worker domain per shard instead of inline.")
  in
  let soak_arg =
    Arg.(value & flag
         & info [ "soak" ]
             ~doc:"Deterministic soak: run the trace twice inline (single-consumer mode \
                   replays batch boundaries and fault draws exactly) and fail unless the \
                   decision digests are bit-identical and every shard breaker re-closes. \
                   Combine with \\$(b,RKD_FAULTS) for a chaos soak.")
  in
  let seed_arg =
    Arg.(value & opt int 0x5e4e & info [ "s"; "seed" ] ~docv:"SEED" ~doc:"Trace seed.")
  in
  let doc =
    "drive the sharded multi-tenant serving layer over a generated trace; fails unless \
     every admitted event is served, digests replay bit-identically (--soak) and every \
     per-shard breaker re-closes"
  in
  Cmd.v (Cmd.info "serve" ~doc)
    Term.(
      const run $ tenants_arg $ events_arg $ shards_arg $ producers_arg $ pinned_arg
      $ soak_arg $ seed_arg)

let fleet_cmd =
  let run json_path soak domains seed ticks storm =
    (match domains with Some n -> Par.set_global_domains n | None -> ());
    let faulted = Sys.getenv_opt "RKD_FAULTS" <> None in
    let t0 = Unix.gettimeofday () in
    let width = Par.global_domains () in
    Par.set_global_domains width;
    let r = Rkd.Experiment.fleet_soak ~seed ~storm ~ticks () in
    Rkd.Report.print_fleet Format.std_formatter r;
    let checks = Rkd.Report.fleet_checks ~faulted r in
    List.iter
      (fun (name, ok) -> Format.printf "  [%s] %s@." (if ok then "PASS" else "FAIL") name)
      checks;
    (* Determinism witness: replay the identical soak at other pool
       widths; the fleet digest must be bit-identical (including any
       RKD_FAULTS plan, which the fleet re-arms per shard task). *)
    let deterministic, _ =
      replay
        ~widths:
          (if soak then List.filter (fun w -> w <> width) [ 1; 4; 8 ]
           else [ (if width = 1 then 4 else 1) ])
        ~rerun:(fun () -> Rkd.Experiment.fleet_soak ~seed ~storm ~ticks ())
        ~same:(fun rw -> rw.Rkd.Fleet.digest = r.Rkd.Fleet.digest)
        ~print:(fun w rw same ->
          Format.printf "fleet digest %016x (domains=%d) vs %016x (domains=%d): %s@."
            r.Rkd.Fleet.digest width rw.Rkd.Fleet.digest w
            (if same then "identical" else "DIVERGED"))
    in
    Format.printf "[fleet] elapsed %.2f s (domains=%d)@." (Unix.gettimeofday () -. t0) width;
    let checks_failed = List.length (List.filter (fun (_, ok) -> not ok) checks) in
    (match json_path with
     | None -> ()
     | Some path ->
       let summary =
         Printf.sprintf
           "{\"schema\":\"rkd-fleet-summary/1\",\"seed\":%d,\"storm\":%b,\"faulted\":%b,\
            \"digest\":\"%016x\",\"deterministic\":%b,\"checks_failed\":%d}"
           seed storm faulted r.Rkd.Fleet.digest deterministic checks_failed
       in
       write_json_lines path [ Rkd.Fleet.report_json r; summary ];
       Format.printf "wrote fleet report to %s@." path);
    if deterministic && checks_failed = 0 then 0 else 1
  in
  let json_arg =
    Arg.(value & opt (some string) None
         & info [ "json" ] ~docv:"FILE" ~doc:"Write the rkd-fleet/1 report JSON to FILE.")
  in
  let soak_arg =
    Arg.(value & flag
         & info [ "soak" ]
             ~doc:"Replay the identical soak at pool widths 1/4/8 and fail unless the fleet \
                   digests are bit-identical. Combine with \\$(b,RKD_FAULTS) for a chaos \
                   soak.")
  in
  let domains_arg =
    Arg.(value & opt (some int) None & info [ "d"; "domains" ] ~docv:"N"
           ~doc:"Domain-pool width (defaults to \\$(b,RKD_DOMAINS) or the core count).")
  in
  let seed_arg =
    Arg.(value & opt int 0xf1ee7 & info [ "s"; "seed" ] ~docv:"SEED" ~doc:"Master seed.")
  in
  let ticks_arg =
    Arg.(value & opt int 160 & info [ "ticks" ] ~docv:"N" ~doc:"Control-loop iterations.")
  in
  let storm_arg =
    Arg.(value & flag
         & info [ "storm" ]
             ~doc:"Drift storm: every tenant's concept changes at the same tick.")
  in
  let doc =
    "drift-aware fleet control plane: per-tenant drift detection, retrain/distill candidate \
     search and staged canary rollout; fails on digest divergence across pool widths, a \
     breaker left open, or install thrash"
  in
  Cmd.v (Cmd.info "fleet" ~doc)
    Term.(
      const run $ json_arg $ soak_arg $ domains_arg $ seed_arg $ ticks_arg $ storm_arg)

let disasm_cmd =
  let run path =
    match parse_program path with
    | Error e ->
      prerr_endline e;
      1
    | Ok program ->
      print_string (Rmt.Asm.print program);
      0
  in
  let doc = "parse and pretty-print an RMT assembly program" in
  Cmd.v (Cmd.info "disasm" ~doc) Term.(const run $ program_arg)

let run_cmd =
  let run path bindings engine =
    match parse_program path with
    | Error e ->
      prerr_endline e;
      1
    | Ok program ->
      let control = Rmt.Control.create ~engine () in
      (match Rmt.Control.install control program with
       | Error e ->
         prerr_endline e;
         1
       | Ok vm ->
         let ctxt = Rmt.Ctxt.of_list bindings in
         (match Rmt.Vm.invoke_checked vm ~ctxt ~now:(fun () -> 0) with
          | Ok outcome ->
            Format.printf "result = %d (steps = %d, privacy denials = %d)@."
              outcome.Rmt.Interp.result outcome.Rmt.Interp.steps
              outcome.Rmt.Interp.privacy_denied;
            Format.printf "context after run: %a@." Rmt.Ctxt.pp ctxt;
            0
          | Error trap ->
            Format.printf "trap: %s@." (Rmt.Interp.trap_message trap);
            1))
  in
  let doc = "verify, install and run a program once" in
  Cmd.v (Cmd.info "run" ~doc) Term.(const run $ program_arg $ ctxt_arg $ engine_arg)

let assemble_cmd =
  let run path out =
    match parse_program path with
    | Error e ->
      prerr_endline e;
      1
    | Ok program ->
      let encoded = Rmt.Encoding.encode program in
      let oc = open_out_bin out in
      Fun.protect
        ~finally:(fun () -> close_out_noerr oc)
        (fun () -> output_bytes oc encoded);
      Format.printf "wrote %s (%d bytes, %d instructions)@." out (Bytes.length encoded)
        (Array.length program.Rmt.Program.code);
      0
  in
  let out_arg =
    Arg.(required & pos 1 (some string) None & info [] ~docv:"OUT" ~doc:"Output .rmtb file.")
  in
  let doc = "assemble a program into the machine-independent RMTB wire format" in
  Cmd.v (Cmd.info "assemble" ~doc) Term.(const run $ program_arg $ out_arg)

(* --------------------------------------------------------------------- *)
(* Telemetry subcommands (lib/obs, DESIGN.md section 11)                  *)
(* --------------------------------------------------------------------- *)

let iters_arg =
  let doc = "Invocations of the program before reading the telemetry." in
  Arg.(value & opt int 1000 & info [ "n"; "iters" ] ~docv:"N" ~doc)

let install_and_run path bindings engine iters ~hook =
  match parse_program path with
  | Error e ->
    prerr_endline e;
    None
  | Ok program ->
    let control = Rmt.Control.create ~engine () in
    (match Rmt.Control.install control program with
     | Error e ->
       prerr_endline e;
       None
     | Ok vm ->
       let ctxt = Rmt.Ctxt.of_list bindings in
       Rmt.Ctxt.watch ~name:"rkdctl" ctxt;
       Obs.Trace.set_current_hook (Obs.intern hook);
       let now () = 0 in
       for _ = 1 to iters do
         ignore (Rmt.Vm.invoke_result vm ~ctxt ~now)
       done;
       Obs.Trace.set_current_hook (-1);
       Some vm)

let stats_cmd =
  let format_conv = Arg.enum [ ("text", `Text); ("prom", `Prom); ("json", `Json) ] in
  let format_arg =
    let doc = "Output format: 'text', 'prom' (Prometheus exposition) or 'json'." in
    Arg.(value & opt format_conv `Text & info [ "f"; "format" ] ~docv:"FMT" ~doc)
  in
  let diff_arg =
    let doc =
      "Print only the interval delta attributable to this invocation's runs (snapshot \
       after minus snapshot before)."
    in
    Arg.(value & flag & info [ "diff" ] ~doc)
  in
  let file_arg =
    let doc = "RMT program to install and run before the snapshot (optional)." in
    Arg.(value & pos 0 (some file) None & info [] ~docv:"FILE" ~doc)
  in
  let run file bindings engine iters fmt diff =
    let before = Obs.Registry.snapshot () in
    let ok =
      match file with
      | None -> true
      | Some path -> install_and_run path bindings engine iters ~hook:"rkdctl/stats" <> None
    in
    if not ok then 1
    else begin
      let after = Obs.Registry.snapshot () in
      let snap = if diff then Obs.Snapshot.diff ~before ~after else after in
      print_string
        (match fmt with
         | `Text -> Obs.Snapshot.to_text snap
         | `Prom -> Obs.Snapshot.to_prometheus snap
         | `Json -> Obs.Snapshot.to_json snap);
      0
    end
  in
  let doc = "print a telemetry snapshot, optionally after installing and running a program" in
  Cmd.v (Cmd.info "stats" ~doc)
    Term.(const run $ file_arg $ ctxt_arg $ engine_arg $ iters_arg $ format_arg $ diff_arg)

let trace_cmd =
  let last_arg =
    let doc = "How many of the most recent flight-recorder events to print." in
    Arg.(value & opt int 16 & info [ "l"; "last" ] ~docv:"N" ~doc)
  in
  let capacity_arg =
    let doc = "Reconfigure the ring to at least this many slots before running." in
    Arg.(value & opt (some int) None & info [ "capacity" ] ~docv:"SLOTS" ~doc)
  in
  let run file bindings engine iters lastn capacity =
    (match capacity with Some c -> Obs.Trace.configure ~capacity:c | None -> ());
    match install_and_run file bindings engine iters ~hook:"rkdctl/trace" with
    | None -> 1
    | Some _vm ->
      Obs.Trace.freeze ();
      let events = Obs.Trace.last lastn in
      Obs.Trace.unfreeze ();
      Format.printf "flight recorder: capacity=%d emitted=%d dropped=%d@."
        (Obs.Trace.capacity ()) (Obs.Trace.emitted ()) (Obs.Trace.dropped ());
      Format.printf "  %6s %-14s %5s %-7s %6s %10s %s@." "seq" "hook" "uid" "engine"
        "steps" "result" "flags";
      List.iter
        (fun (e : Obs.Trace.event) ->
          let flags =
            String.concat ","
              (List.filter_map
                 (fun (bit, n) -> if e.Obs.Trace.flags land bit <> 0 then Some n else None)
                 [ (Obs.Trace.flag_throttled, "throttled");
                   (Obs.Trace.flag_guardrail, "guardrail");
                   (Obs.Trace.flag_privacy_denied, "privacy-denied") ])
          in
          Format.printf "  %6d %-14s %5d %-7s %6d %10d %s@." e.Obs.Trace.seq
            (if e.Obs.Trace.hook < 0 then "-" else Obs.intern_name e.Obs.Trace.hook)
            e.Obs.Trace.uid
            (if e.Obs.Trace.engine = 1 then "jit" else "interp")
            e.Obs.Trace.steps e.Obs.Trace.result
            (if flags = "" then "-" else flags))
        events;
      0
  in
  let doc = "run a program and dump the most recent flight-recorder events" in
  Cmd.v (Cmd.info "trace" ~doc)
    Term.(const run $ program_arg $ ctxt_arg $ engine_arg $ iters_arg $ last_arg $ capacity_arg)

let simple name doc f = Cmd.v (Cmd.info name ~doc) Term.(const (fun () -> f (); 0) $ const ())

let domains_arg =
  let doc =
    "Experiment-engine parallelism: number of domains in the shared pool (1 = sequential). \
     Defaults to $(b,RKD_DOMAINS) or the machine's core count."
  in
  Arg.(value & opt (some int) None & info [ "d"; "domains" ] ~docv:"N" ~doc)

(* Table/ablation subcommands run on the domain pool and print their
   elapsed wall time so --domains speedups are visible interactively. *)
let timed name doc f =
  let run domains =
    (match domains with Some n -> Par.set_global_domains n | None -> ());
    let t0 = Unix.gettimeofday () in
    f ();
    Format.printf "[%s] elapsed %.2f s (domains=%d)@." name
      (Unix.gettimeofday () -. t0)
      (Par.global_domains ());
    0
  in
  Cmd.v (Cmd.info name ~doc) Term.(const run $ domains_arg)

let table1_cmd =
  timed "table1" "regenerate Table 1 (page prefetching)" (fun () ->
      Rkd.Report.print_table1 Format.std_formatter (Rkd.Experiment.table1 ()))

let table2_cmd =
  timed "table2" "regenerate Table 2 (scheduler mimicry)" (fun () ->
      Rkd.Report.print_table2 Format.std_formatter (Rkd.Experiment.table2 ()))

let ablations_cmd =
  timed "ablations" "run ablations A-F" (fun () ->
      Rkd.Report.print_lean Format.std_formatter (Rkd.Experiment.ablation_lean_monitoring ());
      Rkd.Report.print_window Format.std_formatter (Rkd.Experiment.ablation_window ());
      Rkd.Report.print_quant Format.std_formatter (Rkd.Experiment.ablation_quantization ());
      Rkd.Report.print_adapt Format.std_formatter (Rkd.Experiment.ablation_adaptivity ());
      Rkd.Report.print_distill Format.std_formatter (Rkd.Experiment.ablation_distillation ());
      Rkd.Report.print_privacy Format.std_formatter (Rkd.Experiment.ablation_privacy ());
      Rkd.Report.print_family Format.std_formatter (Rkd.Experiment.ablation_model_family ());
      Rkd.Report.print_nas Format.std_formatter (Rkd.Experiment.ablation_nas ());
      Rkd.Report.print_granularity Format.std_formatter
        (Rkd.Experiment.ablation_granularity ());
      Rkd.Report.print_cross Format.std_formatter (Rkd.Experiment.ablation_cross_app ());
      Rkd.Report.print_online Format.std_formatter
        (Rkd.Experiment.ablation_online_training ()))

let overhead_cmd =
  simple "overhead" "Figure 1 family: interpreter vs JIT per-invocation cost" (fun () ->
      Rkd.Report.print_overhead Format.std_formatter (Rkd.Experiment.vm_overhead ()))

let shapes_cmd =
  timed "shapes" "regenerate both tables and evaluate the shape checks" (fun () ->
      let t1 = Rkd.Experiment.table1 () in
      let t2 = Rkd.Experiment.table2 () in
      Rkd.Report.print_table1 Format.std_formatter t1;
      Rkd.Report.print_table2 Format.std_formatter t2;
      List.iter
        (fun (name, ok) -> Format.printf "  [%s] %s@." (if ok then "PASS" else "FAIL") name)
        (Rkd.Report.shape_checks t1 t2))

let main =
  let doc =
    "reconfigurable kernel datapaths with learned optimizations (HotOS '21 reproduction)"
  in
  Cmd.group
    (Cmd.info "rkdctl" ~version:"1.0.0" ~doc)
    [ verify_cmd; resources_cmd; analyze_cmd; mc_cmd; disasm_cmd; run_cmd; assemble_cmd;
      absint_fuzz_cmd;
      decode_fuzz_cmd; chaos_cmd; net_cmd; serve_cmd; fleet_cmd; stats_cmd; trace_cmd;
      table1_cmd;
      table2_cmd;
      ablations_cmd; overhead_cmd; shapes_cmd ]

let () = exit (Cmd.eval' main)
