(* Tests for the RMT infrastructure around the VM: match/action tables,
   pipelines, the control plane, and the safety components (privacy, rate
   limiting, guardrails, model store). *)

let now0 () = 0

(* ---------------- Table ---------------- *)

let test_table_exact_match () =
  let t =
    Rmt.Table.create ~name:"t" ~match_keys:[| 0 |] ~default:(Rmt.Table.Const (-1))
  in
  let _e1 = Rmt.Table.insert t ~patterns:[| Rmt.Table.Eq 5 |] (Rmt.Table.Const 50) in
  let _e2 = Rmt.Table.insert t ~patterns:[| Rmt.Table.Eq 7 |] (Rmt.Table.Const 70) in
  let look v = Rmt.Table.lookup t ~ctxt:(Rmt.Ctxt.of_list [ (0, v) ]) ~now:now0 in
  Alcotest.(check int) "pid 5" 50 (look 5);
  Alcotest.(check int) "pid 7" 70 (look 7);
  Alcotest.(check int) "default" (-1) (look 9);
  Alcotest.(check int) "hits" 3 (Rmt.Table.hits t);
  Alcotest.(check int) "default hits" 1 (Rmt.Table.default_hits t)

let test_table_priority_and_patterns () =
  let t =
    Rmt.Table.create ~name:"t" ~match_keys:[| 0; 1 |] ~default:(Rmt.Table.Const 0)
  in
  let open Rmt.Table in
  let _lo = insert t ~priority:1 ~patterns:[| Any; Any |] (Const 1) in
  let _hi =
    insert t ~priority:5 ~patterns:[| Between (10, 20); Any |] (Const 2)
  in
  let _mask =
    insert t ~priority:9
      ~patterns:[| Mask { value = 0b100; mask = 0b100 }; Eq 3 |]
      (Const 3)
  in
  let look a b = lookup t ~ctxt:(Rmt.Ctxt.of_list [ (0, a); (1, b) ]) ~now:now0 in
  Alcotest.(check int) "mask+eq wins (highest priority)" 3 (look 0b1100 3);
  Alcotest.(check int) "range wins over wildcard" 2 (look 15 99);
  Alcotest.(check int) "wildcard" 1 (look 1 1)

let test_table_runtime_updates () =
  let t = Rmt.Table.create ~name:"t" ~match_keys:[| 0 |] ~default:(Rmt.Table.Const 0) in
  let e = Rmt.Table.insert t ~patterns:[| Rmt.Table.Eq 1 |] (Rmt.Table.Const 10) in
  let look () = Rmt.Table.lookup t ~ctxt:(Rmt.Ctxt.of_list [ (0, 1) ]) ~now:now0 in
  Alcotest.(check int) "initial action" 10 (look ());
  Alcotest.(check bool) "set_action" true (Rmt.Table.set_action t e (Rmt.Table.Const 20));
  Alcotest.(check int) "updated action" 20 (look ());
  Alcotest.(check int) "entry hits" 2 (Rmt.Table.entry_hits t e);
  Alcotest.(check bool) "remove" true (Rmt.Table.remove t e);
  Alcotest.(check int) "fell to default" 0 (look ());
  Alcotest.(check bool) "double remove" false (Rmt.Table.remove t e)

let test_table_insertion_order_breaks_ties () =
  let t = Rmt.Table.create ~name:"t" ~match_keys:[| 0 |] ~default:(Rmt.Table.Const 0) in
  let _a = Rmt.Table.insert t ~patterns:[| Rmt.Table.Any |] (Rmt.Table.Const 1) in
  let _b = Rmt.Table.insert t ~patterns:[| Rmt.Table.Any |] (Rmt.Table.Const 2) in
  Alcotest.(check int) "first inserted wins" 1
    (Rmt.Table.lookup t ~ctxt:(Rmt.Ctxt.create ()) ~now:now0)

let test_table_arity_check () =
  let t = Rmt.Table.create ~name:"t" ~match_keys:[| 0; 1 |] ~default:(Rmt.Table.Const 0) in
  Alcotest.check_raises "arity"
    (Invalid_argument "Table.insert: pattern arity must match the table's match keys")
    (fun () -> ignore (Rmt.Table.insert t ~patterns:[| Rmt.Table.Any |] (Rmt.Table.Const 0)))

let prop_pattern_matches =
  QCheck2.Test.make ~name:"pattern semantics" ~count:300
    QCheck2.Gen.(pair (int_range (-100) 100) (int_range (-100) 100))
    (fun (v, x) ->
      let open Rmt.Table in
      pattern_matches Any v
      && pattern_matches (Eq v) v
      && pattern_matches (Eq x) v = (v = x)
      && pattern_matches (Between (Stdlib.min v x, Stdlib.max v x)) v
      && pattern_matches (Mask { value = v; mask = 0 }) x)

(* ---------------- Pipeline ---------------- *)

let test_pipeline_fire_order () =
  let p = Rmt.Pipeline.create () in
  let mk name v =
    Rmt.Table.create ~name ~match_keys:[||] ~default:(Rmt.Table.Const v)
  in
  Rmt.Pipeline.attach p ~hook:"h" (mk "a" 1);
  Rmt.Pipeline.attach p ~hook:"h" (mk "b" 2);
  let ctxt = Rmt.Ctxt.create () in
  Alcotest.(check (list int)) "all results in order" [ 1; 2 ]
    (Rmt.Pipeline.fire_all p ~hook:"h" ~ctxt ~now:now0);
  Alcotest.(check (option int)) "last wins" (Some 2)
    (Rmt.Pipeline.fire p ~hook:"h" ~ctxt ~now:now0);
  Alcotest.(check (option int)) "missing hook" None
    (Rmt.Pipeline.fire p ~hook:"nope" ~ctxt ~now:now0);
  Alcotest.(check int) "firings" 2 (Rmt.Pipeline.firings p ~hook:"h");
  Alcotest.(check bool) "detach" true (Rmt.Pipeline.detach p ~hook:"h" ~name:"b");
  Alcotest.(check (option int)) "after detach" (Some 1)
    (Rmt.Pipeline.fire p ~hook:"h" ~ctxt ~now:now0)

(* ---------------- Control plane ---------------- *)

let test_control_install_and_update_model () =
  let control = Rmt.Control.create () in
  let constant v =
    Rmt.Model_store.Fn { n_features = 1; cost = Kml.Model_cost.zero; f = (fun _ -> v) }
  in
  let (_ : Rmt.Model_store.handle) = Rmt.Control.register_model control ~name:"m" (constant 1) in
  let program =
    Rmt.Program.make ~name:"p" ~vmem_size:2 ~model_arity:[ 1 ]
      [ Rmt.Insn.Vec_ld_ctxt (0, 0, 1); Rmt.Insn.Call_ml (0, 0, 1); Rmt.Insn.Exit ]
  in
  let vm = Result.get_ok (Rmt.Control.install control ~model_names:[ "m" ] program) in
  let run () = (Rmt.Vm.invoke vm ~ctxt:(Rmt.Ctxt.create ()) ~now:now0).Rmt.Interp.result in
  Alcotest.(check int) "initial model" 1 (run ());
  (* Hot-swap the model; no reinstall needed. *)
  (match Rmt.Control.update_model control ~name:"m" (constant 2) with
   | Ok () -> ()
   | Error e -> Alcotest.fail e);
  Alcotest.(check int) "updated model" 2 (run ());
  (match Rmt.Control.update_model control ~name:"nope" (constant 3) with
   | Error _ -> ()
   | Ok () -> Alcotest.fail "unknown model must fail");
  Alcotest.(check (list string)) "program names" [ "p" ] (Rmt.Control.program_names control)

let test_control_rejects_unverifiable () =
  let control = Rmt.Control.create () in
  match Rmt.Control.install control (Rmt.Program.make ~name:"bad" [ Rmt.Insn.Exit ]) with
  | Error msg ->
    Alcotest.(check bool) "mentions verifier" true
      (String.length msg > 0 && String.sub msg 0 8 = "verifier")
  | Ok _ -> Alcotest.fail "expected verifier rejection"

let test_control_install_asm () =
  let control = Rmt.Control.create () in
  match Rmt.Control.install_asm control "  ldimm r0, 9\n  exit\n" with
  | Ok vm ->
    Alcotest.(check int) "runs" 9
      (Rmt.Vm.invoke vm ~ctxt:(Rmt.Ctxt.create ()) ~now:now0).Rmt.Interp.result
  | Error e -> Alcotest.fail e

let test_control_model_cost_budget () =
  let control = Rmt.Control.create () in
  let expensive =
    Rmt.Model_store.Fn
      { n_features = 1;
        cost = { Kml.Model_cost.macs = 1_000_000; comparisons = 1; memory_words = 1 };
        f = (fun _ -> 0) }
  in
  let (_ : Rmt.Model_store.handle) =
    Rmt.Control.register_model control ~name:"big" expensive
  in
  let program =
    Rmt.Program.make ~name:"p" ~vmem_size:2 ~model_arity:[ 1 ]
      [ Rmt.Insn.Vec_ld_ctxt (0, 0, 1); Rmt.Insn.Call_ml (0, 0, 1); Rmt.Insn.Exit ]
  in
  match Rmt.Control.install control ~model_names:[ "big" ] program with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "model over budget must be rejected"

(* ---------------- Privacy ---------------- *)

let test_privacy_budget_accounting () =
  let acct = Rmt.Privacy.create ~epsilon_milli:250 in
  (match Rmt.Privacy.charge acct ~cost_milli:100 with
   | Rmt.Privacy.Granted { epsilon_milli } -> Alcotest.(check int) "granted" 100 epsilon_milli
   | Rmt.Privacy.Denied -> Alcotest.fail "should grant");
  ignore (Rmt.Privacy.charge acct ~cost_milli:100);
  (match Rmt.Privacy.charge acct ~cost_milli:100 with
   | Rmt.Privacy.Denied -> ()
   | Rmt.Privacy.Granted _ -> Alcotest.fail "budget exhausted");
  Alcotest.(check int) "remaining" 50 (Rmt.Privacy.remaining_milli acct);
  Alcotest.(check int) "denials" 1 (Rmt.Privacy.denials acct)

let test_privacy_noise_scale () =
  let rng = Kml.Rng.create 3 in
  let mean_abs epsilon_milli =
    let n = 3000 in
    let total = ref 0 in
    for _ = 1 to n do
      total := !total + abs (Rmt.Privacy.noise ~rng ~epsilon_milli ~sensitivity:1)
    done;
    float_of_int !total /. float_of_int n
  in
  let tight = mean_abs 5_000 and loose = mean_abs 200 in
  Alcotest.(check bool)
    (Printf.sprintf "smaller epsilon -> more noise (%.2f vs %.2f)" loose tight)
    true (loose > 2.0 *. tight)

let test_privacy_end_to_end_denial () =
  (* Program with a 300-milli-eps budget calling a 100-milli-eps helper:
     exactly three queries answered, later ones denied (result 0). *)
  let control = Rmt.Control.create () in
  let program =
    Rmt.Program.make ~name:"agg"
      ~capabilities:[ Rmt.Program.Privacy_budget { epsilon_milli = 300 } ]
      [ Rmt.Insn.Ld_imm (1, 0);
        Rmt.Insn.Ld_imm (2, 4);
        Rmt.Insn.Call Rmt.Helper.ctxt_sum_range;
        Rmt.Insn.Exit ]
  in
  let vm = Result.get_ok (Rmt.Control.install control program) in
  let ctxt = Rmt.Ctxt.of_list [ (0, 10); (1, 10); (2, 10); (3, 10) ] in
  let denied = ref 0 in
  for _ = 1 to 5 do
    let outcome = Rmt.Vm.invoke vm ~ctxt ~now:now0 in
    denied := !denied + outcome.Rmt.Interp.privacy_denied
  done;
  Alcotest.(check int) "two of five denied" 2 !denied

(* ---------------- Rate limit / guardrail ---------------- *)

let test_rate_limit_grants () =
  let bucket = Rmt.Rate_limit.create ~tokens_per_sec:10 ~burst:5 ~now:0 in
  Alcotest.(check int) "burst" 5 (Rmt.Rate_limit.grant bucket ~now:0 ~request:8);
  Alcotest.(check int) "empty" 0 (Rmt.Rate_limit.grant bucket ~now:0 ~request:1);
  (* 0.5 s -> 5 tokens refilled *)
  Alcotest.(check int) "refill" 5 (Rmt.Rate_limit.grant bucket ~now:500_000_000 ~request:9);
  Alcotest.(check int) "throttled total" 8 (Rmt.Rate_limit.throttled bucket);
  (* refill caps at burst *)
  Alcotest.(check int) "cap at burst" 5 (Rmt.Rate_limit.available bucket ~now:10_000_000_000)

let test_rate_limit_in_vm () =
  let control = Rmt.Control.create () in
  let clock = ref 0 in
  Rmt.Control.set_clock control (fun () -> !clock);
  let program =
    Rmt.Program.make ~name:"asker"
      ~capabilities:[ Rmt.Program.Rate_limited { tokens_per_sec = 10; burst = 4 } ]
      [ Rmt.Insn.Ld_imm (0, 100); Rmt.Insn.Exit ]
  in
  let vm = Result.get_ok (Rmt.Control.install control program) in
  let ctxt = Rmt.Ctxt.create () in
  let r1 = (Rmt.Vm.invoke vm ~ctxt ~now:(fun () -> !clock)).Rmt.Interp.result in
  Alcotest.(check int) "burst grant" 4 r1;
  let r2 = (Rmt.Vm.invoke vm ~ctxt ~now:(fun () -> !clock)).Rmt.Interp.result in
  Alcotest.(check int) "exhausted" 0 r2;
  clock := 1_000_000_000;
  let r3 = (Rmt.Vm.invoke vm ~ctxt ~now:(fun () -> !clock)).Rmt.Interp.result in
  Alcotest.(check int) "refilled to burst" 4 r3

let test_guardrail () =
  let g = Rmt.Guardrail.create ~lo:0 ~hi:10 in
  Alcotest.(check int) "in range" 5 (Rmt.Guardrail.apply g 5);
  Alcotest.(check int) "clamp hi" 10 (Rmt.Guardrail.apply g 99);
  Alcotest.(check int) "clamp lo" 0 (Rmt.Guardrail.apply g (-3));
  Alcotest.(check int) "violations" 2 (Rmt.Guardrail.violations g)

let test_guardrail_extremes () =
  (* Zero-width band: everything outside the single admitted value clamps. *)
  let g = Rmt.Guardrail.create ~lo:7 ~hi:7 in
  Alcotest.(check int) "min_int clamps up" 7 (Rmt.Guardrail.apply g min_int);
  Alcotest.(check int) "max_int clamps down" 7 (Rmt.Guardrail.apply g max_int);
  Alcotest.(check int) "exact value passes" 7 (Rmt.Guardrail.apply g 7);
  Alcotest.(check int) "two violations" 2 (Rmt.Guardrail.violations g);
  (* Full-width band: nothing clamps, including the extremes themselves. *)
  let all = Rmt.Guardrail.create ~lo:min_int ~hi:max_int in
  Alcotest.(check int) "min_int passes" min_int (Rmt.Guardrail.apply all min_int);
  Alcotest.(check int) "max_int passes" max_int (Rmt.Guardrail.apply all max_int);
  Alcotest.(check int) "no violations" 0 (Rmt.Guardrail.violations all);
  (* Bands touching one extreme clamp toward it without wrapping. *)
  let neg = Rmt.Guardrail.create ~lo:min_int ~hi:(-1) in
  Alcotest.(check int) "clamps into negative band" (-1) (Rmt.Guardrail.apply neg max_int);
  Alcotest.check_raises "inverted band rejected"
    (Invalid_argument "Guardrail.create: lo > hi") (fun () ->
      ignore (Rmt.Guardrail.create ~lo:1 ~hi:0))

let test_rate_limit_extremes () =
  (* A clock that spans the whole int range: [now - last_refill] would
     wrap negative; the refill must saturate, not stall or go negative. *)
  let bucket = Rmt.Rate_limit.create ~tokens_per_sec:1 ~burst:5 ~now:min_int in
  ignore (Rmt.Rate_limit.grant bucket ~now:min_int ~request:5);
  let g = Rmt.Rate_limit.grant bucket ~now:max_int ~request:3 in
  Alcotest.(check int) "wrapping clock still refills to burst" 3 g;
  (* max_int burst: the internal nanosecond scaling must saturate instead
     of overflowing into a negative token count. *)
  let big = Rmt.Rate_limit.create ~tokens_per_sec:max_int ~burst:max_int ~now:0 in
  let got = Rmt.Rate_limit.grant big ~now:1 ~request:max_int in
  Alcotest.(check bool) "saturated grant is non-negative" true (got >= 0);
  Alcotest.(check bool) "saturated grant is bounded" true (got <= max_int);
  Alcotest.(check bool) "available never negative" true
    (Rmt.Rate_limit.available big ~now:2 >= 0);
  (* max_int requests against a small bucket: throttled accounting
     saturates rather than wrapping negative. *)
  let small = Rmt.Rate_limit.create ~tokens_per_sec:1 ~burst:1 ~now:0 in
  ignore (Rmt.Rate_limit.grant small ~now:0 ~request:max_int);
  ignore (Rmt.Rate_limit.grant small ~now:0 ~request:max_int);
  Alcotest.(check int) "throttled saturates at max_int" max_int
    (Rmt.Rate_limit.throttled small);
  (* Negative requests are treated as zero, not as a refund. *)
  let refund = Rmt.Rate_limit.create ~tokens_per_sec:10 ~burst:2 ~now:0 in
  Alcotest.(check int) "negative request grants zero" 0
    (Rmt.Rate_limit.grant refund ~now:0 ~request:min_int);
  Alcotest.(check int) "bucket unchanged by negative request" 2
    (Rmt.Rate_limit.available refund ~now:0);
  (* A clock that runs backwards must not refill. *)
  let back = Rmt.Rate_limit.create ~tokens_per_sec:1_000_000_000 ~burst:4 ~now:1_000 in
  Alcotest.(check int) "drain at creation time" 4
    (Rmt.Rate_limit.grant back ~now:1_000 ~request:4);
  Alcotest.(check int) "no refill on backwards clock" 0
    (Rmt.Rate_limit.grant back ~now:0 ~request:1)

(* ---------------- Model store ---------------- *)

let test_model_store () =
  let store = Rmt.Model_store.create () in
  let constant v =
    Rmt.Model_store.Fn { n_features = 2; cost = Kml.Model_cost.zero; f = (fun _ -> v) }
  in
  let h = Rmt.Model_store.register store ~name:"a" (constant 1) in
  Alcotest.(check int) "predict" 1 (Rmt.Model_store.predict store h [| 0; 0 |]);
  Alcotest.(check int) "invocations" 1 (Rmt.Model_store.invocations store h);
  Rmt.Model_store.replace store h (constant 2);
  Alcotest.(check int) "replaced" 2 (Rmt.Model_store.predict store h [| 0; 0 |]);
  Alcotest.check_raises "arity change rejected"
    (Invalid_argument "Model_store.replace: feature arity mismatch") (fun () ->
      Rmt.Model_store.replace store h
        (Rmt.Model_store.Fn { n_features = 3; cost = Kml.Model_cost.zero; f = (fun _ -> 0) }));
  Alcotest.check_raises "predict arity"
    (Invalid_argument "Model_store.predict: feature arity mismatch") (fun () ->
      ignore (Rmt.Model_store.predict store h [| 1 |]))

(* ---------------- Builder ---------------- *)

let test_builder_labels () =
  let open Rmt in
  let b = Builder.create ~name:"b" () in
  let skip = Builder.fresh_label b in
  Builder.emit b (Insn.Ld_ctxt_k (1, 0));
  Builder.jump_if b Insn.Gt ~reg:1 ~imm:5 ~target:skip;
  Builder.emit b (Insn.Ld_imm (0, 0));
  Builder.emit b Insn.Exit;
  Builder.place b skip;
  Builder.emit b (Insn.Ld_imm (0, 1));
  Builder.emit b Insn.Exit;
  let program = Builder.finish b () in
  let control = Control.create () in
  let vm = Result.get_ok (Control.install control program) in
  Alcotest.(check int) "taken" 1
    (Vm.invoke vm ~ctxt:(Ctxt.of_list [ (0, 9) ]) ~now:now0).Interp.result;
  Alcotest.(check int) "fallthrough" 0
    (Vm.invoke vm ~ctxt:(Ctxt.of_list [ (0, 3) ]) ~now:now0).Interp.result

let test_builder_backward_label_rejected () =
  let open Rmt in
  let b = Builder.create ~name:"b" () in
  let back = Builder.fresh_label b in
  Builder.place b back;
  Builder.emit b (Insn.Ld_imm (0, 0));
  Builder.jump b ~target:back;
  Builder.emit b Insn.Exit;
  Alcotest.check_raises "backward" (Invalid_argument "Builder.finish: backward label")
    (fun () -> ignore (Builder.finish b ()))

let suite =
  [ ( "table",
      [ Alcotest.test_case "exact match" `Quick test_table_exact_match;
        Alcotest.test_case "priority and patterns" `Quick test_table_priority_and_patterns;
        Alcotest.test_case "runtime updates" `Quick test_table_runtime_updates;
        Alcotest.test_case "tie break" `Quick test_table_insertion_order_breaks_ties;
        Alcotest.test_case "arity check" `Quick test_table_arity_check;
        Prop.to_alcotest prop_pattern_matches ] );
    ( "pipeline",
      [ Alcotest.test_case "fire order" `Quick test_pipeline_fire_order ] );
    ( "control",
      [ Alcotest.test_case "install and hot-swap model" `Quick
          test_control_install_and_update_model;
        Alcotest.test_case "rejects unverifiable" `Quick test_control_rejects_unverifiable;
        Alcotest.test_case "install asm" `Quick test_control_install_asm;
        Alcotest.test_case "model cost budget" `Quick test_control_model_cost_budget ] );
    ( "privacy",
      [ Alcotest.test_case "budget accounting" `Quick test_privacy_budget_accounting;
        Alcotest.test_case "noise scale" `Quick test_privacy_noise_scale;
        Alcotest.test_case "end to end denial" `Quick test_privacy_end_to_end_denial ] );
    ( "rate_guard",
      [ Alcotest.test_case "rate limit grants" `Quick test_rate_limit_grants;
        Alcotest.test_case "rate limit in vm" `Quick test_rate_limit_in_vm;
        Alcotest.test_case "rate limit int extremes" `Quick test_rate_limit_extremes;
        Alcotest.test_case "guardrail" `Quick test_guardrail;
        Alcotest.test_case "guardrail int extremes" `Quick test_guardrail_extremes ] );
    ( "model_store",
      [ Alcotest.test_case "lifecycle" `Quick test_model_store ] );
    ( "builder",
      [ Alcotest.test_case "labels" `Quick test_builder_labels;
        Alcotest.test_case "backward label rejected" `Quick
          test_builder_backward_label_rejected ] ) ]
