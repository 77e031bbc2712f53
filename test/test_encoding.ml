(* Tests for the binary bytecode wire format: exact round-trips (including
   on random verified programs), rejection of corrupted inputs, and the
   install_bytes syscall path. *)

let sample_program =
  Rmt.Asm.parse_exn
    {|
.name wire_demo
.vmem 16
.map ring 32
.map hash 64
.model 4
.const w 2 2 1.5 -0.25 0.0 3.75
.progslot
.cap rate 100 8
.cap guard -5 5
.cap privacy 2500
  ldctxtk r1, 0
  jlti r1, 0, neg
  vldctxt 0, 8, 4
  callml model0, 0, 4
  exit
neg:
  ldimm r0, -1
  exit
|}

let program_equal (a : Rmt.Program.t) (b : Rmt.Program.t) =
  a.name = b.name && a.vmem_size = b.vmem_size && a.code = b.code
  && a.map_specs = b.map_specs && a.model_arity = b.model_arity
  && a.n_prog_slots = b.n_prog_slots && a.capabilities = b.capabilities
  && Array.length a.consts = Array.length b.consts
  && Array.for_all2
       (fun (x : Rmt.Program.const) (y : Rmt.Program.const) ->
         x.name = y.name && x.rows = y.rows && x.cols = y.cols && x.data = y.data)
       a.consts b.consts

let test_roundtrip_sample () =
  let encoded = Rmt.Encoding.encode sample_program in
  Alcotest.(check string) "magic" "RMTB" (Bytes.sub_string encoded 0 4);
  let decoded = Rmt.Encoding.decode_exn encoded in
  Alcotest.(check bool) "identical" true (program_equal sample_program decoded)

let test_negative_operands_roundtrip () =
  let program =
    Rmt.Program.make ~name:"neg"
      [ Rmt.Insn.Ld_imm (1, -123456789);
        Rmt.Insn.Alu_imm (Rmt.Insn.Max, 1, min_int / 4);
        Rmt.Insn.Mov (0, 1);
        Rmt.Insn.Exit ]
  in
  let decoded = Rmt.Encoding.decode_exn (Rmt.Encoding.encode program) in
  Alcotest.(check bool) "negative immediates survive" true (program_equal program decoded)

let test_corruption_rejected () =
  let encoded = Rmt.Encoding.encode sample_program in
  let expect_error what data =
    match Rmt.Encoding.decode data with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "corrupted input accepted: %s" what
  in
  expect_error "empty" Bytes.empty;
  expect_error "bad magic"
    (let b = Bytes.copy encoded in
     Bytes.set b 0 'X';
     b);
  expect_error "bad version"
    (let b = Bytes.copy encoded in
     Bytes.set b 4 '\255';
     b);
  expect_error "truncated" (Bytes.sub encoded 0 (Bytes.length encoded / 2));
  expect_error "trailing garbage" (Bytes.cat encoded (Bytes.of_string "junk"))

let test_decode_never_raises_on_fuzz () =
  (* Flip random bytes; decode must return Error or a structurally valid
     program, never raise. *)
  let rng = Kml.Rng.create 77 in
  let encoded = Rmt.Encoding.encode sample_program in
  for _ = 1 to 500 do
    let b = Bytes.copy encoded in
    let flips = 1 + Kml.Rng.int rng 4 in
    for _ = 1 to flips do
      let pos = Kml.Rng.int rng (Bytes.length b) in
      Bytes.set b pos (Char.chr (Kml.Rng.int rng 256))
    done;
    match Rmt.Encoding.decode b with
    | Ok _ | Error _ -> ()
  done

let test_install_bytes () =
  let control = Rmt.Control.create () in
  let model =
    Rmt.Model_store.Fn { n_features = 4; cost = Kml.Model_cost.zero; f = (fun _ -> 3) }
  in
  let (_ : Rmt.Model_store.handle) = Rmt.Control.register_model control ~name:"m" model in
  let encoded = Rmt.Encoding.encode sample_program in
  (match Rmt.Control.install_bytes control ~model_names:[ "m" ] encoded with
   | Ok vm ->
     let ctxt = Rmt.Ctxt.of_list [ (0, 1) ] in
     Alcotest.(check int) "runs decoded program" 3
       (Rmt.Vm.invoke vm ~ctxt ~now:(fun () -> 0)).Rmt.Interp.result
   | Error e -> Alcotest.fail e);
  (match Rmt.Control.install_bytes control ~model_names:[ "m" ] (Bytes.of_string "garbage") with
   | Error _ -> ()
   | Ok _ -> Alcotest.fail "garbage accepted")

(* Property: round-trip over random verified programs (reuses the fuzz
   generator from the VM tests). *)
let helpers = Rmt.Helper.with_defaults ()

let prop_roundtrip_random =
  QCheck2.Test.make ~name:"encode/decode round-trips random programs" ~count:300
    QCheck2.Gen.(int_range 0 1_000_000)
    (fun seed ->
      let rng = Kml.Rng.create seed in
      let program = Test_rmt_vm.random_program rng in
      match Rmt.Verifier.check ~helpers ~model_costs:[||] program with
      | Error _ -> QCheck2.assume_fail ()
      | Ok _ ->
        let decoded = Rmt.Encoding.decode_exn (Rmt.Encoding.encode program) in
        program_equal program decoded)

let suite =
  [ ( "encoding",
      [ Alcotest.test_case "roundtrip sample" `Quick test_roundtrip_sample;
        Alcotest.test_case "negative operands" `Quick test_negative_operands_roundtrip;
        Alcotest.test_case "corruption rejected" `Quick test_corruption_rejected;
        Alcotest.test_case "fuzz never raises" `Quick test_decode_never_raises_on_fuzz;
        Alcotest.test_case "install_bytes syscall" `Quick test_install_bytes;
        Prop.to_alcotest prop_roundtrip_random ] ) ]
