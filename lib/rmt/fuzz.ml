(* Absint soundness fuzzer.  See fuzz.mli for the obligations and
   DESIGN.md §10 for how these relate to the verifier's safety argument.

   The reference interpreter here deliberately duplicates Interp's
   semantics instead of reusing it: it keeps every runtime guard on and is
   written independently, so an engine bug (or an unsound interval) shows
   up as a four-way disagreement rather than two copies of the same
   mistake agreeing with each other. *)

type stats = {
  trials : int;
  accepted : int;
  rejected : int;
  claims_checked : int;
  batch_slots_checked : int;
}

let pp_stats fmt s =
  Format.fprintf fmt
    "%d trials: %d accepted, %d rejected, %d interval claims checked, %d batch slots checked"
    s.trials s.accepted s.rejected s.claims_checked s.batch_slots_checked

let now_value = 12_345

exception Unsound of string

let fail_prog prog fmt =
  Format.kasprintf
    (fun msg -> raise (Unsound (Format.asprintf "%s@.%a" msg Program.pp prog)))
    fmt

(* ------------------------------------------------------------------ *)
(* Program generator.                                                  *)
(* ------------------------------------------------------------------ *)

(* Interval-stressing immediates: overflow boundaries, shift masks, the
   dense-ctxt boundary and small values all appear. *)
let imm_pool =
  [| 0; 1; -1; 2; 3; 7; 62; 63; 64; 127; 128; 255; -32; -100; 1000; 4096;
     max_int; min_int; max_int - 1; min_int + 1; max_int / 2; min_int / 2 |]

let alu_ops = [| Insn.Add; Sub; Mul; Div; Mod; And; Or; Xor; Shl; Shr; Min; Max |]
let conds = [| Insn.Eq; Ne; Lt; Le; Gt; Ge |]

(* Map slots: 0 = array(16), 1 = hash(32), 2 = ring(8). *)
let map_specs =
  [ { Map_store.kind = Map_store.Array_map; capacity = 16 };
    { Map_store.kind = Map_store.Hash_map; capacity = 32 };
    { Map_store.kind = Map_store.Ring_buffer; capacity = 8 } ]

let vmem_size = 8

let gen_program rng =
  let open Insn in
  let ri n = Kml.Rng.int rng n in
  let imm () = imm_pool.(ri (Array.length imm_pool)) in
  let small () = ri 64 - 32 in
  let with_budget = ri 2 = 0 in
  let with_ml = ri 3 = 0 in
  let dreg () = 1 + ri 7 in
  let sreg () = ri 8 in
  (* Call clobbers r1-r5: restore the all-initialized invariant. *)
  let reinit () = List.init 5 (fun i -> Ld_imm (i + 1, if ri 3 = 0 then imm () else small ())) in
  let arith () =
    match ri 4 with
    | 0 -> [ Ld_imm (dreg (), imm ()) ]
    | 1 -> [ Mov (dreg (), sreg ()) ]
    | 2 -> [ Alu (alu_ops.(ri 12), dreg (), sreg ()) ]
    | _ -> [ Alu_imm (alu_ops.(ri 12), dreg (), if ri 2 = 0 then imm () else small ()) ]
  in
  let ctxt_block () =
    match ri 8 with
    | 0 -> [ Ld_ctxt_k (dreg (), ri 200) ]
    | 1 -> [ St_ctxt (ri 200, sreg ()) ]
    (* masked into the dense range: strict mode accepts the key *)
    | 2 ->
      let rk = dreg () in
      [ Alu_imm (And, rk, 63); Ld_ctxt (dreg (), rk) ]
    | 3 ->
      let rk = dreg () in
      [ Alu_imm (And, rk, 63); St_ctxt_r (rk, sreg ()) ]
    (* masked non-negative but beyond the dense range *)
    | 4 ->
      let rk = dreg () in
      [ Alu_imm (And, rk, 1023); St_ctxt_r (rk, sreg ()) ]
    (* unmasked: only the runtime negative-key guard catches a bad key *)
    | 5 -> [ St_ctxt_r (sreg (), sreg ()) ]
    | 6 -> [ Ld_ctxt (dreg (), sreg ()) ]
    | _ -> [ Vec_ld_ctxt (ri 4, ri 140, 1 + ri 4) ]
  in
  let map_block () =
    match ri 7 with
    | 0 ->
      let rk = dreg () in
      [ Alu_imm (And, rk, 15); Map_update (0, rk, sreg ()) ]
    | 1 ->
      let rk = dreg () in
      [ Alu_imm (And, rk, 31); Map_update (1, rk, sreg ()) ]
    | 2 -> [ Map_lookup (dreg (), ri 3, sreg ()) ]
    | 3 -> [ Ring_push (2, sreg ()) ]
    | 4 -> [ Map_delete (ri 2, sreg ()) ]
    (* proven window: base masked into [0, 7], 7 + 4 <= 16 *)
    | 5 ->
      let rk = dreg () in
      [ Alu_imm (And, rk, 7); Vec_ld_map (0, 0, rk, 4) ]
    (* unproven window: arbitrary base, short reads return 0 *)
    | _ -> [ Vec_ld_map (ri 4, 0, sreg (), 1 + ri 4) ]
  in
  let call_block () =
    match ri (if with_budget then 5 else 4) with
    | 0 -> Call Helper.abs_val :: reinit ()
    | 1 -> Call Helper.sign :: reinit ()
    | 2 -> Call Helper.log2_floor :: reinit ()
    | 3 -> Ld_imm (2, small ()) :: Ld_imm (3, ri 20) :: Call Helper.clamp3 :: reinit ()
    | _ ->
      Ld_imm (1, ri 8) :: Ld_imm (2, 1 + ri 4) :: Call Helper.ctxt_sum_range :: reinit ()
  in
  let vec_block () =
    match ri (if with_ml then 4 else 3) with
    | 0 -> [ Vec_st_reg (ri vmem_size, sreg ()) ]
    | 1 ->
      let rd = dreg () in
      [ Vec_st_reg (5, sreg ()); Vec_ld_reg (rd, 5) ]
    | 2 -> [ Vec_relu (ri 4, 1 + ri 4); Vec_argmax (dreg (), ri 4, 1 + ri 4) ]
    | _ ->
      [ Vec_ld_ctxt (0, ri 8, 3);
        Vec_i2f (0, 3);
        Mat_mul (3, 0, 0);
        Vec_add_const (3, 1);
        Vec_relu (3, 2);
        Vec_argmax (6, 3, 2) ]
  in
  let ml_block () = Vec_ld_ctxt (0, ri 8, 3) :: Call_ml (0, 0, 3) :: reinit () in
  let rec block depth =
    let pick = ri 100 in
    if pick < 30 then arith ()
    else if pick < 45 then ctxt_block ()
    else if pick < 60 then map_block ()
    else if pick < 70 then call_block ()
    else if pick < 78 then vec_block ()
    else if pick < 82 && with_ml then ml_block ()
    else if pick < 90 && depth < 2 then rep depth
    else if pick < 97 then branch depth
    else arith ()
  and rep depth =
    let body = List.concat (List.init (1 + ri 2) (fun _ -> block (depth + 1))) in
    (* Mostly small trip counts (abstractly unrolled); occasionally large
       enough to force the widening fixpoint. *)
    let count = if ri 6 = 0 then 50 + ri 30 else 1 + ri 5 in
    Rep (count, List.length body) :: body
  and branch depth =
    let body = List.concat (List.init (1 + ri 2) (fun _ -> block (depth + 1))) in
    match ri 3 with
    | 0 -> Jcond_imm (conds.(ri 6), sreg (), (if ri 2 = 0 then imm () else small ()),
                      List.length body) :: body
    | 1 -> Jcond (conds.(ri 6), sreg (), sreg (), List.length body) :: body
    | _ -> Jmp (List.length body) :: body
  in
  let blocks = List.concat (List.init (3 + ri 8) (fun _ -> block 0)) in
  let prelude = List.init 8 (fun r -> Ld_imm (r, if ri 4 = 0 then imm () else small ())) in
  let code = prelude @ blocks @ [ Mov (0, sreg ()); Exit ] in
  let w =
    Program.const_matrix ~name:"w" ~rows:2 ~cols:3
      (Array.map Kml.Fixed.of_float [| 1.0; -2.0; 0.5; -1.0; 1.5; 2.0 |])
  in
  let b = Program.const_vector ~name:"b" (Array.map Kml.Fixed.of_float [| 0.25; -1.0 |]) in
  Program.make ~name:"fuzz" ~vmem_size ~consts:[ w; b ] ~map_specs
    ~model_arity:(if with_ml then [ 3 ] else [])
    ~capabilities:
      (if with_budget then [ Program.Privacy_budget { epsilon_milli = 100 + ri 300 } ]
       else [])
    code

(* ------------------------------------------------------------------ *)
(* Reference interpreter with claim checking.                          *)
(* ------------------------------------------------------------------ *)

let fix_mul a b = Kml.Fixed.to_raw (Kml.Fixed.mul (Kml.Fixed.of_raw a) (Kml.Fixed.of_raw b))
let fix_add a b = Kml.Fixed.to_raw (Kml.Fixed.add (Kml.Fixed.of_raw a) (Kml.Fixed.of_raw b))

exception Ref_exit of int

let ref_run (prog : Program.t) ~helpers ~maps ~store ~models ~rng_seed
    ~(facts : Absint.fact option array) ~claims ~ctxt =
  let open Insn in
  let code = prog.code in
  let regs = Array.make n_registers 0 in
  let vmem = Array.make (Stdlib.max 1 prog.vmem_size) 0 in
  let rng = Kml.Rng.create rng_seed in
  let privacy =
    match Program.privacy_budget prog with
    | Some epsilon_milli -> Some (Privacy.create ~epsilon_milli)
    | None -> None
  in
  let env =
    { Helper.ctxt; now = (fun () -> now_value); random = (fun () -> Kml.Rng.next rng) }
  in
  let steps = ref 0 and denied = ref 0 in
  let check_claims pc =
    match facts.(pc) with
    | None -> fail_prog prog "pc %d executed but claimed unreachable" pc
    | Some f ->
      for r = 0 to n_registers - 1 do
        if not (Absint.Interval.mem regs.(r) f.Absint.regs.(r)) then
          fail_prog prog "pc %d: r%d = %d outside claimed %a" pc r regs.(r)
            Absint.Interval.pp f.Absint.regs.(r)
      done;
      claims := !claims + n_registers
  in
  let rec exec_range pc pc_hi =
    if pc > pc_hi then ()
    else begin
      check_claims pc;
      incr steps;
      match code.(pc) with
      | Ld_imm (rd, v) ->
        regs.(rd) <- v;
        exec_range (pc + 1) pc_hi
      | Mov (rd, rs) ->
        regs.(rd) <- regs.(rs);
        exec_range (pc + 1) pc_hi
      | Alu (op, rd, rs) ->
        regs.(rd) <- eval_alu op regs.(rd) regs.(rs);
        exec_range (pc + 1) pc_hi
      | Alu_imm (op, rd, v) ->
        regs.(rd) <- eval_alu op regs.(rd) v;
        exec_range (pc + 1) pc_hi
      | Ld_ctxt (rd, rk) ->
        regs.(rd) <- Ctxt.get ctxt regs.(rk);
        exec_range (pc + 1) pc_hi
      | Ld_ctxt_k (rd, key) ->
        regs.(rd) <- Ctxt.get ctxt key;
        exec_range (pc + 1) pc_hi
      | St_ctxt (key, rs) ->
        Ctxt.set ctxt key regs.(rs);
        exec_range (pc + 1) pc_hi
      | St_ctxt_r (rk, rs) ->
        let key = regs.(rk) in
        if key >= 0 then Ctxt.set ctxt key regs.(rs);
        exec_range (pc + 1) pc_hi
      | Map_lookup (rd, slot, rk) ->
        regs.(rd) <- Map_store.lookup maps.(slot) regs.(rk);
        exec_range (pc + 1) pc_hi
      | Map_update (slot, rk, rv) ->
        Map_store.update maps.(slot) ~key:regs.(rk) ~value:regs.(rv);
        exec_range (pc + 1) pc_hi
      | Map_delete (slot, rk) ->
        Map_store.delete maps.(slot) regs.(rk);
        exec_range (pc + 1) pc_hi
      | Ring_push (slot, rv) ->
        Map_store.push maps.(slot) regs.(rv);
        exec_range (pc + 1) pc_hi
      | Jmp off -> exec_range (pc + 1 + off) pc_hi
      | Jcond (c, ra, rb, off) ->
        if eval_cond c regs.(ra) regs.(rb) then exec_range (pc + 1 + off) pc_hi
        else exec_range (pc + 1) pc_hi
      | Jcond_imm (c, ra, v, off) ->
        if eval_cond c regs.(ra) v then exec_range (pc + 1 + off) pc_hi
        else exec_range (pc + 1) pc_hi
      | Rep (count, body_len) ->
        for _ = 1 to count do
          exec_range (pc + 1) (pc + body_len)
        done;
        exec_range (pc + 1 + body_len) pc_hi
      | Call id ->
        let arity = Helper.arity helpers id in
        let args = Array.init arity (fun i -> regs.(i + 1)) in
        let raw = Helper.invoke helpers id env args in
        let cost = Helper.privacy_cost helpers id in
        let result =
          if cost = 0 then raw
          else begin
            match privacy with
            | None ->
              incr denied;
              0
            | Some acct ->
              (match
                 Privacy.noisy_result acct ~rng ~cost_milli:cost ~sensitivity:1 raw
               with
               | Some noisy -> noisy
               | None ->
                 incr denied;
                 0)
          end
        in
        regs.(0) <- result;
        for r = 1 to 5 do
          regs.(r) <- 0
        done;
        exec_range (pc + 1) pc_hi
      | Call_ml (slot, off, len) ->
        let features = Array.init len (fun i -> vmem.(off + i)) in
        regs.(0) <- Model_store.predict store models.(slot) features;
        for r = 1 to 5 do
          regs.(r) <- 0
        done;
        exec_range (pc + 1) pc_hi
      | Vec_ld_ctxt (dst, key, len) ->
        for i = 0 to len - 1 do
          vmem.(dst + i) <- Ctxt.get ctxt (key + i)
        done;
        exec_range (pc + 1) pc_hi
      | Vec_ld_map (dst, slot, rk, len) ->
        let base = regs.(rk) in
        for i = 0 to len - 1 do
          vmem.(dst + i) <- Map_store.lookup maps.(slot) (base + i)
        done;
        exec_range (pc + 1) pc_hi
      | Vec_st_reg (off, rs) ->
        vmem.(off) <- regs.(rs);
        exec_range (pc + 1) pc_hi
      | Vec_ld_reg (rd, off) ->
        regs.(rd) <- vmem.(off);
        exec_range (pc + 1) pc_hi
      | Vec_i2f (off, len) ->
        for i = 0 to len - 1 do
          vmem.(off + i) <- Kml.Fixed.to_raw (Kml.Fixed.of_int vmem.(off + i))
        done;
        exec_range (pc + 1) pc_hi
      | Mat_mul (dst, cid, src) ->
        let c = prog.consts.(cid) in
        let data = c.Program.data in
        let rows = c.Program.rows and cols = c.Program.cols in
        let x = Array.init cols (fun j -> vmem.(src + j)) in
        for i = 0 to rows - 1 do
          let acc = ref 0 in
          for j = 0 to cols - 1 do
            acc := fix_add !acc (fix_mul data.((i * cols) + j) x.(j))
          done;
          vmem.(dst + i) <- !acc
        done;
        exec_range (pc + 1) pc_hi
      | Vec_add_const (dst, cid) ->
        let c = prog.consts.(cid) in
        for i = 0 to c.Program.cols - 1 do
          vmem.(dst + i) <- fix_add vmem.(dst + i) c.Program.data.(i)
        done;
        exec_range (pc + 1) pc_hi
      | Vec_relu (off, len) ->
        for i = 0 to len - 1 do
          if vmem.(off + i) < 0 then vmem.(off + i) <- 0
        done;
        exec_range (pc + 1) pc_hi
      | Vec_argmax (rd, off, len) ->
        let best = ref 0 in
        for i = 1 to len - 1 do
          if vmem.(off + i) > vmem.(off + !best) then best := i
        done;
        regs.(rd) <- !best;
        exec_range (pc + 1) pc_hi
      | Tail_call _ -> fail_prog prog "reference: unexpected Tail_call"
      | Exit -> raise (Ref_exit regs.(0))
    end
  in
  match exec_range 0 (Array.length code - 1) with
  | () -> (0, !steps, !denied)
  | exception Ref_exit r -> (r, !steps, !denied)

(* ------------------------------------------------------------------ *)
(* Four-way differential driver.                                       *)
(* ------------------------------------------------------------------ *)

let dump_ctxt ctxt = List.sort compare (Ctxt.fold (fun k v acc -> (k, v) :: acc) ctxt [])

let dump_map m =
  match (Map_store.spec m).Map_store.kind with
  | Map_store.Ring_buffer -> Array.to_list (Map_store.ring_contents m)
  | _ ->
    List.concat_map
      (fun (k, v) -> [ k; v ])
      (List.sort compare (Map_store.fold (fun k v acc -> (k, v) :: acc) m []))

let run ?(seed = 0x50FA) ~trials () =
 (* Ambient fault injection (RKD_FAULTS) would make the three executions
    draw different fault schedules and disagree spuriously; the
    differential only means something on the stock semantics. *)
 Fault.without @@ fun () ->
  let master = Kml.Rng.create seed in
  let helpers = Helper.with_defaults () in
  let accepted = ref 0 and rejected = ref 0 and claims = ref 0 in
  let batch_slots = ref 0 in
  for trial = 0 to trials - 1 do
    let rng = Kml.Rng.split master trial in
    let prog = gen_program rng in
    let store = Model_store.create () in
    let fn_model =
      Model_store.Fn
        { n_features = 3;
          cost = Kml.Model_cost.zero;
          f = (fun fs -> (fs.(0) + (2 * fs.(1)) - fs.(2)) land 7) }
    in
    let handle = Model_store.register store ~name:"fuzz-model" fn_model in
    let models =
      if Array.length prog.Program.model_arity > 0 then [| handle |] else [||]
    in
    let model_costs = Array.map (fun _ -> Kml.Model_cost.zero) models in
    match Verifier.check ~helpers ~model_costs prog with
    | Error _ -> incr rejected
    | Ok report ->
      incr accepted;
      let ai = Absint.analyze ~helpers prog in
      let bindings =
        List.init (Kml.Rng.int rng 16) (fun _ ->
            (Kml.Rng.int rng 200, Kml.Rng.int rng 400 - 100))
      in
      let rng_seed = Kml.Rng.int rng 1_000_000 in
      (* Reference first: it validates the reachability and interval claims
         the verifier admits programs on. *)
      let fresh_maps () = Array.of_list (List.map Map_store.create map_specs) in
      let ref_maps = fresh_maps () in
      let ref_ctxt = Ctxt.of_list bindings in
      let ref_out =
        ref_run prog ~helpers ~maps:ref_maps ~store ~models ~rng_seed
          ~facts:ai.Absint.facts ~claims ~ctxt:ref_ctxt
      in
      (* Lanes 2 and 3: the interpreter and JIT. *)
      let engine_out use_jit =
        let maps = fresh_maps () in
        let loaded =
          Loaded.link ~rng:(Kml.Rng.create rng_seed) ~store ~helpers ~maps ~models prog
        in
        let ctxt = Ctxt.of_list bindings in
        let now () = now_value in
        let o =
          if use_jit then Jit.run (Jit.compile loaded) ~ctxt ~now
          else Interp.run loaded ~ctxt ~now
        in
        ((o.Interp.result, o.Interp.steps, o.Interp.privacy_denied), ctxt, maps)
      in
      let interp_out, interp_ctxt, interp_maps = engine_out false in
      let jit_out, jit_ctxt, jit_maps = engine_out true in
      let (_, ref_steps, _) = ref_out in
      if interp_out <> ref_out then
        fail_prog prog "interp disagrees with reference (trial %d)" trial;
      if jit_out <> ref_out then fail_prog prog "jit disagrees with reference (trial %d)" trial;
      if dump_ctxt interp_ctxt <> dump_ctxt ref_ctxt then
        fail_prog prog "interp ctxt state diverged (trial %d)" trial;
      if dump_ctxt jit_ctxt <> dump_ctxt ref_ctxt then
        fail_prog prog "jit ctxt state diverged (trial %d)" trial;
      for slot = 0 to Array.length ref_maps - 1 do
        if dump_map interp_maps.(slot) <> dump_map ref_maps.(slot) then
          fail_prog prog "interp map %d state diverged (trial %d)" slot trial;
        if dump_map jit_maps.(slot) <> dump_map ref_maps.(slot) then
          fail_prog prog "jit map %d state diverged (trial %d)" slot trial
      done;
      if ref_steps > report.Verifier.worst_case_steps then
        fail_prog prog "steps %d exceed verifier worst case %d (trial %d)" ref_steps
          report.Verifier.worst_case_steps trial;
      (* Lane 4: the batch path.  A batch of 1 must reproduce scalar
         semantics for every program (non-batchable programs take the
         per-slot fallback); SoA-eligible programs additionally run a
         batch of 3 identical slots, each of which must reproduce the
         reference bit-for-bit — including the shared broadcast step
         count. *)
      let batch_lane k =
        let maps = fresh_maps () in
        let loaded =
          Loaded.link ~rng:(Kml.Rng.create rng_seed) ~store ~helpers ~maps ~models prog
        in
        let vm = Vm.create ~engine:Vm.Jit_compiled loaded in
        let b = Batch.create ~capacity:k in
        for s = 0 to k - 1 do
          b.Batch.ctxts.(s) <- Ctxt.of_list bindings
        done;
        Vm.invoke_batch vm b ~now:(fun () -> now_value);
        (b, maps)
      in
      let check_batch_slot k (b : Batch.t) s =
        (match b.Batch.traps.(s) with
         | Some trap ->
           fail_prog prog "batch(%d) slot %d trapped: %s (trial %d)" k s
             (Interp.trap_message trap) trial
         | None -> ());
        if (b.Batch.results.(s), b.Batch.steps.(s), b.Batch.denied.(s)) <> ref_out then
          fail_prog prog "batch(%d) slot %d disagrees with reference (trial %d)" k s trial;
        if dump_ctxt b.Batch.ctxts.(s) <> dump_ctxt ref_ctxt then
          fail_prog prog "batch(%d) slot %d ctxt state diverged (trial %d)" k s trial;
        incr batch_slots
      in
      let b1, b1_maps = batch_lane 1 in
      check_batch_slot 1 b1 0;
      for slot = 0 to Array.length ref_maps - 1 do
        if dump_map b1_maps.(slot) <> dump_map ref_maps.(slot) then
          fail_prog prog "batch(1) map %d state diverged (trial %d)" slot trial
      done;
      let eligible =
        let maps = fresh_maps () in
        let loaded =
          Loaded.link ~rng:(Kml.Rng.create rng_seed) ~store ~helpers ~maps ~models prog
        in
        Jit.batch_eligible (Jit.compile loaded)
      in
      if eligible then begin
        (* SoA-eligible programs touch no maps, so only ctxts/columns are
           compared; identical inputs must give identical slots. *)
        let b3, _ = batch_lane 3 in
        for s = 0 to 2 do
          check_batch_slot 3 b3 s
        done
      end
  done;
  { trials;
    accepted = !accepted;
    rejected = !rejected;
    claims_checked = !claims;
    batch_slots_checked = !batch_slots }

(* ------------------------------------------------------------------ *)
(* Wire-format robustness fuzzer.                                      *)
(* ------------------------------------------------------------------ *)

type decode_stats = {
  d_trials : int;
  mutations : int;
  decoded_ok : int;    (** mutated images that still decoded *)
  decoded_error : int; (** mutated images rejected with [Error] *)
  roundtrips : int;
}

let pp_decode_stats fmt s =
  Format.fprintf fmt
    "%d programs, %d mutated images: %d decoded, %d rejected, %d exact roundtrips" s.d_trials
    s.mutations s.decoded_ok s.decoded_error s.roundtrips

(* Every generated program must roundtrip exactly through the wire format,
   and every mutation of its image — bit flips, truncations, random
   suffixes — must come back as [Ok]/[Error], never as an exception.  This
   is the containment audit behind `rkdctl decode-fuzz` (ISSUE 5). *)
let decode_fuzz ?(seed = 0xdec0de) ~trials () =
 Fault.without @@ fun () ->
  let master = Kml.Rng.create seed in
  let mutations = ref 0 and ok = ref 0 and err = ref 0 and roundtrips = ref 0 in
  for trial = 0 to trials - 1 do
    let rng = Kml.Rng.split master trial in
    let prog = gen_program rng in
    let image = Encoding.encode prog in
    (match Encoding.decode image with
     | Ok prog' ->
       if Encoding.encode prog' <> image then
         fail_prog prog "decode/encode roundtrip not exact (trial %d)" trial;
       incr roundtrips
     | Error e -> fail_prog prog "pristine image failed to decode: %s (trial %d)" e trial);
    let len = Bytes.length image in
    for m = 0 to 7 do
      let mutated = Bytes.copy image in
      let mutated =
        match Kml.Rng.int rng 4 with
        | 0 | 1 ->
          (* flip 1-8 random bits *)
          for _ = 0 to Kml.Rng.int rng 8 do
            let bit = Kml.Rng.int rng (len * 8) in
            let i = bit / 8 and b = bit land 7 in
            Bytes.set mutated i (Char.chr (Char.code (Bytes.get mutated i) lxor (1 lsl b)))
          done;
          mutated
        | 2 -> Bytes.sub mutated 0 (Kml.Rng.int rng (len + 1)) (* truncate *)
        | _ ->
          let extra = Bytes.init (1 + Kml.Rng.int rng 16) (fun _ -> Char.chr (Kml.Rng.int rng 256)) in
          Bytes.cat mutated extra (* trailing garbage *)
      in
      incr mutations;
      match Encoding.decode mutated with
      | Ok _ -> incr ok
      | Error _ -> incr err
      | exception e ->
        fail_prog prog "decode raised %s on mutated image (trial %d, mutation %d)"
          (Printexc.to_string e) trial m
    done
  done;
  { d_trials = trials;
    mutations = !mutations;
    decoded_ok = !ok;
    decoded_error = !err;
    roundtrips = !roundtrips }
