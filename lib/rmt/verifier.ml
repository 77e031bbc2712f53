type limits = {
  max_code_len : int;
  max_vmem : int;
  max_rep_count : int;
  max_steps : int;
  max_const_words : int;
  max_tail_call_depth : int;
}

let default_limits =
  { max_code_len = 4096;
    max_vmem = 1024;
    max_rep_count = 4096;
    max_steps = 1_000_000;
    max_const_words = 1 lsl 20;
    max_tail_call_depth = 32 }

type report = {
  worst_case_steps : int;
  ml_cost : Kml.Model_cost.t;
  uses_privacy : bool;
  model_slots_used : int list;
  helper_ids_used : int list;
  facts : Absint.fact option array;
}

type violation =
  | Empty_program
  | Code_too_long of int
  | Vmem_too_large of int
  | Const_pool_too_large of int
  | Bad_register of { pc : int; reg : int }
  | Bad_map_slot of { pc : int; slot : int }
  | Bad_model_slot of { pc : int; slot : int }
  | Bad_prog_slot of { pc : int; slot : int }
  | Bad_helper of { pc : int; id : int }
  | Bad_const of { pc : int; id : int }
  | Negative_ctxt_key of { pc : int; key : int }
  | Vmem_out_of_bounds of { pc : int }
  | Backward_jump of { pc : int; target : int }
  | Jump_out_of_range of { pc : int; target : int }
  | Jump_escapes_loop of { pc : int; target : int }
  | Bad_rep of { pc : int; count : int; body_len : int }
  | Falls_off_end of { pc : int }
  | Steps_exceeded of { worst_case : int; allowed : int }
  | Uninitialized_register of { pc : int; reg : int }
  | Missing_privacy_budget of { pc : int; helper : int }
  | Model_arity_mismatch of { pc : int; slot : int; expected : int; got : int }
  | Ml_cost_exceeded of { cost : Kml.Model_cost.t }
  | Ctxt_key_unproven of { pc : int; reg : int }
  | Vmem_index_unproven of { pc : int }
  | Privacy_flow of { pc : int; reg : int }

let pp_violation fmt = function
  | Empty_program -> Format.fprintf fmt "empty program"
  | Code_too_long n -> Format.fprintf fmt "code too long (%d instructions)" n
  | Vmem_too_large n -> Format.fprintf fmt "vector scratchpad too large (%d words)" n
  | Const_pool_too_large n -> Format.fprintf fmt "constant pool too large (%d words)" n
  | Bad_register { pc; reg } -> Format.fprintf fmt "pc %d: register r%d out of range" pc reg
  | Bad_map_slot { pc; slot } -> Format.fprintf fmt "pc %d: undeclared map slot %d" pc slot
  | Bad_model_slot { pc; slot } -> Format.fprintf fmt "pc %d: undeclared model slot %d" pc slot
  | Bad_prog_slot { pc; slot } -> Format.fprintf fmt "pc %d: undeclared program slot %d" pc slot
  | Bad_helper { pc; id } -> Format.fprintf fmt "pc %d: unknown helper %d" pc id
  | Bad_const { pc; id } -> Format.fprintf fmt "pc %d: undeclared constant %d" pc id
  | Negative_ctxt_key { pc; key } -> Format.fprintf fmt "pc %d: negative context key %d" pc key
  | Vmem_out_of_bounds { pc } -> Format.fprintf fmt "pc %d: vector operand out of bounds" pc
  | Backward_jump { pc; target } -> Format.fprintf fmt "pc %d: backward jump to %d" pc target
  | Jump_out_of_range { pc; target } -> Format.fprintf fmt "pc %d: jump to %d out of range" pc target
  | Jump_escapes_loop { pc; target } ->
    Format.fprintf fmt "pc %d: jump to %d escapes enclosing rep body" pc target
  | Bad_rep { pc; count; body_len } ->
    Format.fprintf fmt "pc %d: invalid rep (count=%d, body=%d)" pc count body_len
  | Falls_off_end { pc } -> Format.fprintf fmt "pc %d: control can fall off the end" pc
  | Steps_exceeded { worst_case; allowed } ->
    Format.fprintf fmt "worst-case steps %d exceed budget %d" worst_case allowed
  | Uninitialized_register { pc; reg } ->
    Format.fprintf fmt "pc %d: read of uninitialized register r%d" pc reg
  | Missing_privacy_budget { pc; helper } ->
    Format.fprintf fmt "pc %d: helper %d is privacy-charged but no budget is declared" pc helper
  | Model_arity_mismatch { pc; slot; expected; got } ->
    Format.fprintf fmt "pc %d: model slot %d expects %d features, given %d" pc slot expected got
  | Ml_cost_exceeded { cost } ->
    Format.fprintf fmt "total model cost exceeds hook budget (%a)" Kml.Model_cost.pp cost
  | Ctxt_key_unproven { pc; reg } ->
    Format.fprintf fmt "pc %d: context key in r%d not proven non-negative" pc reg
  | Vmem_index_unproven { pc } ->
    Format.fprintf fmt "pc %d: vector map window not proven in bounds" pc
  | Privacy_flow { pc; reg } ->
    Format.fprintf fmt
      "pc %d: r%d may carry context-derived data into a map without a privacy budget" pc reg

let violation_to_string v = Format.asprintf "%a" pp_violation v

exception Reject of violation

let reject v = raise (Reject v)

(* ------------------------------------------------------------------ *)
(* Uses/defs per instruction under the eBPF calling convention.        *)
(* ------------------------------------------------------------------ *)

let reg_ok r = r >= 0 && r < Insn.n_registers

(* Registers read / written / clobbered by an instruction.  Clobbered
   registers become uninitialized after the instruction. *)
let uses_defs helpers pc (insn : Insn.t) =
  let module I = Insn in
  let caller_saved = [ 1; 2; 3; 4; 5 ] in
  let uses, defs, clobbers =
    match insn with
  | I.Ld_imm (rd, _) -> ([], [ rd ], [])
  | I.Mov (rd, rs) -> ([ rs ], [ rd ], [])
  | I.Alu (_, rd, rs) -> ([ rd; rs ], [ rd ], [])
  | I.Alu_imm (_, rd, _) -> ([ rd ], [ rd ], [])
  | I.Ld_ctxt (rd, rk) -> ([ rk ], [ rd ], [])
  | I.Ld_ctxt_k (rd, _) -> ([], [ rd ], [])
  | I.St_ctxt (_, rs) -> ([ rs ], [], [])
  | I.St_ctxt_r (rk, rs) -> ([ rk; rs ], [], [])
  | I.Map_lookup (rd, _, rk) -> ([ rk ], [ rd ], [])
  | I.Map_update (_, rk, rv) -> ([ rk; rv ], [], [])
  | I.Map_delete (_, rk) -> ([ rk ], [], [])
  | I.Ring_push (_, rv) -> ([ rv ], [], [])
  | I.Jmp _ -> ([], [], [])
  | I.Jcond (_, ra, rb, _) -> ([ ra; rb ], [], [])
  | I.Jcond_imm (_, ra, _, _) -> ([ ra ], [], [])
  | I.Rep _ -> ([], [], [])
  | I.Call id ->
    let arity = if Helper.mem helpers id then Helper.arity helpers id else 0 in
    (List.init arity (fun i -> i + 1), [ 0 ], caller_saved)
  | I.Call_ml _ -> ([], [ 0 ], caller_saved)
  | I.Vec_ld_ctxt _ -> ([], [], [])
  | I.Vec_ld_map (_, _, rk, _) -> ([ rk ], [], [])
  | I.Vec_st_reg (_, rs) -> ([ rs ], [], [])
  | I.Vec_ld_reg (rd, _) -> ([], [ rd ], [])
  | I.Mat_mul _ | I.Vec_add_const _ | I.Vec_relu _ | I.Vec_i2f _ -> ([], [], [])
  | I.Vec_argmax (rd, _, _) -> ([], [ rd ], [])
    | I.Tail_call _ -> ([], [], [])
    | I.Exit -> ([ 0 ], [], [])
  in
  List.iter (fun r -> if not (reg_ok r) then reject (Bad_register { pc; reg = r })) (uses @ defs);
  (uses, defs, clobbers)

(* ------------------------------------------------------------------ *)
(* Structural checks per instruction.                                  *)
(* ------------------------------------------------------------------ *)

let check_operands limits ~helpers (prog : Program.t) =
  let module I = Insn in
  let n_maps = Array.length prog.map_specs in
  let n_models = Array.length prog.model_arity in
  let n_consts = Array.length prog.consts in
  let vmem = prog.vmem_size in
  let vrange pc off len =
    if off < 0 || len < 0 || off + len > vmem then reject (Vmem_out_of_bounds { pc })
  in
  Array.iteri
    (fun pc insn ->
      match insn with
      | I.Ld_imm _ | I.Mov _ | I.Alu _ | I.Alu_imm _ | I.Ld_ctxt _ | I.Jmp _ | I.Jcond _
      | I.Jcond_imm _ | I.Exit ->
        ()
      | I.Ld_ctxt_k (_, key) | I.St_ctxt (key, _) ->
        if key < 0 then reject (Negative_ctxt_key { pc; key })
      | I.St_ctxt_r _ -> ()
      | I.Map_lookup (_, slot, _) | I.Map_update (slot, _, _) | I.Map_delete (slot, _)
      | I.Ring_push (slot, _) ->
        if slot < 0 || slot >= n_maps then reject (Bad_map_slot { pc; slot })
      | I.Rep (count, body_len) ->
        if count < 1 || count > limits.max_rep_count || body_len < 1 then
          reject (Bad_rep { pc; count; body_len });
        if pc + 1 + body_len > Array.length prog.code then
          reject (Bad_rep { pc; count; body_len })
      | I.Call id ->
        if not (Helper.mem helpers id) then reject (Bad_helper { pc; id })
      | I.Call_ml (slot, off, len) ->
        if slot < 0 || slot >= n_models then reject (Bad_model_slot { pc; slot });
        vrange pc off len;
        if prog.model_arity.(slot) <> len then
          reject
            (Model_arity_mismatch { pc; slot; expected = prog.model_arity.(slot); got = len })
      | I.Vec_ld_ctxt (dst, key, len) ->
        if key < 0 then reject (Negative_ctxt_key { pc; key });
        vrange pc dst len
      | I.Vec_ld_map (dst, slot, _, len) ->
        if slot < 0 || slot >= n_maps then reject (Bad_map_slot { pc; slot });
        vrange pc dst len
      | I.Vec_st_reg (off, _) | I.Vec_ld_reg (_, off) -> vrange pc off 1
      | I.Mat_mul (dst, cid, src) ->
        if cid < 0 || cid >= n_consts then reject (Bad_const { pc; id = cid });
        let c = prog.consts.(cid) in
        vrange pc dst c.Program.rows;
        vrange pc src c.Program.cols
      | I.Vec_add_const (dst, cid) ->
        if cid < 0 || cid >= n_consts then reject (Bad_const { pc; id = cid });
        let c = prog.consts.(cid) in
        if c.Program.rows <> 1 then reject (Bad_const { pc; id = cid });
        vrange pc dst c.Program.cols
      | I.Vec_relu (off, len) | I.Vec_argmax (_, off, len) | I.Vec_i2f (off, len) ->
        vrange pc off len
      | I.Tail_call slot ->
        if slot < 0 || slot >= prog.n_prog_slots then reject (Bad_prog_slot { pc; slot }))
    prog.code

(* ------------------------------------------------------------------ *)
(* Loop nesting: innermost enclosing Rep body end per pc, and the      *)
(* multiplicity (product of enclosing trip counts) per pc.             *)
(* ------------------------------------------------------------------ *)

let loop_structure limits (code : Insn.t array) =
  let n = Array.length code in
  let body_end = Array.make n (n - 1) in
  (* default: top level — may branch anywhere up to the last insn *)
  let weight = Array.make n 1 in
  let rec scan pc limit mult =
    (* annotate instructions in [pc, limit] with their innermost body end
       and loop multiplicity; recurse into Rep bodies *)
    if pc > limit then ()
    else begin
      body_end.(pc) <- limit;
      weight.(pc) <- mult;
      match code.(pc) with
      | Insn.Rep (count, body_len) ->
        let b_end = pc + body_len in
        if b_end > limit then reject (Bad_rep { pc; count; body_len });
        let inner_mult = mult * count in
        if inner_mult > limits.max_steps then
          reject (Steps_exceeded { worst_case = inner_mult; allowed = limits.max_steps });
        scan (pc + 1) b_end inner_mult;
        scan (b_end + 1) limit mult
      | _ -> scan (pc + 1) limit mult
    end
  in
  scan 0 (n - 1) 1;
  (body_end, weight)

(* ------------------------------------------------------------------ *)
(* Control flow and dataflow.                                          *)
(* ------------------------------------------------------------------ *)

let successors (code : Insn.t array) body_end pc =
  let n = Array.length code in
  let module I = Insn in
  let check_target target =
    if target <= pc then reject (Backward_jump { pc; target });
    if target >= n then reject (Jump_out_of_range { pc; target });
    (* A branch may leave its innermost rep body only to the instruction
       right after the body end ("continue"); anything further escapes. *)
    if target > body_end.(pc) + 1 then reject (Jump_escapes_loop { pc; target });
    target
  in
  let fallthrough () =
    if pc + 1 >= n then reject (Falls_off_end { pc });
    pc + 1
  in
  match code.(pc) with
  | I.Exit | I.Tail_call _ -> []
  | I.Jmp off -> [ check_target (pc + 1 + off) ]
  | I.Jcond (_, _, _, off) | I.Jcond_imm (_, _, _, off) ->
    let t = check_target (pc + 1 + off) in
    let ft = fallthrough () in
    if t = ft then [ t ] else [ ft; t ]
  | I.Rep (_, _) -> [ fallthrough () ]
  | I.Ld_imm _ | I.Mov _ | I.Alu _ | I.Alu_imm _ | I.Ld_ctxt _ | I.Ld_ctxt_k _ | I.St_ctxt _
  | I.St_ctxt_r _ | I.Map_lookup _ | I.Map_update _ | I.Map_delete _ | I.Ring_push _ | I.Call _
  | I.Call_ml _ | I.Vec_ld_ctxt _ | I.Vec_ld_map _ | I.Vec_st_reg _ | I.Vec_ld_reg _ | I.Mat_mul _
  | I.Vec_add_const _ | I.Vec_relu _ | I.Vec_argmax _ | I.Vec_i2f _ ->
    [ fallthrough () ]

(* A Rep body's exit falls through to the instruction after the body; since
   bodies are contiguous and control inside the body cannot escape, reaching
   body_end+1 happens exactly when the body's last reachable instruction
   falls through or a branch targets body_end+1.  The plain successor
   relation above already captures both. *)

let dataflow helpers (code : Insn.t array) body_end =
  let n = Array.length code in
  let bottom = -1 (* unreached marker *) in
  let in_state = Array.make n bottom in
  in_state.(0) <- 0;
  for pc = 0 to n - 1 do
    let st = in_state.(pc) in
    if st <> bottom then begin
      let uses, defs, clobbers = uses_defs helpers pc code.(pc) in
      List.iter
        (fun r ->
          if st land (1 lsl r) = 0 then reject (Uninitialized_register { pc; reg = r }))
        uses;
      let out = List.fold_left (fun acc r -> acc lor (1 lsl r)) st defs in
      let out = List.fold_left (fun acc r -> acc land lnot (1 lsl r)) out clobbers in
      (* defs win over clobbers (Call defines r0 after clobbering) *)
      let out = List.fold_left (fun acc r -> acc lor (1 lsl r)) out defs in
      List.iter
        (fun succ ->
          if in_state.(succ) = bottom then in_state.(succ) <- out
          else in_state.(succ) <- in_state.(succ) land out)
        (successors code body_end pc)
    end
  done

let sum_saturating a b =
  let s = a + b in
  if s < a then max_int else s

(* ------------------------------------------------------------------ *)
(* Main entry points.                                                  *)
(* ------------------------------------------------------------------ *)

let run_checks ~limits ~budget ~strict ~helpers ~model_costs (prog : Program.t) =
  let n = Array.length prog.code in
  if n = 0 then reject Empty_program;
  if n > limits.max_code_len then reject (Code_too_long n);
  if prog.vmem_size < 0 || prog.vmem_size > limits.max_vmem then
    reject (Vmem_too_large prog.vmem_size);
  let const_words =
    Array.fold_left (fun acc c -> acc + Array.length c.Program.data) 0 prog.consts
  in
  if const_words > limits.max_const_words then reject (Const_pool_too_large const_words);
  Array.iter
    (fun (c : Program.const) ->
      if Array.length c.data <> c.rows * c.cols then
        invalid_arg "Verifier: malformed constant (data length <> rows * cols)")
    prog.consts;
  check_operands limits ~helpers prog;
  let body_end, weight = loop_structure limits prog.code in
  (* Validate all successor edges eagerly (also catches fall-off / backward
     jumps on unreachable code, which we reject as malformed). *)
  Array.iteri (fun pc _ -> ignore (successors prog.code body_end pc)) prog.code;
  dataflow helpers prog.code body_end;
  (* Abstract interpretation: register intervals + taint.  Runs after the
     structural passes (it assumes well-formed control flow).  The taint
     violation is always enforced — it is an information-flow property the
     per-call-site privacy check cannot see; the bounds violations only
     reject under [strict] since unproven accesses still have total runtime
     semantics (they just keep their guards). *)
  let ai = Absint.analyze ~helpers prog in
  List.iter
    (fun issue ->
      match issue with
      | Absint.Tainted_sink { pc; reg } -> reject (Privacy_flow { pc; reg })
      | Absint.Unproven_ctxt_key { pc; reg } ->
        if strict then reject (Ctxt_key_unproven { pc; reg })
      | Absint.Unproven_map_window { pc } ->
        if strict then reject (Vmem_index_unproven { pc }))
    ai.Absint.issues;
  (* Worst-case dynamic steps: every instruction weighted by its loop
     multiplicity — restricted to instructions the abstract interpreter
     found reachable (infeasible branches make whole regions dead, so this
     is tighter than the purely structural sum and still an upper bound). *)
  let worst_case_steps = ref 0 in
  Array.iteri
    (fun pc w ->
      if ai.Absint.facts.(pc) <> None then
        worst_case_steps := sum_saturating !worst_case_steps w)
    weight;
  let worst_case_steps = !worst_case_steps in
  if worst_case_steps > limits.max_steps then
    reject (Steps_exceeded { worst_case = worst_case_steps; allowed = limits.max_steps });
  (* Capability + ML admission. *)
  let uses_privacy = ref false in
  let model_slots = ref [] and helper_ids = ref [] in
  let ml_cost = ref Kml.Model_cost.zero in
  Array.iteri
    (fun pc insn ->
      match insn with
      | Insn.Call id ->
        if not (List.mem id !helper_ids) then helper_ids := id :: !helper_ids;
        if Helper.privacy_cost helpers id > 0 then begin
          uses_privacy := true;
          if Program.privacy_budget prog = None then
            reject (Missing_privacy_budget { pc; helper = id })
        end
      | Insn.Call_ml (slot, _, _) ->
        if not (List.mem slot !model_slots) then model_slots := slot :: !model_slots;
        if slot < Array.length model_costs then begin
          let c = model_costs.(slot) in
          let w = weight.(pc) in
          ml_cost :=
            Kml.Model_cost.add !ml_cost
              { Kml.Model_cost.macs = w * c.Kml.Model_cost.macs;
                comparisons = w * c.Kml.Model_cost.comparisons;
                memory_words = c.Kml.Model_cost.memory_words }
        end
      | _ -> ())
    prog.code;
  if not (Kml.Model_cost.within !ml_cost budget) then
    reject (Ml_cost_exceeded { cost = !ml_cost });
  { worst_case_steps;
    ml_cost = !ml_cost;
    uses_privacy = !uses_privacy;
    model_slots_used = List.sort compare !model_slots;
    helper_ids_used = List.sort compare !helper_ids;
    facts = ai.Absint.facts }

let check ?(limits = default_limits) ?(budget = Kml.Model_cost.default_budget)
    ?(strict = false) ~helpers ~model_costs prog =
  match run_checks ~limits ~budget ~strict ~helpers ~model_costs prog with
  | report -> Ok report
  | exception Reject v -> Error v

let check_structure_only ?(limits = default_limits) ?strict ~helpers prog =
  let model_costs = Array.map (fun _ -> Kml.Model_cost.zero) prog.Program.model_arity in
  check ~limits ~budget:Kml.Model_cost.default_budget ?strict ~helpers ~model_costs prog
