(* Absint-fact consumer: datapath program lint (DESIGN.md section 15).

   Every rule reads either the verifier report's per-pc facts or
   structural properties of the bytecode; none re-runs the abstract
   interpreter.  The one analysis this module adds itself is a backward
   register-liveness pass over the verifier-shaped CFG (forward jumps
   plus [Rep] back-edges), which the verifier does not need but
   dead-store detection does. *)

module I = Rmt.Insn

type severity = Warn | Deny

type finding = { rule : string; pc : int; severity : severity; message : string }

let severity_name = function Warn -> "warn" | Deny -> "deny"

let pp_finding ppf f =
  if f.pc >= 0 then
    Format.fprintf ppf "[%s] %s at pc %d: %s" (severity_name f.severity) f.rule f.pc
      f.message
  else Format.fprintf ppf "[%s] %s: %s" (severity_name f.severity) f.rule f.message

(* ------------------------------------------------------------------ *)
(* Register def/use per instruction, as bitmasks over r0..r15.

   Conservative in the direction that produces FEWER findings: [Call]
   kills only r0 (though the convention also clobbers r1-r5), so a store
   into an argument register stays live through the call; [Call_ml]
   likewise.  A register is "defined purely" only when the instruction
   has no effect beyond the register write — those are the only sites
   dead-store may flag. *)

let bit r = 1 lsl r
let bits l = List.fold_left (fun acc r -> acc lor bit r) 0 l

let defs = function
  | I.Ld_imm (rd, _) | I.Mov (rd, _) | I.Alu (_, rd, _) | I.Alu_imm (_, rd, _)
  | I.Ld_ctxt (rd, _) | I.Ld_ctxt_k (rd, _) | I.Map_lookup (rd, _, _)
  | I.Vec_ld_reg (rd, _) | I.Vec_argmax (rd, _, _) -> bit rd
  | I.Call _ | I.Call_ml _ -> bit 0
  | _ -> 0

let uses = function
  | I.Mov (_, rs) -> bit rs
  | I.Alu (_, rd, rs) -> bits [ rd; rs ]
  | I.Alu_imm (_, rd, _) -> bit rd
  | I.Ld_ctxt (_, rk) -> bit rk
  | I.St_ctxt (_, rs) -> bit rs
  | I.St_ctxt_r (rk, rs) -> bits [ rk; rs ]
  | I.Map_lookup (_, _, rk) -> bit rk
  | I.Map_update (_, rk, rv) -> bits [ rk; rv ]
  | I.Map_delete (_, rk) -> bit rk
  | I.Ring_push (_, rv) -> bit rv
  | I.Jcond (_, ra, rb, _) -> bits [ ra; rb ]
  | I.Jcond_imm (_, ra, _, _) -> bit ra
  | I.Call _ -> bits [ 1; 2; 3; 4; 5 ]
  | I.Vec_ld_map (_, _, rk, _) -> bit rk
  | I.Vec_st_reg (_, rs) -> bit rs
  | I.Exit -> bit 0
  | _ -> 0

(* Instructions whose only effect is their register write: eligible
   dead-store sites.  [Map_lookup] is excluded (LRU recency side
   effect), calls are excluded (helper/model side effects). *)
let pure_def = function
  | I.Ld_imm _ | I.Mov _ | I.Alu _ | I.Alu_imm _ | I.Ld_ctxt _ | I.Ld_ctxt_k _
  | I.Vec_ld_reg _ | I.Vec_argmax _ -> true
  | _ -> false

(* Successor pcs, verifier-shaped: forward jumps only, [Rep] bodies
   well-nested with a back-edge from the last body instruction to the
   first.  [Tail_call]/[Exit] leave the program. *)
let successors code pc =
  let n = Array.length code in
  let fall = if pc + 1 < n then [ pc + 1 ] else [] in
  let base =
    match code.(pc) with
    | I.Jmp off -> [ pc + 1 + off ]
    | I.Jcond (_, _, _, off) | I.Jcond_imm (_, _, _, off) ->
      fall @ [ pc + 1 + off ]
    | I.Tail_call _ | I.Exit -> []
    | _ -> fall
  in
  (* Rep back-edges: the last instruction of a Rep body also loops back
     to the body's first instruction. *)
  let extra = ref [] in
  Array.iteri
    (fun r insn ->
      match insn with
      | I.Rep (_, len) when len > 0 && pc = r + len -> extra := (r + 1) :: !extra
      | _ -> ())
    code;
  List.sort_uniq compare (base @ !extra)

(* Backward liveness to a fixpoint; returns live-out bitmask per pc. *)
let live_out code =
  let n = Array.length code in
  let live_in = Array.make n 0 in
  let out = Array.make n 0 in
  let changed = ref true in
  while !changed do
    changed := false;
    for pc = n - 1 downto 0 do
      let o = List.fold_left (fun acc s -> acc lor live_in.(s)) 0 (successors code pc) in
      let i = uses code.(pc) lor (o land lnot (defs code.(pc))) in
      if o <> out.(pc) || i <> live_in.(pc) then begin
        out.(pc) <- o;
        live_in.(pc) <- i;
        changed := true
      end
    done
  done;
  out

(* ------------------------------------------------------------------ *)
(* Rules *)

let reachable facts pc = pc < Array.length facts && facts.(pc) <> None

let dead_stores facts (prog : Rmt.Program.t) =
  let out = live_out prog.code in
  let fs = ref [] in
  Array.iteri
    (fun pc insn ->
      if pure_def insn && reachable facts pc then begin
        let d = defs insn in
        if d <> 0 && d land out.(pc) = 0 then
          let r =
            let rec find i = if d land bit i <> 0 then i else find (i + 1) in
            find 0
          in
          fs :=
            { rule = "dead-store";
              pc;
              severity = Warn;
              message =
                Printf.sprintf "r%d written by `%s` is never read on any path" r
                  (I.to_string insn) }
            :: !fs
      end)
    prog.code;
  List.rev !fs

let unreachable_code facts (prog : Rmt.Program.t) =
  let fs = ref [] in
  Array.iteri
    (fun pc insn ->
      if pc < Array.length facts && facts.(pc) = None then
        fs :=
          { rule = "unreachable";
            pc;
            severity = Warn;
            message = Printf.sprintf "`%s` is unreachable on every path" (I.to_string insn) }
          :: !fs)
    prog.code;
  List.rev !fs

(* A conditional whose comparison is infeasible on the interval facts
   flowing into it is never taken; one whose negation is infeasible is
   always taken. *)
let dead_arms facts (prog : Rmt.Program.t) =
  let module Iv = Rmt.Absint.Interval in
  let fs = ref [] in
  let flag pc rule what =
    fs :=
      { rule;
        pc;
        severity = Warn;
        message = Printf.sprintf "`%s` is %s" (I.to_string prog.code.(pc)) what }
      :: !fs
  in
  Array.iteri
    (fun pc insn ->
      let operands =
        match insn, if pc < Array.length facts then facts.(pc) else None with
        | I.Jcond (c, ra, rb, _), Some f -> Some (c, f.Rmt.Absint.regs.(ra), f.regs.(rb))
        | I.Jcond_imm (c, ra, imm, _), Some f -> Some (c, f.Rmt.Absint.regs.(ra), Iv.const imm)
        | _ -> None
      in
      match operands with
      | None -> ()
      | Some (c, a, b) ->
        if Iv.refine c a b = None then
          flag pc "branch-never" "never taken: the branch is a constant fall-through"
        else if Iv.refine (Iv.negate_cond c) a b = None then
          flag pc "branch-always" "always taken: the fall-through arm is dead")
    prog.code;
  List.rev !fs

(* A guard branch at [pc] skipping [pc+1 .. pc+off] is redundant when
   the skipped region's first use of the guarded register is an
   operation the runtime already makes total for the guarded value:
   Div/Mod by zero yield 0 ([Insn.eval_alu]), and negative dynamic
   context keys read 0 / drop the store (the engines' own key guard). *)
let redundant_guards facts (prog : Rmt.Program.t) =
  let n = Array.length prog.code in
  let fs = ref [] in
  Array.iteri
    (fun pc insn ->
      if reachable facts pc then
        match insn with
        | I.Jcond_imm (cond, r, 0, off) when off > 0 && pc + 1 + off <= n ->
          let matched = ref None in
          let stop = ref false in
          for i = pc + 1 to Stdlib.min (n - 1) (pc + off) do
            if (not !stop) && !matched = None then begin
              (match (cond, prog.code.(i)) with
               | I.Eq, I.Alu ((I.Div | I.Mod), _, rs) when rs = r ->
                 matched :=
                   Some
                     (Printf.sprintf
                        "zero guard over `%s` at pc %d is redundant: Div/Mod by 0 yield 0"
                        (I.to_string prog.code.(i)) i)
               | I.Lt, (I.Ld_ctxt (_, rk) | I.St_ctxt_r (rk, _)) when rk = r ->
                 matched :=
                   Some
                     (Printf.sprintf
                        "negative-key guard over `%s` at pc %d is redundant: the engines \
                         guard dynamic context keys"
                        (I.to_string prog.code.(i)) i)
               | _ -> ());
              if !matched = None && defs prog.code.(i) land bit r <> 0 then stop := true
            end
          done;
          (match !matched with
           | Some message ->
             fs := { rule = "redundant-guard"; pc; severity = Warn; message } :: !fs
           | None -> ())
        | _ -> ())
    prog.code;
  List.rev !fs

(* Taint laundering: the taint domain treats map contents as
   already-exported (reads come back clean), which is sound only when
   nothing tainted was written into the map by this very program.  A
   reachable lookup of a slot that a reachable update may have filled
   with tainted data launders taint past the privacy flow check. *)
let unclean_map_reads facts (prog : Rmt.Program.t) =
  let tainted_update_slot = Hashtbl.create 4 in
  Array.iteri
    (fun pc insn ->
      match insn with
      | I.Map_update (slot, _, rv) ->
        (match if pc < Array.length facts then facts.(pc) else None with
         | Some f when f.Rmt.Absint.taint land bit rv <> 0 ->
           if not (Hashtbl.mem tainted_update_slot slot) then
             Hashtbl.replace tainted_update_slot slot pc
         | _ -> ())
      | _ -> ())
    prog.code;
  let fs = ref [] in
  Array.iteri
    (fun pc insn ->
      match insn with
      | I.Map_lookup (_, slot, _) when reachable facts pc ->
        (match Hashtbl.find_opt tainted_update_slot slot with
         | Some upd ->
           fs :=
             { rule = "unclean-map-read";
               pc;
               severity = Deny;
               message =
                 Printf.sprintf
                   "map#%d read back after a possibly-tainted update at pc %d: the read \
                    launders taint past the privacy checks"
                   slot upd }
             :: !fs
         | None -> ())
      | _ -> ())
    prog.code;
  List.rev !fs

(* Declared-but-unreferenced pool entries and kernel-object slots: each
   pins memory at link time for nothing. *)
let unused_decls (prog : Rmt.Program.t) =
  let const_used = Array.make (Array.length prog.consts) false in
  let map_used = Array.make (Array.length prog.map_specs) false in
  let model_used = Array.make (Array.length prog.model_arity) false in
  let prog_used = Array.make (Stdlib.max 0 prog.n_prog_slots) false in
  let mark arr i = if i >= 0 && i < Array.length arr then arr.(i) <- true in
  Array.iter
    (fun insn ->
      match insn with
      | I.Mat_mul (_, cid, _) | I.Vec_add_const (_, cid) -> mark const_used cid
      | I.Map_lookup (_, slot, _) | I.Map_update (slot, _, _) | I.Map_delete (slot, _)
      | I.Ring_push (slot, _) | I.Vec_ld_map (_, slot, _, _) -> mark map_used slot
      | I.Call_ml (slot, _, _) -> mark model_used slot
      | I.Tail_call slot -> mark prog_used slot
      | _ -> ())
    prog.code;
  let fs = ref [] in
  let flag rule message = fs := { rule; pc = -1; severity = Warn; message } :: !fs in
  Array.iteri
    (fun i used ->
      if not used then
        flag "unused-const"
          (Printf.sprintf "constant-pool entry %d (%s, %d words) is never referenced" i
             prog.consts.(i).Rmt.Program.name
             (prog.consts.(i).Rmt.Program.rows * prog.consts.(i).Rmt.Program.cols)))
    const_used;
  Array.iteri
    (fun i used ->
      if not used then
        flag "unused-map" (Printf.sprintf "map slot %d is declared but never accessed" i))
    map_used;
  Array.iteri
    (fun i used ->
      if not used then
        flag "unused-model"
          (Printf.sprintf "model slot %d (arity %d) is declared but never invoked" i
             prog.model_arity.(i)))
    model_used;
  Array.iteri
    (fun i used ->
      if not used then
        flag "unused-prog-slot"
          (Printf.sprintf "tail-call slot %d is declared but never targeted" i))
    prog_used;
  List.rev !fs

(* Highest scratchpad word any vector instruction can touch.  [Mat_mul]
   and [Vec_add_const] reach as far as their constant's dimensions. *)
let vmem_reach (prog : Rmt.Program.t) insn =
  let const i =
    if i >= 0 && i < Array.length prog.consts then Some prog.consts.(i) else None
  in
  match insn with
  | I.Call_ml (_, off, len) | I.Vec_i2f (off, len) | I.Vec_relu (off, len)
  | I.Vec_argmax (_, off, len) | I.Vec_ld_ctxt (off, _, len)
  | I.Vec_ld_map (off, _, _, len) -> off + len
  | I.Vec_st_reg (off, _) | I.Vec_ld_reg (_, off) -> off + 1
  | I.Mat_mul (dst, cid, src) ->
    (match const cid with
     | Some c -> Stdlib.max (dst + c.Rmt.Program.rows) (src + c.Rmt.Program.cols)
     | None -> 0)
  | I.Vec_add_const (dst, cid) ->
    (match const cid with Some c -> dst + c.Rmt.Program.cols | None -> 0)
  | _ -> 0

(* The scratchpad is zeroed on every invocation, so declared-but-idle
   words are a pure per-run cost; small slack is fine. *)
let oversized_vmem_slack = 32

let oversized_vmem (prog : Rmt.Program.t) =
  let reach = Array.fold_left (fun acc i -> Stdlib.max acc (vmem_reach prog i)) 0 prog.code in
  let wasted = prog.vmem_size - reach in
  if prog.vmem_size > 0 && wasted > oversized_vmem_slack then
    [ { rule = "oversized-vmem";
        pc = -1;
        severity = Warn;
        message =
          Printf.sprintf
            "scratchpad declares %d words but code touches at most %d (%d words zeroed \
             per invocation for nothing)"
            prog.vmem_size reach wasted } ]
  else []

(* ------------------------------------------------------------------ *)

let of_report (report : Rmt.Verifier.report) (prog : Rmt.Program.t) =
  let facts = report.Rmt.Verifier.facts in
  let order f = ((if f.pc < 0 then max_int else f.pc), f.rule, f.message) in
  List.stable_sort
    (fun a b -> compare (order a) (order b))
    (List.concat
       [ dead_stores facts prog;
         unreachable_code facts prog;
         dead_arms facts prog;
         redundant_guards facts prog;
         unclean_map_reads facts prog;
         unused_decls prog;
         oversized_vmem prog ])

let analyze ~helpers prog =
  match Rmt.Verifier.check_structure_only ~helpers prog with
  | Error v -> Error (Rmt.Verifier.violation_to_string v)
  | Ok report -> Ok (of_report report prog)

let install_gate ~mode () : Rmt.Control.install_gate =
 fun report prog ->
  match of_report report prog with
  | [] -> Rmt.Control.Gate_ok
  | findings ->
    let msgs = List.map (Format.asprintf "%a" pp_finding) findings in
    (match mode with
     | `Warn -> Rmt.Control.Gate_warn msgs
     | `Deny -> Rmt.Control.Gate_deny msgs)

let resource_waste report prog ~(budget : Rmt.Resource.budget) =
  let r = Rmt.Resource.of_report report prog in
  [ ("steps", r.Rmt.Resource.steps, budget.Rmt.Resource.max_steps);
    ("scratch_words", r.Rmt.Resource.scratch_words, budget.Rmt.Resource.max_scratch_words);
    ("table_slots", r.Rmt.Resource.table_slots, budget.Rmt.Resource.max_table_slots) ]

let json_escape s =
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let findings_to_json ~program findings =
  let finding f =
    Printf.sprintf "{\"rule\":\"%s\",\"pc\":%d,\"severity\":\"%s\",\"message\":\"%s\"}"
      (json_escape f.rule) f.pc (severity_name f.severity) (json_escape f.message)
  in
  Printf.sprintf "{\"program\":\"%s\",\"findings\":[%s]}" (json_escape program)
    (String.concat "," (List.map finding findings))
