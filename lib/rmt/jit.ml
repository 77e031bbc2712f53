type st = {
  regs : int array;
  mutable ctxt : Ctxt.t;
  mutable now : unit -> int;
  mutable steps : int;
  mutable denied : int;
  mutable tail_slot : int;
  mutable result : int;
}

(* Direct-threaded closure protocol: each compiled instruction is a closure
   that performs its effect and tail-calls its successor closure directly —
   there is no driver loop and no pc.  A chain terminates by returning a
   code: [code_done] (control reached the end of the compiled range — a Rep
   body iteration finished, or the whole program fell off the end),
   [code_exit] (result in [st.result]) or [code_tail] (slot in
   [st.tail_slot]).  Because every successor call is a tail call, chains run
   in constant stack; only Rep nesting consumes stack frames. *)
let code_done = 0
let code_exit = 1
let code_tail = 2

type unit_code = { entry : st -> int; loaded : Loaded.t }

(* --------------------------------------------------------------------- *)
(* Batch (SoA) kernel state                                              *)
(* --------------------------------------------------------------------- *)

(* Structure-of-arrays run state for one compiled batch kernel: registers
   and scratchpad words are stored row-major per register/word with one
   column per slot ([row * cap + slot]), so the per-instruction loops over
   the batch are contiguous.  All buffers are sized at kernel compile time
   (capacity [cap]); running a batch allocates nothing. *)
type bst = {
  mutable bn : int;              (* live slots this run *)
  mutable bctxts : Ctxt.t array; (* caller-owned slot contexts *)
  bregs : int array;             (* n_registers rows x cap *)
  bvmem : int array;             (* vmem rows x cap *)
  bsnap : int array;             (* Mat_mul source snapshot rows x cap *)
  bfeat : int array array;       (* per model slot: slot-major feature gather *)
  bout : int array;              (* per-slot results *)
  mutable bsteps : int;          (* per-slot step count (identical across slots) *)
}

type batch_kernel = { bcap : int; bstate : bst; bentry : bst -> int }

type batch_state = Bk_untried | Bk_ineligible | Bk of batch_kernel

type compiled = {
  root : unit_code;
  cache : (int, unit_code) Hashtbl.t; (* keyed by Loaded.uid *)
  st : st;
  mutable batch : batch_state;
}

let fix_mul a b = Kml.Fixed.to_raw (Kml.Fixed.mul (Kml.Fixed.of_raw a) (Kml.Fixed.of_raw b))
let fix_add a b = Kml.Fixed.to_raw (Kml.Fixed.add (Kml.Fixed.of_raw a) (Kml.Fixed.of_raw b))

(* Micro-op encoding for fused straight-line runs of register-only
   instructions (Ld_imm / Mov / Alu / Alu_imm).  A run compiles to one
   closure executing the whole block from flat arrays — one indirect call
   per block instead of one per instruction. *)
let uop_ld_imm = 0
let uop_mov = 1
let uop_alu = 2
let uop_alu_imm = 3

let fusible (insn : Insn.t) =
  match insn with
  | Insn.Ld_imm _ | Insn.Mov _ | Insn.Alu _ | Insn.Alu_imm _ -> true
  | _ -> false

(* Fill micro-op tables from the program's code (entries at non-fusible
   pcs are left unset). *)
let fill_uops code uop_kind uop_x uop_y uop_op =
  Array.iteri
    (fun pc insn ->
      match insn with
      | Insn.Ld_imm (rd, imm) ->
        uop_kind.(pc) <- uop_ld_imm;
        uop_x.(pc) <- rd;
        uop_y.(pc) <- imm
      | Insn.Mov (rd, rs) ->
        uop_kind.(pc) <- uop_mov;
        uop_x.(pc) <- rd;
        uop_y.(pc) <- rs
      | Insn.Alu (op, rd, rs) ->
        uop_kind.(pc) <- uop_alu;
        uop_x.(pc) <- rd;
        uop_y.(pc) <- rs;
        uop_op.(pc) <- op
      | Insn.Alu_imm (op, rd, imm) ->
        uop_kind.(pc) <- uop_alu_imm;
        uop_x.(pc) <- rd;
        uop_y.(pc) <- imm;
        uop_op.(pc) <- op
      | _ -> ())
    code

let compile_unit (loaded : Loaded.t) : unit_code =
  let code = loaded.prog.Program.code in
  let vmem = loaded.vmem in
  let n = Array.length code in
  (* Flat micro-op tables, valid at fusible pcs only. *)
  let uop_kind = Array.make (Stdlib.max 1 n) 0 in
  let uop_x = Array.make (Stdlib.max 1 n) 0 in
  let uop_y = Array.make (Stdlib.max 1 n) 0 in
  let uop_op = Array.make (Stdlib.max 1 n) Insn.Add in
  fill_uops code uop_kind uop_x uop_y uop_op;
  let module I = Insn in
  (* Compile [lo, hi] as one range: continuations are range-local because
     reaching [hi + 1] means different things at different nesting depths
     (end of a Rep body iteration vs. straight-line fallthrough).  Rep
     bodies recurse; this mirrors the interpreter's nested exec_range
     exactly, so step counts and semantics agree by construction. *)
  let rec compile_range lo hi : st -> int =
    let len = hi - lo + 1 in
    let conts = Array.make (len + 1) (fun (_ : st) -> code_done) in
    (* cont for a target pc in [lo, hi + 1]; safe only for already-compiled
       (higher) pcs — the verifier's forward-jump rule guarantees that. *)
    let cont_at target = conts.(Stdlib.min (target - lo) len) in
    for pc = hi downto lo do
      let closure =
        match code.(pc) with
        | I.Ld_imm _ | I.Mov _ | I.Alu _ | I.Alu_imm _ ->
          (* Extend the fused block as far as the straight-line run goes. *)
          let finish = ref pc in
          while !finish < hi && fusible code.(!finish + 1) do incr finish done;
          let finish = !finish in
          let next = cont_at (finish + 1) in
          if finish = pc then begin
            (* single instruction: skip the micro-op loop *)
            match code.(pc) with
            | I.Ld_imm (rd, imm) ->
              fun st ->
                st.regs.(rd) <- imm;
                st.steps <- st.steps + 1;
                next st
            | I.Mov (rd, rs) ->
              fun st ->
                st.regs.(rd) <- st.regs.(rs);
                st.steps <- st.steps + 1;
                next st
            | I.Alu (op, rd, rs) ->
              fun st ->
                st.regs.(rd) <- Insn.eval_alu op st.regs.(rd) st.regs.(rs);
                st.steps <- st.steps + 1;
                next st
            | I.Alu_imm (op, rd, imm) ->
              fun st ->
                st.regs.(rd) <- Insn.eval_alu op st.regs.(rd) imm;
                st.steps <- st.steps + 1;
                next st
            | _ -> assert false (* fusible covers exactly these four *)
          end
          else begin
            let count = finish - pc + 1 in
            fun st ->
              let regs = st.regs in
              for i = pc to finish do
                let x = uop_x.(i) and y = uop_y.(i) in
                match uop_kind.(i) with
                | 0 (* uop_ld_imm *) -> regs.(x) <- y
                | 1 (* uop_mov *) -> regs.(x) <- regs.(y)
                | 2 (* uop_alu *) -> regs.(x) <- Insn.eval_alu uop_op.(i) regs.(x) regs.(y)
                | _ (* uop_alu_imm *) -> regs.(x) <- Insn.eval_alu uop_op.(i) regs.(x) y
              done;
              st.steps <- st.steps + count;
              next st
          end
        | I.Ld_ctxt (rd, rk) ->
          let next = cont_at (pc + 1) in
          fun st ->
            st.regs.(rd) <- Ctxt.get st.ctxt st.regs.(rk);
            st.steps <- st.steps + 1;
            next st
        | I.Ld_ctxt_k (rd, key) ->
          let next = cont_at (pc + 1) in
          fun st ->
            st.regs.(rd) <- Ctxt.get st.ctxt key;
            st.steps <- st.steps + 1;
            next st
        | I.St_ctxt (key, rs) ->
          let next = cont_at (pc + 1) in
          fun st ->
            Ctxt.set st.ctxt key st.regs.(rs);
            st.steps <- st.steps + 1;
            next st
        | I.St_ctxt_r (rk, rs) ->
          let next = cont_at (pc + 1) in
          fun st ->
            let key = st.regs.(rk) in
            if key >= 0 then Ctxt.set st.ctxt key st.regs.(rs);
            st.steps <- st.steps + 1;
            next st
        | I.Map_lookup (rd, slot, rk) ->
          let map = loaded.maps.(slot) in
          let next = cont_at (pc + 1) in
          fun st ->
            st.regs.(rd) <- Map_store.lookup map st.regs.(rk);
            st.steps <- st.steps + 1;
            next st
        | I.Map_update (slot, rk, rv) ->
          let map = loaded.maps.(slot) in
          let next = cont_at (pc + 1) in
          fun st ->
            Map_store.update map ~key:st.regs.(rk) ~value:st.regs.(rv);
            st.steps <- st.steps + 1;
            next st
        | I.Map_delete (slot, rk) ->
          let map = loaded.maps.(slot) in
          let next = cont_at (pc + 1) in
          fun st ->
            Map_store.delete map st.regs.(rk);
            st.steps <- st.steps + 1;
            next st
        | I.Ring_push (slot, rv) ->
          let map = loaded.maps.(slot) in
          let next = cont_at (pc + 1) in
          fun st ->
            Map_store.push map st.regs.(rv);
            st.steps <- st.steps + 1;
            next st
        | I.Jmp off ->
          let target = cont_at (pc + 1 + off) in
          fun st ->
            st.steps <- st.steps + 1;
            target st
        | I.Jcond (c, ra, rb, off) ->
          let target = cont_at (pc + 1 + off) in
          let next = cont_at (pc + 1) in
          fun st ->
            st.steps <- st.steps + 1;
            if Insn.eval_cond c st.regs.(ra) st.regs.(rb) then target st else next st
        | I.Jcond_imm (c, ra, imm, off) ->
          let target = cont_at (pc + 1 + off) in
          let next = cont_at (pc + 1) in
          fun st ->
            st.steps <- st.steps + 1;
            if Insn.eval_cond c st.regs.(ra) imm then target st else next st
        | I.Rep (count, body_len) ->
          let body = compile_range (pc + 1) (pc + body_len) in
          let next = cont_at (pc + 1 + body_len) in
          let rec iterate st k =
            if k = 0 then next st
            else begin
              let c = body st in
              if c = code_done then iterate st (k - 1) else c
            end
          in
          fun st ->
            st.steps <- st.steps + 1;
            iterate st count
        | I.Call id ->
          let arity = Helper.arity loaded.helpers id in
          let cost = Helper.privacy_cost loaded.helpers id in
          let args = loaded.call_args.(arity) in
          let env = loaded.env in
          let next = cont_at (pc + 1) in
          (* Chosen on the (static) privacy configuration: the common
             free-helper case carries no cost test and no account match at
             runtime. *)
          (match cost, loaded.privacy with
           | 0, _ ->
             fun st ->
               for i = 0 to arity - 1 do
                 args.(i) <- st.regs.(i + 1)
               done;
               st.regs.(0) <- Helper.invoke loaded.helpers id env args;
               for r = 1 to 5 do
                 st.regs.(r) <- 0
               done;
               st.steps <- st.steps + 1;
               next st
           | _, None ->
             (* unreachable for verified programs; fail closed *)
             fun st ->
               for i = 0 to arity - 1 do
                 args.(i) <- st.regs.(i + 1)
               done;
               ignore (Helper.invoke loaded.helpers id env args);
               st.denied <- st.denied + 1;
               st.regs.(0) <- 0;
               for r = 1 to 5 do
                 st.regs.(r) <- 0
               done;
               st.steps <- st.steps + 1;
               next st
           | _, Some acct ->
             fun st ->
               for i = 0 to arity - 1 do
                 args.(i) <- st.regs.(i + 1)
               done;
               let raw = Helper.invoke loaded.helpers id env args in
               let result =
                 match
                   Privacy.noisy_result acct ~rng:loaded.rng ~cost_milli:cost ~sensitivity:1 raw
                 with
                 | Some noisy -> noisy
                 | None ->
                   st.denied <- st.denied + 1;
                   0
               in
               st.regs.(0) <- result;
               for r = 1 to 5 do
                 st.regs.(r) <- 0
               done;
               st.steps <- st.steps + 1;
               next st)
        | I.Call_ml (slot, off, len) ->
          let handle = loaded.models.(slot) in
          let features = loaded.ml_args.(slot) in
          let next = cont_at (pc + 1) in
          fun st ->
            Array.blit vmem off features 0 len;
            st.regs.(0) <- Model_store.predict loaded.store handle features;
            for r = 1 to 5 do
              st.regs.(r) <- 0
            done;
            st.steps <- st.steps + 1;
            next st
        | I.Vec_ld_ctxt (dst, key, len) ->
          let next = cont_at (pc + 1) in
          fun st ->
            for i = 0 to len - 1 do
              vmem.(dst + i) <- Ctxt.get st.ctxt (key + i)
            done;
            st.steps <- st.steps + 1;
            next st
        | I.Vec_ld_map (dst, slot, rk, len) ->
          let map = loaded.maps.(slot) in
          let next = cont_at (pc + 1) in
          fun st ->
            let base = st.regs.(rk) in
            for i = 0 to len - 1 do
              vmem.(dst + i) <- Map_store.lookup map (base + i)
            done;
            st.steps <- st.steps + 1;
            next st
        | I.Vec_st_reg (off, rs) ->
          let next = cont_at (pc + 1) in
          fun st ->
            vmem.(off) <- st.regs.(rs);
            st.steps <- st.steps + 1;
            next st
        | I.Vec_ld_reg (rd, off) ->
          let next = cont_at (pc + 1) in
          fun st ->
            st.regs.(rd) <- vmem.(off);
            st.steps <- st.steps + 1;
            next st
        | I.Vec_i2f (off, len) ->
          let next = cont_at (pc + 1) in
          fun st ->
            for i = 0 to len - 1 do
              vmem.(off + i) <- Kml.Fixed.to_raw (Kml.Fixed.of_int vmem.(off + i))
            done;
            st.steps <- st.steps + 1;
            next st
        | I.Mat_mul (dst, cid, src) ->
          let c = loaded.prog.Program.consts.(cid) in
          let data = loaded.consts.(cid) in
          let rows = c.Program.rows and cols = c.Program.cols in
          let x = loaded.matmul_src in
          let next = cont_at (pc + 1) in
          fun st ->
            Array.blit vmem src x 0 cols;
            for i = 0 to rows - 1 do
              let acc = ref 0 in
              for j = 0 to cols - 1 do
                acc := fix_add !acc (fix_mul data.((i * cols) + j) x.(j))
              done;
              vmem.(dst + i) <- !acc
            done;
            st.steps <- st.steps + 1;
            next st
        | I.Vec_add_const (dst, cid) ->
          let c = loaded.prog.Program.consts.(cid) in
          let data = loaded.consts.(cid) in
          let next = cont_at (pc + 1) in
          fun st ->
            for i = 0 to c.Program.cols - 1 do
              vmem.(dst + i) <- fix_add vmem.(dst + i) data.(i)
            done;
            st.steps <- st.steps + 1;
            next st
        | I.Vec_relu (off, len) ->
          let next = cont_at (pc + 1) in
          fun st ->
            for i = 0 to len - 1 do
              if vmem.(off + i) < 0 then vmem.(off + i) <- 0
            done;
            st.steps <- st.steps + 1;
            next st
        | I.Vec_argmax (rd, off, len) ->
          let next = cont_at (pc + 1) in
          fun st ->
            let best = ref 0 in
            for i = 1 to len - 1 do
              if vmem.(off + i) > vmem.(off + !best) then best := i
            done;
            st.regs.(rd) <- !best;
            st.steps <- st.steps + 1;
            next st
        | I.Tail_call slot ->
          fun st ->
            st.steps <- st.steps + 1;
            st.tail_slot <- slot;
            code_tail
        | I.Exit ->
          fun st ->
            st.steps <- st.steps + 1;
            let r0 = st.regs.(0) in
            st.result <-
              (match loaded.guardrail with Some g -> Guardrail.apply g r0 | None -> r0);
            code_exit
      in
      conts.(pc - lo) <- closure
    done;
    conts.(0)
  in
  let entry = if n = 0 then fun (_ : st) -> code_done else compile_range 0 (n - 1) in
  { entry; loaded }

let fresh_st () =
  { regs = Array.make Insn.n_registers 0;
    ctxt = Ctxt.create ();
    now = (fun () -> 0);
    steps = 0;
    denied = 0;
    tail_slot = 0;
    result = 0 }

(* Engine totals (DESIGN.md section 11), bumped once per invocation /
   compilation — the threaded dispatch itself stays untouched. *)
let c_runs = Obs.Counter.make "rmt.jit.runs"
let c_steps = Obs.Counter.make "rmt.jit.steps"
let c_compiles = Obs.Counter.make "rmt.jit.compiles"
let c_batch_runs = Obs.Counter.make "rmt.jit.batch_runs"
let c_batch_slots = Obs.Counter.make "rmt.jit.batch_slots"

let compile loaded =
  let root = compile_unit loaded in
  let cache = Hashtbl.create 4 in
  Hashtbl.replace cache (Loaded.uid loaded) root;
  Obs.Counter.incr c_compiles;
  { root; cache; st = fresh_st (); batch = Bk_untried }

(* The unit cache is keyed by the loaded instance's unique id, so distinct
   programs that happen to share a name get distinct compiled units. *)
let get_unit t loaded =
  match Hashtbl.find t.cache (Loaded.uid loaded) with
  | u -> u
  | exception Not_found ->
    let u = compile_unit loaded in
    Hashtbl.replace t.cache (Loaded.uid loaded) u;
    u

let compiled_units t = Hashtbl.length t.cache

let max_tail_depth = 32

let rec exec_unit t (u : unit_code) depth =
  let st = t.st in
  let loaded = u.loaded in
  Array.fill loaded.Loaded.vmem 0 (Array.length loaded.Loaded.vmem) 0;
  Array.fill st.regs 0 Insn.n_registers 0;
  st.result <- 0;
  let env = loaded.Loaded.env in
  env.Helper.ctxt <- st.ctxt;
  env.Helper.now <- st.now;
  let final = u.entry st in
  if final = code_exit then st.result
  else if final = code_tail then begin
    if depth >= max_tail_depth then 0
    else begin
      match loaded.Loaded.prog_table.(st.tail_slot) with
      | Some target -> exec_unit t (get_unit t target) (depth + 1)
      | None -> 0
    end
  end
  else 0 (* fell off the end: impossible for verified programs *)

let exec t ~ctxt ~now =
  if Fault.active () && Fault.fire Fault.Engine_trap then
    raise (Interp.Trap Interp.Trap_injected);
  let st = t.st in
  st.ctxt <- ctxt;
  st.now <- now;
  st.steps <- 0;
  st.denied <- 0;
  st.tail_slot <- 0;
  let result = exec_unit t t.root 0 in
  t.root.loaded.Loaded.runs <- t.root.loaded.Loaded.runs + 1;
  t.root.loaded.Loaded.total_steps <- t.root.loaded.Loaded.total_steps + st.steps;
  Obs.Counter.incr c_runs;
  Obs.Counter.add c_steps st.steps;
  result

let last_steps t = t.st.steps
let last_privacy_denied t = t.st.denied

let run t ~ctxt ~now =
  let result = exec t ~ctxt ~now in
  { Interp.result; steps = t.st.steps; privacy_denied = t.st.denied }

let loaded t = t.root.loaded

(* --------------------------------------------------------------------- *)
(* Batch (SoA) kernel                                                    *)
(* --------------------------------------------------------------------- *)

(* A program is SoA-batchable when running it instruction-major over the
   whole batch is observationally identical, per slot, to running the
   slots one after the other:

   - no data-dependent control flow ([Jmp]/[Jcond]/[Jcond_imm]) — every
     slot then executes the same instruction trace;
   - no shared cross-slot mutable state whose access order matters: maps
     and rings are shared by all slots ([Map_*]/[Ring_push]/[Vec_ld_map]),
     helper calls consume the shared privacy/noise rng ([Call]), and tail
     calls chain whole programs ([Tail_call]);
   - every vmem/register operand statically in bounds (checked below even
     for hand-linked programs), so the kernel cannot trap mid-batch and
     per-slot containment is trivial.

   Context reads/writes are per-slot state and [Call_ml] models are
   stateless predictors (the invocation counter is order-insensitive), so
   both batch fine. *)
let batchable (loaded : Loaded.t) =
  let prog = loaded.Loaded.prog in
  let code = prog.Program.code in
  let n = Array.length code in
  let vsz = Array.length loaded.Loaded.vmem in
  let reg_ok r = r >= 0 && r < Insn.n_registers in
  let fits off len = off >= 0 && len >= 0 && off + len <= vsz in
  let const_ok cid = cid >= 0 && cid < Array.length prog.Program.consts in
  let ok = ref (n > 0) in
  Array.iteri
    (fun pc insn ->
      let good =
        match insn with
        | Insn.Ld_imm (rd, _) -> reg_ok rd
        | Insn.Mov (rd, rs) | Insn.Alu (_, rd, rs) -> reg_ok rd && reg_ok rs
        | Insn.Alu_imm (_, rd, _) -> reg_ok rd
        | Insn.Ld_ctxt (rd, rk) -> reg_ok rd && reg_ok rk
        | Insn.Ld_ctxt_k (rd, _) -> reg_ok rd
        | Insn.St_ctxt (key, rs) -> key >= 0 && reg_ok rs
        | Insn.St_ctxt_r (rk, rs) -> reg_ok rk && reg_ok rs
        | Insn.Rep (count, body_len) -> count >= 0 && body_len >= 0 && pc + body_len < n
        | Insn.Call_ml (slot, off, len) ->
          slot >= 0
          && slot < Array.length loaded.Loaded.models
          && len = Array.length loaded.Loaded.ml_args.(slot)
          && fits off len
        | Insn.Vec_ld_ctxt (dst, _, len) -> fits dst len
        | Insn.Vec_st_reg (off, rs) -> fits off 1 && reg_ok rs
        | Insn.Vec_ld_reg (rd, off) -> fits off 1 && reg_ok rd
        | Insn.Vec_i2f (off, len) | Insn.Vec_relu (off, len) -> fits off len
        | Insn.Vec_argmax (rd, off, len) -> reg_ok rd && fits off len
        | Insn.Mat_mul (dst, cid, src) ->
          const_ok cid
          &&
          let c = prog.Program.consts.(cid) in
          fits src c.Program.cols && fits dst c.Program.rows
        | Insn.Vec_add_const (dst, cid) ->
          const_ok cid && fits dst prog.Program.consts.(cid).Program.cols
        | Insn.Exit -> true
        | Insn.Map_lookup _ | Insn.Map_update _ | Insn.Map_delete _ | Insn.Ring_push _
        | Insn.Vec_ld_map _ | Insn.Jmp _ | Insn.Jcond _ | Insn.Jcond_imm _ | Insn.Call _
        | Insn.Tail_call _ -> false
      in
      if not good then ok := false)
    code;
  !ok

let compile_batch_unit (loaded : Loaded.t) ~cap : bst -> int =
  let code = loaded.prog.Program.code in
  let n = Array.length code in
  let uop_kind = Array.make (Stdlib.max 1 n) 0 in
  let uop_x = Array.make (Stdlib.max 1 n) 0 in
  let uop_y = Array.make (Stdlib.max 1 n) 0 in
  let uop_op = Array.make (Stdlib.max 1 n) Insn.Add in
  fill_uops code uop_kind uop_x uop_y uop_op;
  let module I = Insn in
  (* Mirrors [compile_range] exactly, but every closure executes its
     instruction for all live slots before chaining — registers and vmem
     are the row-major SoA planes of [bst].  Because batchable programs
     have no data-dependent control flow, the per-slot instruction traces
     are identical and one shared [bsteps] counter serves every slot. *)
  let rec bcompile lo hi : bst -> int =
    let len = hi - lo + 1 in
    let conts = Array.make (len + 1) (fun (_ : bst) -> code_done) in
    let cont_at target = conts.(Stdlib.min (target - lo) len) in
    for pc = hi downto lo do
      let closure =
        match code.(pc) with
        | I.Ld_imm _ | I.Mov _ | I.Alu _ | I.Alu_imm _ ->
          let finish = ref pc in
          while !finish < hi && fusible code.(!finish + 1) do incr finish done;
          let finish = !finish in
          let next = cont_at (finish + 1) in
          let count = finish - pc + 1 in
          fun st ->
            let regs = st.bregs and bn = st.bn in
            for i = pc to finish do
              let x = uop_x.(i) and y = uop_y.(i) in
              match uop_kind.(i) with
              | 0 (* uop_ld_imm *) -> Array.fill regs (x * cap) bn y
              | 1 (* uop_mov *) ->
                let xb = x * cap and yb = y * cap in
                for s = 0 to bn - 1 do
                  regs.(xb + s) <- regs.(yb + s)
                done
              | 2 (* uop_alu *) ->
                let op = uop_op.(i) in
                let xb = x * cap and yb = y * cap in
                for s = 0 to bn - 1 do
                  regs.(xb + s) <- Insn.eval_alu op regs.(xb + s) regs.(yb + s)
                done
              | _ (* uop_alu_imm *) ->
                let op = uop_op.(i) in
                let xb = x * cap in
                for s = 0 to bn - 1 do
                  regs.(xb + s) <- Insn.eval_alu op regs.(xb + s) y
                done
            done;
            st.bsteps <- st.bsteps + count;
            next st
        | I.Ld_ctxt (rd, rk) ->
          let next = cont_at (pc + 1) in
          let rdb = rd * cap and rkb = rk * cap in
          fun st ->
            let regs = st.bregs and ctxts = st.bctxts in
            for s = 0 to st.bn - 1 do
              regs.(rdb + s) <- Ctxt.get ctxts.(s) regs.(rkb + s)
            done;
            st.bsteps <- st.bsteps + 1;
            next st
        | I.Ld_ctxt_k (rd, key) ->
          let next = cont_at (pc + 1) in
          let rdb = rd * cap in
          fun st ->
            let regs = st.bregs and ctxts = st.bctxts in
            for s = 0 to st.bn - 1 do
              regs.(rdb + s) <- Ctxt.get ctxts.(s) key
            done;
            st.bsteps <- st.bsteps + 1;
            next st
        | I.St_ctxt (key, rs) ->
          let next = cont_at (pc + 1) in
          let rsb = rs * cap in
          fun st ->
            let regs = st.bregs and ctxts = st.bctxts in
            for s = 0 to st.bn - 1 do
              Ctxt.set ctxts.(s) key regs.(rsb + s)
            done;
            st.bsteps <- st.bsteps + 1;
            next st
        | I.St_ctxt_r (rk, rs) ->
          let next = cont_at (pc + 1) in
          let rkb = rk * cap and rsb = rs * cap in
          fun st ->
            let regs = st.bregs and ctxts = st.bctxts in
            for s = 0 to st.bn - 1 do
              let key = regs.(rkb + s) in
              if key >= 0 then Ctxt.set ctxts.(s) key regs.(rsb + s)
            done;
            st.bsteps <- st.bsteps + 1;
            next st
        | I.Rep (count, body_len) ->
          let body = bcompile (pc + 1) (pc + body_len) in
          let next = cont_at (pc + 1 + body_len) in
          let rec iterate st k =
            if k = 0 then next st
            else begin
              let c = body st in
              if c = code_done then iterate st (k - 1) else c
            end
          in
          fun st ->
            st.bsteps <- st.bsteps + 1;
            iterate st count
        | I.Call_ml (slot, off, len) ->
          let handle = loaded.models.(slot) in
          let next = cont_at (pc + 1) in
          fun st ->
            let bn = st.bn in
            let vm = st.bvmem and feat = st.bfeat.(slot) in
            for s = 0 to bn - 1 do
              let rb = s * len in
              for i = 0 to len - 1 do
                feat.(rb + i) <- vm.(((off + i) * cap) + s)
              done
            done;
            (* model inference for the whole batch in one call: the
               weights stay hot across slots (tiled in Qmlp/flat-tree
               predict_batch) and r0 is written column-wise — row 0 of
               the register plane starts at index 0 *)
            Model_store.predict_batch loaded.store handle ~features:feat ~n:bn ~out:st.bregs;
            for r = 1 to 5 do
              Array.fill st.bregs (r * cap) bn 0
            done;
            st.bsteps <- st.bsteps + 1;
            next st
        | I.Vec_ld_ctxt (dst, key, len) ->
          let next = cont_at (pc + 1) in
          fun st ->
            let vm = st.bvmem and ctxts = st.bctxts and bn = st.bn in
            for i = 0 to len - 1 do
              let wb = (dst + i) * cap and k = key + i in
              for s = 0 to bn - 1 do
                vm.(wb + s) <- Ctxt.get ctxts.(s) k
              done
            done;
            st.bsteps <- st.bsteps + 1;
            next st
        | I.Vec_st_reg (off, rs) ->
          let next = cont_at (pc + 1) in
          let wb = off * cap and rsb = rs * cap in
          fun st ->
            let vm = st.bvmem and regs = st.bregs in
            for s = 0 to st.bn - 1 do
              vm.(wb + s) <- regs.(rsb + s)
            done;
            st.bsteps <- st.bsteps + 1;
            next st
        | I.Vec_ld_reg (rd, off) ->
          let next = cont_at (pc + 1) in
          let wb = off * cap and rdb = rd * cap in
          fun st ->
            let vm = st.bvmem and regs = st.bregs in
            for s = 0 to st.bn - 1 do
              regs.(rdb + s) <- vm.(wb + s)
            done;
            st.bsteps <- st.bsteps + 1;
            next st
        | I.Vec_i2f (off, len) ->
          let next = cont_at (pc + 1) in
          fun st ->
            let vm = st.bvmem and bn = st.bn in
            for i = 0 to len - 1 do
              let wb = (off + i) * cap in
              for s = 0 to bn - 1 do
                vm.(wb + s) <- Kml.Fixed.to_raw (Kml.Fixed.of_int vm.(wb + s))
              done
            done;
            st.bsteps <- st.bsteps + 1;
            next st
        | I.Mat_mul (dst, cid, src) ->
          let c = loaded.prog.Program.consts.(cid) in
          let data = loaded.consts.(cid) in
          let rows = c.Program.rows and cols = c.Program.cols in
          let next = cont_at (pc + 1) in
          fun st ->
            let vm = st.bvmem and snap = st.bsnap and bn = st.bn in
            (* snapshot the source columns first: dst may overlap src *)
            for j = 0 to cols - 1 do
              Array.blit vm ((src + j) * cap) snap (j * cap) bn
            done;
            for i = 0 to rows - 1 do
              let ib = (dst + i) * cap and rb = i * cols in
              for s = 0 to bn - 1 do
                vm.(ib + s) <- 0;
                for j = 0 to cols - 1 do
                  vm.(ib + s) <- fix_add vm.(ib + s) (fix_mul data.(rb + j) snap.((j * cap) + s))
                done
              done
            done;
            st.bsteps <- st.bsteps + 1;
            next st
        | I.Vec_add_const (dst, cid) ->
          let c = loaded.prog.Program.consts.(cid) in
          let data = loaded.consts.(cid) in
          let next = cont_at (pc + 1) in
          fun st ->
            let vm = st.bvmem and bn = st.bn in
            for i = 0 to c.Program.cols - 1 do
              let wb = (dst + i) * cap and d = data.(i) in
              for s = 0 to bn - 1 do
                vm.(wb + s) <- fix_add vm.(wb + s) d
              done
            done;
            st.bsteps <- st.bsteps + 1;
            next st
        | I.Vec_relu (off, len) ->
          let next = cont_at (pc + 1) in
          fun st ->
            let vm = st.bvmem and bn = st.bn in
            for i = 0 to len - 1 do
              let wb = (off + i) * cap in
              for s = 0 to bn - 1 do
                if vm.(wb + s) < 0 then vm.(wb + s) <- 0
              done
            done;
            st.bsteps <- st.bsteps + 1;
            next st
        | I.Vec_argmax (rd, off, len) ->
          let next = cont_at (pc + 1) in
          let rdb = rd * cap and ob = off * cap in
          fun st ->
            let vm = st.bvmem and regs = st.bregs in
            for s = 0 to st.bn - 1 do
              regs.(rdb + s) <- 0;
              for i = 1 to len - 1 do
                if vm.((ob + (i * cap)) + s) > vm.((ob + (regs.(rdb + s) * cap)) + s) then
                  regs.(rdb + s) <- i
              done
            done;
            st.bsteps <- st.bsteps + 1;
            next st
        | I.Exit ->
          (match loaded.guardrail with
           | Some g ->
             fun st ->
               st.bsteps <- st.bsteps + 1;
               for s = 0 to st.bn - 1 do
                 st.bout.(s) <- Guardrail.apply g st.bregs.(s)
               done;
               code_exit
           | None ->
             fun st ->
               st.bsteps <- st.bsteps + 1;
               Array.blit st.bregs 0 st.bout 0 st.bn;
               code_exit)
        | I.Map_lookup _ | I.Map_update _ | I.Map_delete _ | I.Ring_push _ | I.Vec_ld_map _
        | I.Jmp _ | I.Jcond _ | I.Jcond_imm _ | I.Call _ | I.Tail_call _ ->
          assert false (* excluded by [batchable] *)
      in
      conts.(pc - lo) <- closure
    done;
    conts.(0)
  in
  bcompile 0 (n - 1)

let make_batch_kernel (loaded : Loaded.t) ~cap =
  let vsz = Array.length loaded.Loaded.vmem in
  let snap_rows = Stdlib.max 1 (Array.length loaded.Loaded.matmul_src) in
  let bstate =
    { bn = 0;
      bctxts = [||];
      bregs = Array.make (Insn.n_registers * cap) 0;
      bvmem = Array.make (vsz * cap) 0;
      bsnap = Array.make (snap_rows * cap) 0;
      bfeat = Array.map (fun args -> Array.make (Array.length args * cap) 0) loaded.Loaded.ml_args;
      bout = Array.make cap 0;
      bsteps = 0 }
  in
  { bcap = cap; bstate; bentry = compile_batch_unit loaded ~cap }

(* Kernel for at least [need] slots, compiled lazily and regrown
   geometrically; [None] once the program is known not to be batchable. *)
let kernel_for t ~need =
  match t.batch with
  | Bk_ineligible -> None
  | Bk k when k.bcap >= need -> Some k
  | (Bk _ | Bk_untried) as prev ->
    if batchable t.root.loaded then begin
      let grown = match prev with Bk k -> 2 * k.bcap | Bk_ineligible | Bk_untried -> 0 in
      let cap = Stdlib.max 8 (Stdlib.max need grown) in
      let k = make_batch_kernel t.root.loaded ~cap in
      t.batch <- Bk k;
      Some k
    end
    else begin
      t.batch <- Bk_ineligible;
      None
    end

let batch_eligible t =
  match t.batch with
  | Bk _ -> true
  | Bk_ineligible -> false
  | Bk_untried -> batchable t.root.loaded

let run_kernel t k (b : Batch.t) bn =
  let st = k.bstate in
  st.bn <- bn;
  st.bctxts <- b.Batch.ctxts;
  st.bsteps <- 0;
  Array.fill st.bregs 0 (Array.length st.bregs) 0;
  Array.fill st.bvmem 0 (Array.length st.bvmem) 0;
  Array.fill st.bout 0 bn 0;
  (* code_exit, or code_done when an unverified program falls off the
     end — bout is pre-zeroed, matching the scalar engine's 0 result *)
  ignore (k.bentry st : int);
  let loaded = t.root.loaded in
  loaded.Loaded.runs <- loaded.Loaded.runs + bn;
  loaded.Loaded.total_steps <- loaded.Loaded.total_steps + (bn * st.bsteps);
  for s = 0 to bn - 1 do
    b.Batch.results.(s) <- st.bout.(s);
    b.Batch.steps.(s) <- st.bsteps;
    b.Batch.denied.(s) <- 0;
    b.Batch.traps.(s) <- None
  done;
  Obs.Counter.add c_runs bn;
  Obs.Counter.add c_steps (bn * st.bsteps);
  Obs.Counter.incr c_batch_runs;
  Obs.Counter.add c_batch_slots bn

let exec_batch t (b : Batch.t) =
  let bn = b.Batch.n in
  if bn = 0 then true
  else
    match t.batch with
    (* Steady state bypasses [kernel_for]: matching the cached variant
       directly avoids allocating an option per batch, keeping the hot
       path inside the zero-steady-state-allocation contract. *)
    | Bk k when k.bcap >= bn ->
      run_kernel t k b bn;
      true
    | Bk _ | Bk_ineligible | Bk_untried ->
      (match kernel_for t ~need:bn with
       | None -> false
       | Some k ->
         run_kernel t k b bn;
         true)
