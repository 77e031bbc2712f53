(* Forward abstract interpretation over RMT bytecode: per-register integer
   intervals + taint, in the style of the eBPF verifier's register state
   tracking.  See absint.mli for the contract and DESIGN.md §10 for the
   design rationale.

   Soundness baseline: Insn.eval_alu is total and wraps on overflow (OCaml
   63-bit ints), so every transfer function that could wrap at an interval
   endpoint must go to top — a wrapped value lands arbitrarily far from the
   real-arithmetic bound.  The fuzzer in test/test_absint.ml checks interval
   claims against concrete runs on thousands of random programs. *)

module Interval = struct
  type t = { lo : int; hi : int }

  let top = { lo = min_int; hi = max_int }
  let const v = { lo = v; hi = v }

  let make lo hi =
    if lo > hi then invalid_arg "Absint.Interval.make: lo > hi";
    { lo; hi }

  let mem v t = t.lo <= v && v <= t.hi
  let is_const t = t.lo = t.hi
  let const_value t = if t.lo = t.hi then Some t.lo else None
  let nonneg t = t.lo >= 0
  let equal a b = a.lo = b.lo && a.hi = b.hi
  let join a b = { lo = Stdlib.min a.lo b.lo; hi = Stdlib.max a.hi b.hi }

  let meet a b =
    let lo = Stdlib.max a.lo b.lo and hi = Stdlib.min a.hi b.hi in
    if lo > hi then None else Some { lo; hi }

  let widen old next =
    { lo = (if next.lo < old.lo then min_int else old.lo);
      hi = (if next.hi > old.hi then max_int else old.hi) }

  (* Overflow-checked scalar ops: None means the exact result does not fit,
     so the concrete (wrapped) value escapes any local bound. *)
  let add_exn_free a b =
    let s = a + b in
    if a >= 0 = (b >= 0) && s >= 0 <> (a >= 0) then None else Some s

  let sub_exn_free a b =
    let s = a - b in
    if a >= 0 <> (b >= 0) && s >= 0 <> (a >= 0) then None else Some s

  let mul_exn_free a b =
    if a = 0 || b = 0 then Some 0
    else if b = -1 then (if a = min_int then None else Some (-a))
    else
      let p = a * b in
      if p / b = a then Some p else None

  (* Endpoint combination: ALU ops monotone in each argument reach their
     extremes at interval vertices, so min/max over the four vertex results
     bounds the whole box — provided no vertex overflows. *)
  let of_candidates = function
    | [] -> top (* unreachable for the call sites below *)
    | c :: rest ->
      List.fold_left (fun acc v -> { lo = Stdlib.min acc.lo v; hi = Stdlib.max acc.hi v })
        (const c) rest

  let vertex_op f a b =
    match f a.lo b.lo, f a.lo b.hi, f a.hi b.lo, f a.hi b.hi with
    | Some x1, Some x2, Some x3, Some x4 -> of_candidates [ x1; x2; x3; x4 ]
    | _ -> top

  let abs_capped v = if v = min_int then max_int else Stdlib.abs v

  let forward_div a b =
    (* Insn.eval_alu: b = 0 -> 0.  On the wrap-free domain the quotient is
       monotone in the dividend and piecewise monotone in the divisor, so
       extremes over a box occur at a-endpoints crossed with b's endpoints
       and smallest-magnitude values.  The one wrap point
       min_int / -1 = min_int sits at such a corner and breaks that
       monotonicity, so the grid also includes the values adjacent to it:
       dividend min_int + 1 and divisors +-2 (where the true suprema move
       when the corner itself wraps). *)
    let div_one x y = if x = min_int && y = -1 then min_int else x / y in
    let divisors =
      List.sort_uniq compare
        (List.filter (fun d -> d <> 0 && mem d b) [ b.lo; b.hi; -2; -1; 1; 2 ])
    in
    let dividends =
      List.sort_uniq compare (List.filter (fun x -> mem x a) [ a.lo; a.hi; min_int + 1 ])
    in
    let candidates =
      List.concat_map (fun d -> List.map (fun x -> div_one x d) dividends) divisors
    in
    let candidates = if mem 0 b then 0 :: candidates else candidates in
    if candidates = [] then const 0 else of_candidates candidates

  let forward_mod a b =
    (* |a mod b| < |b| and |a mod b| <= |a|; sign follows a.  b = 0 -> 0. *)
    if b.lo > 0 && a.lo >= 0 && a.hi < b.lo then a (* identity: a < b, both >= 0 *)
    else begin
      (* |b| - 1, saturated: when min_int is in b, |b| reaches max_int + 1
         so the remainder magnitude bound is exactly max_int (e.g.
         (min_int + 1) mod min_int = min_int + 1). *)
      let mag_b =
        if b.lo = min_int then max_int
        else begin
          let m = Stdlib.max (abs_capped b.lo) (abs_capped b.hi) in
          if m = 0 then 0 else m - 1
        end
      in
      let mag_a = Stdlib.max (abs_capped a.lo) (abs_capped a.hi) in
      let m = Stdlib.min mag_b mag_a in
      let lo = if a.lo >= 0 then 0 else -m in
      let hi = if a.hi <= 0 then 0 else m in
      (* b = 0 or min_int mod -1 give 0; both inside [lo, hi] already. *)
      { lo; hi }
    end

  (* Smallest 2^k - 1 covering x (x >= 0): bitwise-or/xor of nonnegative
     values cannot exceed it. *)
  let mask_above x =
    let rec go m = if m >= x then m else go ((m lsl 1) lor 1) in
    if x >= max_int lsr 1 then max_int else go 0

  let forward_and a b =
    if a.lo >= 0 && b.lo >= 0 then { lo = 0; hi = Stdlib.min a.hi b.hi }
    else if a.lo >= 0 then { lo = 0; hi = a.hi }
    else if b.lo >= 0 then { lo = 0; hi = b.hi }
    else if a.hi < 0 && b.hi < 0 then { lo = min_int; hi = -1 }
    else top

  let forward_or a b =
    if a.lo >= 0 && b.lo >= 0 then
      { lo = Stdlib.max a.lo b.lo; hi = mask_above (Stdlib.max a.hi b.hi) }
    else if a.hi < 0 || b.hi < 0 then { lo = min_int; hi = -1 }
    else top

  let forward_xor a b =
    if a.lo >= 0 && b.lo >= 0 then { lo = 0; hi = mask_above (Stdlib.max a.hi b.hi) }
    else top

  let shl_exn_free x amt =
    let p = x lsl amt in
    if p asr amt = x then Some p else None

  let forward_shl a b =
    (* eval_alu masks the shift amount with [land 62] — note bit 0 is NOT in
       the mask, so e.g. b = 1 shifts by 0 and b = 3 shifts by 2. *)
    if is_const b then begin
      let amt = b.lo land 62 in
      match shl_exn_free a.lo amt, shl_exn_free a.hi amt with
      | Some lo, Some hi -> { lo; hi }
      | _ -> top
    end
    else if a.lo = 0 && a.hi = 0 then const 0
    else top

  let forward_shr a b =
    if is_const b then begin
      let amt = b.lo land 62 in
      { lo = a.lo asr amt; hi = a.hi asr amt }
    end
    else
      (* Unknown even shift in [0, 62]: asr contracts toward 0/-1 but never
         past the unshifted endpoints. *)
      { lo = (if a.lo > 0 then 0 else a.lo); hi = (if a.hi < 0 then -1 else a.hi) }

  let forward_alu (op : Insn.alu) a b =
    match op with
    | Add -> vertex_op (fun x y -> add_exn_free x y) a b
    | Sub -> vertex_op (fun x y -> sub_exn_free x y) a b
    | Mul -> vertex_op (fun x y -> mul_exn_free x y) a b
    | Div -> forward_div a b
    | Mod -> forward_mod a b
    | And -> forward_and a b
    | Or -> forward_or a b
    | Xor -> forward_xor a b
    | Shl -> forward_shl a b
    | Shr -> forward_shr a b
    | Min -> { lo = Stdlib.min a.lo b.lo; hi = Stdlib.min a.hi b.hi }
    | Max -> { lo = Stdlib.max a.lo b.lo; hi = Stdlib.max a.hi b.hi }

  let negate_cond : Insn.cond -> Insn.cond = function
    | Eq -> Ne | Ne -> Eq | Lt -> Ge | Ge -> Lt | Le -> Gt | Gt -> Le

  (* Narrow both operands under "cond a b holds".  None: infeasible. *)
  let rec refine (c : Insn.cond) a b =
    match c with
    | Eq -> (match meet a b with None -> None | Some m -> Some (m, m))
    | Ne ->
      if is_const a && is_const b && a.lo = b.lo then None
      else begin
        (* Trim an endpoint that collides with the other side's constant. *)
        let trim x other =
          if not (is_const other) then Some x
          else begin
            let v = other.lo in
            if is_const x && x.lo = v then None
            else if x.lo = v then Some { x with lo = v + 1 }
            else if x.hi = v then Some { x with hi = v - 1 }
            else Some x
          end
        in
        match trim a b, trim b a with
        | Some a', Some b' -> Some (a', b')
        | _ -> None
      end
    | Lt ->
      if b.hi = min_int || a.lo = max_int then None
      else begin
        match meet a { lo = min_int; hi = b.hi - 1 }, meet b { lo = a.lo + 1; hi = max_int } with
        | Some a', Some b' -> Some (a', b')
        | _ -> None
      end
    | Le ->
      (match meet a { lo = min_int; hi = b.hi }, meet b { lo = a.lo; hi = max_int } with
       | Some a', Some b' -> Some (a', b')
       | _ -> None)
    | Gt ->
      (match refine Lt b a with Some (b', a') -> Some (a', b') | None -> None)
    | Ge ->
      (match refine Le b a with Some (b', a') -> Some (a', b') | None -> None)

  let pp fmt t =
    let endpoint fmt v =
      if v = min_int then Format.pp_print_string fmt "-inf"
      else if v = max_int then Format.pp_print_string fmt "+inf"
      else Format.pp_print_int fmt v
    in
    if is_const t then Format.fprintf fmt "{%a}" endpoint t.lo
    else Format.fprintf fmt "[%a, %a]" endpoint t.lo endpoint t.hi
end

type fact = {
  regs : Interval.t array;
  taint : int;
  vmem_taint : bool;
}

type issue =
  | Unproven_ctxt_key of { pc : int; reg : int }
  | Unproven_map_window of { pc : int }
  | Tainted_sink of { pc : int; reg : int }

type t = {
  facts : fact option array;
  issues : issue list;
}

(* ------------------------------------------------------------------ *)
(* Abstract state plumbing.                                            *)

let clone (s : fact) = { s with regs = Array.copy s.regs }

let join_fact a b =
  { regs = Array.init Insn.n_registers (fun r -> Interval.join a.regs.(r) b.regs.(r));
    taint = a.taint lor b.taint;
    vmem_taint = a.vmem_taint || b.vmem_taint }

let widen_fact old next =
  { regs = Array.init Insn.n_registers (fun r -> Interval.widen old.regs.(r) next.regs.(r));
    taint = old.taint lor next.taint;
    vmem_taint = old.vmem_taint || next.vmem_taint }

let leq_fact a b =
  let ok = ref (a.taint lor b.taint = b.taint && (b.vmem_taint || not a.vmem_taint)) in
  for r = 0 to Insn.n_registers - 1 do
    if not (Interval.equal (Interval.join a.regs.(r) b.regs.(r)) b.regs.(r)) then ok := false
  done;
  !ok

let join_opt a b =
  match a, b with
  | None, x | x, None -> x
  | Some a, Some b -> Some (join_fact a b)

let tainted s r = s.taint land (1 lsl r) <> 0
let set_taint s r v = if v then s.taint lor (1 lsl r) else s.taint land lnot (1 lsl r)

(* Post-call register file: r0 = result (top, given taint), r1..r5 zeroed
   clean — both engines zero the argument registers after every call. *)
let call_out st r0_taint =
  st.regs.(0) <- Interval.top;
  for r = 1 to 5 do
    st.regs.(r) <- Interval.const 0
  done;
  let taint = st.taint land lnot 0b111110 in
  let taint = if r0_taint then taint lor 1 else taint land lnot 1 in
  { st with taint }

(* Precise abstract unrolling of a Rep body is attempted when the trip count
   is small; beyond that a widening fixpoint runs.  The step budget bounds
   total abstract work across nested unrolls so analysis stays O(small). *)
let unroll_limit = 48
let fixpoint_limit = 64

let analyze ~helpers (prog : Program.t) =
  let code = prog.code in
  let n = Array.length code in
  let facts : fact option array = Array.make n None in
  let budget = ref (200_000 + (64 * n)) in
  let record pc st =
    facts.(pc) <- (match facts.(pc) with None -> Some (clone st) | Some f -> Some (join_fact f st))
  in
  (* Forward pass over [lo, hi]; [entry] flows into [lo].  Returns the state
     flowing out past [hi] (None: that edge is unreachable).  Jumps are
     forward-only and verified to stay within [lo, hi + 1], so one in-flow
     slot per pc suffices.  Rep is handled structurally by [exec_rep]; its
     body pcs also keep in-flow slots of their own because a branch from
     before the Rep may legally land mid-body, executing the tail of the
     body once as straight-line code (both engines behave this way). *)
  let rec exec_range lo hi (entry : fact option) : fact option =
    let len = hi - lo + 1 in
    let inflow : fact option array = Array.make (len + 1) None in
    inflow.(0) <- entry;
    let flow_to pc st = inflow.(pc - lo) <- join_opt inflow.(pc - lo) (Some st) in
    let pc = ref lo in
    while !pc <= hi do
      decr budget;
      (match inflow.(!pc - lo) with
       | None -> ()
       | Some st_in ->
         let st = clone st_in in
         record !pc st;
         if !budget <= 0 then begin
           (* Budget exhausted: stop refining, push top everywhere ahead.
              Still sound — every later fact is top. *)
           let t = { regs = Array.make Insn.n_registers Interval.top;
                     taint = (1 lsl Insn.n_registers) - 1;
                     vmem_taint = true }
           in
           for p = !pc - lo + 1 to len do
             inflow.(p) <- Some t
           done;
           for p = !pc to hi do
             record p t
           done;
           pc := hi
         end
         else exec_insn flow_to !pc st);
      incr pc
    done;
    inflow.(len)
  and exec_insn flow_to pc st =
    let set_reg r iv taint_v =
      st.regs.(r) <- iv;
      { st with taint = set_taint st r taint_v }
    in
    let fall st = flow_to (pc + 1) st in
    match code.(pc) with
    | Insn.Ld_imm (rd, imm) -> fall (set_reg rd (Interval.const imm) false)
    | Mov (rd, rs) -> fall (set_reg rd st.regs.(rs) (tainted st rs))
    | Alu (op, rd, rs) ->
      fall
        (set_reg rd
           (Interval.forward_alu op st.regs.(rd) st.regs.(rs))
           (tainted st rd || tainted st rs))
    | Alu_imm (op, rd, imm) ->
      fall (set_reg rd (Interval.forward_alu op st.regs.(rd) (Interval.const imm)) (tainted st rd))
    | Ld_ctxt (rd, _) | Ld_ctxt_k (rd, _) -> fall (set_reg rd Interval.top true)
    | St_ctxt _ | St_ctxt_r _ -> fall st
    | Map_lookup (rd, _, _) ->
      (* Map contents count as already-persisted state: reading them back is
         clean (otherwise every counter-bump program would need a budget). *)
      fall (set_reg rd Interval.top false)
    | Map_update _ | Map_delete _ | Ring_push _ -> fall st
    | Jmp off -> flow_to (pc + 1 + off) st
    | Jcond (c, ra, rb, off) ->
      let a = st.regs.(ra) and b = st.regs.(rb) in
      (match Interval.refine c a b with
       | Some (a', b') ->
         let taken = clone st in
         taken.regs.(ra) <- a';
         taken.regs.(rb) <- b';
         flow_to (pc + 1 + off) taken
       | None -> ());
      (match Interval.refine (Interval.negate_cond c) a b with
       | Some (a', b') ->
         let nt = clone st in
         nt.regs.(ra) <- a';
         nt.regs.(rb) <- b';
         fall nt
       | None -> ())
    | Jcond_imm (c, ra, imm, off) ->
      let a = st.regs.(ra) and b = Interval.const imm in
      (match Interval.refine c a b with
       | Some (a', _) ->
         let taken = clone st in
         taken.regs.(ra) <- a';
         flow_to (pc + 1 + off) taken
       | None -> ());
      (match Interval.refine (Interval.negate_cond c) a b with
       | Some (a', _) ->
         let nt = clone st in
         nt.regs.(ra) <- a';
         fall nt
       | None -> ())
    | Rep (count, body_len) ->
      (* Loop outflow continues past the body; the in-loop edges are handled
         by exec_rep.  Note: no flow to pc + 1 here — the body only runs
         under the loop (or via an explicit jump into it, which lands in
         this range's own in-flow slots). *)
      let out = exec_rep count (pc + 1) (pc + body_len) st in
      (match out with Some o -> flow_to (pc + 1 + body_len) o | None -> ())
    | Call id ->
      (* eBPF convention: result in r0, r1..r5 clobbered (zeroed by both
         engines after the call).  Helper results are top — custom
         registries can bind any function to any id, so no per-helper range
         assumptions.  Taint: privacy-charged helpers read the context by
         contract; otherwise the result derives from the (zeroed-after)
         argument registers. *)
      let arity = if Helper.mem helpers id then Helper.arity helpers id else 0 in
      let cost = if Helper.mem helpers id then Helper.privacy_cost helpers id else 0 in
      let arg_taint = ref (cost > 0) in
      for r = 1 to arity do
        if tainted st r then arg_taint := true
      done;
      fall (call_out st !arg_taint)
    | Call_ml _ ->
      (* Model output to r0 derives from the vmem window. *)
      fall (call_out st st.vmem_taint)
    | Vec_ld_ctxt _ -> fall { st with vmem_taint = true }
    | Vec_ld_map _ -> fall st (* map reads are clean, see Map_lookup *)
    | Vec_st_reg (_, rs) -> fall { st with vmem_taint = st.vmem_taint || tainted st rs }
    | Vec_ld_reg (rd, _) -> fall (set_reg rd Interval.top st.vmem_taint)
    | Vec_i2f _ | Mat_mul _ | Vec_add_const _ | Vec_relu _ -> fall st
    | Vec_argmax (rd, _, len) ->
      let hi_idx = Stdlib.max 0 (len - 1) in
      fall (set_reg rd (Interval.make 0 hi_idx) st.vmem_taint)
    | Tail_call _ | Exit -> () (* terminal: no outflow *)
  and exec_rep count body_lo body_hi entry =
    if body_lo > body_hi || count <= 0 then Some entry
    else if count <= unroll_limit && !budget > (body_hi - body_lo + 1) * count then begin
      (* Precise unrolling: each abstract iteration feeds the next, keeping
         e.g. an incremented result-key register at finite bounds. *)
      let st = ref (Some entry) in
      let i = ref 0 in
      while !i < count && Option.is_some !st do
        st := exec_range body_lo body_hi !st;
        incr i
      done;
      !st
    end
    else begin
      (* Widening fixpoint: invariant at body entry. *)
      let inv = ref entry in
      let out = ref None in
      let stable = ref false in
      let iter = ref 0 in
      while not !stable && !iter < fixpoint_limit do
        incr iter;
        out := exec_range body_lo body_hi (Some !inv);
        (match !out with
         | None -> stable := true (* body never completes; no back-edge *)
         | Some o ->
           if leq_fact o !inv then stable := true
           else begin
             let next = join_fact !inv o in
             inv := if !iter >= 2 then widen_fact !inv next else next
           end)
      done;
      if not !stable then
        (* Give up: top invariant, one last pass for sound facts. *)
        inv :=
          { regs = Array.make Insn.n_registers Interval.top;
            taint = (1 lsl Insn.n_registers) - 1;
            vmem_taint = true };
      (* Loop exit state: out-edge of the body under the final invariant
         (already computed when stable; recompute after widening to top). *)
      if !stable then !out else exec_range body_lo body_hi (Some !inv)
    end
  in
  let entry =
    (* Both engines zero registers and scratchpad before each run. *)
    { regs = Array.make Insn.n_registers (Interval.const 0); taint = 0; vmem_taint = false }
  in
  ignore (exec_range 0 (n - 1) (Some entry));
  (* ---- issues ---- *)
  let has_budget = Program.privacy_budget prog <> None in
  let issues = ref [] in
  let issue i = issues := i :: !issues in
  for pc = 0 to n - 1 do
    match facts.(pc) with
    | None -> ()
    | Some f ->
      (match code.(pc) with
       | Insn.Ld_ctxt (_, rk) | St_ctxt_r (rk, _) ->
         if f.regs.(rk).Interval.lo < 0 then issue (Unproven_ctxt_key { pc; reg = rk })
       | Vec_ld_map (_, slot, rk, len) ->
         let iv = f.regs.(rk) in
         let proven =
           slot >= 0
           && slot < Array.length prog.map_specs
           &&
           let spec = prog.map_specs.(slot) in
           spec.Map_store.kind = Map_store.Array_map
           && iv.Interval.lo >= 0
           && len <= spec.capacity
           && iv.Interval.hi <= spec.capacity - len
         in
         if not proven then issue (Unproven_map_window { pc })
       | Map_update (_, _, rv) | Ring_push (_, rv) ->
         if tainted f rv && not has_budget then issue (Tainted_sink { pc; reg = rv })
       | _ -> ())
  done;
  { facts; issues = List.rev !issues }

(* ------------------------------------------------------------------ *)
(* Pretty printing (rkdctl verify).                                    *)

let pp_fact fmt f =
  let first = ref true in
  let sep () = if !first then first := false else Format.fprintf fmt " " in
  for r = 0 to Insn.n_registers - 1 do
    if not (Interval.equal f.regs.(r) Interval.top) then begin
      sep ();
      Format.fprintf fmt "r%d=%a" r Interval.pp f.regs.(r)
    end
  done;
  if f.taint <> 0 then begin
    sep ();
    Format.fprintf fmt "taint={";
    let tfirst = ref true in
    for r = 0 to Insn.n_registers - 1 do
      if f.taint land (1 lsl r) <> 0 then begin
        if !tfirst then tfirst := false else Format.fprintf fmt ",";
        Format.fprintf fmt "r%d" r
      end
    done;
    Format.fprintf fmt "}"
  end;
  if f.vmem_taint then begin
    sep ();
    Format.fprintf fmt "vmem-tainted"
  end;
  if !first then Format.fprintf fmt "(top)"

let pp fmt t (prog : Program.t) =
  Array.iteri
    (fun pc insn ->
      Format.fprintf fmt "%4d: %-40s" pc (Insn.to_string insn);
      (match t.facts.(pc) with
       | None -> Format.fprintf fmt " unreachable"
       | Some f -> Format.fprintf fmt " %a" pp_fact f);
      Format.fprintf fmt "@.")
    prog.code
