type label = int

type pending =
  | Fixed of Insn.t
  | Jmp_to of label
  | Jcond_imm_to of Insn.cond * Insn.reg * int * label

type t = {
  name : string;
  vmem_size : int;
  mutable code : pending list; (* reversed *)
  mutable len : int;
  mutable next_label : int;
  placements : (label, int) Hashtbl.t;
  mutable consts : Program.const list; (* reversed *)
  mutable model_arity : int list; (* reversed *)
  mutable n_prog_slots : int;
  mutable capabilities : Program.capability list;
}

let create ~name ?(vmem_size = 64) () =
  { name;
    vmem_size;
    code = [];
    len = 0;
    next_label = 0;
    placements = Hashtbl.create 16;
    consts = [];
    model_arity = [];
    n_prog_slots = 0;
    capabilities = [] }

let fresh_label t =
  let l = t.next_label in
  t.next_label <- t.next_label + 1;
  l

let place t l =
  if Hashtbl.mem t.placements l then invalid_arg "Builder.place: label placed twice";
  Hashtbl.replace t.placements l t.len

let push t p =
  t.code <- p :: t.code;
  t.len <- t.len + 1

let emit t insn = push t (Fixed insn)
let jump t ~target = push t (Jmp_to target)
let jump_if t cond ~reg ~imm ~target = push t (Jcond_imm_to (cond, reg, imm, target))
let here t = t.len

let add_const t c =
  t.consts <- c :: t.consts;
  List.length t.consts - 1

let add_model t ~n_features =
  t.model_arity <- n_features :: t.model_arity;
  List.length t.model_arity - 1

let add_prog_slot t =
  t.n_prog_slots <- t.n_prog_slots + 1;
  t.n_prog_slots - 1

let add_capability t cap = t.capabilities <- cap :: t.capabilities

let finish t () =
  let resolve pc l =
    match Hashtbl.find_opt t.placements l with
    | None -> invalid_arg "Builder.finish: unplaced label"
    | Some target ->
      let off = target - pc - 1 in
      if off < 0 then invalid_arg "Builder.finish: backward label";
      off
  in
  let code =
    List.mapi
      (fun pc pending ->
        match pending with
        | Fixed insn -> insn
        | Jmp_to l -> Insn.Jmp (resolve pc l)
        | Jcond_imm_to (c, ra, imm, l) -> Insn.Jcond_imm (c, ra, imm, resolve pc l))
      (List.rev t.code)
  in
  Program.make ~name:t.name ~vmem_size:t.vmem_size ~consts:(List.rev t.consts)
    ~model_arity:(List.rev t.model_arity)
    ~n_prog_slots:t.n_prog_slots ~capabilities:(List.rev t.capabilities) code
