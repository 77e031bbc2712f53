type t = {
  program : string;
  steps : int;
  scratch_words : int;
  const_words : int;
  table_slots : int;
}

type budget = { max_steps : int; max_scratch_words : int; max_table_slots : int }

let default_budget =
  { max_steps = Verifier.default_limits.Verifier.max_steps;
    max_scratch_words = Verifier.default_limits.Verifier.max_vmem;
    max_table_slots = 16 }

let of_report (report : Verifier.report) (prog : Program.t) =
  { program = prog.Program.name;
    steps = report.Verifier.worst_case_steps;
    scratch_words = prog.Program.vmem_size;
    const_words =
      Array.fold_left
        (fun acc c -> acc + (c.Program.rows * c.Program.cols))
        0 prog.Program.consts;
    table_slots =
      Array.length prog.Program.map_specs
      + Array.length prog.Program.model_arity
      + prog.Program.n_prog_slots }

let within t b =
  t.steps <= b.max_steps
  && t.scratch_words <= b.max_scratch_words
  && t.table_slots <= b.max_table_slots

let violations t b =
  let over what used allowed acc =
    if used > allowed then
      Printf.sprintf "%s: %d exceeds budget %d" what used allowed :: acc
    else acc
  in
  List.rev
    (over "steps" t.steps b.max_steps
       (over "scratch words" t.scratch_words b.max_scratch_words
          (over "table slots" t.table_slots b.max_table_slots [])))

let pp fmt t =
  Format.fprintf fmt
    "@[<v>resource report: %s@,\
    \  worst-case steps   %d@,\
    \  scratch words      %d@,\
    \  constant words     %d@,\
    \  table slots        %d@]"
    t.program t.steps t.scratch_words t.const_words t.table_slots

let to_json t =
  Printf.sprintf
    "{\"program\":%S,\"steps\":%d,\"scratch_words\":%d,\"const_words\":%d,\
     \"table_slots\":%d}"
    t.program t.steps t.scratch_words t.const_words t.table_slots
