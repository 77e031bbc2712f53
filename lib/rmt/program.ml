type const = { name : string; rows : int; cols : int; data : int array }

type capability =
  | Rate_limited of { tokens_per_sec : int; burst : int }
  | Guarded of { lo : int; hi : int }
  | Privacy_budget of { epsilon_milli : int }

type t = {
  name : string;
  code : Insn.t array;
  vmem_size : int;
  consts : const array;
  map_specs : Map_store.spec array;
  model_arity : int array;
  n_prog_slots : int;
  capabilities : capability list;
}

let make ~name ?(vmem_size = 64) ?(consts = []) ?(map_specs = []) ?(model_arity = [])
    ?(n_prog_slots = 0) ?(capabilities = []) code =
  { name;
    code = Array.of_list code;
    vmem_size;
    consts = Array.of_list consts;
    map_specs = Array.of_list map_specs;
    model_arity = Array.of_list model_arity;
    n_prog_slots;
    capabilities }

let const_matrix ~name ~rows ~cols data =
  if Array.length data <> rows * cols then
    invalid_arg "Program.const_matrix: data length must be rows * cols";
  { name; rows; cols; data = Array.map Kml.Fixed.to_raw data }

let const_vector ~name data = const_matrix ~name ~rows:1 ~cols:(Array.length data) data

let rate_limited t =
  List.find_map
    (function Rate_limited { tokens_per_sec; burst } -> Some (tokens_per_sec, burst) | _ -> None)
    t.capabilities

let guarded t =
  List.find_map (function Guarded { lo; hi } -> Some (lo, hi) | _ -> None) t.capabilities

let privacy_budget t =
  List.find_map
    (function Privacy_budget { epsilon_milli } -> Some epsilon_milli | _ -> None)
    t.capabilities

let pp_capability fmt = function
  | Rate_limited { tokens_per_sec; burst } ->
    Format.fprintf fmt "rate_limited(%d/s, burst %d)" tokens_per_sec burst
  | Guarded { lo; hi } -> Format.fprintf fmt "guarded[%d, %d]" lo hi
  | Privacy_budget { epsilon_milli } -> Format.fprintf fmt "privacy(%d me)" epsilon_milli

let pp fmt t =
  Format.fprintf fmt "program %s (vmem=%d, %d consts, %d maps, %d models, %d prog slots)@."
    t.name t.vmem_size (Array.length t.consts) (Array.length t.map_specs)
    (Array.length t.model_arity) t.n_prog_slots;
  List.iter (fun c -> Format.fprintf fmt "  cap %a@." pp_capability c) t.capabilities;
  Array.iteri (fun i insn -> Format.fprintf fmt "%4d: %a@." i Insn.pp insn) t.code
