type t = {
  helpers : Helper.t;
  store : Model_store.t;
  pipeline : Pipeline.t;
  programs : (string, Vm.t) Hashtbl.t;
  resources : (string, Resource.t) Hashtbl.t; (* per-program compile-time report *)
  tables : (string, Table.t) Hashtbl.t;
  mutable clock : unit -> int;
  mutable program_order : string list;
  mutable table_order : string list;
  default_engine : Vm.engine;
  limits : Verifier.limits;
  rng : Kml.Rng.t;
  mutable installs : int; (* indexes per-install Rng substreams *)
  retries : (string, retry) Hashtbl.t; (* update_model_checked backoff, per model *)
  view_ns : string; (* registry namespace for per-control-plane views *)
  mutable gate : install_gate option; (* optional analysis gate on installs *)
}

and gate_verdict = Gate_ok | Gate_warn of string list | Gate_deny of string list
and install_gate = Verifier.report -> Program.t -> gate_verdict

(* Retry-with-backoff state for {!update_model_checked}: consecutive
   probe failures and the earliest clock at which the next attempt is
   admitted. *)
and retry = { mutable failures : int; mutable next_allowed : int }

(* Control-plane activity totals (DESIGN.md section 11). *)
let c_installs = Obs.Counter.make "rmt.control.installs"
let c_install_rejected = Obs.Counter.make "rmt.control.install_rejected"
let c_model_updates = Obs.Counter.make "rmt.control.model_updates"
let c_fires = Obs.Counter.make "rmt.control.fires"

(* Model-update failsafe totals (DESIGN.md section 12). *)
let c_update_rollbacks = Obs.Counter.make "rmt.control.model_update_rollbacks"
let c_update_deferred = Obs.Counter.make "rmt.control.model_update_deferred"

(* Findings surfaced (but not enforced) by a [Gate_warn] install gate. *)
let c_gate_warnings = Obs.Counter.make "rmt.control.gate_warnings"

let update_backoff_base_ns = 1_000_000 (* 1 ms *)
let update_backoff_max_ns = 1_000_000_000 (* 1 s *)

(* Folds a program's pre-existing per-VM counters (invocations, steps,
   throttled units, guardrail violations) into registry views through the
   unchanged Vm accessors, so `rkdctl stats` reports them uniformly next
   to the striped counters.  Reinstalling a name rebinds its views. *)
let register_program_views ~view_ns name vm =
  let view suffix f =
    Obs.Registry.register_view
      (view_ns ^ ".program." ^ name ^ "." ^ suffix)
      (fun () -> f vm)
  in
  view "invocations" Vm.invocations;
  view "steps" Vm.total_steps;
  view "throttled_units" Vm.throttled_units;
  view "guardrail_violations" Vm.guardrail_violations

let create ?(engine = Vm.Jit_compiled) ?(limits = Verifier.default_limits) ?(seed = 0x5eed)
    ?(view_ns = "rmt") () =
  { helpers = Helper.with_defaults ();
    store = Model_store.create ();
    pipeline = Pipeline.create ~view_ns ();
    programs = Hashtbl.create 16;
    resources = Hashtbl.create 16;
    tables = Hashtbl.create 16;
    clock = (fun () -> 0);
    program_order = [];
    table_order = [];
    default_engine = engine;
    limits;
    rng = Kml.Rng.create seed;
    installs = 0;
    retries = Hashtbl.create 8;
    view_ns;
    gate = None }

let helpers t = t.helpers
let models t = t.store
let pipeline t = t.pipeline
let set_install_gate t gate = t.gate <- gate

(* Fault seam: clock skew perturbs every timestamp the datapath sees —
   rate limiters, breakers and backoff schedules must tolerate a clock
   that jumps forward or steps slightly backward (DESIGN.md section 12). *)
let set_clock t clock =
  t.clock <-
    (fun () ->
      let n = clock () in
      if Fault.active () && Fault.fire Fault.Clock_skew then n + Fault.skew () else n)
let now t = t.clock ()
let register_model t ~name model = Model_store.register t.store ~name model

let update_model t ~name model =
  match Model_store.find t.store name with
  | None -> Error (Printf.sprintf "update_model: no model named %s" name)
  | Some handle ->
    (match Model_store.replace t.store handle model with
     | () ->
       Obs.Counter.incr c_model_updates;
       Ok ()
     | exception Invalid_argument msg -> Error msg)

(* Verify, link and return a Loaded instance without touching the program
   registry: the shared front half of {!install} (which wraps the result
   in a fresh Vm) and {!install_canary} (which stages it as the candidate
   slot of an already-running Vm). *)
let prepare t ?(budget = Kml.Model_cost.default_budget) ?resource_budget ?(model_names = [])
    (prog : Program.t) =
  let n_slots = Array.length prog.model_arity in
  if List.length model_names <> n_slots then
    Error
      (Printf.sprintf "install %s: program declares %d model slots, %d names given" prog.name
         n_slots (List.length model_names))
  else begin
    let resolve name =
      match Model_store.find t.store name with
      | Some h -> Ok h
      | None -> Error (Printf.sprintf "install %s: unknown model %s" prog.name name)
    in
    let rec resolve_all = function
      | [] -> Ok []
      | name :: rest ->
        (match resolve name with
         | Error _ as e -> e
         | Ok h ->
           (match resolve_all rest with Error _ as e -> e | Ok hs -> Ok (h :: hs)))
    in
    match resolve_all model_names with
    | Error e -> Error e
    | Ok handles ->
      let handles = Array.of_list handles in
      let model_costs =
        Array.map (fun h -> Model_store.cost (Model_store.model t.store h)) handles
      in
      (match Verifier.check ~limits:t.limits ~budget ~helpers:t.helpers ~model_costs prog with
       | Error v ->
         Obs.Counter.incr c_install_rejected;
         Error (Printf.sprintf "verifier rejected %s: %s" prog.name
                  (Verifier.violation_to_string v))
       | Ok report ->
         (* Compile-time resource report (Homunculus-style): derived from
            the verifier report, and checkable against a declared ceiling
            before the program ever serves traffic. *)
         let resource = Resource.of_report report prog in
         let over_budget =
           match resource_budget with
           | Some rb -> Resource.violations resource rb
           | None -> []
         in
         if over_budget <> [] then begin
           Obs.Counter.incr c_install_rejected;
           Error
             (Printf.sprintf "resource budget rejected %s: %s" prog.name
                (String.concat "; " over_budget))
         end
         else begin
           (* Optional analysis gate: runs on the verifier report, after all
              mandatory checks pass. *)
           let gate_verdict =
             match t.gate with None -> Gate_ok | Some gate -> gate report prog
           in
           match gate_verdict with
           | Gate_deny msgs ->
             Obs.Counter.incr c_install_rejected;
             Error
               (Printf.sprintf "analysis gate rejected %s: %s" prog.name
                  (String.concat "; " msgs))
           | Gate_ok | Gate_warn _ ->
             (match gate_verdict with
              | Gate_warn msgs -> Obs.Counter.add c_gate_warnings (List.length msgs)
              | _ -> ());
             let maps = Array.map Map_store.create prog.map_specs in
             let rng = Kml.Rng.split t.rng t.installs in
             t.installs <- t.installs + 1;
             (match
                Loaded.link ~rng ~store:t.store ~helpers:t.helpers ~maps ~models:handles
                  prog
              with
              | loaded ->
                Hashtbl.replace t.resources prog.name resource;
                Ok loaded
              | exception Invalid_argument msg -> Error msg)
         end)
  end

let retry_for t name =
  match Hashtbl.find_opt t.retries name with
  | Some r -> r
  | None ->
    let r = { failures = 0; next_allowed = min_int } in
    Hashtbl.replace t.retries name r;
    r

(* Transactional model update (DESIGN.md section 12): swap the retrained
   model in, probe it against [samples], and roll the incumbent back if
   any probe escapes or lands outside [lo, hi].  Failures arm an
   exponential backoff gated on the simulated clock, so a crash-looping
   trainer cannot hot-swap garbage at line rate. *)
let update_model_checked t ~name ?(samples = []) ?lo ?hi model =
  let r = retry_for t name in
  let now = t.clock () in
  if now < r.next_allowed then begin
    Obs.Counter.incr c_update_deferred;
    Error
      (Printf.sprintf "update_model %s: backing off after %d failed updates (retry in %dns)"
         name r.failures (r.next_allowed - now))
  end
  else
    match Model_store.find t.store name with
    | None -> Error (Printf.sprintf "update_model: no model named %s" name)
    | Some handle ->
      let incumbent = Model_store.model t.store handle in
      let fail msg =
        (* Roll back before arming the backoff: the datapath keeps
           serving the incumbent model throughout. *)
        Model_store.replace t.store handle incumbent;
        r.failures <- r.failures + 1;
        let backoff =
          Stdlib.min update_backoff_max_ns
            (update_backoff_base_ns * (1 lsl Stdlib.min 30 (r.failures - 1)))
        in
        r.next_allowed <- now + backoff;
        Obs.Counter.incr c_update_rollbacks;
        Error msg
      in
      (match Model_store.replace t.store handle model with
       | exception Invalid_argument msg ->
         r.failures <- r.failures + 1;
         r.next_allowed <- now + update_backoff_base_ns * (1 lsl Stdlib.min 30 (r.failures - 1));
         Error msg
       | () ->
         let rec probe = function
           | [] ->
             r.failures <- 0;
             r.next_allowed <- min_int;
             Obs.Counter.incr c_model_updates;
             Ok ()
           | features :: rest ->
             (* Probes must see the model itself, not the fault
                injector's perturbations of it. *)
             (match Fault.without (fun () -> Model_store.predict t.store handle features) with
              | v ->
                let low_ok = match lo with Some l -> v >= l | None -> true in
                let high_ok = match hi with Some h -> v <= h | None -> true in
                if low_ok && high_ok then probe rest
                else
                  fail
                    (Printf.sprintf "update_model %s: probe predicted %d outside guard range"
                       name v)
              | exception exn ->
                fail
                  (Printf.sprintf "update_model %s: probe raised %s" name
                     (Printexc.to_string exn)))
         in
         probe samples)

let protect t ~hook ?config ?breaker ?programs ~fallback () =
  let vms =
    match programs with
    | None -> [||]
    | Some names ->
      Array.of_list
        (List.filter_map (fun name -> Hashtbl.find_opt t.programs name) names)
  in
  Pipeline.protect t.pipeline ~hook ?config ?breaker ~vms ~fallback ()

let install t ?engine ?budget ?resource_budget ?model_names (prog : Program.t) =
  let engine = Option.value engine ~default:t.default_engine in
  match prepare t ?budget ?resource_budget ?model_names prog with
  | Error _ as e -> e
  | Ok loaded ->
    let vm = Vm.create ~engine loaded in
    if not (Hashtbl.mem t.programs prog.name) then
      t.program_order <- t.program_order @ [ prog.name ];
    Hashtbl.replace t.programs prog.name vm;
    Obs.Counter.incr c_installs;
    register_program_views ~view_ns:t.view_ns prog.name vm;
    Ok vm

let install_canary t ?engine ?budget ?resource_budget ?model_names ?invocations
    ?max_divergences ?grace (prog : Program.t) =
  match Hashtbl.find_opt t.programs prog.name with
  | None ->
    (* Nothing to canary against: a first install is immediate. *)
    install t ?engine ?budget ?resource_budget ?model_names prog
  | Some vm ->
    (match prepare t ?budget ?resource_budget ?model_names prog with
     | Error _ as e -> e
     | Ok loaded ->
       Vm.stage_canary vm ?invocations ?max_divergences ?grace loaded;
       Obs.Counter.incr c_installs;
       Ok vm)

(* Forced in-place replacement for the fleet's rollback-after-grace path:
   verify and link like {!install}, but splice the result into the
   incumbent's Vm with {!Vm.swap} so every table entry holding a direct
   reference to that Vm serves the new build immediately — no canary
   window, no new Vm object.  A fresh name falls back to {!install}. *)
let swap_program t ?budget ?resource_budget ?model_names (prog : Program.t) =
  match Hashtbl.find_opt t.programs prog.name with
  | None -> install t ?budget ?resource_budget ?model_names prog
  | Some vm ->
    (match prepare t ?budget ?resource_budget ?model_names prog with
     | Error _ as e -> e
     | Ok loaded ->
       Vm.swap vm loaded;
       Obs.Counter.incr c_installs;
       Ok vm)

let canary_status t name =
  match Hashtbl.find_opt t.programs name with
  | None -> None
  | Some vm -> Some (Vm.canary_status vm)

let rollback_program t name =
  match Hashtbl.find_opt t.programs name with
  | None -> false
  | Some vm -> Vm.cancel_canary vm || Vm.rollback vm

let install_asm t ?engine ?budget ?resource_budget ?model_names source =
  match Asm.parse ~helpers:t.helpers source with
  | Error e -> Error (Format.asprintf "%a" Asm.pp_error e)
  | Ok prog -> install t ?engine ?budget ?resource_budget ?model_names prog

let install_bytes t ?engine ?budget ?resource_budget ?model_names data =
  match Encoding.decode data with
  | Error e -> Error ("decode: " ^ e)
  | Ok prog -> install t ?engine ?budget ?resource_budget ?model_names prog

let find_program t name = Hashtbl.find_opt t.programs name

let resource_report t name = Hashtbl.find_opt t.resources name

let remove_program t name =
  if Hashtbl.mem t.programs name then begin
    Hashtbl.remove t.programs name;
    Hashtbl.remove t.resources name;
    t.program_order <- List.filter (fun n -> n <> name) t.program_order;
    List.iter
      (fun suffix -> Obs.Registry.unregister_view (t.view_ns ^ ".program." ^ name ^ "." ^ suffix))
      [ "invocations"; "steps"; "throttled_units"; "guardrail_violations" ];
    true
  end
  else false

let bind_tail_call t ~caller ~slot ~callee =
  match (find_program t caller, find_program t callee) with
  | None, _ -> Error (Printf.sprintf "bind_tail_call: unknown caller %s" caller)
  | _, None -> Error (Printf.sprintf "bind_tail_call: unknown callee %s" callee)
  | Some cvm, Some tvm ->
    (match Loaded.bind_tail_call (Vm.loaded cvm) ~slot (Vm.loaded tvm) with
     | () -> Ok ()
     | exception Invalid_argument msg -> Error msg)

let create_table t ~name ~match_keys ~default =
  let table = Table.create ~name ~match_keys ~default in
  if not (Hashtbl.mem t.tables name) then t.table_order <- t.table_order @ [ name ];
  Hashtbl.replace t.tables name table;
  table

let find_table t name = Hashtbl.find_opt t.tables name
let attach t ~hook table = Pipeline.attach t.pipeline ~hook table

let fire t ~hook ~ctxt =
  Obs.Counter.incr c_fires;
  Pipeline.fire t.pipeline ~hook ~ctxt ~now:t.clock

let fire_batch t ~hook b =
  Obs.Counter.add c_fires b.Batch.n;
  Pipeline.fire_batch t.pipeline ~hook b ~now:t.clock
let program_names t = t.program_order
let table_names t = t.table_order

let pp fmt t =
  Format.fprintf fmt "control plane: %d programs, %d tables, %d models@."
    (List.length t.program_order) (List.length t.table_order) (Model_store.count t.store);
  List.iter
    (fun name ->
      match find_program t name with
      | Some vm ->
        Format.fprintf fmt "  program %s: %d invocations, %d steps@." name (Vm.invocations vm)
          (Vm.total_steps vm)
      | None -> ())
    t.program_order;
  Pipeline.pp fmt t.pipeline
