(* Drift-aware fleet control plane (DESIGN.md section 17): the paper's
   reconfiguration loop closed at fleet scale.  Everything below is a
   pure function of seed x tick — event streams come from split rng
   substreams keyed by (shard, tenant, tick), fault plans are re-armed
   per shard task from (seed, shard, tick), the simulated clock is
   tick * tick_ns — so a soak replays bit-identically at any pool width,
   clean or faulted. *)

let mix h v = ((h * 0x100000001b3) + (v land max_int)) land max_int

type params = {
  tenants : int;
  shards : int;
  events_per_tick : int;
  n_features : int;
  feature_range : int;
  bootstrap_samples : int;
  adapt_low : float;
  adapt_high : float;
  adapt_window : int;
  fresh_wait_ticks : int;
  cooldown_ticks : int;
  backoff_base_ticks : int;
  max_rollout_attempts : int;
  stage_ticks : int;
  canary_invocations : int;
  canary_grace : int;
  window_capacity : int;
  min_retrain_samples : int;
  retrain_take : int;
  teacher_depth : int;
  student_depths : int list;
  candidate_floor_milli : int;
  model_budget : Kml.Model_cost.budget;
  resource_budget : Rmt.Resource.budget;
  drift_start : int;
  drift_period : int;
  drift_count : int;
  drift_stagger : int;
  tick_ns : int;
}

let default_params =
  { tenants = 12;
    shards = 4;
    events_per_tick = 4;
    n_features = 4;
    feature_range = 1024;
    bootstrap_samples = 192;
    adapt_low = 0.62;
    adapt_high = 0.80;
    adapt_window = 48;
    fresh_wait_ticks = 6;
    cooldown_ticks = 24;
    backoff_base_ticks = 2;
    max_rollout_attempts = 2;
    stage_ticks = 12;
    canary_invocations = 8;
    canary_grace = 256;
    window_capacity = 512;
    min_retrain_samples = 96;
    retrain_take = 96;
    teacher_depth = 8;
    student_depths = [ 3; 5 ];
    candidate_floor_milli = 700;
    model_budget = Kml.Model_cost.default_budget;
    resource_budget = Rmt.Resource.default_budget;
    drift_start = 40;
    drift_period = 70;
    drift_count = 2;
    drift_stagger = 3;
    (* 64 ms per tick: the breaker's capped 1 s backoff resolves within
       16 ticks, so recovery phases stay short. *)
    tick_ns = 64_000_000 }

let storm_params = { default_params with drift_count = 1; drift_stagger = 0 }

(* --- staged rollout state machine ----------------------------------- *)

module Rollout = struct
  type target = {
    label : int;
    install : unit -> bool;
    status : unit -> [ `Pending | `Promoted | `Failed ];
    healthy : unit -> bool;
    restore : unit -> bool;
  }

  type t = {
    targets : target array;
    stages : int array array;
    stage_ticks : int;
    mutable next_stage : int;  (* first stage not yet entered *)
    mutable waiting : int list;  (* target indices with an in-flight canary *)
    mutable promoted : int list;  (* newest first, for reverse-order restore *)
    mutable deadline : int;
    mutable n_installs : int;
    mutable auto_rolled_back : int;  (* canaries the Vm itself rolled back *)
  }

  type outcome = [ `In_flight | `Promoted | `Failed of int ]

  let stage_plan n =
    if n <= 1 then [| [| 0 |] |]
    else begin
      let c1 = 1 in
      let c2 = Stdlib.min (Stdlib.max (n / 4) 1) (n - c1) in
      let s1 = [| 0 |] in
      let s2 = Array.init c2 (fun i -> c1 + i) in
      let s3 = Array.init (n - c1 - c2) (fun i -> c1 + c2 + i) in
      if Array.length s3 = 0 then [| s1; s2 |] else [| s1; s2; s3 |]
    end

  let installs t = t.n_installs
  let healthy_stage t k = Array.for_all (fun i -> t.targets.(i).healthy ()) t.stages.(k)

  (* Restore everything this rollout touched: pending canaries first,
     then promotions newest-first, so each shard unwinds in reverse
     install order.  Returns total rollbacks (explicit restores plus the
     canaries the Vm already rolled back itself). *)
  let fail_restore t =
    let restored = ref t.auto_rolled_back in
    List.iter (fun i -> if t.targets.(i).restore () then incr restored) t.waiting;
    List.iter (fun i -> if t.targets.(i).restore () then incr restored) t.promoted;
    t.waiting <- [];
    t.promoted <- [];
    t.next_stage <- Array.length t.stages;
    !restored

  (* Enter stage [t.next_stage]: health-gate, then install every
     target's canary.  A refused install fails the whole rollout. *)
  let try_enter t ~now =
    if t.next_stage >= Array.length t.stages then `Done
    else if not (healthy_stage t t.next_stage) then
      if now >= t.deadline then `Fail else `Wait
    else begin
      let k = t.next_stage in
      t.next_stage <- k + 1;
      t.deadline <- now + t.stage_ticks;
      let ok = ref true in
      Array.iter
        (fun i ->
          if !ok then
            if t.targets.(i).install () then begin
              t.n_installs <- t.n_installs + 1;
              t.waiting <- i :: t.waiting
            end
            else ok := false)
        t.stages.(k);
      if !ok then `Entered else `Fail
    end

  let start ~targets ~stages ~now ~stage_ticks =
    let t =
      { targets;
        stages;
        stage_ticks;
        next_stage = 0;
        waiting = [];
        promoted = [];
        deadline = now + stage_ticks;
        n_installs = 0;
        auto_rolled_back = 0 }
    in
    if not (healthy_stage t 0) then `Unhealthy
    else
      match try_enter t ~now with
      | `Entered -> `Started t
      | `Fail -> `Failed (fail_restore t)
      | `Wait | `Done -> `Failed (fail_restore t)

  (* Caller-initiated teardown: restore everything this rollout staged or
     promoted and finish it.  Used by fleet recovery before re-arming a
     tripped shard, and by serving-layer callers that must abandon a
     rollout mid-flight. *)
  let abort t = fail_restore t

  let step t ~now =
    let failed = ref false in
    let still =
      List.filter
        (fun i ->
          match t.targets.(i).status () with
          | `Pending -> true
          | `Promoted ->
            t.promoted <- i :: t.promoted;
            false
          | `Failed ->
            t.auto_rolled_back <- t.auto_rolled_back + 1;
            failed := true;
            false)
        t.waiting
    in
    t.waiting <- still;
    if !failed then `Failed (fail_restore t)
    else if still <> [] then begin
      (* A breaker trip mid-stage starves the canary of invocations; fail
         promptly rather than waiting out the deadline. *)
      if (not (healthy_stage t (t.next_stage - 1))) || now >= t.deadline then
        `Failed (fail_restore t)
      else `In_flight
    end
    else
      match try_enter t ~now with
      | `Done -> `Promoted
      | `Entered | `Wait -> `In_flight
      | `Fail -> `Failed (fail_restore t)
end

(* --- fleet state ----------------------------------------------------- *)

type tenant = {
  id : int;
  adapt : Adapt.t;
  ring : Kml.Dataset.sample array;
  mutable whead : int;
  mutable wlen : int;
  mutable current : Kml.Decision_tree.t;
  mutable staged : Kml.Decision_tree.t option;
  mutable rollout : Rollout.t option;
  mutable version : int;
  mutable episode_active : bool;
  mutable attempts : int;  (* rollout attempts in the current episode *)
  mutable retry_at : int;
  mutable next_episode_at : int;
  mutable next_train_at : int;
  mutable degraded_at : int;
  mutable prev_mode : Adapt.mode;
  mutable accuracy_milli : int;
  mutable episodes : int;
  mutable installs : int;
  mutable promotions : int;
  mutable rollbacks : int;
  mutable deferred : int;
  mutable max_attempts : int;
}

(* Per-(shard, tenant) slice a drive task fills each tick: a correctness
   bitmask (events_per_tick <= 60 fits one int) plus the labelled samples
   the control step merges into the tenant's retraining ring. *)
type slice = {
  mutable sl_mask : int;
  mutable sl_total : int;
  mutable sl_uncaught : int;
  mutable sl_samples : Kml.Dataset.sample array;
}

type shard = {
  s_index : int;
  control : Rmt.Control.t;
  breaker : Rmt.Breaker.t;
  vms : Rmt.Vm.t array;  (* per tenant; swapped in place, never replaced *)
  ctxts : Rmt.Ctxt.t array;
  digests : int array;  (* per tenant decision-stream digest *)
  slices : slice array;
}

type t = {
  params : params;
  seed : int;
  events_master : Kml.Rng.t;
  concept_master : Kml.Rng.t;
  fault_specs : (Rmt.Fault.point * float) list option;
  now_cell : int array;
  tenants : tenant array;
  shards : shard array;
  shard_indices : int array;
  mutable ticks : int;
  mutable recovering : bool;
  mutable events : int;
  mutable uncaught : int;
  mutable cdigest : int;  (* control-plane event digest *)
}

let params t = t.params

(* --- workload: per-tenant concepts with scheduled drift -------------- *)

(* Ground truth is an xor of two per-(tenant, phase) threshold tests —
   tree-learnable, and a fresh draw on every drift so the incumbent's
   accuracy genuinely collapses toward coin-flip.  [master] here is the
   concept substream, disjoint from the event and bootstrap streams. *)
let concept master tn phase ~n_features ~range =
  let rng = Kml.Rng.split (Kml.Rng.split master tn) phase in
  let a = Kml.Rng.int rng n_features in
  let ca = (range / 8) + Kml.Rng.int rng (3 * range / 4) in
  let b = Kml.Rng.int rng n_features in
  let cb = (range / 8) + Kml.Rng.int rng (3 * range / 4) in
  fun (x : int array) -> if (x.(a) >= ca) <> (x.(b) >= cb) then 1 else 0

let phase_of p tn ~tick =
  if p.drift_count <= 0 then 0
  else begin
    let first = p.drift_start + (tn * p.drift_stagger) in
    if tick < first then 0
    else if p.drift_period <= 0 then Stdlib.min p.drift_count 1
    else Stdlib.min p.drift_count (1 + ((tick - first) / p.drift_period))
  end

let stock_heuristic p (features : int array) =
  if features.(0) >= p.feature_range / 2 then 1 else 0

(* --- datapath program ------------------------------------------------ *)

let prog_name tn = Printf.sprintf "fleet_t%d" tn
let model_name tn v = Printf.sprintf "fleet_m%d_v%d" tn v

(* Vector-load the tenant's feature block, consult the in-kernel tree,
   return the class — guarded to the label range so a corrupted model
   output is a guardrail violation, not a served decision. *)
let build_program tn ~n_features =
  let open Rmt in
  let b = Builder.create ~name:(prog_name tn) ~vmem_size:n_features () in
  let _slot = Builder.add_model b ~n_features in
  Builder.add_capability b (Program.Guarded { lo = 0; hi = 1 });
  Builder.emit b (Insn.Vec_ld_ctxt (0, Hooks.key_feature_base, n_features));
  Builder.emit b (Insn.Call_ml (0, 0, n_features));
  Builder.emit b Insn.Exit;
  Builder.finish b ()

(* --- construction ---------------------------------------------------- *)

let bootstrap_tree p ~concept_master ~boot_master tn =
  let rng = Kml.Rng.split boot_master tn in
  let truth =
    concept concept_master tn 0 ~n_features:p.n_features ~range:p.feature_range
  in
  let ds = Kml.Dataset.create ~n_features:p.n_features ~n_classes:2 in
  for _ = 1 to p.bootstrap_samples do
    let features = Array.init p.n_features (fun _ -> Kml.Rng.int rng p.feature_range) in
    Kml.Dataset.add ds { Kml.Dataset.features; label = truth features }
  done;
  let tp = { Kml.Decision_tree.default_params with max_depth = p.teacher_depth } in
  Kml.Decision_tree.train ~params:tp ds

let make_tenant p ~concept_master ~boot_master tn =
  let dummy = { Kml.Dataset.features = Array.make p.n_features 0; label = 0 } in
  { id = tn;
    adapt =
      Adapt.create ~low:p.adapt_low ~high:p.adapt_high ~window:p.adapt_window
        ~dwell:p.adapt_window ();
    ring = Array.make p.window_capacity dummy;
    whead = 0;
    wlen = 0;
    current = bootstrap_tree p ~concept_master ~boot_master tn;
    staged = None;
    rollout = None;
    version = 0;
    episode_active = false;
    attempts = 0;
    retry_at = 0;
    next_episode_at = 0;
    next_train_at = 0;
    degraded_at = 0;
    prev_mode = Adapt.Normal;
    accuracy_milli = 1000;
    episodes = 0;
    installs = 0;
    promotions = 0;
    rollbacks = 0;
    deferred = 0;
    max_attempts = 0 }

let make_shard p ~seed ~now_cell ~(tenants : tenant array) s =
  let control =
    Rmt.Control.create
      ~seed:(seed lxor (0x51ab * (s + 1)))
      ~view_ns:(Printf.sprintf "rmt.fleet.shard%d" s)
      ()
  in
  Rmt.Control.set_clock control (fun () -> now_cell.(0));
  let vms =
    Array.map
      (fun tenant ->
        let name = model_name tenant.id 0 in
        ignore
          (Rmt.Control.register_model control ~name (Rmt.Model_store.Tree tenant.current)
            : Rmt.Model_store.handle);
        match
          Rmt.Control.install control ~budget:p.model_budget
            ~resource_budget:p.resource_budget ~model_names:[ name ]
            (build_program tenant.id ~n_features:p.n_features)
        with
        | Ok vm -> vm
        | Error e -> invalid_arg ("Fleet.create: install failed: " ^ e))
      tenants
  in
  let table =
    Rmt.Control.create_table control ~name:"fleet_tab" ~match_keys:[| Hooks.key_pid |]
      ~default:(Rmt.Table.Const (-1))
  in
  Array.iteri
    (fun tn vm ->
      ignore
        (Rmt.Table.insert table ~patterns:[| Rmt.Table.Eq tn |] (Rmt.Table.Run vm)
          : Rmt.Table.entry_id))
    vms;
  Rmt.Control.attach control ~hook:Hooks.fleet_predict table;
  let breaker =
    Rmt.Control.protect control ~hook:Hooks.fleet_predict
      ~programs:(Array.to_list (Array.map (fun tenant -> prog_name tenant.id) tenants))
      ~fallback:(fun ctxt -> Rmt.Ctxt.get ctxt Hooks.key_heuristic)
      ()
  in
  let dummy = { Kml.Dataset.features = Array.make p.n_features 0; label = 0 } in
  { s_index = s;
    control;
    breaker;
    vms;
    ctxts = Array.map (fun _ -> Rmt.Ctxt.create ()) vms;
    digests = Array.make (Array.length tenants) 0;
    slices =
      Array.init (Array.length tenants) (fun _ ->
          { sl_mask = 0;
            sl_total = 0;
            sl_uncaught = 0;
            sl_samples = Array.make p.events_per_tick dummy }) }

let register_views t =
  Array.iter
    (fun tenant ->
      let name suffix = Printf.sprintf "rmt.fleet.%d.%s" tenant.id suffix in
      Obs.Registry.register_view (name "accuracy") (fun () -> tenant.accuracy_milli);
      Obs.Registry.register_view (name "drift_episodes") (fun () -> tenant.episodes);
      Obs.Registry.register_view (name "rollbacks") (fun () -> tenant.rollbacks))
    t.tenants;
  let total f () = Array.fold_left (fun acc tenant -> acc + f tenant) 0 t.tenants in
  Obs.Registry.register_view "rmt.fleet.episodes" (total (fun x -> x.episodes));
  Obs.Registry.register_view "rmt.fleet.installs" (total (fun x -> x.installs));
  Obs.Registry.register_view "rmt.fleet.promotions" (total (fun x -> x.promotions));
  Obs.Registry.register_view "rmt.fleet.rollbacks" (total (fun x -> x.rollbacks));
  Obs.Registry.register_view "rmt.fleet.deferred" (total (fun x -> x.deferred))

let create ?(params = default_params) ?fault_specs ~seed () =
  let p = params in
  if p.tenants <= 0 || p.shards <= 0 then
    invalid_arg "Fleet.create: tenants and shards must be positive";
  if p.events_per_tick <= 0 || p.events_per_tick > 60 then
    invalid_arg "Fleet.create: events_per_tick must be in 1..60";
  if p.n_features <= 0 || p.feature_range <= 8 then
    invalid_arg "Fleet.create: bad feature space";
  if p.retrain_take > p.window_capacity then
    invalid_arg "Fleet.create: retrain_take exceeds window_capacity";
  let master = Kml.Rng.create seed in
  let concept_master = Kml.Rng.split master 2 in
  let boot_master = Kml.Rng.split master 3 in
  let now_cell = Array.make 1 0 in
  let tenants = Array.init p.tenants (make_tenant p ~concept_master ~boot_master) in
  let shards = Array.init p.shards (make_shard p ~seed ~now_cell ~tenants) in
  let t =
    { params = p;
      seed;
      events_master = Kml.Rng.split master 1;
      concept_master;
      fault_specs;
      now_cell;
      tenants;
      shards;
      shard_indices = Array.init p.shards Fun.id;
      ticks = 0;
      recovering = false;
      events = 0;
      uncaught = 0;
      cdigest = 0 }
  in
  register_views t;
  t

(* --- drive phase (parallel across shards) ---------------------------- *)

let plan_seed t s ~tick =
  (t.seed lxor (0x9e3779b9 * (s + 1)) lxor (0x85ebca6b * (tick + 1))) land 0x3fffffff

let drive_shard t s ~tick =
  let p = t.params in
  let sh = t.shards.(s) in
  let run () =
    for tn = 0 to p.tenants - 1 do
      let rng =
        Kml.Rng.split (Kml.Rng.split (Kml.Rng.split t.events_master s) tn) tick
      in
      let truth =
        concept t.concept_master tn
          (phase_of p tn ~tick)
          ~n_features:p.n_features ~range:p.feature_range
      in
      let sl = sh.slices.(tn) in
      sl.sl_mask <- 0;
      sl.sl_total <- 0;
      sl.sl_uncaught <- 0;
      let ctxt = sh.ctxts.(tn) in
      for e = 0 to p.events_per_tick - 1 do
        let features = Array.init p.n_features (fun _ -> Kml.Rng.int rng p.feature_range) in
        let label = truth features in
        Rmt.Ctxt.set ctxt Hooks.key_pid tn;
        for i = 0 to p.n_features - 1 do
          Rmt.Ctxt.set ctxt (Hooks.key_feature_base + i) features.(i)
        done;
        Rmt.Ctxt.set ctxt Hooks.key_heuristic (stock_heuristic p features);
        let served =
          match Rmt.Control.fire sh.control ~hook:Hooks.fleet_predict ~ctxt with
          | Some v -> v
          | None -> -1
          | exception _ ->
            sl.sl_uncaught <- sl.sl_uncaught + 1;
            -2
        in
        if served = label then sl.sl_mask <- sl.sl_mask lor (1 lsl e);
        sl.sl_total <- sl.sl_total + 1;
        sh.digests.(tn) <- mix (mix sh.digests.(tn) (served + 3)) label;
        sl.sl_samples.(e) <- { Kml.Dataset.features; label }
      done
    done
  in
  if t.recovering then Rmt.Fault.without run
  else
    match t.fault_specs with
    | Some specs -> Rmt.Fault.with_plan ~seed:(plan_seed t s ~tick) specs run
    | None -> run ()

(* --- candidate search ------------------------------------------------ *)

(* Retrain on the newest [retrain_take] window samples: teacher tree,
   then distilled students; prune against the model-cost budget, score
   on a held-out quarter, pick best accuracy with cheapest-model
   tie-break (the Nas-style search under a declared resource budget). *)
let train_candidate t tenant =
  let p = t.params in
  let n = Stdlib.min tenant.wlen p.retrain_take in
  if n < p.min_retrain_samples then None
  else begin
    let cap = p.window_capacity in
    let train_ds = Kml.Dataset.create ~n_features:p.n_features ~n_classes:2 in
    let vals = ref [] in
    for i = 0 to n - 1 do
      let idx = (tenant.whead - n + i + (2 * cap)) mod cap in
      let s = tenant.ring.(idx) in
      if i mod 4 = 3 then vals := s :: !vals else Kml.Dataset.add train_ds s
    done;
    if Kml.Dataset.length train_ds = 0 || !vals = [] then None
    else begin
      let tp = { Kml.Decision_tree.default_params with max_depth = p.teacher_depth } in
      let teacher = Kml.Decision_tree.train ~params:tp train_ds in
      let students =
        List.map
          (fun d ->
            Kml.Distill.to_tree
              ~params:{ tp with Kml.Decision_tree.max_depth = d }
              ~teacher:(Kml.Decision_tree.predict teacher)
              train_ds)
          p.student_depths
      in
      let admissible =
        List.filter
          (fun c -> Kml.Model_cost.within (Kml.Model_cost.of_tree c) p.model_budget)
          (teacher :: students)
      in
      let n_vals = List.length !vals in
      let score c =
        List.fold_left
          (fun acc s ->
            if Kml.Decision_tree.predict c s.Kml.Dataset.features = s.Kml.Dataset.label
            then acc + 1
            else acc)
          0 !vals
      in
      let best =
        List.fold_left
          (fun acc c ->
            let sc = score c
            and words = (Kml.Model_cost.of_tree c).Kml.Model_cost.memory_words in
            match acc with
            | Some (_, bsc, bwords) when bsc > sc || (bsc = sc && bwords <= words) -> acc
            | _ -> Some (c, sc, words))
          None admissible
      in
      match best with
      | Some (c, sc, _) when sc * 1000 >= p.candidate_floor_milli * n_vals -> Some c
      | _ -> None
    end
  end

(* --- rollout targets -------------------------------------------------- *)

let cd t v = t.cdigest <- mix t.cdigest v

(* One rollout target per shard, home shard first.  [install] stages the
   candidate as a canary under the install-time budgets; [status] detects
   promotion by physical identity of the Vm's loaded slot (promotion and
   rollback both happen inside the Vm, invisible to the registry);
   [restore] prefers the transactional rollback path and falls back to a
   forced in-place swap of the pre-episode tree when the grace window has
   already expired. *)
let make_targets t tenant candidate =
  let p = t.params in
  tenant.version <- tenant.version + 1;
  let v = tenant.version in
  let prev = tenant.current in
  let home = tenant.id mod p.shards in
  Array.init p.shards (fun k ->
      let s = (home + k) mod p.shards in
      let sh = t.shards.(s) in
      let vm = sh.vms.(tenant.id) in
      let pname = prog_name tenant.id in
      let before = ref (Rmt.Vm.loaded vm) in
      { Rollout.label = s;
        install =
          (fun () ->
            before := Rmt.Vm.loaded vm;
            let name = model_name tenant.id v in
            ignore
              (Rmt.Control.register_model sh.control ~name
                 (Rmt.Model_store.Tree candidate)
                : Rmt.Model_store.handle);
            match
              Rmt.Control.install_canary sh.control ~budget:p.model_budget
                ~resource_budget:p.resource_budget ~model_names:[ name ]
                ~invocations:p.canary_invocations
                ~max_divergences:(3 * p.canary_invocations / 4)
                ~grace:p.canary_grace
                (build_program tenant.id ~n_features:p.n_features)
            with
            | Ok _ ->
              tenant.installs <- tenant.installs + 1;
              cd t ((s * 64) + 2);
              true
            | Error _ -> false);
        status =
          (fun () ->
            match Rmt.Vm.canary_status vm with
            | `Canary _ -> `Pending
            | `Idle | `Grace _ ->
              if Rmt.Vm.loaded vm != !before then `Promoted else `Failed);
        healthy = (fun () -> Rmt.Breaker.state sh.breaker = Rmt.Breaker.Closed);
        restore =
          (fun () ->
            if Rmt.Control.rollback_program sh.control pname then true
            else if Rmt.Vm.loaded vm != !before then begin
              (* Grace expired: force the pre-episode tree back in place. *)
              let name = model_name tenant.id v ^ "r" in
              ignore
                (Rmt.Control.register_model sh.control ~name
                   (Rmt.Model_store.Tree prev)
                  : Rmt.Model_store.handle);
              match
                Rmt.Control.swap_program sh.control ~budget:p.model_budget
                  ~resource_budget:p.resource_budget ~model_names:[ name ]
                  (build_program tenant.id ~n_features:p.n_features)
              with
              | Ok _ -> true
              | Error _ -> false
            end
            else false) })

(* --- episode state machine ------------------------------------------- *)

let close_episode t tenant ~tick =
  tenant.max_attempts <- Stdlib.max tenant.max_attempts tenant.attempts;
  tenant.episode_active <- false;
  tenant.attempts <- 0;
  tenant.staged <- None;
  tenant.next_episode_at <- tick + t.params.cooldown_ticks

let rollout_failed t tenant ~tick rollbacks =
  let p = t.params in
  tenant.rollbacks <- tenant.rollbacks + rollbacks;
  tenant.rollout <- None;
  cd t ((tenant.id * 8) + 4);
  if tenant.attempts < p.max_rollout_attempts then
    (* Exponential-backoff retry: a fresh candidate is retrained at
       [retry_at], so the attempt sees newer window data too. *)
    tenant.retry_at <-
      tick + (p.backoff_base_ticks * (1 lsl Stdlib.min 16 (Stdlib.max 0 (tenant.attempts - 1))))
  else close_episode t tenant ~tick

let attempt_rollout t tenant ~tick =
  let p = t.params in
  match train_candidate t tenant with
  | None ->
    (* No admissible candidate yet (window too stale or too small):
       retry shortly, or close the episode if the tenant recovered on
       its own in the meantime. *)
    if Adapt.mode tenant.adapt = Adapt.Normal then close_episode t tenant ~tick
    else begin
      tenant.next_train_at <- tick + 4;
      tenant.retry_at <- tick + 4
    end
  | Some candidate ->
    let targets = make_targets t tenant candidate in
    (match
       Rollout.start ~targets
         ~stages:(Rollout.stage_plan p.shards)
         ~now:tick ~stage_ticks:p.stage_ticks
     with
    | `Started r ->
      tenant.attempts <- tenant.attempts + 1;
      tenant.staged <- Some candidate;
      tenant.rollout <- Some r
    | `Unhealthy ->
      (* Open breaker on the home shard: defer without consuming an
         attempt — degraded shards serve the stock heuristic meanwhile. *)
      tenant.deferred <- tenant.deferred + 1;
      cd t ((tenant.id * 8) + 5);
      tenant.retry_at <- tick + p.backoff_base_ticks
    | `Failed rollbacks ->
      tenant.attempts <- tenant.attempts + 1;
      rollout_failed t tenant ~tick rollbacks)

let control_step t ~tick =
  let p = t.params in
  let run () =
    (* Merge shard slices in fixed (tenant, shard, event) order: ring
       pushes, accuracy observations, drift detection. *)
    Array.iter
      (fun tenant ->
        let tn = tenant.id in
        for s = 0 to p.shards - 1 do
          let sl = t.shards.(s).slices.(tn) in
          for e = 0 to sl.sl_total - 1 do
            tenant.ring.(tenant.whead) <- sl.sl_samples.(e);
            tenant.whead <- (tenant.whead + 1) mod p.window_capacity;
            tenant.wlen <- Stdlib.min (tenant.wlen + 1) p.window_capacity;
            Adapt.observe tenant.adapt ~correct:(sl.sl_mask land (1 lsl e) <> 0)
          done;
          t.events <- t.events + sl.sl_total;
          t.uncaught <- t.uncaught + sl.sl_uncaught
        done;
        tenant.accuracy_milli <-
          int_of_float (Float.round (1000.0 *. Adapt.rate tenant.adapt));
        let mode = Adapt.mode tenant.adapt in
        if mode = Adapt.Conservative && tenant.prev_mode = Adapt.Normal then begin
          tenant.degraded_at <- tick;
          cd t ((tenant.id * 8) + 1)
        end;
        tenant.prev_mode <- mode)
      t.tenants;
    (* Episode state machines, in tenant order. *)
    Array.iter
      (fun tenant ->
        match tenant.rollout with
        | Some r ->
          (match Rollout.step r ~now:tick with
          | `In_flight -> ()
          | `Promoted ->
            tenant.rollout <- None;
            tenant.promotions <- tenant.promotions + 1;
            (match tenant.staged with
            | Some c -> tenant.current <- c
            | None -> ());
            cd t ((tenant.id * 8) + 3);
            close_episode t tenant ~tick
          | `Failed rollbacks -> rollout_failed t tenant ~tick rollbacks)
        | None ->
          if tenant.episode_active then begin
            if tick >= tenant.retry_at then attempt_rollout t tenant ~tick
          end
          else if
            Adapt.mode tenant.adapt = Adapt.Conservative
            && tick >= tenant.next_episode_at
            && tick >= tenant.degraded_at + p.fresh_wait_ticks
            && tick >= tenant.next_train_at
            && tenant.wlen >= p.min_retrain_samples
          then begin
            tenant.episode_active <- true;
            tenant.episodes <- tenant.episodes + 1;
            tenant.attempts <- 0;
            cd t ((tenant.id * 8) + 6);
            attempt_rollout t tenant ~tick
          end)
      t.tenants
  in
  if t.recovering then Rmt.Fault.without run
  else
    match t.fault_specs with
    | Some specs -> Rmt.Fault.with_plan ~seed:(plan_seed t (p.shards + 17) ~tick) specs run
    | None -> run ()

let tick ?pool t =
  let tick = t.ticks in
  t.now_cell.(0) <- tick * t.params.tick_ns;
  (match pool with
  | Some pool when Par.domains pool > 1 && not t.recovering ->
    ignore
      (Par.parallel_map_array pool (fun s -> drive_shard t s ~tick) t.shard_indices
        : unit array)
  | _ -> Array.iter (fun s -> drive_shard t s ~tick) t.shard_indices);
  control_step t ~tick;
  t.ticks <- tick + 1

let digest t =
  let p = t.params in
  let acc = ref (mix 0x7f1e37 t.cdigest) in
  Array.iter
    (fun sh ->
      Array.iteri
        (fun tn d -> acc := !acc lxor mix ((sh.s_index * p.tenants) + tn + 1) d)
        sh.digests)
    t.shards;
  !acc

let breakers t = Array.map (fun sh -> sh.breaker) t.shards

let all_closed t =
  Array.for_all (fun sh -> Rmt.Breaker.state sh.breaker = Rmt.Breaker.Closed) t.shards

(* A guardrail-window storm outlives the fault plan: the pipeline health
   monitor fails every dispatch while any tenant Vm's violation window is
   still degraded, and an open breaker starves those windows of the clean
   applications that would drain them — with several tenants per hook the
   probe budget can never catch up, so the shard would stay degraded
   forever.  Recovery breaks the deadlock the way an operator would:
   abort in-flight rollouts (restoring whatever they staged), then
   force-swap each tenant's current model back into every tripped shard.
   The swap builds a fresh [Loaded] — fresh guardrail window — so
   half-open probes are judged on post-fault behaviour, not on the
   storm's residue. *)
let rearm t =
  let p = t.params in
  Array.iter
    (fun tenant ->
      match tenant.rollout with
      | None -> ()
      | Some r -> rollout_failed t tenant ~tick:t.ticks (Rollout.abort r))
    t.tenants;
  Array.iter
    (fun sh ->
      if Rmt.Breaker.state sh.breaker <> Rmt.Breaker.Closed then
        Array.iter
          (fun tenant ->
            tenant.version <- tenant.version + 1;
            let name = model_name tenant.id tenant.version in
            ignore
              (Rmt.Control.register_model sh.control ~name
                 (Rmt.Model_store.Tree tenant.current)
                : Rmt.Model_store.handle);
            match
              Rmt.Control.swap_program sh.control ~budget:p.model_budget
                ~resource_budget:p.resource_budget ~model_names:[ name ]
                (build_program tenant.id ~n_features:p.n_features)
            with
            | Ok _ -> cd t ((sh.s_index * 64) + 7)
            | Error _ -> ())
          t.tenants)
    t.shards

let recover ?(max_ticks = 256) t =
  t.recovering <- true;
  let n = ref 0 in
  while (not (all_closed t)) && !n < max_ticks do
    (* Re-arm every breaker-backoff period (the cap is 16 ticks): one
       swap refreshes the windows; the repeat covers a shard whose
       breaker re-trips on a mid-recovery canary. *)
    if !n mod 17 = 0 then Rmt.Fault.without (fun () -> rearm t);
    incr n;
    tick t
  done;
  (* A few extra fault-free ticks so half-open probes finish. *)
  for _ = 1 to 4 do
    tick t
  done;
  t.recovering <- false;
  all_closed t

(* --- reporting ------------------------------------------------------- *)

type tenant_view = {
  t_id : int;
  t_accuracy_milli : int;
  t_episodes : int;
  t_installs : int;
  t_promotions : int;
  t_rollbacks : int;
  t_deferred : int;
  t_max_attempts : int;
}

type report = {
  ticks : int;
  events : int;
  digest : int;
  uncaught : int;
  episodes : int;
  installs : int;
  promotions : int;
  rollbacks : int;
  deferred : int;
  max_attempts : int;
  breaker_opens : int;
  breakers_reclosed : bool;
  fallback_served : int;
  mean_accuracy_milli : int;
  per_tenant : tenant_view array;
}

let report t =
  let p = t.params in
  let per_tenant =
    Array.map
      (fun tenant ->
        { t_id = tenant.id;
          t_accuracy_milli = tenant.accuracy_milli;
          t_episodes = tenant.episodes;
          t_installs = tenant.installs;
          t_promotions = tenant.promotions;
          t_rollbacks = tenant.rollbacks;
          t_deferred = tenant.deferred;
          t_max_attempts = Stdlib.max tenant.max_attempts tenant.attempts })
      t.tenants
  in
  let sum f = Array.fold_left (fun acc v -> acc + f v) 0 per_tenant in
  { ticks = t.ticks;
    events = t.events;
    digest = digest t;
    uncaught = t.uncaught;
    episodes = sum (fun v -> v.t_episodes);
    installs = sum (fun v -> v.t_installs);
    promotions = sum (fun v -> v.t_promotions);
    rollbacks = sum (fun v -> v.t_rollbacks);
    deferred = sum (fun v -> v.t_deferred);
    max_attempts = Array.fold_left (fun acc v -> Stdlib.max acc v.t_max_attempts) 0 per_tenant;
    breaker_opens =
      Array.fold_left (fun acc sh -> acc + Rmt.Breaker.opens sh.breaker) 0 t.shards;
    breakers_reclosed = all_closed t;
    fallback_served =
      Array.fold_left
        (fun acc sh ->
          acc
          + Rmt.Pipeline.fallback_served (Rmt.Control.pipeline sh.control)
              ~hook:Hooks.fleet_predict)
        0 t.shards;
    mean_accuracy_milli =
      (if p.tenants = 0 then 0 else sum (fun v -> v.t_accuracy_milli) / p.tenants);
    per_tenant }

let report_json r =
  let b = Buffer.create 1024 in
  Buffer.add_string b
    (Printf.sprintf
       "{\"schema\":\"rkd-fleet/1\",\"ticks\":%d,\"events\":%d,\"digest\":\"%016x\",\
        \"uncaught\":%d,\"episodes\":%d,\"installs\":%d,\"promotions\":%d,\
        \"rollbacks\":%d,\"deferred\":%d,\"max_attempts\":%d,\"breaker_opens\":%d,\
        \"breakers_reclosed\":%b,\"fallback_served\":%d,\"mean_accuracy_milli\":%d,\
        \"tenants\":["
       r.ticks r.events r.digest r.uncaught r.episodes r.installs r.promotions r.rollbacks
       r.deferred r.max_attempts r.breaker_opens r.breakers_reclosed r.fallback_served
       r.mean_accuracy_milli);
  Array.iteri
    (fun i v ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_string b
        (Printf.sprintf
           "{\"tenant\":%d,\"accuracy_milli\":%d,\"episodes\":%d,\"installs\":%d,\
            \"promotions\":%d,\"rollbacks\":%d,\"deferred\":%d,\"max_attempts\":%d}"
           v.t_id v.t_accuracy_milli v.t_episodes v.t_installs v.t_promotions v.t_rollbacks
           v.t_deferred v.t_max_attempts))
    r.per_tenant;
  Buffer.add_string b "]}";
  Buffer.contents b

let soak ?params ?fault_specs ?pool ?(ticks = 160) ~seed () =
  let t = create ?params ?fault_specs ~seed () in
  for _ = 1 to ticks do
    tick ?pool t
  done;
  ignore (recover t : bool);
  report t
