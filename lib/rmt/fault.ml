type point =
  | Model_extreme
  | Model_garbage
  | Engine_trap
  | Helper_fail
  | Encoding_bitflip
  | Table_miss
  | Clock_skew

let all_points =
  [ Model_extreme; Model_garbage; Engine_trap; Helper_fail; Encoding_bitflip; Table_miss;
    Clock_skew ]

let n_points = 7

let index = function
  | Model_extreme -> 0
  | Model_garbage -> 1
  | Engine_trap -> 2
  | Helper_fail -> 3
  | Encoding_bitflip -> 4
  | Table_miss -> 5
  | Clock_skew -> 6

let point_name = function
  | Model_extreme -> "model_extreme"
  | Model_garbage -> "model_garbage"
  | Engine_trap -> "engine_trap"
  | Helper_fail -> "helper_fail"
  | Encoding_bitflip -> "encoding_bitflip"
  | Table_miss -> "table_miss"
  | Clock_skew -> "clock_skew"

let point_of_name s = List.find_opt (fun p -> point_name p = s) all_points

(* Per-point process totals, independent of RKD_OBS so tests can assert on
   them directly; exported to snapshots through registry views below. *)
let injections = Array.init n_points (fun _ -> Atomic.make 0)
let injected p = Atomic.get injections.(index p)

let () =
  List.iter
    (fun p ->
      Obs.Registry.register_view
        ("rmt.fault.injected." ^ point_name p)
        (fun () -> injected p))
    all_points

type plan = { probs : float array; rng : Kml.Rng.t }

(* Domain-local scope: a local plan shadows the global one; [Suppress]
   disables all injection in the scope.  [None] falls through to the
   global (env-armed) plan. *)
type scope = Local of plan | Suppress

let scope_key : scope option Domain.DLS.key = Domain.DLS.new_key (fun () -> None)

let global_plan : plan option ref = ref None
let global_mutex = Mutex.create ()
let global_suppressed = ref false
let locals = Atomic.make 0

(* The one-load fast path: true iff any plan might apply to any domain.
   Recomputed on every (rare) configuration change. *)
let armed = Atomic.make false

let recompute_armed () =
  Atomic.set armed
    ((!global_plan <> None && not !global_suppressed) || Atomic.get locals > 0)

let active () = Atomic.get armed

let make_plan ?(seed = 0xfa017) points =
  let probs = Array.make n_points 0.0 in
  List.iter
    (fun (p, prob) -> probs.(index p) <- Float.min 1.0 (Float.max 0.0 prob))
    points;
  { probs; rng = Kml.Rng.create seed }

let set_global ?seed points =
  Mutex.protect global_mutex (fun () -> global_plan := Some (make_plan ?seed points));
  recompute_armed ()

let suppress_default () =
  global_suppressed := true;
  recompute_armed ()

let with_scope scope f =
  let prev = Domain.DLS.get scope_key in
  Domain.DLS.set scope_key (Some scope);
  Atomic.incr locals;
  recompute_armed ();
  Fun.protect
    ~finally:(fun () ->
      Domain.DLS.set scope_key prev;
      Atomic.decr locals;
      recompute_armed ())
    f

let with_plan ?seed points f = with_scope (Local (make_plan ?seed points)) f
let without f = with_scope Suppress f

(* Cross-domain plan threading: [with_plan] scopes are domain-local
   (DLS), so a plan armed on the submitting domain is invisible to a
   long-lived pinned worker spawned inside the scope.  A [capture] taken
   on the submitter and re-installed by the worker at startup closes the
   gap; [capture_for ~index] derives an independent per-worker substream
   (same probabilities, split rng) so N workers replay deterministic,
   non-shared fault schedules. *)
type capture = scope option

let capture () = Domain.DLS.get scope_key

let capture_for ~index cap =
  match cap with
  | Some (Local plan) ->
    Some (Local { probs = Array.copy plan.probs; rng = Kml.Rng.split plan.rng index })
  | Some Suppress -> Some Suppress
  | None -> None

let with_capture cap f =
  match cap with None -> f () | Some scope -> with_scope scope f

let draw plan p =
  let prob = plan.probs.(index p) in
  prob > 0.0
  && Kml.Rng.uniform plan.rng < prob
  && begin
       Atomic.incr injections.(index p);
       true
     end

(* Slow path, reached only when some plan is armed somewhere. *)
let fire_slow p =
  match Domain.DLS.get scope_key with
  | Some Suppress -> false
  | Some (Local plan) -> draw plan p
  | None ->
    if !global_suppressed then false
    else
      Mutex.protect global_mutex (fun () ->
          match !global_plan with None -> false | Some plan -> draw plan p)

let fire p = if Atomic.get armed then fire_slow p else false

(* Value generators draw from the active plan's rng so perturbations are
   part of the deterministic fault schedule.  The fallback rng is only
   reachable if a caller ignores the [fire]-first contract. *)
let fallback_rng = Kml.Rng.create 0xdead

let with_active_rng f =
  match Domain.DLS.get scope_key with
  | Some (Local plan) -> f plan.rng
  | Some Suppress -> f fallback_rng
  | None ->
    Mutex.protect global_mutex (fun () ->
        match !global_plan with Some plan -> f plan.rng | None -> f fallback_rng)

let extreme_pool = [| min_int; max_int; 0; 1; -1; 1 lsl 40; -(1 lsl 40) |]

let extreme () =
  with_active_rng (fun rng -> extreme_pool.(Kml.Rng.int rng (Array.length extreme_pool)))

let garbage () =
  with_active_rng (fun rng ->
      let v = Kml.Rng.next rng in
      if Kml.Rng.bool rng then -v else v)

let skew () =
  with_active_rng (fun rng ->
      if Kml.Rng.int rng 8 = 0 then -Kml.Rng.int rng 1_000 (* small backward step *)
      else Kml.Rng.int rng 10_000_000 (* forward jump, up to 10ms *))

let corrupt data =
  with_active_rng (fun rng ->
      let len = Bytes.length data in
      if len > 0 then begin
        let flips = 1 + Kml.Rng.int rng 4 in
        for _ = 1 to flips do
          let bit = Kml.Rng.int rng (len * 8) in
          let i = bit / 8 and b = bit land 7 in
          Bytes.set data i (Char.chr (Char.code (Bytes.get data i) lxor (1 lsl b)))
        done
      end)

let parse_spec spec =
  let parts = String.split_on_char ',' spec in
  let rec go acc = function
    | [] -> Ok (List.rev acc)
    | part :: rest -> (
      match String.index_opt part ':' with
      | None -> Error (Printf.sprintf "RKD_FAULTS: missing ':' in %S" part)
      | Some i -> (
        let name = String.sub part 0 i in
        let prob_s = String.sub part (i + 1) (String.length part - i - 1) in
        match float_of_string_opt prob_s with
        | None -> Error (Printf.sprintf "RKD_FAULTS: bad probability %S" prob_s)
        | Some prob ->
          if name = "all" then go (List.map (fun p -> (p, prob)) all_points @ acc) rest
          else (
            match point_of_name name with
            | Some p -> go ((p, prob) :: acc) rest
            | None -> Error (Printf.sprintf "RKD_FAULTS: unknown fault point %S" name))))
  in
  go [] parts

let () =
  match Sys.getenv_opt "RKD_FAULTS" with
  | None | Some "" -> ()
  | Some spec -> (
    match parse_spec spec with
    | Ok points -> set_global points
    | Error msg -> prerr_endline msg)
