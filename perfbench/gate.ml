(* The correctness gate.  Each check returns [None] when it holds and a
   one-line reason when it does not; any reason fails the run. *)

let digest ~got ~reference =
  if got = reference then None
  else Some (Printf.sprintf "fleet digest %x differs from the inline reference %x" got reference)

let conservation ~phase ~attempted ~served ~refused =
  if served + refused = attempted then None
  else
    Some
      (Printf.sprintf "%s: served %d + refused %d <> attempted %d" phase served refused
         attempted)

(* The learned-model figures two runs on one seed must share. *)
type learned = { accuracy_ppm : int; retrains : int; model_invocations : int }

let learned_of_stats (stats : Rkd.Prefetch_rmt.stats list) =
  let sum f = List.fold_left (fun acc s -> acc + f s) 0 stats in
  let checked = sum (fun s -> s.Rkd.Prefetch_rmt.predictions_checked) in
  let correct = sum (fun s -> s.Rkd.Prefetch_rmt.predictions_correct) in
  { accuracy_ppm = (if checked = 0 then 0 else correct * 1_000_000 / checked);
    retrains = sum (fun s -> s.Rkd.Prefetch_rmt.retrains);
    model_invocations = sum (fun s -> s.Rkd.Prefetch_rmt.model_invocations) }

let learned_repeat ~first ~again =
  if first = again then None
  else
    Some
      (Printf.sprintf
         "learned stats differ between runs on one seed: accuracy %d/%d ppm, retrains %d/%d, \
          model invocations %d/%d"
         first.accuracy_ppm again.accuracy_ppm first.retrains again.retrains
         first.model_invocations again.model_invocations)

let clean ~phase ~breaker_trips ~fallback_served =
  if breaker_trips = 0 && fallback_served = 0 then None
  else
    Some
      (Printf.sprintf "%s: %d breaker trips and %d fallback-served decisions in a clean run"
         phase breaker_trips fallback_served)
