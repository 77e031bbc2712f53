(* perfbench: the serving-plane benchmark.

     main.exe --workload <wide|bursty|churn|learned> [--seed N] [--seconds S]
              [--trace 0|1]

   Prints one line per metric (name, value, unit, base count), a
   fingerprint line, and as its last line one JSON object
   {"correct", "attempted", "failed", "metrics"}.  Exits 1 when a
   correctness check fails, 2 on bad usage or with RKD_FAULTS set. *)

open Perfbench

let default_seed = 1

let usage () =
  prerr_endline
    "usage: main.exe --workload <wide|bursty|churn|learned> [--seed N] [--seconds S] [--trace \
     0|1]";
  exit 2

let parse argv =
  let workload = ref None and seed = ref default_seed and seconds = ref 10 and trace = ref false in
  let int_arg s = match int_of_string_opt s with Some n -> n | None -> usage () in
  let rec go = function
    | [] -> ()
    | "--workload" :: w :: rest ->
      workload := Some w;
      go rest
    | "--seed" :: n :: rest ->
      seed := int_arg n;
      go rest
    | "--seconds" :: n :: rest ->
      seconds := int_arg n;
      go rest
    | "--trace" :: ("0" | "1" as t) :: rest ->
      trace := t = "1";
      go rest
    | _ -> usage ()
  in
  go (List.tl (Array.to_list argv));
  match Option.bind !workload Workload.find with
  | Some spec when !seconds > 0 -> (spec, !seed, !seconds, !trace)
  | _ -> usage ()

(* --- machine fingerprint ---------------------------------------------- *)

let nproc () =
  match Unix.open_process_args_in "nproc" [| "nproc" |] with
  | exception Unix.Unix_error _ -> None
  | ic ->
    let line = try Some (input_line ic) with End_of_file -> None in
    ignore (Unix.close_process_in ic : Unix.process_status);
    Option.bind line (fun l -> int_of_string_opt (String.trim l))

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* The commit when the checkout is a git work tree, else "none"; the
   source digest names the library code under test either way. *)
let commit () =
  match String.trim (read_file ".git/HEAD") with
  | exception Sys_error _ -> "none"
  | head ->
    if String.starts_with ~prefix:"ref: " head then
      let r = String.sub head 5 (String.length head - 5) in
      (try String.trim (read_file (Filename.concat ".git" r)) with Sys_error _ -> head)
    else head

let source_digest () =
  let rec files dir =
    match Sys.readdir dir with
    | exception Sys_error _ -> []
    | entries ->
      Array.sort compare entries;
      List.concat_map
        (fun e ->
          let p = Filename.concat dir e in
          if Sys.is_directory p then files p
          else if Filename.check_suffix p ".ml" || Filename.check_suffix p ".mli" then [ p ]
          else [])
        (Array.to_list entries)
  in
  Digest.to_hex
    (Digest.string (String.concat "" (List.map (fun p -> p ^ Digest.file p) (files "lib"))))

let json_string s = Printf.sprintf "%S" s

let fingerprint ~nproc ~domains =
  Printf.sprintf
    "{\"nproc\": %d, \"recommended_domain_count\": %d, \"ocaml\": %s, \"commit\": %s, \
     \"lib_source_md5\": %s, \"domains_used\": %d, \"rkd_obs_env\": %s, \"obs_enabled\": %b}"
    nproc
    (Domain.recommended_domain_count ())
    (json_string Sys.ocaml_version) (json_string (commit ())) (json_string (source_digest ()))
    domains
    (json_string (Option.value (Sys.getenv_opt "RKD_OBS") ~default:"unset"))
    (Obs.enabled ())

(* Traced runs write the last traced round's spans here. *)
let spans_dir = "perfbench/out"

(* A finite number with all its digits: JSON has no inf or nan. *)
let json_number v = if Float.is_finite v then Printf.sprintf "%.17g" v else "0"

let () =
  let spec, seed, seconds, trace = parse Sys.argv in
  if Sys.getenv_opt "RKD_FAULTS" <> None then begin
    prerr_endline "perfbench: refusing to run with RKD_FAULTS set (clean runs only)";
    exit 2
  end;
  let nproc = Option.value (nproc ()) ~default:(Domain.recommended_domain_count ()) in
  let spans_out =
    if trace then begin
      if not (Sys.file_exists spans_dir) then Sys.mkdir spans_dir 0o755;
      Filename.concat spans_dir (Printf.sprintf "%s-seed%d.tsv" spec.Workload.name seed)
    end
    else Filename.null
  in
  let r = Perfbench.Measure.run spec ~seed ~seconds ~trace ~nproc ~spans_out in
  Printf.printf "workload %s seed %d seconds %d trace %d rounds %d\n" spec.Workload.name seed
    seconds (Bool.to_int trace) r.rounds;
  List.iter
    (fun m ->
      Printf.printf "metric %-34s %16.6f %-9s base %d\n" m.Perfbench.Layer.name m.value m.unit_
        m.base)
    (r.metrics @ r.printed);
  Printf.printf "failed_ratio %.6f (failed %d of %d attempted)\n"
    (Perfbench.Layer.ratio r.failed r.attempted)
    r.failed r.attempted;
  List.iter (fun f -> Printf.eprintf "perfbench: correctness check failed: %s\n" f) r.failures;
  Printf.printf "fingerprint %s\n" (fingerprint ~nproc ~domains:r.domains);
  let correct = r.failures = [] in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n" correct
    r.attempted r.failed
    (String.concat ", "
       (List.map
          (fun m ->
            Printf.sprintf "%s: {\"value\": %s, \"unit\": %s}"
              (json_string m.Perfbench.Layer.name) (json_number m.value) (json_string m.unit_))
          r.metrics));
  exit (if correct then 0 else 1)
