(* Every QCheck property in the suite runs through [to_alcotest], so
   tier-1 draws the same cases on every run.  The seed comes from
   QCHECK_SEED when set (to replay or widen a search), otherwise from a
   fixed constant; it is printed once either way. *)

let default_seed = 20210601

let seed =
  lazy
    (let s =
       match Sys.getenv_opt "QCHECK_SEED" with
       | Some v -> int_of_string v
       | None -> default_seed
     in
     Printf.printf "qcheck random seed: %d\n%!" s;
     s)

(* A fresh state per property, so a property's cases do not depend on
   which properties ran before it. *)
let to_alcotest t =
  QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| Lazy.force seed |]) t
