type model =
  | Tree of Kml.Decision_tree.t
  | Qmlp of Kml.Quantize.Qmlp.t
  | Svm of Kml.Linear.Svm.t
  | Fn of { n_features : int; cost : Kml.Model_cost.t; f : int array -> int }

type slot = { name : string; mutable model : model; mutable invocations : int }

type t = {
  mutable slots : slot array;
  mutable len : int;
  mutable row_scratch : int array;
      (* per-slot feature row for batching models without a native batch
         path (Svm/Fn); sized to the last arity used *)
}

type handle = int

let create () = { slots = [||]; len = 0; row_scratch = [||] }

let n_features = function
  | Tree tree -> Kml.Decision_tree.n_features tree
  | Qmlp q -> Kml.Quantize.Qmlp.n_features q
  | Svm svm -> Kml.Linear.Svm.n_features svm
  | Fn { n_features; _ } -> n_features

let cost = function
  | Tree tree -> Kml.Model_cost.of_tree tree
  | Qmlp q -> Kml.Model_cost.of_qmlp q
  | Svm svm -> Kml.Model_cost.of_svm svm
  | Fn { cost; _ } -> cost

let register t ~name model =
  if t.len >= Array.length t.slots then begin
    let cap = Stdlib.max 8 (2 * Array.length t.slots) in
    let bigger = Array.make cap { name = ""; model; invocations = 0 } in
    Array.blit t.slots 0 bigger 0 t.len;
    t.slots <- bigger
  end;
  let h = t.len in
  t.slots.(h) <- { name; model; invocations = 0 };
  t.len <- t.len + 1;
  h

let check t h name =
  if h < 0 || h >= t.len then invalid_arg ("Model_store." ^ name ^ ": invalid handle")

let replace t h model =
  check t h "replace";
  let slot = t.slots.(h) in
  if n_features model <> n_features slot.model then
    invalid_arg "Model_store.replace: feature arity mismatch";
  slot.model <- model

let find t name =
  let rec go i = if i >= t.len then None else if t.slots.(i).name = name then Some i else go (i + 1) in
  go 0

let name t h =
  check t h "name";
  t.slots.(h).name

let model t h =
  check t h "model";
  t.slots.(h).model

let id h = h

let predict t h features =
  check t h "predict";
  let slot = t.slots.(h) in
  if Array.length features <> n_features slot.model then
    invalid_arg "Model_store.predict: feature arity mismatch";
  slot.invocations <- slot.invocations + 1;
  let r =
    match slot.model with
    | Tree tree -> Kml.Decision_tree.predict tree features
    | Qmlp q -> Kml.Quantize.Qmlp.predict q features
    | Svm svm -> Kml.Linear.Svm.predict svm features
    | Fn { f; _ } -> f features
  in
  (* Fault seam: a pathological model returning extreme or garbage
     outputs (DESIGN.md section 12).  One flag load when disabled. *)
  if Fault.active () then
    if Fault.fire Fault.Model_extreme then Fault.extreme ()
    else if Fault.fire Fault.Model_garbage then Fault.garbage ()
    else r
  else r

(* Exactly [nf] wide — the scalar predictors arity-check their argument. *)
let row_scratch t nf =
  if Array.length t.row_scratch <> nf then t.row_scratch <- Array.make nf 0;
  t.row_scratch

let predict_batch t h ~features ~n ~out =
  check t h "predict_batch";
  let slot = t.slots.(h) in
  let nf = n_features slot.model in
  if n < 0 || Array.length features < n * nf then
    invalid_arg "Model_store.predict_batch: feature buffer too small";
  if Array.length out < n then invalid_arg "Model_store.predict_batch: output buffer too small";
  slot.invocations <- slot.invocations + n;
  (match slot.model with
   | Tree tree -> Kml.Decision_tree.predict_batch tree ~features ~n ~out
   | Qmlp q -> Kml.Quantize.Qmlp.predict_batch q ~features ~n ~out
   | Svm svm ->
     let row = row_scratch t nf in
     for s = 0 to n - 1 do
       Array.blit features (s * nf) row 0 nf;
       out.(s) <- Kml.Linear.Svm.predict svm row
     done
   | Fn { f; _ } ->
     let row = row_scratch t nf in
     for s = 0 to n - 1 do
       Array.blit features (s * nf) row 0 nf;
       out.(s) <- f row
     done);
  (* Same fault seam as [predict], applied per slot so injection
     campaigns see every batched inference as a separate opportunity. *)
  if Fault.active () then
    for s = 0 to n - 1 do
      if Fault.fire Fault.Model_extreme then out.(s) <- Fault.extreme ()
      else if Fault.fire Fault.Model_garbage then out.(s) <- Fault.garbage ()
    done

let invocations t h =
  check t h "invocations";
  t.slots.(h).invocations

let count t = t.len
