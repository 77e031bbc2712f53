(* Tests for the kernel ML library: rng, tensor, dataset, metrics, window. *)
open Kml

(* ---------------- Rng ---------------- *)

let test_rng_deterministic () =
  let a = Rng.create 7 and b = Rng.create 7 in
  for _ = 1 to 100 do
    Alcotest.(check int) "same stream" (Rng.next a) (Rng.next b)
  done

let test_rng_bounds () =
  let rng = Rng.create 1 in
  for _ = 1 to 1000 do
    let v = Rng.int rng 10 in
    Alcotest.(check bool) "in bounds" true (v >= 0 && v < 10)
  done;
  Alcotest.check_raises "non-positive bound" (Invalid_argument "Rng.int: bound must be positive")
    (fun () -> ignore (Rng.int rng 0))

let test_rng_uniformity () =
  let rng = Rng.create 42 in
  let counts = Array.make 8 0 in
  let n = 80_000 in
  for _ = 1 to n do
    let v = Rng.int rng 8 in
    counts.(v) <- counts.(v) + 1
  done;
  Array.iteri
    (fun i c ->
      let expected = n / 8 in
      Alcotest.(check bool)
        (Printf.sprintf "bucket %d balanced (%d)" i c)
        true
        (abs (c - expected) < expected / 10))
    counts

let test_rng_gaussian_moments () =
  let rng = Rng.create 9 in
  let n = 50_000 in
  let sum = ref 0.0 and sum_sq = ref 0.0 in
  for _ = 1 to n do
    let x = Rng.gaussian rng in
    sum := !sum +. x;
    sum_sq := !sum_sq +. (x *. x)
  done;
  let mean = !sum /. float_of_int n in
  let var = (!sum_sq /. float_of_int n) -. (mean *. mean) in
  Alcotest.(check bool) "mean ~ 0" true (Float.abs mean < 0.03);
  Alcotest.(check bool) "var ~ 1" true (Float.abs (var -. 1.0) < 0.05)

let test_rng_shuffle_permutation () =
  let rng = Rng.create 3 in
  let arr = Array.init 50 Fun.id in
  Rng.shuffle rng arr;
  let sorted = Array.copy arr in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "is a permutation" (Array.init 50 Fun.id) sorted

let test_rng_split_independent () =
  let parent = Rng.create 5 in
  let c0 = Rng.split parent 0 and c1 = Rng.split parent 1 in
  (* pure: deriving the same index twice yields the same stream, and the
     parent state is untouched by the derivations *)
  let c0' = Rng.split parent 0 in
  let a = Array.init 20 (fun _ -> Rng.next c0) in
  let a' = Array.init 20 (fun _ -> Rng.next c0') in
  let b = Array.init 20 (fun _ -> Rng.next c1) in
  let p = Array.init 20 (fun _ -> Rng.next parent) in
  Alcotest.(check (array int)) "same index, same stream" a a';
  Alcotest.(check bool) "sibling streams differ" true (a <> b);
  Alcotest.(check bool) "child differs from parent" true (a <> p && b <> p);
  Alcotest.check_raises "negative index" (Invalid_argument "Rng.split: index must be non-negative")
    (fun () -> ignore (Rng.split parent (-1)))

(* The determinism contract of the parallel experiment engine rests on
   [split]: distinct task indices must give non-colliding, uncorrelated
   substreams.  Check that (a) the first draws of 512 sibling substreams
   are pairwise distinct and differ from the parent's own next draws, and
   (b) consecutive siblings' first draws look avalanche-mixed (mean
   Hamming distance of the 62 usable bits near 31). *)
let prop_split_substreams_independent =
  QCheck2.Test.make ~name:"split: sibling substreams non-colliding and mixed" ~count:100
    QCheck2.Gen.(int_range 0 1_000_000)
    (fun seed ->
      let parent = Rng.create seed in
      let n = 512 in
      let firsts = Array.init n (fun i -> Rng.next (Rng.split parent i)) in
      let seen = Hashtbl.create (2 * n) in
      Array.iter (fun v -> Hashtbl.replace seen v ()) firsts;
      let pc = Rng.copy parent in
      let parent_draws = Array.init n (fun _ -> Rng.next pc) in
      let collides = Array.exists (fun v -> Hashtbl.mem seen v) parent_draws in
      let popcount x =
        let c = ref 0 and v = ref x in
        while !v <> 0 do
          c := !c + (!v land 1);
          v := !v lsr 1
        done;
        !c
      in
      let dist = ref 0 in
      for i = 0 to n - 2 do
        dist := !dist + popcount (firsts.(i) lxor firsts.(i + 1))
      done;
      let mean = float_of_int !dist /. float_of_int (n - 1) in
      Hashtbl.length seen = n && (not collides) && mean > 24.0 && mean < 38.0)

(* ---------------- Tensor ---------------- *)

let test_vec_dot () =
  let a = [| 1.0; 2.0; 3.0 |] and b = [| 4.0; 5.0; 6.0 |] in
  Alcotest.(check (float 1e-9)) "dot" 32.0 (Tensor.Vec.dot a b)

let test_vec_axpy () =
  let x = [| 1.0; 2.0 |] and y = [| 10.0; 20.0 |] in
  Tensor.Vec.axpy ~alpha:2.0 ~x ~y;
  Alcotest.(check (float 1e-9)) "y0" 12.0 y.(0);
  Alcotest.(check (float 1e-9)) "y1" 24.0 y.(1)

let test_vec_max_index () =
  Alcotest.(check int) "argmax" 2 (Tensor.Vec.max_index [| 1.0; 3.0; 5.0; 2.0 |]);
  Alcotest.(check int) "tie -> first" 0 (Tensor.Vec.max_index [| 5.0; 5.0 |])

let test_mat_mul_vec () =
  let m = Tensor.Mat.init ~rows:2 ~cols:3 (fun i j -> float_of_int ((i * 3) + j)) in
  (* rows: [0 1 2], [3 4 5] *)
  let v = Tensor.Mat.mul_vec m [| 1.0; 1.0; 1.0 |] in
  Alcotest.(check (float 1e-9)) "row0" 3.0 v.(0);
  Alcotest.(check (float 1e-9)) "row1" 12.0 v.(1)

let test_mat_tmul_vec () =
  let m = Tensor.Mat.init ~rows:2 ~cols:3 (fun i j -> float_of_int ((i * 3) + j)) in
  let v = Tensor.Mat.tmul_vec m [| 1.0; 2.0 |] in
  (* m^T * [1;2] = [0+6; 1+8; 2+10] *)
  Alcotest.(check (float 1e-9)) "c0" 6.0 v.(0);
  Alcotest.(check (float 1e-9)) "c1" 9.0 v.(1);
  Alcotest.(check (float 1e-9)) "c2" 12.0 v.(2)

let test_mat_mul () =
  let a = Tensor.Mat.init ~rows:2 ~cols:2 (fun i j -> float_of_int ((i * 2) + j + 1)) in
  (* [1 2; 3 4] *)
  let c = Tensor.Mat.mul a a in
  Alcotest.(check (float 1e-9)) "c00" 7.0 (Tensor.Mat.get c 0 0);
  Alcotest.(check (float 1e-9)) "c01" 10.0 (Tensor.Mat.get c 0 1);
  Alcotest.(check (float 1e-9)) "c10" 15.0 (Tensor.Mat.get c 1 0);
  Alcotest.(check (float 1e-9)) "c11" 22.0 (Tensor.Mat.get c 1 1)

let test_mat_bounds () =
  let m = Tensor.Mat.create ~rows:2 ~cols:2 in
  Alcotest.check_raises "get oob" (Invalid_argument "Mat.get: out of bounds") (fun () ->
      ignore (Tensor.Mat.get m 2 0))

let test_qvec_dot_matches_float () =
  let a = [| 1.5; -2.25; 3.0 |] and b = [| 0.5; 1.0; -1.5 |] in
  let qa = Tensor.Qvec.of_vec a and qb = Tensor.Qvec.of_vec b in
  let expected = Tensor.Vec.dot a b in
  let got = Fixed.to_float (Tensor.Qvec.dot qa qb) in
  Alcotest.(check bool) "close" true (Float.abs (got -. expected) < 0.001)

let test_qmat_mul_vec_matches_float () =
  let m = Tensor.Mat.init ~rows:3 ~cols:4 (fun i j -> (float_of_int ((i * 4) + j) /. 7.0) -. 1.0) in
  let x = [| 0.5; -1.0; 2.0; 0.25 |] in
  let expected = Tensor.Mat.mul_vec m x in
  let got = Tensor.Qvec.to_vec (Tensor.Qmat.mul_vec (Tensor.Qmat.of_mat m) (Tensor.Qvec.of_vec x)) in
  Array.iteri
    (fun i e -> Alcotest.(check bool) "row close" true (Float.abs (got.(i) -. e) < 0.005))
    expected

(* ---------------- Dataset ---------------- *)

let mk_dataset () =
  let ds = Dataset.create ~n_features:2 ~n_classes:2 in
  List.iter
    (fun (f, l) -> Dataset.add ds { Dataset.features = f; label = l })
    [ ([| 0; 0 |], 0); ([| 0; 1 |], 0); ([| 5; 0 |], 1); ([| 5; 1 |], 1); ([| 5; 2 |], 1) ];
  ds

let test_dataset_basics () =
  let ds = mk_dataset () in
  Alcotest.(check int) "length" 5 (Dataset.length ds);
  Alcotest.(check int) "n_features" 2 (Dataset.n_features ds);
  Alcotest.(check (array int)) "class counts" [| 2; 3 |] (Dataset.class_counts ds);
  Alcotest.(check int) "majority" 1 (Dataset.majority_class ds)

let test_dataset_validation () =
  let ds = Dataset.create ~n_features:2 ~n_classes:2 in
  Alcotest.check_raises "bad arity" (Invalid_argument "Dataset.add: feature arity mismatch")
    (fun () -> Dataset.add ds { Dataset.features = [| 1 |]; label = 0 });
  Alcotest.check_raises "bad label" (Invalid_argument "Dataset.add: label out of range")
    (fun () -> Dataset.add ds { Dataset.features = [| 1; 2 |]; label = 2 })

let test_dataset_split () =
  let ds = Dataset.create ~n_features:1 ~n_classes:2 in
  for i = 0 to 99 do
    Dataset.add ds { Dataset.features = [| i |]; label = i mod 2 }
  done;
  let train, test = Dataset.split ds ~rng:(Rng.create 1) ~train_fraction:0.8 in
  Alcotest.(check int) "train size" 80 (Dataset.length train);
  Alcotest.(check int) "test size" 20 (Dataset.length test);
  (* no sample lost or duplicated *)
  let seen = Hashtbl.create 100 in
  Dataset.iter (fun s -> Hashtbl.replace seen s.Dataset.features.(0) ()) train;
  Dataset.iter (fun s -> Hashtbl.replace seen s.Dataset.features.(0) ()) test;
  Alcotest.(check int) "union covers all" 100 (Hashtbl.length seen)

let test_dataset_project () =
  let ds = mk_dataset () in
  let projected = Dataset.project ds ~keep:[| 1 |] in
  Alcotest.(check int) "one feature" 1 (Dataset.n_features projected);
  Alcotest.(check int) "first sample keeps col 1" 0 (Dataset.get projected 0).Dataset.features.(0);
  Alcotest.(check int) "last sample keeps col 1" 2 (Dataset.get projected 4).Dataset.features.(0)

let test_dataset_subset () =
  let ds = mk_dataset () in
  let sub = Dataset.subset ds [| 0; 4 |] in
  Alcotest.(check int) "size" 2 (Dataset.length sub);
  Alcotest.(check int) "second label" 1 (Dataset.get sub 1).Dataset.label

(* ---------------- Metrics ---------------- *)

let test_metrics_accuracy () =
  let c = Metrics.confusion_create ~n_classes:2 in
  Metrics.confusion_add c ~truth:0 ~predicted:0;
  Metrics.confusion_add c ~truth:0 ~predicted:1;
  Metrics.confusion_add c ~truth:1 ~predicted:1;
  Metrics.confusion_add c ~truth:1 ~predicted:1;
  Alcotest.(check (float 1e-9)) "accuracy" 0.75 (Metrics.accuracy c);
  Alcotest.(check (float 1e-9)) "precision cls1" (2.0 /. 3.0) (Metrics.precision c ~cls:1);
  Alcotest.(check (float 1e-9)) "recall cls1" 1.0 (Metrics.recall c ~cls:1);
  Alcotest.(check (float 1e-9)) "recall cls0" 0.5 (Metrics.recall c ~cls:0)

let test_metrics_empty () =
  let c = Metrics.confusion_create ~n_classes:3 in
  Alcotest.(check (float 1e-9)) "empty accuracy" 0.0 (Metrics.accuracy c);
  Alcotest.(check (float 1e-9)) "empty f1" 0.0 (Metrics.macro_f1 c)

let test_metrics_evaluate () =
  let ds = mk_dataset () in
  let predict features = if features.(0) > 2 then 1 else 0 in
  Alcotest.(check (float 1e-9)) "perfect separator" 1.0 (Metrics.accuracy_of ~predict ds)

(* ---------------- Window ---------------- *)

let test_window_eviction () =
  let w = Window.create ~capacity:3 ~retrain_period:10 in
  for i = 1 to 5 do
    Window.push w { Dataset.features = [| i |]; label = 0 }
  done;
  Alcotest.(check int) "capped" 3 (Window.length w);
  let ds = Window.to_dataset w ~n_features:1 ~n_classes:1 in
  Alcotest.(check int) "oldest evicted" 3 (Dataset.get ds 0).Dataset.features.(0);
  Alcotest.(check int) "newest kept" 5 (Dataset.get ds 2).Dataset.features.(0)

let test_window_due () =
  let w = Window.create ~capacity:10 ~retrain_period:3 in
  Alcotest.(check bool) "not due when empty" false (Window.due w);
  Window.push w { Dataset.features = [| 1 |]; label = 0 };
  Window.push w { Dataset.features = [| 2 |]; label = 0 };
  Alcotest.(check bool) "not due yet" false (Window.due w);
  Window.push w { Dataset.features = [| 3 |]; label = 0 };
  Alcotest.(check bool) "due after period" true (Window.due w);
  Window.reset_due w;
  Alcotest.(check bool) "reset" false (Window.due w);
  Window.clear w;
  Alcotest.(check int) "cleared" 0 (Window.length w)

let prop_window_never_exceeds_capacity =
  QCheck2.Test.make ~name:"window length <= capacity" ~count:200
    QCheck2.Gen.(pair (int_range 1 20) (list_size (int_range 0 100) small_nat))
    (fun (cap, pushes) ->
      let w = Window.create ~capacity:cap ~retrain_period:1 in
      List.iter (fun v -> Window.push w { Dataset.features = [| v |]; label = 0 }) pushes;
      Window.length w <= cap && Window.length w = min cap (List.length pushes))

let suite =
  [ ( "rng",
      [ Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
        Alcotest.test_case "bounds" `Quick test_rng_bounds;
        Alcotest.test_case "uniformity" `Quick test_rng_uniformity;
        Alcotest.test_case "gaussian moments" `Quick test_rng_gaussian_moments;
        Alcotest.test_case "shuffle permutation" `Quick test_rng_shuffle_permutation;
        Alcotest.test_case "split independent" `Quick test_rng_split_independent;
        Prop.to_alcotest prop_split_substreams_independent ] );
    ( "tensor",
      [ Alcotest.test_case "vec dot" `Quick test_vec_dot;
        Alcotest.test_case "vec axpy" `Quick test_vec_axpy;
        Alcotest.test_case "vec max_index" `Quick test_vec_max_index;
        Alcotest.test_case "mat mul_vec" `Quick test_mat_mul_vec;
        Alcotest.test_case "mat tmul_vec" `Quick test_mat_tmul_vec;
        Alcotest.test_case "mat mul" `Quick test_mat_mul;
        Alcotest.test_case "mat bounds" `Quick test_mat_bounds;
        Alcotest.test_case "qvec dot matches float" `Quick test_qvec_dot_matches_float;
        Alcotest.test_case "qmat mul matches float" `Quick test_qmat_mul_vec_matches_float ] );
    ( "dataset",
      [ Alcotest.test_case "basics" `Quick test_dataset_basics;
        Alcotest.test_case "validation" `Quick test_dataset_validation;
        Alcotest.test_case "split" `Quick test_dataset_split;
        Alcotest.test_case "project" `Quick test_dataset_project;
        Alcotest.test_case "subset" `Quick test_dataset_subset ] );
    ( "metrics",
      [ Alcotest.test_case "accuracy/precision/recall" `Quick test_metrics_accuracy;
        Alcotest.test_case "empty" `Quick test_metrics_empty;
        Alcotest.test_case "evaluate" `Quick test_metrics_evaluate ] );
    ( "window",
      [ Alcotest.test_case "eviction" `Quick test_window_eviction;
        Alcotest.test_case "due/reset" `Quick test_window_due;
        Prop.to_alcotest prop_window_never_exceeds_capacity ] ) ]
