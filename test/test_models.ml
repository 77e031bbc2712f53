(* Tests for the learning models: decision tree, MLP, quantization, linear
   classifiers, feature ranking, distillation, NAS, model cost. *)
open Kml

(* Synthetic dataset: label = 1 iff f0 + 2*f1 > threshold, with f2 as pure
   noise — linearly separable, learnable by everything. *)
let linear_dataset ~rng ~n =
  let ds = Dataset.create ~n_features:3 ~n_classes:2 in
  for _ = 1 to n do
    let f0 = Rng.int rng 20 and f1 = Rng.int rng 20 and f2 = Rng.int rng 20 in
    let label = if f0 + (2 * f1) > 28 then 1 else 0 in
    Dataset.add ds { Dataset.features = [| f0; f1; f2 |]; label }
  done;
  ds

(* XOR-style dataset: not linearly separable; trees and MLPs should get it,
   linear models should not. *)
let xor_dataset ~rng ~n =
  let ds = Dataset.create ~n_features:2 ~n_classes:2 in
  for _ = 1 to n do
    let f0 = Rng.int rng 10 and f1 = Rng.int rng 10 in
    let label = if (f0 >= 5) <> (f1 >= 5) then 1 else 0 in
    Dataset.add ds { Dataset.features = [| f0; f1 |]; label }
  done;
  ds

(* ---------------- Decision tree ---------------- *)

let test_tree_learns_linear () =
  let rng = Rng.create 11 in
  let train = linear_dataset ~rng ~n:500 and test = linear_dataset ~rng ~n:200 in
  let tree = Decision_tree.train train in
  let acc = Metrics.accuracy_of ~predict:(Decision_tree.predict tree) test in
  Alcotest.(check bool) (Printf.sprintf "accuracy %.3f > 0.9" acc) true (acc > 0.9)

let test_tree_learns_xor () =
  let rng = Rng.create 13 in
  let train = xor_dataset ~rng ~n:600 and test = xor_dataset ~rng ~n:200 in
  let tree = Decision_tree.train train in
  let acc = Metrics.accuracy_of ~predict:(Decision_tree.predict tree) test in
  Alcotest.(check bool) (Printf.sprintf "xor accuracy %.3f > 0.95" acc) true (acc > 0.95)

let test_tree_empty_dataset () =
  let ds = Dataset.create ~n_features:2 ~n_classes:2 in
  let tree = Decision_tree.train ds in
  Alcotest.(check int) "predicts class 0" 0 (Decision_tree.predict tree [| 1; 2 |]);
  Alcotest.(check int) "single node" 1 (Decision_tree.n_nodes tree)

let test_tree_pure_dataset () =
  let ds = Dataset.create ~n_features:1 ~n_classes:2 in
  for i = 0 to 9 do
    Dataset.add ds { Dataset.features = [| i |]; label = 1 }
  done;
  let tree = Decision_tree.train ds in
  Alcotest.(check int) "no split on pure node" 1 (Decision_tree.n_nodes tree);
  Alcotest.(check int) "predicts the one class" 1 (Decision_tree.predict tree [| 5 |])

let test_tree_depth_limit () =
  let rng = Rng.create 17 in
  let ds = xor_dataset ~rng ~n:400 in
  let params = { Decision_tree.default_params with max_depth = 1 } in
  let tree = Decision_tree.train ~params ds in
  Alcotest.(check bool) "depth <= 1" true (Decision_tree.depth tree <= 1)

let test_tree_arity_check () =
  let rng = Rng.create 19 in
  let tree = Decision_tree.train (linear_dataset ~rng ~n:50) in
  Alcotest.check_raises "arity" (Invalid_argument "Decision_tree.predict: feature arity mismatch")
    (fun () -> ignore (Decision_tree.predict tree [| 1 |]))

let test_tree_nodes_roundtrip () =
  let rng = Rng.create 23 in
  let ds = linear_dataset ~rng ~n:300 in
  let tree = Decision_tree.train ds in
  let rebuilt = Decision_tree.of_nodes ~n_features:3 ~n_classes:2 (Decision_tree.nodes tree) in
  Dataset.iter
    (fun s ->
      Alcotest.(check int) "same prediction" (Decision_tree.predict tree s.Dataset.features)
        (Decision_tree.predict rebuilt s.Dataset.features))
    ds

let test_tree_of_nodes_rejects_cycles () =
  let bad =
    [| Decision_tree.Split { feature = 0; threshold = 1; left = 0; right = 1 };
       Decision_tree.Leaf { label = 0; counts = [| 1; 0 |] } |]
  in
  Alcotest.check_raises "self loop"
    (Invalid_argument "Decision_tree.of_nodes: child index must be a later node") (fun () ->
      ignore (Decision_tree.of_nodes ~n_features:1 ~n_classes:2 bad))

let test_tree_importance_finds_signal () =
  let rng = Rng.create 29 in
  let ds = linear_dataset ~rng ~n:800 in
  let tree = Decision_tree.train ds in
  let imp = Decision_tree.feature_importance tree in
  (* f2 is noise: must rank below both informative features. *)
  Alcotest.(check bool) "f0 informative" true (imp.(0) > imp.(2));
  Alcotest.(check bool) "f1 informative" true (imp.(1) > imp.(2));
  let total = Array.fold_left ( +. ) 0.0 imp in
  Alcotest.(check bool) "normalized" true (Float.abs (total -. 1.0) < 1e-9)

let prop_tree_predict_total =
  QCheck2.Test.make ~name:"tree predicts a valid class on any input" ~count:200
    QCheck2.Gen.(array_size (return 3) (int_range (-1000) 1000))
    (fun features ->
      let rng = Rng.create 31 in
      let tree = Decision_tree.train (linear_dataset ~rng ~n:200) in
      let c = Decision_tree.predict tree features in
      c = 0 || c = 1)

(* ---------------- MLP ---------------- *)

let test_mlp_learns_linear () =
  let rng = Rng.create 37 in
  let train = linear_dataset ~rng ~n:600 and test = linear_dataset ~rng ~n:200 in
  let mlp = Mlp.train ~rng (linear_dataset ~rng ~n:0 |> fun _ -> train) in
  let acc = Metrics.accuracy_of ~predict:(Mlp.predict mlp) test in
  Alcotest.(check bool) (Printf.sprintf "accuracy %.3f > 0.93" acc) true (acc > 0.93)

let test_mlp_learns_xor () =
  let rng = Rng.create 41 in
  let train = xor_dataset ~rng ~n:800 and test = xor_dataset ~rng ~n:300 in
  let params = { Mlp.default_params with epochs = 60; hidden = [ 16 ] } in
  let mlp = Mlp.train ~params ~rng train in
  let acc = Metrics.accuracy_of ~predict:(Mlp.predict mlp) test in
  Alcotest.(check bool) (Printf.sprintf "xor accuracy %.3f > 0.9" acc) true (acc > 0.9)

let test_mlp_probs_sum_to_one () =
  let rng = Rng.create 43 in
  let mlp = Mlp.train ~rng (linear_dataset ~rng ~n:200) in
  let probs = Mlp.predict_probs mlp [| 3; 4; 5 |] in
  let total = Array.fold_left ( +. ) 0.0 probs in
  Alcotest.(check (float 1e-9)) "sums to 1" 1.0 total;
  Array.iter (fun p -> Alcotest.(check bool) "p >= 0" true (p >= 0.0)) probs

let test_mlp_architecture () =
  let rng = Rng.create 47 in
  let params = { Mlp.default_params with hidden = [ 8; 4 ]; epochs = 1 } in
  let mlp = Mlp.train ~params ~rng (linear_dataset ~rng ~n:50) in
  Alcotest.(check (list int)) "widths" [ 3; 8; 4; 2 ] (Mlp.architecture mlp);
  Alcotest.(check int) "params" ((3 * 8) + 8 + (8 * 4) + 4 + (4 * 2) + 2) (Mlp.n_parameters mlp)

let test_mlp_empty_dataset () =
  let ds = Dataset.create ~n_features:2 ~n_classes:2 in
  Alcotest.check_raises "empty" (Invalid_argument "Mlp.train: empty dataset") (fun () ->
      ignore (Mlp.train ~rng:(Rng.create 1) ds))

(* ---------------- Quantization ---------------- *)

let test_qmlp_matches_float_mostly () =
  let rng = Rng.create 53 in
  let train = linear_dataset ~rng ~n:600 and test = linear_dataset ~rng ~n:300 in
  let mlp = Mlp.train ~rng train in
  let q = Quantize.Qmlp.of_mlp mlp in
  let agree = ref 0 in
  Dataset.iter
    (fun s ->
      if Quantize.Qmlp.predict q s.Dataset.features = Mlp.predict mlp s.Dataset.features then
        incr agree)
    test;
  let rate = float_of_int !agree /. float_of_int (Dataset.length test) in
  Alcotest.(check bool) (Printf.sprintf "agreement %.3f > 0.97" rate) true (rate > 0.97)

let test_quantize_accuracy_drop_small () =
  let rng = Rng.create 59 in
  let ds = linear_dataset ~rng ~n:600 in
  let mlp = Mlp.train ~rng ds in
  let drop = Quantize.accuracy_drop mlp ds in
  Alcotest.(check bool) (Printf.sprintf "drop %.4f < 0.02" drop) true (Float.abs drop < 0.02)

let test_qmlp_integer_only_inference () =
  (* Q16.16 inference never constructs a float at runtime; we can only test
     observable behaviour: same architecture, deterministic output. *)
  let rng = Rng.create 61 in
  let mlp = Mlp.train ~rng (linear_dataset ~rng ~n:100) in
  let q = Quantize.Qmlp.of_mlp mlp in
  Alcotest.(check (list int)) "architecture preserved" (Mlp.architecture mlp)
    (Quantize.Qmlp.architecture q);
  let a = Quantize.Qmlp.predict q [| 1; 2; 3 |] and b = Quantize.Qmlp.predict q [| 1; 2; 3 |] in
  Alcotest.(check int) "deterministic" a b

(* ---------------- Linear models ---------------- *)

let test_perceptron_learns_linear () =
  let rng = Rng.create 67 in
  let train = linear_dataset ~rng ~n:600 and test = linear_dataset ~rng ~n:200 in
  let p = Linear.Perceptron.train ~epochs:30 ~rng train in
  let acc = Metrics.accuracy_of ~predict:(Linear.Perceptron.predict p) test in
  Alcotest.(check bool) (Printf.sprintf "accuracy %.3f > 0.9" acc) true (acc > 0.9)

let test_perceptron_online_api () =
  let p = Linear.Perceptron.create ~n_features:2 ~n_classes:2 in
  (* Teach y = f0 > 5 with a few rounds of online updates. *)
  for _ = 1 to 30 do
    for f0 = 0 to 10 do
      Linear.Perceptron.learn p [| f0; 1 |] (if f0 > 5 then 1 else 0)
    done
  done;
  Alcotest.(check int) "low side" 0 (Linear.Perceptron.predict p [| 2; 1 |]);
  Alcotest.(check int) "high side" 1 (Linear.Perceptron.predict p [| 9; 1 |])

let test_svm_learns_linear () =
  let rng = Rng.create 71 in
  let train = linear_dataset ~rng ~n:600 and test = linear_dataset ~rng ~n:200 in
  let svm = Linear.Svm.train ~rng train in
  let acc = Metrics.accuracy_of ~predict:(Linear.Svm.predict svm) test in
  Alcotest.(check bool) (Printf.sprintf "accuracy %.3f > 0.9" acc) true (acc > 0.9)

let test_svm_cannot_learn_xor () =
  let rng = Rng.create 73 in
  let train = xor_dataset ~rng ~n:600 and test = xor_dataset ~rng ~n:200 in
  let svm = Linear.Svm.train ~rng train in
  let acc = Metrics.accuracy_of ~predict:(Linear.Svm.predict svm) test in
  Alcotest.(check bool) (Printf.sprintf "xor accuracy %.3f < 0.75" acc) true (acc < 0.75)

(* ---------------- Feature ranking ---------------- *)

let test_permutation_ranking () =
  let rng = Rng.create 79 in
  let ds = linear_dataset ~rng ~n:600 in
  let tree = Decision_tree.train ds in
  let ranking =
    Feature_rank.permutation ~rng ~predict:(Decision_tree.predict tree) ds
  in
  (* f1 has weight 2, f0 weight 1, f2 none: order must put f2 last. *)
  Alcotest.(check int) "noise last" 2 ranking.Feature_rank.order.(2);
  Alcotest.(check bool) "f1 strongest" true
    (ranking.Feature_rank.scores.(1) >= ranking.Feature_rank.scores.(0))

let test_top_k () =
  let ranking = { Feature_rank.scores = [| 0.1; 0.5; 0.3 |]; order = [| 1; 2; 0 |] } in
  Alcotest.(check (array int)) "top 2" [| 1; 2 |] (Feature_rank.top_k ranking 2);
  Alcotest.check_raises "bad k" (Invalid_argument "Feature_rank.top_k: bad k") (fun () ->
      ignore (Feature_rank.top_k ranking 5))

(* ---------------- Distillation ---------------- *)

let test_distill_fidelity () =
  let rng = Rng.create 83 in
  let train = linear_dataset ~rng ~n:600 in
  let mlp = Mlp.train ~rng train in
  let teacher = Mlp.predict mlp in
  let extra = Distill.augment_inputs ~rng train ~n:400 in
  let student = Distill.to_tree ~teacher ~extra_inputs:extra train in
  let fid = Distill.fidelity ~student:(Decision_tree.predict student) ~teacher train in
  Alcotest.(check bool) (Printf.sprintf "fidelity %.3f > 0.9" fid) true (fid > 0.9);
  (* The student must be drastically smaller than the teacher. *)
  let teacher_cost = Model_cost.of_mlp_architecture (Mlp.architecture mlp) in
  let student_cost = Model_cost.of_tree student in
  Alcotest.(check bool) "student cheaper" true
    (student_cost.Model_cost.macs < teacher_cost.Model_cost.macs)

let test_augment_inputs_in_range () =
  let rng = Rng.create 89 in
  let ds = linear_dataset ~rng ~n:100 in
  let extra = Distill.augment_inputs ~rng ds ~n:50 in
  Alcotest.(check int) "count" 50 (List.length extra);
  List.iter
    (fun f ->
      Array.iter (fun v -> Alcotest.(check bool) "within observed range" true (v >= 0 && v < 20)) f)
    extra

(* ---------------- NAS ---------------- *)

let test_nas_finds_model () =
  let rng = Rng.create 97 in
  let train = linear_dataset ~rng ~n:300 and validation = linear_dataset ~rng ~n:150 in
  let result = Nas.search ~rng ~trials:6 ~train ~validation () in
  Alcotest.(check bool) "best accuracy decent" true (result.Nas.best.Nas.val_accuracy > 0.85);
  Alcotest.(check bool) "explored some" true (List.length result.Nas.explored > 0)

let test_nas_prunes_by_budget () =
  let rng = Rng.create 101 in
  let train = linear_dataset ~rng ~n:200 and validation = linear_dataset ~rng ~n:100 in
  let tiny = { Kml.Model_cost.max_macs = 60; max_comparisons = 8; max_memory_words = 400 } in
  let result =
    Nas.search ~rng ~trials:10 ~budget:tiny ~widths:[| 4; 32 |] ~train ~validation ()
  in
  Alcotest.(check bool) "pruned some" true (result.Nas.pruned > 0);
  Alcotest.(check bool) "winner fits" true (Model_cost.within result.Nas.best.Nas.cost tiny)

(* ---------------- Model cost ---------------- *)

let test_cost_mlp_architecture () =
  let c = Model_cost.of_mlp_architecture [ 15; 16; 2 ] in
  Alcotest.(check int) "macs" ((15 * 16) + (16 * 2) + 15) c.Model_cost.macs;
  Alcotest.(check int) "comparisons" 2 c.Model_cost.comparisons

let test_cost_tree () =
  let rng = Rng.create 103 in
  let tree = Decision_tree.train (linear_dataset ~rng ~n:300) in
  let c = Model_cost.of_tree tree in
  Alcotest.(check int) "comparisons = depth" (Decision_tree.depth tree) c.Model_cost.comparisons;
  Alcotest.(check int) "zero macs" 0 c.Model_cost.macs

let test_cost_budget () =
  let c = { Model_cost.macs = 100; comparisons = 10; memory_words = 1000 } in
  let b = { Model_cost.max_macs = 100; max_comparisons = 10; max_memory_words = 1000 } in
  Alcotest.(check bool) "at limit ok" true (Model_cost.within c b);
  Alcotest.(check bool) "over limit" false
    (Model_cost.within { c with Model_cost.macs = 101 } b)

let suite =
  [ ( "decision_tree",
      [ Alcotest.test_case "learns linear" `Quick test_tree_learns_linear;
        Alcotest.test_case "learns xor" `Quick test_tree_learns_xor;
        Alcotest.test_case "empty dataset" `Quick test_tree_empty_dataset;
        Alcotest.test_case "pure dataset" `Quick test_tree_pure_dataset;
        Alcotest.test_case "depth limit" `Quick test_tree_depth_limit;
        Alcotest.test_case "arity check" `Quick test_tree_arity_check;
        Alcotest.test_case "nodes roundtrip" `Quick test_tree_nodes_roundtrip;
        Alcotest.test_case "of_nodes rejects cycles" `Quick test_tree_of_nodes_rejects_cycles;
        Alcotest.test_case "importance finds signal" `Quick test_tree_importance_finds_signal;
        Prop.to_alcotest prop_tree_predict_total ] );
    ( "mlp",
      [ Alcotest.test_case "learns linear" `Quick test_mlp_learns_linear;
        Alcotest.test_case "learns xor" `Slow test_mlp_learns_xor;
        Alcotest.test_case "probs sum to one" `Quick test_mlp_probs_sum_to_one;
        Alcotest.test_case "architecture" `Quick test_mlp_architecture;
        Alcotest.test_case "empty dataset" `Quick test_mlp_empty_dataset ] );
    ( "quantize",
      [ Alcotest.test_case "qmlp matches float" `Quick test_qmlp_matches_float_mostly;
        Alcotest.test_case "accuracy drop small" `Quick test_quantize_accuracy_drop_small;
        Alcotest.test_case "integer inference" `Quick test_qmlp_integer_only_inference ] );
    ( "linear",
      [ Alcotest.test_case "perceptron learns linear" `Quick test_perceptron_learns_linear;
        Alcotest.test_case "perceptron online api" `Quick test_perceptron_online_api;
        Alcotest.test_case "svm learns linear" `Quick test_svm_learns_linear;
        Alcotest.test_case "svm cannot learn xor" `Quick test_svm_cannot_learn_xor ] );
    ( "feature_rank",
      [ Alcotest.test_case "permutation ranking" `Quick test_permutation_ranking;
        Alcotest.test_case "top_k" `Quick test_top_k ] );
    ( "distill",
      [ Alcotest.test_case "fidelity and size" `Quick test_distill_fidelity;
        Alcotest.test_case "augment in range" `Quick test_augment_inputs_in_range ] );
    ( "nas",
      [ Alcotest.test_case "finds model" `Slow test_nas_finds_model;
        Alcotest.test_case "prunes by budget" `Slow test_nas_prunes_by_budget ] );
    ( "model_cost",
      [ Alcotest.test_case "mlp architecture" `Quick test_cost_mlp_architecture;
        Alcotest.test_case "tree" `Quick test_cost_tree;
        Alcotest.test_case "budget" `Quick test_cost_budget ] ) ]
