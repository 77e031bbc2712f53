(* Domain-pool tests: combinator results against sequential oracles,
   chunking/stealing under skewed task sizes, exception propagation,
   nested batches, shutdown fallback — and the experiment engine's
   determinism contract: domains=1 and domains=4 must produce
   bit-identical tables and ablations. *)

let with_pool domains f =
  let pool = Par.create ~domains () in
  Fun.protect ~finally:(fun () -> Par.shutdown pool) (fun () -> f pool)

(* ---------------- combinators vs. sequential oracles ---------------- *)

let prop_parallel_map_matches_seq =
  QCheck2.Test.make ~name:"parallel_map = List.map (order preserved)" ~count:30
    QCheck2.Gen.(pair (int_range 1 5) (list_size (int_range 0 200) (int_range (-1000) 1000)))
    (fun (domains, xs) ->
      let f x = (x * x) - (3 * x) + 7 in
      with_pool domains (fun pool -> Par.parallel_map pool f xs = List.map f xs))

let prop_parallel_map_array_chunked =
  QCheck2.Test.make ~name:"parallel_map_array = Array.map for every chunk size" ~count:30
    QCheck2.Gen.(pair (int_range 1 7) (int_range 0 500))
    (fun (chunk, n) ->
      let arr = Array.init n (fun i -> (i * 13) mod 97) in
      let f x = x + 1 in
      with_pool 4 (fun pool ->
          Par.parallel_map_array ~chunk pool f arr = Array.map f arr))

let test_run_tasks_order () =
  with_pool 4 (fun pool ->
      (* Skewed task costs force stealing; results must stay in order. *)
      let tasks =
        List.init 16 (fun i ->
            fun () ->
              let spin = if i = 0 then 200_000 else 1_000 in
              let acc = ref 0 in
              for k = 1 to spin do
                acc := !acc + (k mod 7)
              done;
              ignore !acc;
              i * 10)
      in
      Alcotest.(check (list int))
        "ordered" (List.init 16 (fun i -> i * 10))
        (Par.run_tasks pool tasks))

let test_empty_and_singleton () =
  with_pool 3 (fun pool ->
      Alcotest.(check (list int)) "empty" [] (Par.parallel_map pool (fun x -> x) []);
      Alcotest.(check (list int)) "singleton" [ 42 ] (Par.parallel_map pool (fun x -> x + 1) [ 41 ]);
      Alcotest.(check (array int)) "empty array" [||] (Par.parallel_map_array pool (fun x -> x) [||]))

let test_exception_propagation () =
  with_pool 4 (fun pool ->
      Alcotest.check_raises "task exception reaches the submitter" (Failure "boom") (fun () ->
          ignore
            (Par.parallel_map pool
               (fun i -> if i = 13 then failwith "boom" else i)
               (List.init 64 Fun.id)));
      (* the pool must survive a failed batch *)
      Alcotest.(check (list int)) "pool still works" [ 2; 4; 6 ]
        (Par.parallel_map pool (fun x -> 2 * x) [ 1; 2; 3 ]))

let test_nested_batches () =
  with_pool 4 (fun pool ->
      (* inner batches run inline on the worker — no deadlock, same result *)
      let sums =
        Par.parallel_map pool
          (fun base -> List.fold_left ( + ) 0 (Par.parallel_map pool (fun i -> base + i) (List.init 10 Fun.id)))
          (List.init 8 (fun b -> 100 * b))
      in
      let expect = List.init 8 (fun b -> (10 * 100 * b) + 45) in
      Alcotest.(check (list int)) "nested sums" expect sums)

let test_sequential_pool_and_shutdown () =
  let pool = Par.create ~domains:1 () in
  Alcotest.(check int) "width 1" 1 (Par.domains pool);
  Alcotest.(check (list int)) "inline" [ 1; 4; 9 ] (Par.parallel_map pool (fun x -> x * x) [ 1; 2; 3 ]);
  Par.shutdown pool;
  let pool4 = Par.create ~domains:4 () in
  Par.shutdown pool4;
  Par.shutdown pool4;
  (* submitting after shutdown degrades to the sequential fallback *)
  Alcotest.(check (list int)) "after shutdown" [ 0; 2; 4 ]
    (Par.parallel_map pool4 (fun x -> 2 * x) [ 0; 1; 2 ])

(* ---------------- determinism contract ---------------- *)

(* Run an experiment at domains=1 and domains=4 on the global pool and
   require structurally (hence bit-) identical rows.  These are the
   fan-outs the macro harness parallelizes; the contract is what lets
   the control plane retrain/re-evaluate on all cores without changing
   any published number. *)
let at_domains n f =
  Par.set_global_domains n;
  let r = f () in
  Par.set_global_domains 1;
  r

let test_determinism_table1 () =
  let seq = at_domains 1 (fun () -> Rkd.Experiment.table1 ()) in
  let par = at_domains 4 (fun () -> Rkd.Experiment.table1 ()) in
  Alcotest.(check bool) "table1 rows bit-identical" true (seq = par);
  Alcotest.(check int) "row count" 6 (List.length par)

let test_determinism_table2_fib () =
  let seq = at_domains 1 (fun () -> Rkd.Experiment.table2_benchmark ~seed:42 "fib") in
  let par = at_domains 4 (fun () -> Rkd.Experiment.table2_benchmark ~seed:42 "fib") in
  Alcotest.(check bool) "table2 fib rows bit-identical" true (seq = par);
  Alcotest.(check int) "row count" 3 (List.length par)

let test_determinism_ablation_window () =
  let seq = at_domains 1 (fun () -> Rkd.Experiment.ablation_window ()) in
  let par = at_domains 4 (fun () -> Rkd.Experiment.ablation_window ()) in
  Alcotest.(check bool) "window ablation bit-identical" true (seq = par);
  Alcotest.(check int) "row count" 6 (List.length par)

let test_determinism_ablation_model_family () =
  let seq = at_domains 1 (fun () -> Rkd.Experiment.ablation_model_family ()) in
  let par = at_domains 4 (fun () -> Rkd.Experiment.ablation_model_family ()) in
  Alcotest.(check bool) "model-family ablation bit-identical" true (seq = par);
  Alcotest.(check int) "row count" 4 (List.length par)

let suite =
  [ ( "par",
      [ Prop.to_alcotest prop_parallel_map_matches_seq;
        Prop.to_alcotest prop_parallel_map_array_chunked;
        Alcotest.test_case "run_tasks order under stealing" `Quick test_run_tasks_order;
        Alcotest.test_case "empty and singleton batches" `Quick test_empty_and_singleton;
        Alcotest.test_case "exception propagation" `Quick test_exception_propagation;
        Alcotest.test_case "nested batches" `Quick test_nested_batches;
        Alcotest.test_case "sequential pool and shutdown" `Quick
          test_sequential_pool_and_shutdown ] );
    ( "par-determinism",
      [ Alcotest.test_case "table1: domains 1 = 4" `Quick test_determinism_table1;
        Alcotest.test_case "table2 fib: domains 1 = 4" `Quick test_determinism_table2_fib;
        Alcotest.test_case "ablation window: domains 1 = 4" `Quick
          test_determinism_ablation_window;
        Alcotest.test_case "ablation model-family: domains 1 = 4" `Quick
          test_determinism_ablation_model_family ] ) ]
