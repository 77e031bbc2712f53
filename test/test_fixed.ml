open Kml

let check_fix = Alcotest.testable Fixed.pp Fixed.equal

let test_of_int_roundtrip () =
  List.iter
    (fun n -> Alcotest.(check int) (string_of_int n) n (Fixed.to_int (Fixed.of_int n)))
    [ 0; 1; -1; 42; -42; 65535; -65536; 1000000 ]

let test_add_sub () =
  let a = Fixed.of_float 1.5 and b = Fixed.of_float 2.25 in
  Alcotest.check check_fix "1.5 + 2.25" (Fixed.of_float 3.75) (Fixed.add a b);
  Alcotest.check check_fix "1.5 - 2.25" (Fixed.of_float (-0.75)) (Fixed.sub a b)

let test_mul () =
  let a = Fixed.of_float 1.5 and b = Fixed.of_float 2.0 in
  Alcotest.check check_fix "1.5 * 2" (Fixed.of_float 3.0) (Fixed.mul a b);
  Alcotest.check check_fix "x * 1 = x" a (Fixed.mul a Fixed.one);
  Alcotest.check check_fix "x * 0 = 0" Fixed.zero (Fixed.mul a Fixed.zero);
  Alcotest.check check_fix "neg * neg" (Fixed.of_float 3.0)
    (Fixed.mul (Fixed.of_float (-1.5)) (Fixed.of_float (-2.0)))

let test_div () =
  let a = Fixed.of_float 3.0 in
  Alcotest.check check_fix "3 / 2" (Fixed.of_float 1.5) (Fixed.div a (Fixed.of_int 2));
  Alcotest.check_raises "div by zero" Division_by_zero (fun () ->
      ignore (Fixed.div a Fixed.zero))

let test_rounding () =
  (* to_int truncates toward zero; to_int_round rounds to nearest. *)
  Alcotest.(check int) "trunc 1.9" 1 (Fixed.to_int (Fixed.of_float 1.9));
  Alcotest.(check int) "trunc -1.9" (-1) (Fixed.to_int (Fixed.of_float (-1.9)));
  Alcotest.(check int) "round 1.9" 2 (Fixed.to_int_round (Fixed.of_float 1.9));
  Alcotest.(check int) "round -1.9" (-2) (Fixed.to_int_round (Fixed.of_float (-1.9)));
  Alcotest.(check int) "round 1.4" 1 (Fixed.to_int_round (Fixed.of_float 1.4))

let test_relu_clamp () =
  Alcotest.check check_fix "relu neg" Fixed.zero (Fixed.relu (Fixed.of_float (-3.0)));
  Alcotest.check check_fix "relu pos" (Fixed.of_float 3.0) (Fixed.relu (Fixed.of_float 3.0));
  Alcotest.check check_fix "clamp above"
    (Fixed.of_int 5)
    (Fixed.clamp ~lo:(Fixed.of_int 0) ~hi:(Fixed.of_int 5) (Fixed.of_int 9));
  Alcotest.check check_fix "clamp below"
    (Fixed.of_int 0)
    (Fixed.clamp ~lo:(Fixed.of_int 0) ~hi:(Fixed.of_int 5) (Fixed.of_int (-9)))

let test_sigmoid_monotone () =
  let xs = List.init 41 (fun i -> Fixed.of_float ((float_of_int i /. 5.0) -. 4.0)) in
  let ys = List.map Fixed.sigmoid_approx xs in
  let rec monotone = function
    | a :: (b :: _ as rest) -> Fixed.( <= ) a b && monotone rest
    | [ _ ] | [] -> true
  in
  Alcotest.(check bool) "monotone" true (monotone ys);
  List.iter
    (fun y ->
      Alcotest.(check bool) "in [0,1]" true (Fixed.( >= ) y Fixed.zero && Fixed.( <= ) y Fixed.one))
    ys

let test_exp_approx () =
  List.iter
    (fun x ->
      let got = Fixed.to_float (Fixed.exp_approx (Fixed.of_float x)) in
      let expected = exp x in
      let rel = Float.abs (got -. expected) /. expected in
      Alcotest.(check bool)
        (Printf.sprintf "exp %.2f: got %.4f want %.4f" x got expected)
        true (rel < 0.02))
    [ -4.0; -2.0; -1.0; -0.5; 0.0; 0.5; 1.0; 2.0; 4.0 ]

let test_sqrt_approx () =
  List.iter
    (fun x ->
      let got = Fixed.to_float (Fixed.sqrt_approx (Fixed.of_float x)) in
      let expected = sqrt x in
      Alcotest.(check bool)
        (Printf.sprintf "sqrt %.2f: got %.4f want %.4f" x got expected)
        true
        (Float.abs (got -. expected) < 0.01 +. (0.001 *. expected)))
    [ 0.0; 0.25; 1.0; 2.0; 100.0; 65536.0 ];
  Alcotest.check_raises "sqrt negative" (Invalid_argument "Fixed.sqrt_approx: negative argument")
    (fun () -> ignore (Fixed.sqrt_approx (Fixed.of_int (-1))))

(* Property tests *)

let fixed_gen =
  QCheck2.Gen.map (fun f -> Fixed.of_float f) (QCheck2.Gen.float_range (-1000.0) 1000.0)

let prop_add_commutative =
  QCheck2.Test.make ~name:"fixed add commutative" ~count:500
    (QCheck2.Gen.pair fixed_gen fixed_gen)
    (fun (a, b) -> Fixed.equal (Fixed.add a b) (Fixed.add b a))

let prop_mul_commutative =
  QCheck2.Test.make ~name:"fixed mul commutative" ~count:500
    (QCheck2.Gen.pair fixed_gen fixed_gen)
    (fun (a, b) -> Fixed.equal (Fixed.mul a b) (Fixed.mul b a))

let prop_mul_close_to_float =
  QCheck2.Test.make ~name:"fixed mul tracks float mul" ~count:500
    (QCheck2.Gen.pair
       (QCheck2.Gen.float_range (-100.0) 100.0)
       (QCheck2.Gen.float_range (-100.0) 100.0))
    (fun (a, b) ->
      let fx = Fixed.to_float (Fixed.mul (Fixed.of_float a) (Fixed.of_float b)) in
      Float.abs (fx -. (a *. b)) < 0.01)

let prop_neg_involutive =
  QCheck2.Test.make ~name:"fixed neg involutive" ~count:500 fixed_gen (fun a ->
      Fixed.equal a (Fixed.neg (Fixed.neg a)))

let prop_div_mul_inverse =
  QCheck2.Test.make ~name:"(a*b)/b ~ a" ~count:500
    (QCheck2.Gen.pair
       (QCheck2.Gen.float_range (-100.0) 100.0)
       (QCheck2.Gen.float_range 0.5 100.0))
    (fun (a, b) ->
      let fa = Fixed.of_float a and fb = Fixed.of_float b in
      let back = Fixed.to_float (Fixed.div (Fixed.mul fa fb) fb) in
      Float.abs (back -. a) < 0.05)

let suite =
  [ ( "fixed",
      [ Alcotest.test_case "of_int roundtrip" `Quick test_of_int_roundtrip;
        Alcotest.test_case "add/sub" `Quick test_add_sub;
        Alcotest.test_case "mul" `Quick test_mul;
        Alcotest.test_case "div" `Quick test_div;
        Alcotest.test_case "rounding" `Quick test_rounding;
        Alcotest.test_case "relu/clamp" `Quick test_relu_clamp;
        Alcotest.test_case "sigmoid monotone bounded" `Quick test_sigmoid_monotone;
        Alcotest.test_case "exp approx" `Quick test_exp_approx;
        Alcotest.test_case "sqrt approx" `Quick test_sqrt_approx;
        Prop.to_alcotest prop_add_commutative;
        Prop.to_alcotest prop_mul_commutative;
        Prop.to_alcotest prop_mul_close_to_float;
        Prop.to_alcotest prop_neg_involutive;
        Prop.to_alcotest prop_div_mul_inverse ] ) ]
