type t = int

let frac_bits = 16
let scale = 1 lsl frac_bits
let one = scale
let zero = 0

(* Saturation bounds: keep products of two in-range values representable in
   the 63-bit native int.  23 integer bits is ample for every feature and
   weight in this repository. *)
let max_val = (1 lsl 39) - 1
let min_val = -(1 lsl 39)
let saturate x = if x > max_val then max_val else if x < min_val then min_val else x
let of_int n = saturate (n * scale)
let to_int x = if x >= 0 then x asr frac_bits else -(-x asr frac_bits)

let to_int_round x =
  let half = scale / 2 in
  if x >= 0 then (x + half) asr frac_bits else -((-x + half) asr frac_bits)

let of_float f = saturate (int_of_float (Float.round (f *. float_of_int scale)))
let to_float x = float_of_int x /. float_of_int scale
let of_raw x = saturate x
let to_raw x = x
let add a b = saturate (a + b)
let sub a b = saturate (a - b)
let neg a = saturate (-a)

let mul a b =
  if a = 0 || b = 0 then 0
  else begin
    (* Raw operands are bounded by 2^39, so the raw product can reach 2^78
       and overflow the native int before [saturate] sees it; saturate
       eagerly when the product cannot be represented. *)
    let positive = a >= 0 = (b >= 0) in
    let abs_a = Stdlib.abs a and abs_b = Stdlib.abs b in
    if abs_a > max_int / abs_b then if positive then max_val else min_val
    else begin
      let p = a * b in
      let half = scale / 2 in
      let r = if p >= 0 then (p + half) asr frac_bits else -((-p + half) asr frac_bits) in
      saturate r
    end
  end

let div a b =
  if b = 0 then raise Division_by_zero
  else begin
    let n = a * scale in
    let q = if (n >= 0) = (b > 0) then (n + (abs b / 2)) / b else (n - (abs b / 2)) / b in
    saturate q
  end

let abs x = Stdlib.abs x
let min (a : t) b = Stdlib.min a b
let max (a : t) b = Stdlib.max a b
let clamp ~lo ~hi x = min hi (max lo x)
let compare (a : t) b = Stdlib.compare a b
let equal (a : t) b = a = b
let ( + ) = add
let ( - ) = sub
let ( * ) = mul
let ( / ) = div
let ( < ) (a : t) b = Stdlib.( < ) a b
let ( <= ) (a : t) b = Stdlib.( <= ) a b
let ( > ) (a : t) b = Stdlib.( > ) a b
let ( >= ) (a : t) b = Stdlib.( >= ) a b
let relu x = max zero x

let sigmoid_approx x =
  (* N.B. the arithmetic operators are shadowed by their fixed-point
     versions at this point; raw-int arithmetic below uses shifts or
     Stdlib explicitly. *)
  let quarter = scale asr 2 in
  let half = scale asr 1 in
  clamp ~lo:zero ~hi:one (add (mul x quarter) half)

(* exp(x) for x in Q16.16.  Range-reduce by halving until |x| <= 1/2, apply a
   4-term Taylor polynomial, then square back up.  Accurate to ~1e-3 relative
   on [-8, 8], plenty for DP noise sampling. *)
let exp_approx x =
  let rec reduce x k =
    if Stdlib.( > ) (Stdlib.abs x) (scale asr 1) then reduce (x asr 1) (Stdlib.( + ) k 1)
    else (x, k)
  in
  let y, k = reduce x 0 in
  (* 1 + y + y^2/2 + y^3/6 + y^4/24 *)
  let y2 = mul y y in
  let y3 = mul y2 y in
  let y4 = mul y2 y2 in
  let base =
    add one (add y (add (div y2 (of_int 2)) (add (div y3 (of_int 6)) (div y4 (of_int 24)))))
  in
  let rec square v k = if Stdlib.( = ) k 0 then v else square (mul v v) (Stdlib.( - ) k 1) in
  square base k

let sqrt_approx x =
  if Stdlib.( < ) x 0 then invalid_arg "Fixed.sqrt_approx: negative argument"
  else if x = 0 then zero
  else begin
    (* Newton iteration on g <- (g + x/g)/2, seeded from the bit length. *)
    let bits =
      let rec go n acc = if n = 0 then acc else go (n lsr 1) (Stdlib.( + ) acc 1) in
      go x 0
    in
    let seed = 1 lsl (Stdlib.( / ) (Stdlib.( + ) bits frac_bits) 2) in
    let rec iter g n =
      if Stdlib.( = ) n 0 then g
      else begin
        let g' = (Stdlib.( + ) g (div x g)) asr 1 in
        if Stdlib.( = ) g' g then g else iter g' (Stdlib.( - ) n 1)
      end
    in
    iter (Stdlib.max seed 1) 20
  end

let pp fmt x = Format.fprintf fmt "%.5f" (to_float x)
