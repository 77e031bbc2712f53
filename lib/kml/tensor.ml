module Vec = struct
  type t = float array

  let create n = Array.make n 0.0
  let init = Array.init
  let copy = Array.copy
  let dim = Array.length

  let check_same_dim a b name =
    if Array.length a <> Array.length b then invalid_arg (name ^ ": dimension mismatch")

  let dot a b =
    check_same_dim a b "Vec.dot";
    let acc = ref 0.0 in
    for i = 0 to Array.length a - 1 do
      acc := !acc +. (a.(i) *. b.(i))
    done;
    !acc

  let add a b =
    check_same_dim a b "Vec.add";
    Array.init (Array.length a) (fun i -> a.(i) +. b.(i))

  let sub a b =
    check_same_dim a b "Vec.sub";
    Array.init (Array.length a) (fun i -> a.(i) -. b.(i))

  let scale alpha a = Array.map (fun x -> alpha *. x) a

  let axpy ~alpha ~x ~y =
    check_same_dim x y "Vec.axpy";
    for i = 0 to Array.length x - 1 do
      y.(i) <- y.(i) +. (alpha *. x.(i))
    done

  let map = Array.map

  let max_index v =
    if Array.length v = 0 then invalid_arg "Vec.max_index: empty vector";
    let best = ref 0 in
    for i = 1 to Array.length v - 1 do
      if v.(i) > v.(!best) then best := i
    done;
    !best

  let l2_norm v = sqrt (dot v v)

  let mean v =
    if Array.length v = 0 then 0.0
    else Array.fold_left ( +. ) 0.0 v /. float_of_int (Array.length v)

  let pp fmt v =
    Format.fprintf fmt "[%a]"
      (Format.pp_print_list
         ~pp_sep:(fun fmt () -> Format.fprintf fmt "; ")
         (fun fmt x -> Format.fprintf fmt "%.4f" x))
      (Array.to_list v)
end

module Mat = struct
  type t = { rows : int; cols : int; data : float array }

  let create ~rows ~cols =
    if rows < 0 || cols < 0 then invalid_arg "Mat.create: negative dimension";
    { rows; cols; data = Array.make (rows * cols) 0.0 }

  let init ~rows ~cols f =
    let m = create ~rows ~cols in
    for i = 0 to rows - 1 do
      for j = 0 to cols - 1 do
        m.data.((i * cols) + j) <- f i j
      done
    done;
    m

  let rows m = m.rows
  let cols m = m.cols

  let get m i j =
    if i < 0 || i >= m.rows || j < 0 || j >= m.cols then invalid_arg "Mat.get: out of bounds";
    m.data.((i * m.cols) + j)

  let set m i j v =
    if i < 0 || i >= m.rows || j < 0 || j >= m.cols then invalid_arg "Mat.set: out of bounds";
    m.data.((i * m.cols) + j) <- v

  let copy m = { m with data = Array.copy m.data }
  let row m i = Array.sub m.data (i * m.cols) m.cols

  let mul_vec m x =
    if m.cols <> Array.length x then invalid_arg "Mat.mul_vec: dimension mismatch";
    let out = Array.make m.rows 0.0 in
    for i = 0 to m.rows - 1 do
      let base = i * m.cols in
      let acc = ref 0.0 in
      for j = 0 to m.cols - 1 do
        acc := !acc +. (m.data.(base + j) *. x.(j))
      done;
      out.(i) <- !acc
    done;
    out

  let tmul_vec m x =
    if m.rows <> Array.length x then invalid_arg "Mat.tmul_vec: dimension mismatch";
    let out = Array.make m.cols 0.0 in
    for i = 0 to m.rows - 1 do
      let base = i * m.cols in
      let xi = x.(i) in
      for j = 0 to m.cols - 1 do
        out.(j) <- out.(j) +. (m.data.(base + j) *. xi)
      done
    done;
    out

  let mul a b =
    if a.cols <> b.rows then invalid_arg "Mat.mul: dimension mismatch";
    let out = create ~rows:a.rows ~cols:b.cols in
    for i = 0 to a.rows - 1 do
      for k = 0 to a.cols - 1 do
        let aik = a.data.((i * a.cols) + k) in
        if aik <> 0.0 then
          for j = 0 to b.cols - 1 do
            out.data.((i * b.cols) + j) <-
              out.data.((i * b.cols) + j) +. (aik *. b.data.((k * b.cols) + j))
          done
      done
    done;
    out

  let map f m = { m with data = Array.map f m.data }

  let pp fmt m =
    for i = 0 to m.rows - 1 do
      Format.fprintf fmt "%a@." Vec.pp (row m i)
    done
end

module Qvec = struct
  type t = Fixed.t array

  let create n = Array.make n Fixed.zero
  let of_vec v = Array.map Fixed.of_float v
  let to_vec v = Array.map Fixed.to_float v
  let dim = Array.length

  let dot (a : t) (b : t) =
    if Array.length a <> Array.length b then invalid_arg "Qvec.dot: dimension mismatch";
    let acc = ref 0 in
    for i = 0 to Array.length a - 1 do
      acc := !acc + (((a.(i) :> int) * (b.(i) :> int)) asr Fixed.frac_bits)
    done;
    Fixed.of_raw !acc

  let add_inplace dst src =
    if Array.length dst <> Array.length src then invalid_arg "Qvec.add_inplace: dimension mismatch";
    for i = 0 to Array.length dst - 1 do
      dst.(i) <- Fixed.add dst.(i) src.(i)
    done

  let relu_inplace v =
    for i = 0 to Array.length v - 1 do
      v.(i) <- Fixed.relu v.(i)
    done

  let max_index v =
    if Array.length v = 0 then invalid_arg "Qvec.max_index: empty vector";
    let best = ref 0 in
    for i = 1 to Array.length v - 1 do
      if Fixed.( > ) v.(i) v.(!best) then best := i
    done;
    !best
end

module Qmat = struct
  type t = { rows : int; cols : int; data : Fixed.t array }

  let of_mat m =
    let rows = Mat.rows m and cols = Mat.cols m in
    let data = Array.make (rows * cols) Fixed.zero in
    for i = 0 to rows - 1 do
      for j = 0 to cols - 1 do
        data.((i * cols) + j) <- Fixed.of_float (Mat.get m i j)
      done
    done;
    { rows; cols; data }

  let rows m = m.rows
  let cols m = m.cols

  let get m i j =
    if i < 0 || i >= m.rows || j < 0 || j >= m.cols then invalid_arg "Qmat.get: out of bounds";
    m.data.((i * m.cols) + j)

  let mul_vec_into m (x : Qvec.t) (out : Qvec.t) =
    if m.cols <> Array.length x then invalid_arg "Qmat.mul_vec_into: dimension mismatch";
    if m.rows <> Array.length out then invalid_arg "Qmat.mul_vec_into: output dimension mismatch";
    (* Hot path: raw Q16.16 multiply-accumulate.  Products of in-range
       values fit the 63-bit int with >20 bits to spare, so per-element
       rounding/saturation is deferred to one [of_raw] per row. *)
    for i = 0 to m.rows - 1 do
      let base = i * m.cols in
      let acc = ref 0 in
      for j = 0 to m.cols - 1 do
        acc := !acc + (((m.data.(base + j) :> int) * (x.(j) :> int)) asr Fixed.frac_bits)
      done;
      out.(i) <- Fixed.of_raw !acc
    done

  let mul_vec m x =
    let out = Qvec.create m.rows in
    mul_vec_into m x out;
    out

  let mul_vec_batch m ~(x : Qvec.t) ~xstride ~(y : Qvec.t) ~ystride ~n =
    if m.cols > xstride || m.rows > ystride then
      invalid_arg "Qmat.mul_vec_batch: stride smaller than matrix dimension";
    if Array.length x < n * xstride || Array.length y < n * ystride then
      invalid_arg "Qmat.mul_vec_batch: buffer too small";
    (* Register-tiled 4 weight rows x 4 batch slots.  The scalar kernel's
       single accumulator serializes on its ~5-cycle multiply-shift-add
       latency every element; the tile's sixteen independent accumulator
       chains keep the multiplier busy.  Sharing also cuts load traffic
       per multiply-accumulate: each loaded weight feeds four slots and
       each loaded x element feeds four rows — 8 loads for 16 MACs where
       a row-at-a-time sweep does 9 loads for 8.  Each slot's
       accumulation order is still exactly [mul_vec_into]'s, so results
       are bit-identical.

       The stride/length checks above prove every index below in bounds
       for the whole batch, so the loops run unchecked — one validation
       amortized over [n * rows * cols] accesses. *)
    let data = m.data and cols = m.cols in
    let fb = Fixed.frac_bits in
    let i = ref 0 in
    while !i + 3 < m.rows do
      let base0 = !i * cols in
      let base1 = base0 + cols in
      let base2 = base1 + cols in
      let base3 = base2 + cols in
      let yb = ref !i in
      let s = ref 0 in
      while !s + 3 < n do
        let x0 = !s * xstride in
        let x1 = x0 + xstride in
        let x2 = x1 + xstride in
        let x3 = x2 + xstride in
        let a0 = ref 0 and a1 = ref 0 and a2 = ref 0 and a3 = ref 0 in
        let b0 = ref 0 and b1 = ref 0 and b2 = ref 0 and b3 = ref 0 in
        let c0 = ref 0 and c1 = ref 0 and c2 = ref 0 and c3 = ref 0 in
        let d0 = ref 0 and d1 = ref 0 and d2 = ref 0 and d3 = ref 0 in
        for j = 0 to cols - 1 do
          let w0 = (Array.unsafe_get data (base0 + j) :> int) in
          let w1 = (Array.unsafe_get data (base1 + j) :> int) in
          let w2 = (Array.unsafe_get data (base2 + j) :> int) in
          let w3 = (Array.unsafe_get data (base3 + j) :> int) in
          let g0 = (Array.unsafe_get x (x0 + j) :> int) in
          let g1 = (Array.unsafe_get x (x1 + j) :> int) in
          let g2 = (Array.unsafe_get x (x2 + j) :> int) in
          let g3 = (Array.unsafe_get x (x3 + j) :> int) in
          a0 := !a0 + ((w0 * g0) asr fb);
          a1 := !a1 + ((w0 * g1) asr fb);
          a2 := !a2 + ((w0 * g2) asr fb);
          a3 := !a3 + ((w0 * g3) asr fb);
          b0 := !b0 + ((w1 * g0) asr fb);
          b1 := !b1 + ((w1 * g1) asr fb);
          b2 := !b2 + ((w1 * g2) asr fb);
          b3 := !b3 + ((w1 * g3) asr fb);
          c0 := !c0 + ((w2 * g0) asr fb);
          c1 := !c1 + ((w2 * g1) asr fb);
          c2 := !c2 + ((w2 * g2) asr fb);
          c3 := !c3 + ((w2 * g3) asr fb);
          d0 := !d0 + ((w3 * g0) asr fb);
          d1 := !d1 + ((w3 * g1) asr fb);
          d2 := !d2 + ((w3 * g2) asr fb);
          d3 := !d3 + ((w3 * g3) asr fb)
        done;
        Array.unsafe_set y !yb (Fixed.of_raw !a0);
        Array.unsafe_set y (!yb + ystride) (Fixed.of_raw !a1);
        Array.unsafe_set y (!yb + (2 * ystride)) (Fixed.of_raw !a2);
        Array.unsafe_set y (!yb + (3 * ystride)) (Fixed.of_raw !a3);
        let zb = !yb + 1 in
        Array.unsafe_set y zb (Fixed.of_raw !b0);
        Array.unsafe_set y (zb + ystride) (Fixed.of_raw !b1);
        Array.unsafe_set y (zb + (2 * ystride)) (Fixed.of_raw !b2);
        Array.unsafe_set y (zb + (3 * ystride)) (Fixed.of_raw !b3);
        let zb = !yb + 2 in
        Array.unsafe_set y zb (Fixed.of_raw !c0);
        Array.unsafe_set y (zb + ystride) (Fixed.of_raw !c1);
        Array.unsafe_set y (zb + (2 * ystride)) (Fixed.of_raw !c2);
        Array.unsafe_set y (zb + (3 * ystride)) (Fixed.of_raw !c3);
        let zb = !yb + 3 in
        Array.unsafe_set y zb (Fixed.of_raw !d0);
        Array.unsafe_set y (zb + ystride) (Fixed.of_raw !d1);
        Array.unsafe_set y (zb + (2 * ystride)) (Fixed.of_raw !d2);
        Array.unsafe_set y (zb + (3 * ystride)) (Fixed.of_raw !d3);
        yb := !yb + (4 * ystride);
        s := !s + 4
      done;
      (* Remainder slots of this 4-row group (at most 3). *)
      while !s < n do
        let xb = !s * xstride in
        let a = ref 0 and b = ref 0 and c = ref 0 and d = ref 0 in
        for j = 0 to cols - 1 do
          let g = (Array.unsafe_get x (xb + j) :> int) in
          a := !a + (((Array.unsafe_get data (base0 + j) :> int) * g) asr fb);
          b := !b + (((Array.unsafe_get data (base1 + j) :> int) * g) asr fb);
          c := !c + (((Array.unsafe_get data (base2 + j) :> int) * g) asr fb);
          d := !d + (((Array.unsafe_get data (base3 + j) :> int) * g) asr fb)
        done;
        Array.unsafe_set y !yb (Fixed.of_raw !a);
        Array.unsafe_set y (!yb + 1) (Fixed.of_raw !b);
        Array.unsafe_set y (!yb + 2) (Fixed.of_raw !c);
        Array.unsafe_set y (!yb + 3) (Fixed.of_raw !d);
        yb := !yb + ystride;
        s := !s + 1
      done;
      i := !i + 4
    done;
    (* Remainder rows (at most 3), row at a time. *)
    while !i < m.rows do
      let base = !i * cols in
      let yb = ref !i in
      for s = 0 to n - 1 do
        let xb = s * xstride in
        let acc = ref 0 in
        for j = 0 to cols - 1 do
          acc :=
            !acc
            + (((Array.unsafe_get data (base + j) :> int)
                * (Array.unsafe_get x (xb + j) :> int))
               asr fb)
        done;
        Array.unsafe_set y !yb (Fixed.of_raw !acc);
        yb := !yb + ystride
      done;
      i := !i + 1
    done
end
