type confusion = { n : int; cells : int array }

let confusion_create ~n_classes =
  if n_classes <= 0 then invalid_arg "Metrics.confusion_create: n_classes must be positive";
  { n = n_classes; cells = Array.make (n_classes * n_classes) 0 }

let confusion_add c ~truth ~predicted =
  if truth < 0 || truth >= c.n || predicted < 0 || predicted >= c.n then
    invalid_arg "Metrics.confusion_add: class out of range";
  let idx = (truth * c.n) + predicted in
  c.cells.(idx) <- c.cells.(idx) + 1

let confusion_total c = Array.fold_left ( + ) 0 c.cells

let accuracy c =
  let total = confusion_total c in
  if total = 0 then 0.0
  else begin
    let correct = ref 0 in
    for i = 0 to c.n - 1 do
      correct := !correct + c.cells.((i * c.n) + i)
    done;
    float_of_int !correct /. float_of_int total
  end

let column_sum c j =
  let acc = ref 0 in
  for i = 0 to c.n - 1 do
    acc := !acc + c.cells.((i * c.n) + j)
  done;
  !acc

let row_sum c i =
  let acc = ref 0 in
  for j = 0 to c.n - 1 do
    acc := !acc + c.cells.((i * c.n) + j)
  done;
  !acc

let precision c ~cls =
  let predicted = column_sum c cls in
  if predicted = 0 then 0.0
  else float_of_int c.cells.((cls * c.n) + cls) /. float_of_int predicted

let recall c ~cls =
  let actual = row_sum c cls in
  if actual = 0 then 0.0 else float_of_int c.cells.((cls * c.n) + cls) /. float_of_int actual

let f1 c ~cls =
  let p = precision c ~cls and r = recall c ~cls in
  if p +. r = 0.0 then 0.0 else 2.0 *. p *. r /. (p +. r)

let macro_f1 c =
  let acc = ref 0.0 in
  for cls = 0 to c.n - 1 do
    acc := !acc +. f1 c ~cls
  done;
  !acc /. float_of_int c.n

let evaluate ~predict ds =
  let c = confusion_create ~n_classes:(Dataset.n_classes ds) in
  Dataset.iter
    (fun (s : Dataset.sample) -> confusion_add c ~truth:s.label ~predicted:(predict s.features))
    ds;
  c

let accuracy_of ~predict ds = accuracy (evaluate ~predict ds)
