type node =
  | Leaf of { label : int; counts : int array }
  | Split of { feature : int; threshold : int; left : int; right : int }

(* The [nodes] variant array is the training/introspection layout; the
   [s_*] structure-of-arrays mirror is what [predict] walks: a leaf at
   slot [i] has [s_feature.(i) = -1] and its label in [s_label.(i)], so
   inference is a tight integer loop with no constructor matching and no
   allocation.  Both layouts are built once, at [train]/[of_nodes] exit. *)
type t = {
  n_features : int;
  n_classes : int;
  nodes : node array;
  s_feature : int array;
  s_threshold : int array;
  s_left : int array;
  s_right : int array;
  s_label : int array;
}

let flatten ~n_features ~n_classes nodes =
  let n = Array.length nodes in
  let s_feature = Array.make n (-1) in
  let s_threshold = Array.make n 0 in
  let s_left = Array.make n 0 in
  let s_right = Array.make n 0 in
  let s_label = Array.make n 0 in
  Array.iteri
    (fun i node ->
      match node with
      | Leaf { label; _ } ->
        s_feature.(i) <- -1;
        s_label.(i) <- label
      | Split { feature; threshold; left; right } ->
        s_feature.(i) <- feature;
        s_threshold.(i) <- threshold;
        s_left.(i) <- left;
        s_right.(i) <- right)
    nodes;
  { n_features; n_classes; nodes; s_feature; s_threshold; s_left; s_right; s_label }

type params = { max_depth : int; min_samples_split : int; min_gain : int }

let gini_scale = 1 lsl 20
let default_params = { max_depth = 8; min_samples_split = 4; min_gain = gini_scale / 1024 }

(* [cost counts n] is [n * gini(counts)] in [gini_scale] units:
   scale * (n^2 - sum c^2) / n.  Using n*gini (not gini) makes split gain a
   simple difference without a second division. *)
let cost counts n =
  if n = 0 then 0
  else begin
    let sum_sq = Array.fold_left (fun acc c -> acc + (c * c)) 0 counts in
    gini_scale * ((n * n) - sum_sq) / n
  end

let majority counts =
  let best = ref 0 in
  for c = 1 to Array.length counts - 1 do
    if counts.(c) > counts.(!best) then best := c
  done;
  !best

(* Best split of [indices] on [feature]: sort by feature value, sweep all cut
   points between distinct values, track class counts incrementally. *)
let best_split_on_feature samples indices feature n_classes parent_cost =
  let n = Array.length indices in
  let sorted = Array.copy indices in
  Array.sort
    (fun a b ->
      compare samples.(a).Dataset.features.(feature) samples.(b).Dataset.features.(feature))
    sorted;
  let left_counts = Array.make n_classes 0 in
  let right_counts = Array.make n_classes 0 in
  Array.iter
    (fun i ->
      let l = samples.(i).Dataset.label in
      right_counts.(l) <- right_counts.(l) + 1)
    sorted;
  let best_gain = ref 0 and best_threshold = ref 0 and found = ref false in
  (* Incremental sum of squares so each sweep step is O(1), not O(classes). *)
  let left_sq = ref 0 and right_sq = ref (Array.fold_left (fun a c -> a + (c * c)) 0 right_counts) in
  for k = 0 to n - 2 do
    let i = sorted.(k) in
    let l = samples.(i).Dataset.label in
    left_sq := !left_sq + (2 * left_counts.(l)) + 1;
    right_sq := !right_sq - (2 * right_counts.(l)) + 1;
    left_counts.(l) <- left_counts.(l) + 1;
    right_counts.(l) <- right_counts.(l) - 1;
    let v = samples.(i).Dataset.features.(feature) in
    let v_next = samples.(sorted.(k + 1)).Dataset.features.(feature) in
    if v <> v_next then begin
      let nl = k + 1 and nr = n - k - 1 in
      let cl = gini_scale * ((nl * nl) - !left_sq) / nl in
      let cr = gini_scale * ((nr * nr) - !right_sq) / nr in
      let gain = parent_cost - cl - cr in
      if gain > !best_gain then begin
        best_gain := gain;
        best_threshold := v;
        found := true
      end
    end
  done;
  if !found then Some (!best_gain, !best_threshold) else None

let node_counts samples indices n_classes =
  let counts = Array.make n_classes 0 in
  Array.iter
    (fun i ->
      let l = samples.(i).Dataset.label in
      counts.(l) <- counts.(l) + 1)
    indices;
  counts

(* Below this node size the per-feature searches are too cheap to farm
   out; above it each feature's sort dominates and the features are
   embarrassingly parallel. *)
let par_min_samples = 512

(* One candidate per feature, evaluated in parallel for large nodes, then
   reduced sequentially in feature order so the winning (gain, feature)
   pair — including the earlier-feature-wins tie-break — is bit-identical
   to the sequential search. *)
let best_feature_split samples indices n_features n_classes parent_cost =
  let search f = best_split_on_feature samples indices f n_classes parent_cost in
  let candidates =
    if Array.length indices >= par_min_samples && n_features > 1 then
      Par.parallel_map_array (Par.global ()) search (Array.init n_features Fun.id)
    else Array.init n_features search
  in
  let best = ref None in
  Array.iteri
    (fun f candidate ->
      match candidate with
      | Some (gain, threshold) ->
        (match !best with
         | Some (g, _, _) when g >= gain -> ()
         | Some _ | None -> best := Some (gain, f, threshold))
      | None -> ())
    candidates;
  !best

let train ?(params = default_params) ds =
  let n_features = Dataset.n_features ds and n_classes = Dataset.n_classes ds in
  if params.max_depth < 1 then invalid_arg "Decision_tree.train: max_depth must be >= 1";
  let samples = Dataset.to_array ds in
  if Array.length samples = 0 then
    flatten ~n_features ~n_classes [| Leaf { label = 0; counts = Array.make n_classes 0 } |]
  else begin
    let nodes = ref [] and n_nodes = ref 0 in
    let alloc () =
      let id = !n_nodes in
      incr n_nodes;
      id
    in
    let assigned = Hashtbl.create 64 in
    let rec build indices depth =
      let id = alloc () in
      let counts = node_counts samples indices n_classes in
      let n = Array.length indices in
      let parent_cost = cost counts n in
      let make_leaf () = Hashtbl.replace assigned id (Leaf { label = majority counts; counts }) in
      if depth >= params.max_depth || n < params.min_samples_split || parent_cost = 0 then
        make_leaf ()
      else begin
        match best_feature_split samples indices n_features n_classes parent_cost with
        | Some (gain, feature, threshold) when gain >= params.min_gain ->
          let left_idx =
            Array.of_list
              (List.filter
                 (fun i -> samples.(i).Dataset.features.(feature) <= threshold)
                 (Array.to_list indices))
          in
          let right_idx =
            Array.of_list
              (List.filter
                 (fun i -> samples.(i).Dataset.features.(feature) > threshold)
                 (Array.to_list indices))
          in
          if Array.length left_idx = 0 || Array.length right_idx = 0 then make_leaf ()
          else begin
            let left = build left_idx (depth + 1) in
            let right = build right_idx (depth + 1) in
            Hashtbl.replace assigned id (Split { feature; threshold; left; right })
          end
        | Some _ | None -> make_leaf ()
      end;
      id
    in
    let root = build (Array.init (Array.length samples) Fun.id) 0 in
    assert (root = 0);
    nodes := [];
    let arr = Array.init !n_nodes (fun i -> Hashtbl.find assigned i) in
    flatten ~n_features ~n_classes arr
  end

let check_arity t features =
  if Array.length features <> t.n_features then
    invalid_arg "Decision_tree.predict: feature arity mismatch"

(* Allocation-free inference over the structure-of-arrays layout. *)
let[@inline] walk_flat t features =
  let feat = t.s_feature
  and thr = t.s_threshold
  and left = t.s_left
  and right = t.s_right in
  let i = ref 0 in
  let f = ref feat.(0) in
  while !f >= 0 do
    i := (if features.(!f) <= thr.(!i) then left.(!i) else right.(!i));
    f := feat.(!i)
  done;
  !i

let predict t features =
  check_arity t features;
  t.s_label.(walk_flat t features)

(* Batched inference: one walk per slot over the flat layout, reading
   slot [s]'s features at row offset [s * n_features] — no per-slot
   feature copy, no allocation. *)
let predict_batch t ~features ~n ~out =
  let nf = t.n_features in
  if n < 0 || Array.length features < n * nf then
    invalid_arg "Decision_tree.predict_batch: feature buffer too small";
  if Array.length out < n then
    invalid_arg "Decision_tree.predict_batch: output buffer too small";
  let feat = t.s_feature
  and thr = t.s_threshold
  and left = t.s_left
  and right = t.s_right in
  for s = 0 to n - 1 do
    let base = s * nf in
    let i = ref 0 in
    let f = ref feat.(0) in
    while !f >= 0 do
      i := (if features.(base + !f) <= thr.(!i) then left.(!i) else right.(!i));
      f := feat.(!i)
    done;
    out.(s) <- t.s_label.(!i)
  done

let n_nodes t = Array.length t.nodes

let depth t =
  let rec go i =
    match t.nodes.(i) with
    | Leaf _ -> 0
    | Split { left; right; _ } -> 1 + Stdlib.max (go left) (go right)
  in
  go 0

let n_features t = t.n_features
let n_classes t = t.n_classes
let nodes t = Array.copy t.nodes

let of_nodes ~n_features ~n_classes arr =
  if Array.length arr = 0 then invalid_arg "Decision_tree.of_nodes: empty node array";
  Array.iteri
    (fun i node ->
      match node with
      | Leaf { counts; _ } ->
        if Array.length counts <> n_classes then
          invalid_arg "Decision_tree.of_nodes: leaf counts arity mismatch"
      | Split { feature; left; right; _ } ->
        if feature < 0 || feature >= n_features then
          invalid_arg "Decision_tree.of_nodes: feature index out of range";
        if left <= i || left >= Array.length arr || right <= i || right >= Array.length arr then
          invalid_arg "Decision_tree.of_nodes: child index must be a later node")
    arr;
  flatten ~n_features ~n_classes (Array.copy arr)

let feature_importance t =
  let importance = Array.make t.n_features 0.0 in
  (* Recompute each node's sample count and impurity from leaf counts. *)
  let rec counts_of i =
    match t.nodes.(i) with
    | Leaf { counts; _ } -> counts
    | Split { left; right; _ } ->
      let cl = counts_of left and cr = counts_of right in
      Array.init (Array.length cl) (fun c -> cl.(c) + cr.(c))
  in
  let rec go i =
    match t.nodes.(i) with
    | Leaf _ -> ()
    | Split { feature; left; right; _ } ->
      let c = counts_of i and cl = counts_of left and cr = counts_of right in
      let n = Array.fold_left ( + ) 0 c in
      let nl = Array.fold_left ( + ) 0 cl in
      let nr = Array.fold_left ( + ) 0 cr in
      let decrease = float_of_int (cost c n - cost cl nl - cost cr nr) in
      importance.(feature) <- importance.(feature) +. Float.max 0.0 decrease;
      go left;
      go right
  in
  go 0;
  let total = Array.fold_left ( +. ) 0.0 importance in
  if total > 0.0 then Array.map (fun x -> x /. total) importance else importance

let pp fmt t =
  let rec go i indent =
    match t.nodes.(i) with
    | Leaf { label; counts } ->
      Format.fprintf fmt "%sleaf -> %d %s@." indent label
        (String.concat "," (Array.to_list (Array.map string_of_int counts)))
    | Split { feature; threshold; left; right } ->
      Format.fprintf fmt "%sf%d <= %d?@." indent feature threshold;
      go left (indent ^ "  ");
      go right (indent ^ "  ")
  in
  go 0 ""
