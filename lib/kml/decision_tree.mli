(** Integer CART decision tree — the paper's in-kernel learning model.

    Training uses only integer feature comparisons and integer-scaled Gini
    impurity, so the same code could run kernel-side without an FPU (§3.2,
    §4 case study 1).  Inference walks internal nodes of the form
    [feature <= threshold]. *)

type t

type params = {
  max_depth : int;       (** maximum tree depth; 1 = a single split *)
  min_samples_split : int; (** do not split nodes smaller than this *)
  min_gain : int;        (** minimum Gini gain, scaled by 2^20 *)
}

val default_params : params

val train : ?params:params -> Dataset.t -> t
(** Trains on the dataset.  An empty dataset yields a tree that always
    predicts class 0. *)

val predict : t -> int array -> int
(** Allocation-free inference: walks a structure-of-arrays mirror of the
    tree (int arrays for feature/threshold/children, built once at
    [train]/[of_nodes] exit), so the hot loop does no constructor
    matching and no allocation.  Raises [Invalid_argument] on
    feature-arity mismatch. *)

val predict_batch : t -> features:int array -> n:int -> out:int array -> unit
(** Batched [predict] over [n] slot-major feature rows: slot [s]'s
    features start at [features.(s * n_features)], its class lands in
    [out.(s)].  One flat-layout walk per slot, no per-slot feature copy,
    no allocation. *)

val n_nodes : t -> int
val depth : t -> int
val n_features : t -> int
val n_classes : t -> int

type node =
  | Leaf of { label : int; counts : int array }
  | Split of { feature : int; threshold : int; left : int; right : int }
      (** [left]/[right] are node-array indices; samples with
          [features.(feature) <= threshold] go left. *)

val nodes : t -> node array
(** Flattened node array (index 0 is the root) — the representation loaded
    into the RMT model store. *)

val of_nodes : n_features:int -> n_classes:int -> node array -> t
(** Rebuild a tree from a flat node array.  Raises [Invalid_argument] if the
    array is empty, a child index is out of range or not strictly greater
    than its parent (the tree must be topologically ordered), or a feature
    index is out of range. *)

val feature_importance : t -> float array
(** Impurity-based importance: total weighted Gini decrease contributed by
    splits on each feature, normalized to sum to 1 (all-zero if the tree is
    a single leaf). *)

val pp : Format.formatter -> t -> unit
