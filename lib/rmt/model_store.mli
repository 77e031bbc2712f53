(** Registered kernel ML models invoked by [Call_ml] (§3.2).

    A model takes an integer feature vector and returns a class index.  The
    store records each model's static cost so the verifier can admit or
    reject programs that reference it, and counts invocations for the
    overhead experiments.  Models are mutable slots: the control plane
    swaps in retrained models at runtime without reloading programs. *)

type model =
  | Tree of Kml.Decision_tree.t
  | Qmlp of Kml.Quantize.Qmlp.t
  | Svm of Kml.Linear.Svm.t
  | Fn of { n_features : int; cost : Kml.Model_cost.t; f : int array -> int }
      (** Escape hatch for tests and custom actions; cost must be declared. *)

type t
type handle

val create : unit -> t
val register : t -> name:string -> model -> handle
val replace : t -> handle -> model -> unit
(** Swap the model in a slot (same feature arity required). *)

val find : t -> string -> handle option
val name : t -> handle -> string
val model : t -> handle -> model
val id : handle -> int
val n_features : model -> int
val cost : model -> Kml.Model_cost.t
val predict : t -> handle -> int array -> int
(** Raises [Invalid_argument] on arity mismatch. *)

val predict_batch : t -> handle -> features:int array -> n:int -> out:int array -> unit
(** Batched [predict]: slot [s]'s features are the row
    [features.(s * arity) ..], its class lands in [out.(s)] — per slot
    bit-identical to [predict] (including the per-slot fault-injection
    seam).  Trees and quantized MLPs use native batch kernels so model
    weights amortize across slots; Svm/Fn models fall back to a per-slot
    loop over a reused row buffer.  The invocation counter advances by
    [n]. *)

val invocations : t -> handle -> int
val count : t -> int
