(** Classification metrics shared by training, evaluation and the online
    control plane's accuracy monitors. *)

type confusion
(** Square confusion matrix over [n_classes]; rows = truth, cols = predicted. *)

val confusion_create : n_classes:int -> confusion
val confusion_add : confusion -> truth:int -> predicted:int -> unit
val accuracy : confusion -> float
(** Fraction of correct predictions; 0 on an empty matrix. *)

val precision : confusion -> cls:int -> float
val recall : confusion -> cls:int -> float
val f1 : confusion -> cls:int -> float
val macro_f1 : confusion -> float

val evaluate : predict:(int array -> int) -> Dataset.t -> confusion
(** Run [predict] over every sample and tally the confusion matrix. *)

val accuracy_of : predict:(int array -> int) -> Dataset.t -> float
