(** Load-balancing features — the 15-feature vector used to mimic the CFS
    [can_migrate_task] decision (case study 2, following Chen et al.,
    "Machine learning for load balancing in the Linux kernel", APSys '20).

    Features are integer-valued; time quantities are in microseconds and
    clamped so a quantized model sees a bounded range. *)

val n_features : int
(** 15. *)

val names : string array
(** Human-readable feature names (index-aligned). *)

type inputs = {
  now_ns : int;
  src_nr_running : int;
  dst_nr_running : int;
  src_load : int;
  dst_load : int;
  task : Task.t;
  src_min_vruntime : int;
  examined_before : int; (** candidates already examined this balance round *)
}

val extract : inputs -> int array

val heuristic : inputs -> bool
(** The reference CFS-style [can_migrate_task] decision: refuse when the
    imbalance does not justify the move or the task is cache-hot relative
    to the imbalance; this is the teacher the ML models mimic. *)
