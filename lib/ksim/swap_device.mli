(** Swap/backing-device model: a single-queue device with a fixed per-page
    service time.

    Reads are FIFO: a request issued at time [t] starts when the device is
    free and completes one service-time later.  Synchronous reads (major
    faults) stall the CPU until completion; asynchronous reads (prefetches)
    only occupy the device — this is how wasteful prefetching hurts: it
    delays subsequent demand faults behind queued prefetch traffic. *)

type t

val create : ?service_time_ns:int -> unit -> t
(** Default service time: 50 µs per page (fast-SSD swap, in the range the
    Leap paper reports for remote memory). *)

val service_time_ns : t -> int
val read : t -> now:int -> int
(** Enqueue one page read issued at [now]; returns its completion time. *)

val reads_issued : t -> int
val busy_ns : t -> int
(** Total time the device has spent (or is committed to spend) servicing. *)

val reset : t -> unit
