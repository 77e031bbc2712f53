(* Monotonic nanoseconds, allocation-free: the only clock the benchmark
   reads, on every domain. *)

let now () = Int64.to_int (Monotonic_clock.now ())

(* Busy-wait until [t] (ns).  The paced generator spins rather than sleeps:
   a sleep's wake-up jitter would land in the latency samples. *)
let spin_until t =
  while now () < t do
    Domain.cpu_relax ()
  done
