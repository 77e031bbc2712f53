type t = {
  service_time_ns : int;
  mutable busy_until : int;
  mutable reads : int;
  mutable busy_ns : int;
}

let create ?(service_time_ns = 50_000) () =
  if service_time_ns <= 0 then invalid_arg "Swap_device.create: service time must be positive";
  { service_time_ns; busy_until = 0; reads = 0; busy_ns = 0 }

let service_time_ns t = t.service_time_ns

let read t ~now =
  let start = Stdlib.max now t.busy_until in
  let done_at = start + t.service_time_ns in
  t.busy_until <- done_at;
  t.reads <- t.reads + 1;
  t.busy_ns <- t.busy_ns + t.service_time_ns;
  done_at

let reads_issued t = t.reads
let busy_ns t = t.busy_ns

let reset t =
  t.busy_until <- 0;
  t.reads <- 0;
  t.busy_ns <- 0
