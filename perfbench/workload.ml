(* The four traffic mixes and their flat inputs.

   Every input comes from [Ksim.Workload_mem.multi_tenant] seeded by the
   command line, and is flattened into [(tenant, page)] columns before any
   timing starts.  A round replays the same inputs on a fresh fleet: the
   warm-up events during set-up, then [sat_events] as fast as admission
   takes them, then [paced_events] offered at [paced_rate] events/s. *)

type mode =
  | Inline  (** the main domain submits and drains *)
  | Pinned  (** the main domain submits; [nproc - 1] shard workers drain *)

type spec = {
  name : string;
  mode : mode;
  learned : bool;  (** [Serving.create_prefetch] instead of the Datapath sink *)
  tenants : int;  (** warm tenants, each touched once during set-up *)
  burst : int;  (** [multi_tenant ~burst]: events per tenant run *)
  sat_events : int;
  extra_setups : int;  (** set-ups timed after each round, for setup_s *)
  paced_events : int;
  paced_rate : int;  (** offered load of the paced phase, events/s *)
  new_tenant_every : int;
      (** one event from a never-seen tenant after every [n - 1] others; 0 = none *)
  rollout_every : int;  (** a staged rollout starts every [n] events; 0 = none *)
  schedule_clock : bool;
      (** the serving clock follows the trace schedule, not the wall clock *)
}

(* Wide SoA batches (about 28 tenants per batch) and the cross-domain
   ring, park and wake path; table writes happen only during set-up. *)
let wide =
  { name = "wide";
    mode = Pinned;
    learned = false;
    tenants = 1024;
    burst = 1;
    sat_events = 393_216;
    extra_setups = 1;
    paced_events = 50_000;
    paced_rate = 50_000;
    new_tenant_every = 0;
    rollout_every = 0;
    schedule_clock = false }

(* About 1.3 events per chunk, so per-chunk dispatch dominates and
   neither batch amortization nor cross-domain rings are exercised. *)
let bursty =
  { name = "bursty";
    mode = Inline;
    learned = false;
    tenants = 32;
    burst = 8;
    sat_events = 196_608;
    extra_setups = 8;
    paced_events = 50_000;
    paced_rate = 100_000;
    new_tenant_every = 0;
    rollout_every = 0;
    schedule_clock = false }

(* Writes beside reads: every first touch inserts a table entry (the
   table re-sorts on each insert), and canaries shadow-run every slot. *)
let churn =
  { name = "churn";
    mode = Inline;
    learned = false;
    tenants = 32;
    burst = 8;
    sat_events = 49_152;
    extra_setups = 8;
    paced_events = 8_000;
    paced_rate = 8_000;
    new_tenant_every = 32;
    rollout_every = 1024;
    schedule_clock = true }

(* In-kernel inference and training dominate: CALL_ML predictions and a
   decision-tree retrain every 512 accesses. *)
let learned =
  { name = "learned";
    mode = Inline;
    learned = true;
    tenants = 32;
    burst = 8;
    sat_events = 4_096;
    extra_setups = 8;
    paced_events = 4_096;
    paced_rate = 1_000;
    new_tenant_every = 0;
    rollout_every = 0;
    schedule_clock = true }

let all = [ wide; bursty; churn; learned ]
let find name = List.find_opt (fun s -> s.name = name) all

type inputs = {
  warm_tenants : int array;
  warm_pages : int array;
  tenants : int array;  (** saturating events, then paced events *)
  pages : int array;
  n_sat : int;
}

let total_events spec = spec.sat_events + spec.paced_events

(* Serving-clock time of event [i] when the clock follows the schedule:
   every event, saturating ones too, sits on the paced grid. *)
let schedule_ns spec i = i * (1_000_000_000 / spec.paced_rate)

let generate spec ~seed =
  let n = total_events spec in
  let rng = Kml.Rng.create seed in
  (* Base traffic: enough per-tenant events to cover the base share of [n]. *)
  let n_new = if spec.new_tenant_every > 0 then n / spec.new_tenant_every else 0 in
  let n_base = n - n_new in
  let per_tenant = (n_base + spec.tenants - 1) / spec.tenants in
  let base =
    Array.of_list
      (Ksim.Workload_mem.multi_tenant ~rng ~tenants:spec.tenants ~events_per_tenant:per_tenant
         ~burst:spec.burst ())
  in
  let tenants = Array.make n 0 and pages = Array.make n 0 in
  let b = ref 0 and fresh = ref 0 in
  for i = 0 to n - 1 do
    if spec.new_tenant_every > 0 && i mod spec.new_tenant_every = spec.new_tenant_every - 1
    then begin
      (* A tenant no earlier event used: ids above the warm range. *)
      tenants.(i) <- spec.tenants + !fresh;
      pages.(i) <- Kml.Rng.int rng 4096;
      incr fresh
    end
    else begin
      let a = base.(!b) in
      tenants.(i) <- a.Ksim.Mem_sim.pid;
      pages.(i) <- a.Ksim.Mem_sim.page;
      incr b
    end
  done;
  { warm_tenants = Array.init spec.tenants Fun.id;
    warm_pages = Array.init spec.tenants (fun t -> t * 64);
    tenants;
    pages;
    n_sat = spec.sat_events }
