(* Zero-overhead telemetry: striped counters, log2 histograms, a
   flight-recorder ring, and a registry with snapshot/diff/exporters.

   Write-side design rules (enforced by test/test_obs.ml):
   - no allocation in [Counter.incr], [Gauge.add], [Histo.observe] or
     [Trace.emit] in steady state;
   - one flag load + branch when telemetry is disabled;
   - per-domain striping so concurrent writers land on different cache
     lines (the cells are atomic, so totals stay exact even if two
     domains ever share a stripe). *)

let enabled_flag =
  ref
    (match Sys.getenv_opt "RKD_OBS" with
     | Some ("0" | "false" | "off") -> false
     | Some _ | None -> true)

let enabled () = !enabled_flag
let set_enabled b = enabled_flag := b

(* ---------------- striped cells ---------------- *)

(* Domain ids are small consecutive ints (the pool clamps live domains to
   64); masking into 128 stripes keeps concurrently live domains on
   distinct stripes in practice.  Stripes are atomic, so a collision after
   many pool resizes costs contention, never lost counts. *)
let stripes = 128
let stripe_mask = stripes - 1
let stripe_capacity = stripes

(* Guard for ids beyond the stripe capacity: long-lived pinned serving
   domains spawned after many pool resizes can carry ids >= 128, which
   would alias stripes silently.  Aliasing is still benign (atomic cells,
   exact sums), so the guard records the largest out-of-range id seen —
   surfaced through the [obs.stripe.overflow_max_id] view — instead of
   failing.  Steady-state cost for an overflowing domain is one atomic
   load and compare; the CAS loop runs only while the max advances. *)
let stripe_overflow_max = Atomic.make (-1)

let rec note_stripe_overflow id =
  let cur = Atomic.get stripe_overflow_max in
  if id > cur && not (Atomic.compare_and_set stripe_overflow_max cur id) then
    note_stripe_overflow id

let stripe_of_id id =
  if id < stripes then id land stripe_mask
  else begin
    note_stripe_overflow id;
    id land stripe_mask
  end

let stripe_overflow_max_id () = Atomic.get stripe_overflow_max
let stripe () = stripe_of_id (Domain.self () :> int)

(* Consecutive [Atomic.make]s would land on the same minor-heap cache
   line; the spacer allocation pads successive cells apart.  The GC may
   later compact them, but cells are long-lived and reach the major heap
   in allocation order, preserving the spacing. *)
let make_cells n =
  Array.init n (fun _ ->
      let c = Atomic.make 0 in
      ignore (Sys.opaque_identity (Array.make 6 0));
      c)

let cells_sum cells = Array.fold_left (fun acc c -> acc + Atomic.get c) 0 cells
let cells_reset cells = Array.iter (fun c -> Atomic.set c 0) cells

(* ---------------- interning ---------------- *)

let intern_lock = Mutex.create ()
let intern_tbl : (string, int) Hashtbl.t = Hashtbl.create 16
let intern_rev : string array ref = ref [||]

let intern name =
  Mutex.lock intern_lock;
  let id =
    match Hashtbl.find_opt intern_tbl name with
    | Some id -> id
    | None ->
      let id = Hashtbl.length intern_tbl in
      Hashtbl.replace intern_tbl name id;
      let rev = Array.make (id + 1) "" in
      Array.blit !intern_rev 0 rev 0 id;
      rev.(id) <- name;
      intern_rev := rev;
      id
  in
  Mutex.unlock intern_lock;
  id

let intern_name id =
  let rev = !intern_rev in
  if id >= 0 && id < Array.length rev then rev.(id) else "?" ^ string_of_int id

(* ---------------- metric storage ---------------- *)

type counter = { c_name : string; c_cells : int Atomic.t array }
type gauge = { g_name : string; g_cells : int Atomic.t array }

let histo_buckets = 64

type histo = {
  h_name : string;
  h_counts : int Atomic.t array; (* one per bucket *)
  h_sums : int Atomic.t array; (* striped; prometheus _sum and means *)
}

(* The registry doubles as the interning point for metric creation:
   [make] under the lock returns the existing metric of that name, so
   module-level [let c = Counter.make "..."] in two libraries linking the
   same seam share one counter. *)
let registry_lock = Mutex.create ()
let counters : (string, counter) Hashtbl.t = Hashtbl.create 32
let gauges : (string, gauge) Hashtbl.t = Hashtbl.create 16
let histos : (string, histo) Hashtbl.t = Hashtbl.create 16
let views : (string, unit -> int) Hashtbl.t = Hashtbl.create 16

let with_lock l f =
  Mutex.lock l;
  Fun.protect ~finally:(fun () -> Mutex.unlock l) f

module Counter = struct
  type t = counter

  let make name =
    with_lock registry_lock (fun () ->
        match Hashtbl.find_opt counters name with
        | Some c -> c
        | None ->
          let c = { c_name = name; c_cells = make_cells stripes } in
          Hashtbl.replace counters name c;
          c)

  let incr t =
    if !enabled_flag then
      ignore (Atomic.fetch_and_add (Array.unsafe_get t.c_cells (stripe ())) 1)

  let add t n =
    if !enabled_flag then
      ignore (Atomic.fetch_and_add (Array.unsafe_get t.c_cells (stripe ())) n)

  let value t = cells_sum t.c_cells
  let name t = t.c_name
end

module Gauge = struct
  type t = gauge

  let make name =
    with_lock registry_lock (fun () ->
        match Hashtbl.find_opt gauges name with
        | Some g -> g
        | None ->
          let g = { g_name = name; g_cells = make_cells stripes } in
          Hashtbl.replace gauges name g;
          g)

  let add t n =
    if !enabled_flag then
      ignore (Atomic.fetch_and_add (Array.unsafe_get t.g_cells (stripe ())) n)

  let sub t n = add t (-n)

  let set t n =
    if !enabled_flag then begin
      cells_reset t.g_cells;
      Atomic.set (Array.unsafe_get t.g_cells (stripe ())) n
    end

  let value t = cells_sum t.g_cells
  let name t = t.g_name
end

module Histo = struct
  type t = histo

  let n_buckets = histo_buckets

  let make name =
    with_lock registry_lock (fun () ->
        match Hashtbl.find_opt histos name with
        | Some h -> h
        | None ->
          let h =
            { h_name = name;
              h_counts = make_cells histo_buckets;
              h_sums = make_cells stripes }
          in
          Hashtbl.replace histos name h;
          h)

  (* floor(log2 v) by shift-accumulate; written without refs so nothing
     boxes.  Values <= 1 (including negatives) share bucket 0; OCaml ints
     top out below 2^63 so the result always fits the 64 buckets. *)
  let bucket_of_value v =
    if v <= 1 then 0
    else begin
      let rec go v acc =
        if v >= 0x1_0000_0000 then go (v lsr 32) (acc + 32)
        else if v >= 0x1_0000 then go (v lsr 16) (acc + 16)
        else if v >= 0x100 then go (v lsr 8) (acc + 8)
        else if v >= 0x10 then go (v lsr 4) (acc + 4)
        else if v >= 4 then go (v lsr 2) (acc + 2)
        else if v >= 2 then acc + 1
        else acc
      in
      go v 0
    end

  (* 63-bit ints: 1 lsl 62 wraps, so buckets 62+ are unreachable and their
     bounds clamp to max_int instead of shifting into the sign bit. *)
  let bucket_lo k = if k <= 0 then 0 else if k >= 62 then max_int else 1 lsl k
  let bucket_hi k = if k >= 61 then max_int else (1 lsl (k + 1)) - 1

  let observe t v =
    if !enabled_flag then begin
      ignore
        (Atomic.fetch_and_add (Array.unsafe_get t.h_counts (bucket_of_value v)) 1);
      ignore (Atomic.fetch_and_add (Array.unsafe_get t.h_sums (stripe ())) v)
    end

  let count t = cells_sum t.h_counts
  let sum t = cells_sum t.h_sums
  let buckets t = Array.map Atomic.get t.h_counts

  let percentile t p =
    let total = count t in
    if total = 0 then 0
    else begin
      let p = if p < 0.0 then 0.0 else if p > 1.0 then 1.0 else p in
      let rank = Stdlib.max 1 (int_of_float (ceil (p *. float_of_int total))) in
      let rec walk k seen =
        if k >= n_buckets then bucket_hi (n_buckets - 1)
        else begin
          let seen = seen + Atomic.get t.h_counts.(k) in
          if seen >= rank then bucket_hi k else walk (k + 1) seen
        end
      in
      walk 0 0
    end

  let name t = t.h_name
end

module Trace = struct
  type event = {
    seq : int;
    hook : int;
    uid : int;
    engine : int;
    steps : int;
    result : int;
    flags : int;
  }

  let flag_throttled = 1
  let flag_guardrail = 2
  let flag_privacy_denied = 4

  (* Event slots are 8 ints wide (one cache line) in one flat array:
     claiming a slot is a single fetch-and-add on [head], writing it is
     seven plain stores (word 5 is unused).  The slot count is a power of two so the mask
     can be derived from the array length, keeping the data pointer and
     the mask consistent even across [configure]. *)
  let slot_words = 8
  let min_capacity = 8
  let max_capacity = 1 lsl 20

  type ring = {
    data : int array;
    head : int Atomic.t;
    drops : int Atomic.t;
    mutable frozen : bool;
  }

  let make_ring capacity =
    { data = Array.make (capacity * slot_words) 0;
      head = Atomic.make 0;
      drops = Atomic.make 0;
      frozen = false }

  let default_capacity = 1024

  let rec pow2_at_least n acc = if acc >= n then acc else pow2_at_least n (acc * 2)

  let ring = ref (make_ring default_capacity)

  let configure ~capacity =
    let capacity =
      pow2_at_least (Stdlib.max min_capacity (Stdlib.min capacity max_capacity)) min_capacity
    in
    ring := make_ring capacity

  let capacity () = Array.length !ring.data / slot_words

  let emit ~hook ~uid ~engine ~steps ~result ~flags =
    if !enabled_flag then begin
      let r = !ring in
      if r.frozen then ignore (Atomic.fetch_and_add r.drops 1)
      else begin
        let seq = Atomic.fetch_and_add r.head 1 in
        let d = r.data in
        let mask = (Array.length d lsr 3) - 1 in
        let base = (seq land mask) * slot_words in
        (* Write the seq word last: [last] uses it to detect slots torn
           by a concurrent wrap and skips them. *)
        Array.unsafe_set d (base + 1) hook;
        Array.unsafe_set d (base + 2) uid;
        Array.unsafe_set d (base + 3) engine;
        Array.unsafe_set d (base + 4) steps;
        Array.unsafe_set d (base + 6) result;
        Array.unsafe_set d (base + 7) flags;
        Array.unsafe_set d base seq
      end
    end

  let emitted () = Atomic.get !ring.head
  let dropped () = Atomic.get !ring.drops

  let freeze () = !ring.frozen <- true
  let unfreeze () = !ring.frozen <- false

  let last n =
    let r = !ring in
    let d = r.data in
    let cap = Array.length d / slot_words in
    let head = Atomic.get r.head in
    let n = Stdlib.min n (Stdlib.min cap head) in
    let rec collect seq acc =
      if seq < 0 || seq <= head - 1 - n then acc
      else begin
        let base = (seq land (cap - 1)) * slot_words in
        let acc =
          if d.(base) <> seq then acc (* torn or not yet written: skip *)
          else
            { seq;
              hook = d.(base + 1);
              uid = d.(base + 2);
              engine = d.(base + 3);
              steps = d.(base + 4);
              result = d.(base + 6);
              flags = d.(base + 7) }
            :: acc
        in
        collect (seq - 1) acc
      end
    in
    collect (head - 1) []

  (* Ambient hook attribution: the pipeline brackets table dispatch with
     [set_current_hook], VM-level emits read it.  Domain-local, so
     parallel experiment fan-out cannot cross-attribute. *)
  let hook_dls : int ref Domain.DLS.key = Domain.DLS.new_key (fun () -> ref (-1))
  let set_current_hook id = Domain.DLS.get hook_dls := id
  let current_hook () = !(Domain.DLS.get hook_dls)

  let reset () =
    let r = !ring in
    Atomic.set r.head 0;
    Atomic.set r.drops 0;
    r.frozen <- false;
    Array.fill r.data 0 (Array.length r.data) 0
end

(* ---------------- snapshots ---------------- *)

module Snapshot = struct
  type kind = Counter | Gauge | View

  type t = {
    scalars : (string * kind * int) array;
    histos : (string * int array) array;
    trace_emitted : int;
    trace_dropped : int;
    trace_capacity : int;
  }

  let kind_to_string = function
    | Counter -> "counter"
    | Gauge -> "gauge"
    | View -> "view"

  let kind_of_string = function
    | "counter" -> Some Counter
    | "gauge" -> Some Gauge
    | "view" -> Some View
    | _ -> None

  let scalar t name =
    Array.fold_left
      (fun acc (n, _, v) -> if n = name then Some v else acc)
      None t.scalars

  let histo t name =
    Array.fold_left
      (fun acc (n, b) -> if n = name then Some (Array.copy b) else acc)
      None t.histos

  let by_name (a, _, _) (b, _, _) = compare a b
  let by_name_h (a, _) (b, _) = compare a b

  let starts_with ~prefix s =
    String.length s >= String.length prefix
    && String.sub s 0 (String.length prefix) = prefix

  let filter t ~prefixes =
    let keep name = List.exists (fun prefix -> starts_with ~prefix name) prefixes in
    { t with
      scalars = Array.of_seq (Seq.filter (fun (n, _, _) -> keep n) (Array.to_seq t.scalars));
      histos = Array.of_seq (Seq.filter (fun (n, _) -> keep n) (Array.to_seq t.histos)) }

  let diff ~before ~after =
    let scalars =
      Array.map
        (fun (name, kind, v) ->
          match scalar before name with
          | Some v0 -> (name, kind, v - v0)
          | None -> (name, kind, v))
        after.scalars
    in
    let histos =
      Array.map
        (fun (name, b) ->
          match histo before name with
          | Some b0 -> (name, Array.mapi (fun i v -> v - b0.(i)) b)
          | None -> (name, Array.copy b))
        after.histos
    in
    { scalars;
      histos;
      trace_emitted = after.trace_emitted - before.trace_emitted;
      trace_dropped = after.trace_dropped - before.trace_dropped;
      trace_capacity = after.trace_capacity }

  let histo_count b = Array.fold_left ( + ) 0 b

  let to_text t =
    let buf = Buffer.create 1024 in
    Array.iter
      (fun (name, kind, v) ->
        Buffer.add_string buf
          (Printf.sprintf "%-44s %12d  (%s)\n" name v (kind_to_string kind)))
      t.scalars;
    Array.iter
      (fun (name, b) ->
        let count = histo_count b in
        Buffer.add_string buf
          (Printf.sprintf "%-44s %12d  (histogram)\n" (name ^ ".count") count);
        if count > 0 then
          Array.iteri
            (fun k n ->
              if n > 0 then
                Buffer.add_string buf
                  (Printf.sprintf "  %-42s %12d  [%d..%s]\n" name n
                     (Histo.bucket_lo k)
                     (if k = histo_buckets - 1 then "inf"
                      else string_of_int (Histo.bucket_hi k))))
            b)
      t.histos;
    Buffer.add_string buf
      (Printf.sprintf "%-44s %12d  (trace; %d dropped, capacity %d)\n" "trace.emitted"
         t.trace_emitted t.trace_dropped t.trace_capacity);
    Buffer.contents buf

  (* Prometheus text exposition; metric names sanitized [a-zA-Z0-9_:]. *)
  let prom_name name =
    String.map
      (fun c ->
        match c with
        | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | ':' -> c
        | _ -> '_')
      name

  let to_prometheus t =
    let buf = Buffer.create 2048 in
    Array.iter
      (fun (name, kind, v) ->
        let n = prom_name name in
        let ptype = match kind with Gauge -> "gauge" | Counter | View -> "counter" in
        Buffer.add_string buf (Printf.sprintf "# TYPE %s %s\n%s %d\n" n ptype n v))
      t.scalars;
    Array.iter
      (fun (name, b) ->
        let n = prom_name name in
        Buffer.add_string buf (Printf.sprintf "# TYPE %s histogram\n" n);
        let cumulative = ref 0 in
        Array.iteri
          (fun k c ->
            cumulative := !cumulative + c;
            if c > 0 || k = histo_buckets - 1 then
              Buffer.add_string buf
                (Printf.sprintf "%s_bucket{le=\"%s\"} %d\n" n
                   (if k = histo_buckets - 1 then "+Inf"
                    else string_of_int (Histo.bucket_hi k))
                   !cumulative))
          b;
        Buffer.add_string buf (Printf.sprintf "%s_count %d\n" n (histo_count b)))
      t.histos;
    Buffer.add_string buf
      (Printf.sprintf
         "# TYPE rkd_trace_emitted counter\nrkd_trace_emitted %d\n\
          # TYPE rkd_trace_dropped counter\nrkd_trace_dropped %d\n"
         t.trace_emitted t.trace_dropped);
    Buffer.contents buf

  (* One record per line so [of_json] can stay Scanf-only, like the bench
     harness's baseline reader. *)
  let to_json t =
    let buf = Buffer.create 2048 in
    Buffer.add_string buf "{\n  \"schema\": \"rkd-obs-snapshot/1\",\n  \"scalars\": [\n";
    let n = Array.length t.scalars in
    Array.iteri
      (fun i (name, kind, v) ->
        Buffer.add_string buf
          (Printf.sprintf "    { \"name\": %S, \"kind\": %S, \"value\": %d }%s\n" name
             (kind_to_string kind) v
             (if i = n - 1 then "" else ",")))
      t.scalars;
    Buffer.add_string buf "  ],\n  \"histos\": [\n";
    let nh = Array.length t.histos in
    Array.iteri
      (fun i (name, b) ->
        Buffer.add_string buf
          (Printf.sprintf "    { \"name\": %S, \"buckets\": \"%s\" }%s\n" name
             (String.concat " " (Array.to_list (Array.map string_of_int b)))
             (if i = nh - 1 then "" else ",")))
      t.histos;
    Buffer.add_string buf
      (Printf.sprintf
         "  ],\n  \"trace\": { \"emitted\": %d, \"dropped\": %d, \"capacity\": %d }\n}\n"
         t.trace_emitted t.trace_dropped t.trace_capacity);
    Buffer.contents buf

  let of_json s =
    let scalars = ref [] in
    let histos = ref [] in
    let trace = ref (0, 0, 0) in
    let ok = ref true in
    let err = ref "" in
    String.split_on_char '\n' s
    |> List.iter (fun line ->
           (match
              Scanf.sscanf line " { \"name\": %S, \"kind\": %S, \"value\": %d"
                (fun name kind v -> (name, kind, v))
            with
           | name, kind, v ->
             (match kind_of_string kind with
              | Some k -> scalars := (name, k, v) :: !scalars
              | None ->
                ok := false;
                err := "unknown kind " ^ kind)
           | exception _ -> (
             match
               Scanf.sscanf line " { \"name\": %S, \"buckets\": %S" (fun name b -> (name, b))
             with
             | name, bstr ->
               let parts =
                 String.split_on_char ' ' bstr |> List.filter (fun p -> p <> "")
               in
               (match List.map int_of_string parts with
                | buckets when List.length buckets = histo_buckets ->
                  histos := (name, Array.of_list buckets) :: !histos
                | _ ->
                  ok := false;
                  err := "histogram " ^ name ^ ": bucket count mismatch"
                | exception _ ->
                  ok := false;
                  err := "histogram " ^ name ^ ": bad bucket list")
             | exception _ -> (
               match
                 Scanf.sscanf line
                   " \"trace\": { \"emitted\": %d, \"dropped\": %d, \"capacity\": %d"
                   (fun e d c -> (e, d, c))
               with
               | t -> trace := t
               | exception _ -> ()))));
    if not !ok then Error !err
    else begin
      let e, d, c = !trace in
      let scalars = Array.of_list (List.rev !scalars) in
      let histos = Array.of_list (List.rev !histos) in
      Array.sort by_name scalars;
      Array.sort by_name_h histos;
      Ok
        { scalars;
          histos;
          trace_emitted = e;
          trace_dropped = d;
          trace_capacity = c }
    end
end

module Registry = struct
  let register_view name f =
    with_lock registry_lock (fun () -> Hashtbl.replace views name f)

  let unregister_view name = with_lock registry_lock (fun () -> Hashtbl.remove views name)

  let snapshot () =
    with_lock registry_lock (fun () ->
        let scalars = ref [] in
        Hashtbl.iter
          (fun name c -> scalars := (name, Snapshot.Counter, cells_sum c.c_cells) :: !scalars)
          counters;
        Hashtbl.iter
          (fun name g -> scalars := (name, Snapshot.Gauge, cells_sum g.g_cells) :: !scalars)
          gauges;
        Hashtbl.iter
          (fun name f ->
            let v = try f () with _ -> 0 in
            scalars := (name, Snapshot.View, v) :: !scalars)
          views;
        let hs = ref [] in
        Hashtbl.iter
          (fun name h -> hs := (name, Array.map Atomic.get h.h_counts) :: !hs)
          histos;
        let scalars = Array.of_list !scalars in
        let hs = Array.of_list !hs in
        Array.sort Snapshot.by_name scalars;
        Array.sort Snapshot.by_name_h hs;
        { Snapshot.scalars;
          histos = hs;
          trace_emitted = Trace.emitted ();
          trace_dropped = Trace.dropped ();
          trace_capacity = Trace.capacity () })

  let reset_metrics () =
    with_lock registry_lock (fun () ->
        Hashtbl.iter (fun _ c -> cells_reset c.c_cells) counters;
        Hashtbl.iter (fun _ g -> cells_reset g.g_cells) gauges;
        Hashtbl.iter
          (fun _ h ->
            cells_reset h.h_counts;
            cells_reset h.h_sums)
          histos;
        Trace.reset ())
end

(* The stripe-capacity guard is observable like any other health signal:
   -1 until some domain id ever exceeded the stripe capacity. *)
let () = Registry.register_view "obs.stripe.overflow_max_id" stripe_overflow_max_id
