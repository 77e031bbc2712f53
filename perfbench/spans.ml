(* Preallocated span stores.

   A store belongs to one domain: the main domain keeps one for set-up,
   submits, drains and rollout calls; each shard keeps one for its sink
   calls, written by whichever domain consumes the shard.  Recording is
   a few array writes — no allocation — so a traced round perturbs the
   serving path as little as a span can.  A span past the capacity is
   counted in [len] but not stored. *)

type kind = Setup | Submit | Drain | Sink | Rollout_start | Rollout_step

let kind_code = function
  | Setup -> 0
  | Submit -> 1
  | Drain -> 2
  | Sink -> 3
  | Rollout_start -> 4
  | Rollout_step -> 5

let kind_names = [| "setup"; "submit"; "drain"; "sink"; "rollout_start"; "rollout_step" |]

type t = {
  kind : int array;
  t0 : int array;
  t1 : int array;
  parent : int array;  (** index in the main store, -1 at top level *)
  arg : int array;  (** events (drain, sink), outcome code (submit, rollout) *)
  aux : int array;  (** table entries added (sink), retrains (drain) *)
  mutable len : int;
}

let create cap =
  { kind = Array.make cap 0;
    t0 = Array.make cap 0;
    t1 = Array.make cap 0;
    parent = Array.make cap (-1);
    arg = Array.make cap 0;
    aux = Array.make cap 0;
    len = 0 }

let capacity t = Array.length t.kind
let stored t = min t.len (capacity t)
let reset t = t.len <- 0
let duration t i = t.t1.(i) - t.t0.(i)

(* Reserve a span whose end is filled in by [close]; returns its index
   (or -1 past capacity) so children can name it as their parent. *)
let open_ t kind ~t0 ~parent =
  let i = t.len in
  t.len <- i + 1;
  if i < capacity t then begin
    t.kind.(i) <- kind_code kind;
    t.t0.(i) <- t0;
    t.t1.(i) <- t0;
    t.parent.(i) <- parent;
    t.arg.(i) <- 0;
    t.aux.(i) <- 0;
    i
  end
  else -1

let close t i ~t1 ~arg ~aux =
  if i >= 0 then begin
    t.t1.(i) <- t1;
    t.arg.(i) <- arg;
    t.aux.(i) <- aux
  end

let add t kind ~t0 ~t1 ~parent ~arg ~aux =
  let i = open_ t kind ~t0 ~parent in
  close t i ~t1 ~arg ~aux

(* Self time of each main-store span: its duration minus the time its
   direct children cover, children in the main store and in every sink
   store alike. *)
let self_times main sinks =
  let n = stored main in
  let covered = Array.make n 0 in
  let charge store =
    for i = 0 to stored store - 1 do
      let p = store.parent.(i) in
      if p >= 0 && p < n then covered.(p) <- covered.(p) + duration store i
    done
  in
  charge main;
  Array.iter charge sinks;
  Array.init n (fun i -> duration main i - covered.(i))

(* A per-kind summary (count, total and self time), then one line per
   span — the first [limit] of each store: store, index, kind, start and
   end (ns, relative to [origin]), parent, arg, aux and self time. *)
let write oc ~origin ~main ~sinks ~limit =
  let self = self_times main sinks in
  let n_kinds = Array.length kind_names in
  let count = Array.make n_kinds 0 and total = Array.make n_kinds 0 in
  let self_total = Array.make n_kinds 0 in
  let tally store self =
    for i = 0 to stored store - 1 do
      let k = store.kind.(i) in
      count.(k) <- count.(k) + 1;
      total.(k) <- total.(k) + duration store i;
      self_total.(k) <- self_total.(k) + self i
    done
  in
  tally main (fun i -> self.(i));
  Array.iter (fun store -> tally store (duration store)) sinks;
  output_string oc "kind\tspans\ttotal_ns\tself_ns\n";
  Array.iteri
    (fun k name ->
      if count.(k) > 0 then
        Printf.fprintf oc "%s\t%d\t%d\t%d\n" name count.(k) total.(k) self_total.(k))
    kind_names;
  output_string oc "\n";
  let dump label store self =
    for i = 0 to min limit (stored store) - 1 do
      Printf.fprintf oc "%s\t%d\t%s\t%d\t%d\t%d\t%d\t%d\t%d\n" label i
        kind_names.(store.kind.(i))
        (store.t0.(i) - origin) (store.t1.(i) - origin) store.parent.(i) store.arg.(i)
        store.aux.(i) (self i)
    done
  in
  output_string oc "store\tid\tkind\tt0_ns\tt1_ns\tparent\targ\taux\tself_ns\n";
  dump "main" main (fun i -> self.(i));
  Array.iteri (fun s store -> dump (Printf.sprintf "shard%d" s) store (duration store)) sinks
