type pattern =
  | Any
  | Eq of int
  | Mask of { value : int; mask : int }
  | Between of int * int

type action =
  | Run of Vm.t
  | Const of int
  | Host of (Ctxt.t -> int)

type entry_id = int

type entry = {
  id : entry_id; (* issued in insertion order; earlier wins among equal priorities *)
  priority : int;
  patterns : pattern array;
  mutable action : action;
  mutable hits : int;
}

(* Lookup structure: entries whose patterns are all Eq/Any are "exact" and
   indexed by a hash of their Eq-position bitmask plus the Eq values, giving
   O(1) dispatch per distinct wildcard shape.  Entries with Mask/Between
   patterns stay on a sorted scan list.  Both candidate sets are consulted
   and the best entry (priority desc, insertion order asc) wins, so the
   observable match semantics are identical to a full sorted scan.  Insert
   and remove update one bucket (or the scan list) and the shape's live
   count in place; nothing keeps all entries sorted, so the oracle and [pp]
   sort on demand. *)
type t = {
  name : string;
  match_keys : int array;
  default : action;
  entries : (entry_id, entry) Hashtbl.t; (* live entries by id, unordered *)
  mutable scan_entries : entry list; (* non-exact entries, best-first *)
  index : (int, entry list) Hashtbl.t; (* bucket lists sorted best-first *)
  mutable group_masks : int array; (* the keys of [shapes], probed per lookup *)
  shapes : (int, int) Hashtbl.t; (* live index entries per Eq-position bitmask *)
  fields : int array; (* per-lookup scratch; one slot per match key *)
  mutable entry_scratch : entry array; (* per-slot resolved entries for lookup_batch *)
  mutable next_id : int;
  mutable total_hits : int;
  mutable default_hits : int;
}

(* Bitmask bookkeeping needs one bit per match key. *)
let max_indexable_arity = 60

(* Process-wide match totals across every table (DESIGN.md section 11);
   the per-table / per-entry hit accessors below are unchanged. *)
let c_lookups = Obs.Counter.make "rmt.table.lookups"
let c_default_hits = Obs.Counter.make "rmt.table.default_hits"
let c_inserts = Obs.Counter.make "rmt.table.inserts"

let create ~name ~match_keys ~default =
  { name;
    match_keys = Array.copy match_keys;
    default;
    entries = Hashtbl.create 16;
    scan_entries = [];
    index = Hashtbl.create 16;
    group_masks = [||];
    shapes = Hashtbl.create 4;
    fields = Array.make (Array.length match_keys) 0;
    entry_scratch = [||];
    next_id = 0;
    total_hits = 0;
    default_hits = 0 }

let name t = t.name
let match_keys t = Array.copy t.match_keys

let entry_order a b =
  match compare b.priority a.priority with 0 -> compare a.id b.id | c -> c

let pattern_matches p v =
  match p with
  | Any -> true
  | Eq x -> v = x
  | Mask { value; mask } -> v land mask = value land mask
  | Between (lo, hi) -> v >= lo && v <= hi

(* top level (not a local closure) so matching allocates nothing *)
let rec match_from patterns (fields : int array) i n =
  i >= n
  || (pattern_matches (Array.unsafe_get patterns i) (Array.unsafe_get fields i)
      && match_from patterns fields (i + 1) n)

let entry_matches fields e = match_from e.patterns fields 0 (Array.length fields)

(* Sentinel for "no match" on the hot path: avoids option boxing per
   lookup.  Compared physically; loses to every real entry. *)
let no_entry =
  { id = -1; priority = min_int; patterns = [||]; action = Const 0; hits = 0 }

let rec first_match fields = function
  | [] -> no_entry
  | e :: rest -> if entry_matches fields e then e else first_match fields rest

let better a b =
  if a == no_entry then b
  else if b == no_entry then a
  else if entry_order a b <= 0 then a
  else b

(* Eq-position bitmask of an exact entry, or -1 if the entry needs a scan. *)
let exact_mask patterns =
  let n = Array.length patterns in
  if n > max_indexable_arity then -1
  else begin
    let rec go i acc =
      if i >= n then acc
      else
        match patterns.(i) with
        | Eq _ -> go (i + 1) (acc lor (1 lsl i))
        | Any -> go (i + 1) acc
        | Mask _ | Between _ -> -1
    in
    go 0 0
  end

(* Deterministic hash of (mask, values at mask positions).  Collisions are
   fine: bucket candidates are re-verified with [entry_matches].  Written as
   top-level accumulator loops so probing allocates nothing. *)
let rec hash_fields (fields : int array) i m h =
  if m = 0 then h
  else
    let h =
      if m land 1 <> 0 then ((h * 0x01000193) + Array.unsafe_get fields i) land max_int else h
    in
    hash_fields fields (i + 1) (m lsr 1) h

let rec hash_patterns patterns i m h =
  if m = 0 then h
  else
    let h =
      if m land 1 <> 0 then
        ((h * 0x01000193)
         + (match patterns.(i) with Eq v -> v | Any | Mask _ | Between _ -> 0))
        land max_int
      else h
    in
    hash_patterns patterns (i + 1) (m lsr 1) h

let index_key_fields mask fields = hash_fields fields 0 mask ((mask * 0x9E3779B1) land max_int)

let index_key_patterns mask patterns =
  hash_patterns patterns 0 mask ((mask * 0x9E3779B1) land max_int)

(* [e] spliced into a best-first list at its (priority, id) position. *)
let rec insert_ordered e = function
  | x :: rest when entry_order x e < 0 -> x :: insert_ordered e rest
  | l -> e :: l

(* Live entries per wildcard shape: a shape joins [group_masks] with its
   first entry and leaves with its last, so lookups probe no dead shape. *)
let count_shape t mask delta =
  let n = delta + Option.value ~default:0 (Hashtbl.find_opt t.shapes mask) in
  if n = 0 then Hashtbl.remove t.shapes mask else Hashtbl.replace t.shapes mask n;
  if n = 0 || (n = 1 && delta = 1) then
    t.group_masks <- Array.of_seq (Hashtbl.to_seq_keys t.shapes)

let bucket t key = match Hashtbl.find t.index key with b -> b | exception Not_found -> []

let insert t ?(priority = 0) ~patterns action =
  if Array.length patterns <> Array.length t.match_keys then
    invalid_arg "Table.insert: pattern arity must match the table's match keys";
  let e = { id = t.next_id; priority; patterns = Array.copy patterns; action; hits = 0 } in
  t.next_id <- t.next_id + 1;
  Hashtbl.add t.entries e.id e;
  let mask = exact_mask e.patterns in
  if mask < 0 then t.scan_entries <- insert_ordered e t.scan_entries
  else begin
    count_shape t mask 1;
    let key = index_key_patterns mask e.patterns in
    Hashtbl.replace t.index key (insert_ordered e (bucket t key))
  end;
  Obs.Counter.incr c_inserts;
  e.id

let remove t id =
  match Hashtbl.find t.entries id with
  | exception Not_found -> false
  | e ->
    Hashtbl.remove t.entries id;
    let mask = exact_mask e.patterns in
    if mask < 0 then t.scan_entries <- List.filter (( != ) e) t.scan_entries
    else begin
      count_shape t mask (-1);
      let key = index_key_patterns mask e.patterns in
      match List.filter (( != ) e) (bucket t key) with
      | [] -> Hashtbl.remove t.index key
      | b -> Hashtbl.replace t.index key b
    end;
    true

let set_action t id action =
  match Hashtbl.find t.entries id with
  | e ->
    e.action <- action;
    true
  | exception Not_found -> false

let entry_count t = Hashtbl.length t.entries

(* All live entries, best-first; for the oracle and [pp], off the hot path. *)
let sorted_entries t =
  List.sort entry_order (Hashtbl.fold (fun _ e acc -> e :: acc) t.entries [])

let read_fields t ~ctxt =
  let fields = t.fields in
  for i = 0 to Array.length t.match_keys - 1 do
    fields.(i) <- Ctxt.get ctxt t.match_keys.(i)
  done;
  fields

(* Probe one index bucket per wildcard shape, carrying the best candidate
   so far; top level (not a closure) so the hot path allocates nothing. *)
let rec best_indexed t fields i best =
  if i >= Array.length t.group_masks then best
  else begin
    let mask = Array.unsafe_get t.group_masks i in
    let candidate =
      match Hashtbl.find t.index (index_key_fields mask fields) with
      | bucket -> first_match fields bucket
      | exception Not_found -> no_entry
    in
    best_indexed t fields (i + 1) (better best candidate)
  end

(* Best matching entry ([no_entry] if none): index buckets, then the
   Mask/Between scan list, best overall by [entry_order]. *)
let find_entry t fields =
  better (best_indexed t fields 0 no_entry) (first_match fields t.scan_entries)

let run_action action ~ctxt ~now =
  match action with
  | Run vm -> Vm.invoke_result vm ~ctxt ~now
  | Const v -> v
  | Host f -> f ctxt

let lookup t ~ctxt ~now =
  t.total_hits <- t.total_hits + 1;
  Obs.Counter.incr c_lookups;
  (* Fault seam: a forced miss sends the lookup to the default action
     (table-miss storm, DESIGN.md section 12). *)
  let e =
    if Fault.active () && Fault.fire Fault.Table_miss then no_entry
    else find_entry t (read_fields t ~ctxt)
  in
  if e == no_entry then begin
    t.default_hits <- t.default_hits + 1;
    Obs.Counter.incr c_default_hits;
    run_action t.default ~ctxt ~now
  end
  else begin
    e.hits <- e.hits + 1;
    run_action e.action ~ctxt ~now
  end

(* ------------------------------------------------------------------ *)
(* Batched lookup (DESIGN.md section 13)                               *)
(* ------------------------------------------------------------------ *)

let entry_scratch t n =
  if Array.length t.entry_scratch < n then
    t.entry_scratch <-
      Array.make (Stdlib.max 8 (Stdlib.max n (2 * Array.length t.entry_scratch))) no_entry;
  t.entry_scratch

(* Top level (not closures) so the uniform-action probe allocates nothing. *)
let slot_action t (entries : entry array) s =
  let e = entries.(s) in
  if e == no_entry then t.default else e.action

let rec uniform_run_from t entries vm s n =
  s >= n
  ||
  match slot_action t entries s with
  | Run vm' -> vm' == vm && uniform_run_from t entries vm (s + 1) n
  | Const _ | Host _ -> false

(* Batched lookup: match resolution stays per slot (field reads + index
   probes are cheap), and when every slot resolves to the same [Run]
   action — the common case for learned tables, where one installed
   program serves a wildcard entry or the default — the whole batch is
   dispatched through one {!Vm.invoke_batch}, so the program's model
   inference and instruction dispatch amortize across the events.  Mixed
   batches fall back to per-slot action dispatch with traps contained
   into the slot columns; [Host] actions are foreign code and their
   exceptions propagate, as in scalar [lookup].  Hit accounting (table,
   entry, default) is identical to [n] scalar lookups. *)
let lookup_batch t (b : Batch.t) ~now =
  let n = b.Batch.n in
  if n > 0 then begin
    t.total_hits <- t.total_hits + n;
    Obs.Counter.add c_lookups n;
    let entries = entry_scratch t n in
    let faults = Fault.active () in
    for s = 0 to n - 1 do
      let e =
        if faults && Fault.fire Fault.Table_miss then no_entry
        else find_entry t (read_fields t ~ctxt:b.Batch.ctxts.(s))
      in
      entries.(s) <- e;
      if e == no_entry then begin
        t.default_hits <- t.default_hits + 1;
        Obs.Counter.incr c_default_hits
      end
      else e.hits <- e.hits + 1
    done;
    let uniform =
      match slot_action t entries 0 with
      | Run vm -> uniform_run_from t entries vm 1 n
      | Const _ | Host _ -> false
    in
    if uniform then begin
      match slot_action t entries 0 with
      | Run vm -> Vm.invoke_batch vm b ~now
      | Const _ | Host _ -> assert false
    end
    else
      for s = 0 to n - 1 do
        let ctxt = b.Batch.ctxts.(s) in
        match slot_action t entries s with
        | Const v ->
          b.Batch.results.(s) <- v;
          b.Batch.steps.(s) <- 0;
          b.Batch.denied.(s) <- 0;
          b.Batch.traps.(s) <- None
        | Host f ->
          b.Batch.results.(s) <- f ctxt;
          b.Batch.steps.(s) <- 0;
          b.Batch.denied.(s) <- 0;
          b.Batch.traps.(s) <- None
        | Run vm ->
          (match Vm.invoke vm ~ctxt ~now with
           | o ->
             b.Batch.results.(s) <- o.Interp.result;
             b.Batch.steps.(s) <- o.Interp.steps;
             b.Batch.denied.(s) <- o.Interp.privacy_denied;
             b.Batch.traps.(s) <- None
           | exception Interp.Trap trap ->
             b.Batch.results.(s) <- 0;
             b.Batch.steps.(s) <- 0;
             b.Batch.denied.(s) <- 0;
             b.Batch.traps.(s) <- Some trap)
      done
  end

let lookup_entry t ~ctxt =
  let e = find_entry t (read_fields t ~ctxt) in
  if e == no_entry then None else Some e.id

(* Reference lookup: full scan of the entries, sorted on demand.  Kept as
   the differential-test oracle for the indexed path. *)
let lookup_entry_linear t ~ctxt =
  let e = first_match (read_fields t ~ctxt) (sorted_entries t) in
  if e == no_entry then None else Some e.id
let hits t = t.total_hits
let default_hits t = t.default_hits

let entry_hits t id =
  match Hashtbl.find t.entries id with e -> e.hits | exception Not_found -> 0

let clear t =
  Hashtbl.reset t.entries;
  Hashtbl.reset t.index;
  t.scan_entries <- [];
  Hashtbl.reset t.shapes;
  t.group_masks <- [||];
  t.total_hits <- 0;
  t.default_hits <- 0

let pp_pattern fmt = function
  | Any -> Format.fprintf fmt "*"
  | Eq v -> Format.fprintf fmt "=%d" v
  | Mask { value; mask } -> Format.fprintf fmt "&%x=%x" mask value
  | Between (lo, hi) -> Format.fprintf fmt "[%d..%d]" lo hi

let pp fmt t =
  Format.fprintf fmt "table %s (keys=[%s], %d entries, %d hits, %d default)@." t.name
    (String.concat ";" (Array.to_list (Array.map string_of_int t.match_keys)))
    (entry_count t) t.total_hits t.default_hits;
  List.iter
    (fun e ->
      Format.fprintf fmt "  #%d prio=%d hits=%d [%s]@." e.id e.priority e.hits
        (String.concat "; "
           (Array.to_list (Array.map (Format.asprintf "%a" pp_pattern) e.patterns))))
    (sorted_entries t)
