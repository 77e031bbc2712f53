(** Match/action tables (§3.1).

    A table is installed at a kernel decision point.  It declares which
    execution-context fields it matches on (e.g. key 0 = pid); each entry
    carries one pattern per field, a priority, and an action.  Lookup reads
    the declared fields from the {!Ctxt}, selects the highest-priority
    matching entry (insertion order breaks ties), and runs its action.
    Entries can be inserted and removed at runtime through the control
    plane — "statically encoded in the RMT program or dynamically inserted
    or removed via an API at runtime".

    Lookup is indexed: entries whose patterns are all [Eq]/[Any] are hashed
    on their matched-field tuple (one hash probe per distinct wildcard
    shape), so exact-match tables dispatch in O(1) regardless of entry
    count; [Mask]/[Between] entries fall back to a priority-ordered scan.
    Field reads go through a preallocated scratch buffer, so a lookup
    allocates nothing and performs exactly one {!Ctxt.get} per match key.
    Mutation is incremental: {!entry_count}, {!set_action} and
    {!entry_hits} are O(1); {!insert} and {!remove} touch one index bucket
    (O(1) amortized for distinct exact keys) or, for a [Mask]/[Between]
    entry, the scan list — never the whole table. *)

type pattern =
  | Any
  | Eq of int
  | Mask of { value : int; mask : int }  (** matches when [field land mask = value land mask] *)
  | Between of int * int                 (** inclusive range *)

type action =
  | Run of Vm.t           (** execute a loaded RMT program; result = r0 *)
  | Const of int          (** constant action result *)
  | Host of (Ctxt.t -> int)  (** host-native action (tests, baselines) *)

type entry_id
type t

val create : name:string -> match_keys:int array -> default:action -> t
(** [match_keys] are the ctxt keys this table matches on. *)

val name : t -> string
val match_keys : t -> int array
val insert : t -> ?priority:int -> patterns:pattern array -> action -> entry_id
(** Default priority 0; higher wins.  Raises [Invalid_argument] if the
    pattern arity differs from the table's match keys. *)

val remove : t -> entry_id -> bool
val set_action : t -> entry_id -> action -> bool
val entry_count : t -> int
val lookup : t -> ctxt:Ctxt.t -> now:(unit -> int) -> int
(** Match and run the action; falls back to the default action. *)

val lookup_batch : t -> Batch.t -> now:(unit -> int) -> unit
(** Batched {!lookup} over slots [0 .. b.n - 1]: matching is resolved per
    slot, then — when every slot lands on the same [Run] action (the
    common case for learned tables) — the whole batch runs through one
    {!Vm.invoke_batch}, amortizing model inference and dispatch.  Mixed
    batches dispatch per slot; engine traps are contained into the slot's
    [traps] column either way (exceptions from [Host] actions propagate,
    as in scalar lookup).  Hit accounting is identical to [n] scalar
    lookups. *)

val lookup_entry : t -> ctxt:Ctxt.t -> entry_id option
(** Which entry would fire, without running its action. *)

val lookup_entry_linear : t -> ctxt:Ctxt.t -> entry_id option
(** Reference lookup: sorts the live entries (priority desc, insertion
    order asc) on demand and scans them, no index — O(n log n) per call.
    Same answer as {!lookup_entry} by construction; kept as the oracle for
    the indexed path's differential tests. *)

val hits : t -> int
val default_hits : t -> int
(** Lookups that fell through to the default action. *)

val entry_hits : t -> entry_id -> int
val clear : t -> unit
val pattern_matches : pattern -> int -> bool
val pp : Format.formatter -> t -> unit
