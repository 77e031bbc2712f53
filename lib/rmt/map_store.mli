(** Kernel state maps available to RMT programs — "data structures for
    monitoring purposes (akin to different types of eBPF maps)" (§3.1).

    Four kinds are provided, mirroring the eBPF map families the paper
    builds on:
    - [Array]: fixed-size int→int array; out-of-range keys read 0 and
      out-of-range updates are dropped (defined, non-trapping semantics).
    - [Hash]: bounded hash map; updates beyond capacity are dropped.
    - [Lru_hash]: bounded hash map that evicts the least recently used
      entry when full (lookups refresh recency).
    - [Ring]: fixed-capacity ring buffer of recent values, newest last —
      the access-history window used by the prefetch pipeline. *)

type kind = Array_map | Hash_map | Lru_hash_map | Ring_buffer

type spec = { kind : kind; capacity : int }
type t

val create : spec -> t
(** Raises [Invalid_argument] on non-positive capacity. *)

val spec : t -> spec
val lookup : t -> int -> int
(** 0 when absent. *)

val mem : t -> int -> bool

val update : t -> key:int -> value:int -> unit
val delete : t -> int -> unit
val push : t -> int -> unit
(** Ring buffers only; raises [Invalid_argument] on other kinds. *)

val ring_contents : t -> int array
(** Oldest first.  Raises [Invalid_argument] on non-ring maps. *)

val size : t -> int
(** Current number of live entries (ring: buffered values). *)

val clear : t -> unit
val fold : (int -> int -> 'a -> 'a) -> t -> 'a -> 'a
(** Fold over key/value pairs (ring: index/value, oldest first). *)

val pp : Format.formatter -> t -> unit
