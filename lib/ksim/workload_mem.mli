(** Page-access trace generators for the prefetching case study (§4,
    Table 1).

    The paper's workloads are an OpenCV video-resize application and a
    NumPy matrix-convolution program.  What matters for prefetcher
    comparisons is the {e structure} of the page-access stream, which these
    generators reproduce (see DESIGN.md §6):

    - {!video_resize}: frame-by-frame processing interleaves a sequential
      input scan with periodic output writes and frame-boundary jumps.
      Sequential detection (Linux) captures the scan segments but pays at
      every interleave point; the learned model captures the full periodic
      pattern.
    - {!matrix_conv}: column sweeps over a row-major matrix produce a
      dominant large stride with regular end-of-column jumps and occasional
      sequential output writes.  Almost nothing is (+1)-sequential, the
      majority trend (Leap) captures the in-column stride but overshoots at
      every column boundary, and the learned model captures both. *)

type access = Mem_sim.access

val sequential : pid:int -> start:int -> n:int -> access list
val strided : pid:int -> start:int -> stride:int -> n:int -> access list
val random : rng:Kml.Rng.t -> pid:int -> pages:int -> n:int -> access list
(** Uniform over [0, pages). *)

val zipf : rng:Kml.Rng.t -> pid:int -> pages:int -> n:int -> ?exponent:float -> unit -> access list
(** Zipf-distributed hot/cold accesses (rank-1 hottest). *)

type video_params = {
  frames : int;
  frame_pages : int;  (** input pages per plane per frame *)
  group : int;        (** pages read per plane between output writes *)
  guard_pages : int;  (** never-accessed slack after each plane-frame region *)
  noise_pct : int;    (** percentage of groups followed by a random heap access *)
}

val video_resize :
  ?params:video_params -> ?rng:Kml.Rng.t -> pid:int -> unit -> access list

type conv_params = {
  matrix_rows : int;      (** rows swept per column read *)
  row_stride : int;       (** pages per matrix row (the column-walk stride) *)
  n_columns : int;
  col_advance : int;      (** page advance between column bases *)
  pair_rows : int;        (** leading rows that gather two adjacent pages *)
  out_run : int;          (** circular-buffer writes after each column *)
  checkpoint_every : int; (** columns between sequential checkpoint flushes (0 = never) *)
  checkpoint_run : int;   (** pages per checkpoint flush *)
}

val matrix_conv : ?params:conv_params -> pid:int -> unit -> access list

val concat : access list list -> access list
val footprint : access list -> int
(** Number of distinct pages touched. *)

val length : access list -> int

type file_kind = Sequential_file | Strided_file of int | Reversed_file

type file_streams_params = {
  n_files : int;
  pages_per_file : int;
  burst : int;            (** consecutive accesses to one file before switching *)
  kinds : file_kind array; (** cycled over files *)
}

val default_file_streams : file_streams_params

val file_streams :
  ?params:file_streams_params -> rng:Kml.Rng.t -> unit -> access list
(** A multi-file workload: [n_files] files, each read with its own access
    pattern, interleaved in randomly-ordered bursts.  The access [pid]
    field carries the {e inode} of the file touched — prefetchers keyed on
    it see clean per-file streams ("inode numbers for per-file entries",
    paper §3.1). *)

val retag : access list -> pid:int -> access list
(** Replace every access's stream tag — e.g. collapse a per-inode trace to
    a single per-process stream to measure match-granularity effects. *)

val producer_consumer :
  rng:Kml.Rng.t ->
  ?n:int ->
  ?lag:int ->
  ?delta:int ->
  ?pages:int ->
  producer:int ->
  consumer:int ->
  unit ->
  access list
(** A producer process touching an {e irregular} (seeded-random) page walk,
    interleaved with a consumer that touches the producer's page + [delta]
    exactly [lag] producer-steps later — two mappings of a shared buffer.
    Each stream is unpredictable from its own history; their correlation is
    perfect.  Exercises cross-application optimization (§2.1 #4). *)

val multi_tenant :
  rng:Kml.Rng.t ->
  tenants:int ->
  events_per_tenant:int ->
  ?pages:int ->
  ?burst:int ->
  unit ->
  access list
(** A serving-layer trace: [tenants] independent per-tenant streams —
    pattern cycled by tenant id over sequential / strided / random /
    periodic-with-jumps — interleaved in rng-ordered bursts.  The [pid]
    field carries the tenant id.  Per-tenant subsequences are each
    stream's own order, so any consumer that preserves per-tenant FIFO
    (e.g. {!Serve.Serving}) serves them deterministically regardless of
    the global interleave. *)
