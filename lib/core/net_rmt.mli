(** Learned congestion control through the RMT datapath — the third
    kernel decision point (DESIGN.md section 16).

    Each ACK-time {!Ksim.Cc.signal} becomes an 8-slot integer feature
    block in the execution context; the installed [net_cc] program
    (Guarded to the action range) consults a flat decision tree and
    returns a cwnd/pacing action class.  The tree is bootstrapped from a
    hindsight oracle over synthetic signals, then refined online: every
    decision snapshots its features, and one smoothed RTT later the
    observed loss/ECN/RTT-inflation outcome labels the snapshot with the
    action the oracle says should have been taken.  The window retrains
    periodically and hot-swaps the model, exactly like the prefetcher.

    Failsafe contract: the hook is protected ({!Rmt.Control.protect}),
    and a parallel stock {!Ksim.Cc.Cubic} instance consumes every signal
    regardless of who decides — so when the breaker opens (or the program
    traps, or faults are injected) the flow continues on the genuine
    Cubic trajectory, not a cold restart. *)

type params = {
  n_actions : int;           (** >= 3; default 5 *)
  window_capacity : int;     (** labelled-sample ring size *)
  retrain_period : int;      (** labelled samples between retrains *)
  min_retrain_samples : int;
  bootstrap_samples : int;   (** synthetic oracle samples for the initial tree *)
  tree_params : Kml.Decision_tree.params;
  cwnd_cap : int;
}

val default_params : params
val n_features : int

val oracle : rtt_ratio_pct:int -> ecn:bool -> loss:bool -> int
(** The hindsight labelling rule (exposed for tests). *)

val fallback_marker : int
(** Negative marker the breaker fallback returns; the program is Guarded
    to [0, n_actions) so it cannot collide with a real action. *)

val build_program : params -> Rmt.Program.t

type t

val create :
  ?params:params -> ?engine:Rmt.Vm.engine -> ?seed:int -> ?view_ns:string -> unit -> t

val decide : t -> flow:int -> Ksim.Cc.signal -> Ksim.Cc.decision
(** One congestion-control decision through the protected hook. *)

val make_cc : t -> Ksim.Flow.spec -> Ksim.Cc.t
(** Adapter for {!Ksim.Net_sim.run}: per-flow policies sharing this
    control plane (and its online model). *)

val control : t -> Rmt.Control.t
val breaker : t -> Rmt.Breaker.t

type stats = {
  decisions : int;
  stock_decisions : int;    (** served by the embedded stock Cubic *)
  fallback_decisions : int; (** pipeline fallback count for the hook *)
  retrains : int;
  training_samples : int;
  model_invocations : int;
  breaker_trips : int;
}

val stats : t -> stats
