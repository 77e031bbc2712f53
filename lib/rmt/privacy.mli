(** Differential-privacy accounting for aggregate context queries (§3.3).

    "The kernel can maintain a 'privacy budget', in DP terms, and subtract
    from this overall budget for each table match."  An [account] holds a
    program's remaining budget in milli-epsilon.  Each privacy-charged
    helper call [charge]s its declared cost; if granted, the caller noises
    the helper result with the {e integer geometric mechanism} (the discrete
    analogue of the Laplace mechanism — integer-only, so it is usable
    in-kernel).  Exhausted budgets deny the query. *)

type account

val create : epsilon_milli:int -> account
(** Raises [Invalid_argument] on a negative budget. *)

val remaining_milli : account -> int
val denials : account -> int

type grant = Granted of { epsilon_milli : int } | Denied

val charge : account -> cost_milli:int -> grant
(** Atomically deduct [cost_milli]; [Denied] (and a denial count bump) when
    the remaining budget is insufficient. *)

val noise : rng:Kml.Rng.t -> epsilon_milli:int -> sensitivity:int -> int
(** A sample of two-sided geometric noise calibrated to
    [epsilon = epsilon_milli / 1000] and the query's L1 [sensitivity]:
    [P(X = k) ∝ α^|k|] with [α = exp (-ε / Δ)].  Pure integer output. *)

val noisy_result : account -> rng:Kml.Rng.t -> cost_milli:int -> sensitivity:int -> int -> int option
(** [noisy_result acct ~rng ~cost_milli ~sensitivity v] charges the budget
    and returns the noised value, or [None] when denied. *)
