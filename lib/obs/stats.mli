(** Streaming proportion statistics for fault campaigns.

    A campaign observes [k] occurrences of an outcome over [n] completed
    trials; this module turns those two integers into a confidence
    interval, incrementally — no per-trial state beyond the counters the
    campaign already keeps ({!Faults.Progress}'s atomics), so the interval
    can be recomputed at every heartbeat and at campaign end for the
    journal manifest.  Pure and allocation-light: safe to call from any
    domain, strictly observation-only (nothing in the experiment pipeline
    may branch on an interval — the determinism contract, DESIGN.md §8).

    The interval is Wilson's score interval, the standard choice for
    proportions at small counts: it never leaves [0,1] and stays
    informative at k=0 and k=n, where the naive Wald interval collapses
    to a width of zero.  This is the substrate adaptive early stopping
    (DESIGN.md §14) decides on. *)

type interval = {
  ci_estimate : float;  (** the point estimate k/n *)
  ci_low : float;       (** lower confidence bound, clamped to [0,1] *)
  ci_high : float;      (** upper confidence bound, clamped to [0,1] *)
}

(** [wilson ~k ~n] is the 95% Wilson score interval for [k] successes over
    [n] trials.
    [n <= 0] yields the vacuous interval [0, 1] with estimate 0; [k] is
    clamped into [0, n]. *)
val wilson : k:int -> n:int -> interval

(** [ci_high - ci_low]. *)
val width : interval -> float

(** [disjoint a b] is true when the two intervals share no point — the
    conservative significance test warehouse run diffs flag deltas with:
    overlapping intervals are never reported as a real change. *)
val disjoint : interval -> interval -> bool

(** One stratum's observations for {!stratified}: [so_mass] is the
    stratum's share of the whole sampling space (the probability a single
    uniform draw lands in it; masses should sum to ≤ 1), [so_k]/[so_n] the
    outcome count and trials sampled inside it. *)
type stratum_obs = { so_mass : float; so_k : int; so_n : int }

(** Mass-weighted recombination of independently sampled strata into one
    whole-program interval: estimate [Σ m_s·k_s/n_s] (the unbiased
    post-stratified rate), half width [sqrt (Σ (m_s·h_s)²)] with [h_s] the
    per-stratum Wilson half width (quadrature — strata are independent).
    Consequence: if every stratum has [h_s ≤ τ] then the combined half
    width is at most [τ·sqrt (Σ m_s²) ≤ τ], so per-stratum early stopping
    never violates a whole-program convergence target.  Unsampled strata
    ([so_n = 0]) contribute their vacuous [0,1] interval; zero-mass strata
    contribute nothing. *)
val stratified : stratum_obs list -> interval

(** Smallest number of *uniform* trials whose Wilson interval at observed
    rate [p] would be as tight as [half_width] — what an adaptive
    campaign's convergence would have cost without stratification (the
    "equivalent uniform trials" a report prices savings against). *)
val equivalent_uniform_trials : p:float -> half_width:float -> int

(** [{"est":…,"lo":…,"hi":…}] — the journal/heartbeat wire form. *)
val to_json : interval -> Json.t

(** Compact percent rendering, e.g. ["12.5%±2.1"] (half width after ±). *)
val pp_pct : interval -> string
