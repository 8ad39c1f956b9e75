(** Statistical fault injection campaigns (paper §IV).

    A campaign takes a *subject* — a program variant plus the recipe for
    materializing its input state and reading back its output — and runs N
    independent trials.  Each trial injects one fault (a random register
    bit flip, or a branch-target corruption) at a random dynamic
    instruction, then classifies the run against the fault-free golden
    output. *)

(** Everything needed for one execution: a fresh memory image, the entry
    arguments, and how to read the output back as a flat signal for
    fidelity evaluation.  Built per run so trials never observe each
    other's stores. *)
type run_state = {
  mem : Interp.Memory.t;
  args : Ir.Value.t list;
  read_output : Ir.Value.t option -> float array;
}

type subject = {
  label : string;
  prog : Ir.Prog.t;
  entry : string;
  fresh_state : unit -> run_state;
  metric : Fidelity.Metric.spec;
}

type golden = {
  output : float array;
  steps : int;
  cycles : int;
  false_positives : int;      (** dynamic value-check failures, no fault *)
  failing_checks : int list;  (** static uids of those checks *)
}

exception Golden_run_failed of string * string

(** Fault-free reference execution; raises {!Golden_run_failed} if the
    subject does not run to completion.  [profile] attaches an execution
    profile ({!Interp.Profile}) to the run — observation-only.
    [checkpoint_interval] (default 0: off) enables rollback checkpointing:
    output and step count are unchanged, but the cycle count then includes
    the fault-free checkpoint overhead.

    An unprofiled run also captures the fork snapshots of a campaign,
    which makes it slower than a plain pass (17%
    summed over the 13 workloads under Dup + val chks; DESIGN.md §12),
    and keeps this one pass: a
    {!run} on the same program, entry, arguments, initial memory and
    checkpoint interval takes it instead of running its own
    ([golden_reused] in {!run_stats}; DESIGN.md §12).  {!run_adaptive}
    always runs its own pass, which measures its stratum masses, and
    keeps that one in turn.  A profiled run captures nothing and leaves
    the kept pass alone. *)
val golden_run :
  ?profile:Interp.Profile.t -> ?checkpoint_interval:int -> subject -> golden

type trial = {
  trial_seed : int;
  at_step : int;
  outcome : Classify.outcome;
  injection : Interp.Machine.injection option;
  detected_by : Interp.Machine.detection option;
      (** which software check fired, for SWDetect outcomes *)
  detect_latency : int option;
      (** dynamic instructions between the fault and its detection, for
          SWDetect/HWDetect outcomes — the window a recovery scheme must
          cover (paper §IV-D) *)
  steps : int;    (** dynamic instructions the faulted run executed,
                      including any post-rollback replay *)
  cycles : int;   (** simulated cycles of the faulted run, including
                      checkpoint, rollback and replay overhead *)
  recovery : Interp.Machine.recovery option;
      (** the checkpoint rollback the trial performed, if any *)
  checkpoints : int;   (** checkpoints the trial's run took *)
  taint : Interp.Taint.summary option;
      (** fault-propagation summary, when the campaign ran with
          [taint_trace] — [None] otherwise *)
  stratum : int option;
      (** the stratum this trial sampled ({!run_adaptive}); [None] on the
          uniform path *)
}

(** Bit-exact trial (list) equality, the parallel-determinism contract's
    notion of "identical".  Unlike polymorphic [=], injected float
    payloads compare by their register bits, so NaN equals NaN. *)
val trial_equal : trial -> trial -> bool
val trials_equal : trial list -> trial list -> bool

type summary = {
  subject_label : string;
  trials : int;
  counts : (Classify.outcome * int) list;
  golden_info : golden;
}

val count : summary -> Classify.outcome -> int

(** Share of trials with this outcome, in percent; 0 for an empty campaign
    (never NaN). *)
val percent : summary -> Classify.outcome -> float

val percent_many : summary -> Classify.outcome list -> float

(** One fault-injection trial, run from scratch: the reference that
    {!run}'s forked trials are bit-identical to.  With the seed
    [derive_seeds ~seed ~trials].(i) it reproduces trial [i] of a uniform
    campaign (what [experiments trace-fault --trial] replays); also used
    by the image-pipeline example.  The subject program is lowered once
    per program, through the compile cache. *)
val run_trial :
  ?fault_kind:Interp.Machine.fault_kind ->
  ?profile:Interp.Profile.t ->
  ?checkpoint_interval:int ->
  ?taint_trace:bool ->
  subject ->
  golden:golden ->
  disabled:(int, unit) Hashtbl.t ->
  hw_window:int ->
  seed:int ->
  trial

(** [derive_seeds ~seed ~trials] is every trial's seed, drawn from the
    master generator up front — the campaign determinism contract: seed
    assignment depends only on ([seed], trial index), never on worker
    scheduling.  Matches the sequence the historical serial loop drew one
    trial at a time, except that a colliding draw (the 30-bit draws can
    repeat across indices) is deterministically bumped into a higher band
    until unique — every returned seed is distinct, so no two trials are
    silently the same trial. *)
val derive_seeds : seed:int -> trials:int -> int array

(** Wall-clock accounting of one {!run}; observation-only. *)
type run_stats = {
  golden_sec : float;    (** the golden run, fork capture included *)
  setup_sec : float;     (** seed derivation, check disabling and the
                             compile cache *)
  trials_sec : float;    (** the parallel trial phase *)
  wall_sec : float;      (** whole campaign, entry to exit *)
  domains : int;         (** worker domains the campaign was asked to use *)
  pool : Pool.stats option;  (** per-domain breakdown of the trial phase *)
  rejoined : int;        (** trials that rejoined the golden run and
                             stopped there, at a fork snapshot whose state
                             they matched or settled at their flip
                             (DESIGN.md §12); deterministic at any
                             [domains] *)
  settled : int;         (** those of them whose flipped register was
                             provably dead, so they rejoined at the flip
                             without a snapshot compare; deterministic
                             too *)
  steps_skipped : int;   (** the golden-suffix steps those trials skipped *)
  golden_reused : bool;  (** the campaign took the fault-free pass and
                             fork snapshots of the {!golden_run} just
                             before it instead of running its own *)
}

(** Run a whole campaign: one golden run plus [trials] injections, all
    deterministic in [seed].  [fault_kind] selects register bit flips
    (default) or branch-target corruptions.  [domains] (default 1: serial)
    fans trials out over OCaml 5 domains; summaries and trial lists are
    bit-identical for any worker count.  [checkpoint_interval] (default 0:
    off) enables checkpoint/rollback recovery in the golden run and every
    trial (DESIGN.md §9); it participates in the same determinism contract
    — recovery decisions depend only on the trial's own execution, never on
    scheduling.

    Observability hooks, all observation-only (any combination leaves
    results bit-identical): [profile] accumulates every trial's execution
    profile (merged in trial order); [stats_out] receives the
    campaign's {!run_stats}; [warehouse] is a filing sink invoked once,
    after every other hook, with the finished summary, the full trial
    list and the run's stats — the attachment point for a content-
    addressed run store ([Warehouse.Store.campaign_sink]), so sweeps file
    each subject's results the moment that subject completes; [progress]
    receives every trial's outcome as
    it completes, from whichever worker domain ran it (the {!Progress}
    heartbeat — its final snapshot fires before [run] returns); [trace]
    attaches a flight recorder ({!Obs.Trace.recorder}) that records one
    duration span per campaign phase (golden run, trial phase) on track
    0 plus {!Pool.map}'s per-worker/per-chunk spans — render the
    timeline with {!Obs.Trace.to_chrome}.

    [taint_trace] (default false) attaches the fault-propagation tracer
    ({!Interp.Taint}) to every trial: outcomes, step and cycle counts stay
    bit-identical, each trial just additionally carries [Some] propagation
    summary.  The golden run stays untraced.

    Trials fork from the golden run (DESIGN.md §12): the golden run
    itself captures resumable machine snapshots, and every trial starts
    from the newest snapshot strictly before its injection step instead
    of re-executing the fault-free prefix.  Trials are bit-identical to
    {!run_trial}'s from-scratch ones — outcomes, steps, cycles, everything
    a {!trial} records.  Snapshot 0 is the input state; then one is taken
    every 1024 steps, and each time 64 of those are held, every other one
    is dropped and the stride doubles, so a long golden run ends with
    snapshot 0 and 32 to 63 evenly spaced snapshots.  A campaign with
    [profile] set runs every trial from the entry on snapshot 0's memory
    (a profiled trial must observe its whole execution, not just the
    post-fork suffix). *)
val run :
  ?seed:int ->
  ?fault_kind:Interp.Machine.fault_kind ->
  ?domains:int ->
  ?checkpoint_interval:int ->
  ?taint_trace:bool ->
  ?profile:Interp.Profile.t ->
  ?stats_out:run_stats option ref ->
  ?warehouse:(summary -> trial list -> run_stats option -> unit) ->
  ?progress:Progress.t ->
  ?trace:Obs.Trace.recorder ->
  subject ->
  trials:int ->
  summary * trial list

(** {1 Adaptive stratified campaigns (DESIGN.md §14)} *)

(** One stratum of the (injection step × ring slot) sampling space: the
    ring slots whose register belongs to protection group [st_group],
    restricted to injection steps in the residency band
    [[st_lo, st_hi)].  [st_mass] is the probability a single *uniform*
    fault draw lands in this stratum — the reweighting factor that makes
    stratified estimates unbiased; [st_prior] the static SDC-proneness
    guess that seeds the variance estimate before any trial has run. *)
type stratum = {
  st_id : int;
  st_group : int;
  st_group_name : string;
  st_band : int;
  st_lo : int;      (** first injection step of the band (inclusive) *)
  st_hi : int;      (** one past the last injection step (exclusive) *)
  st_mass : float;
  st_prior : float;
}

(** The full partition: the register→group map, the cumulative
    ring-occupancy weights the golden pass measured
    ({!Interp.Machine.ring_cum}), the injection
    window, the strata, and the exactly known share of empty-ring steps
    (a uniform draw there injects nothing — Masked by construction). *)
type strata_plan = {
  sp_groups : int array;
  sp_cum : float array array;
  sp_window : int;
  sp_strata : stratum array;
  sp_mass_empty : float;
}

(** [build_strata ~groups ~group_names ~priors ~bands ~window cum]
    partitions the injection space into (group × residency band) strata
    from the measured cumulative weights.  Pure; exposed for property
    tests.  Invariant: Σ [st_mass] + [sp_mass_empty] = 1 (up to float
    rounding), zero-mass strata are dropped, ids are dense from 0. *)
val build_strata :
  groups:int array ->
  group_names:string array ->
  priors:float array ->
  bands:int ->
  window:int ->
  float array array ->
  strata_plan

(** Inverse-CDF draw of an injection step inside a stratum from
    [u ∈ [0,1)]; pure, exposed for property tests.  Returned steps always
    lie in [[st_lo, st_hi)] and carry positive group weight. *)
val sample_at_step : strata_plan -> stratum -> u:float -> int

(** One stratum's final tally. *)
type stratum_stats = {
  ss_stratum : stratum;
  ss_trials : int;
  ss_counts : (Classify.outcome * int) list;
}

(** Everything {!run_adaptive} knows beyond a uniform summary: the target,
    the per-stratum tallies, the mass-reweighted whole-program intervals
    (per outcome and for the SDC aggregate), and the uniform price of the
    same precision, from two angles:

    - [ad_equiv_uniform] — the savings headline: the trials a *fixed-size*
      uniform campaign must plan to guarantee the target half width.
      Fixed-size is the right baseline because stopping on an interim
      interval is exactly what this scheduler adds; without it the design
      must assume worst-case variance p = 0.5 (the repo's standing
      margin-of-error convention).
    - [ad_oracle_uniform] — the honest lower bound reported next to the
      headline: uniform trials that would match the *achieved* width at
      the *observed* rate, i.e. a sequential uniform campaign with oracle
      foresight.  Near-zero rates make this small (the Wilson interval at
      k = 0 tightens like 1/n), so adaptive campaigns chiefly buy
      guaranteed precision and per-stratum rates, not oracle-beating
      totals, on heavily protected subjects. *)
type adaptive = {
  ad_ci_target : float;
  ad_strata : stratum_stats array;
  ad_mass_empty : float;
  ad_trials : int;
  ad_outcomes : (Classify.outcome * Obs.Stats.interval) list;
  ad_sdc : Obs.Stats.interval;
  ad_equiv_uniform : int;
  ad_oracle_uniform : int;
}

(** Adaptive stratified campaign: Neyman-style variance-proportional
    allocation over protection-group × residency-band strata with
    per-stratum early stopping on the Wilson interval of the SDC rate.
    Stops when the mass-reweighted whole-program SDC half width reaches
    [ci], or at [max_trials].  Register-bit faults only.

    Deterministic in ([seed], subject, [groups]): per-stratum seed
    streams are split from the master up front, allocation depends only
    on deterministic counts, and batches are built serially — any
    [~domains] produces bit-identical trials, like {!run}.

    [groups] maps program register codes to protection groups (from
    [Analysis.Strata], but any partition works); [group_names] labels
    them; [priors] gives each group's static SDC-proneness guess.
    [bands] (default 3) residency bands per group; each stratum gets a
    32-trial pilot before the Neyman rounds.  [progress_for] builds the heartbeat once
    the stratum count is known (create it with [~strata:nstrata] to get
    per-stratum counters); other hooks are as in {!run}, all
    observation-only — the [warehouse] filing sink additionally receives
    the {!adaptive} result so a v5 run files with its strata intact. *)
val run_adaptive :
  ?seed:int ->
  ?domains:int ->
  ?checkpoint_interval:int ->
  ?taint_trace:bool ->
  ?stats_out:run_stats option ref ->
  ?warehouse:(summary -> trial list -> run_stats option -> adaptive -> unit) ->
  ?progress_for:(nstrata:int -> total:int -> Progress.t) ->
  ?trace:Obs.Trace.recorder ->
  ?bands:int ->
  ?max_trials:int ->
  groups:int array ->
  group_names:string array ->
  priors:float array ->
  ci:float ->
  subject ->
  summary * trial list * adaptive

(** Mean of per-subject percentages, the paper's cross-benchmark average. *)
val mean_percent : summary list -> Classify.outcome list -> float
