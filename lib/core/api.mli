(** Public API of the reproduction: protect a workload with one of the
    paper's techniques, measure its runtime overhead, and run statistical
    fault-injection campaigns against it. *)

type technique = Transform.Pipeline.technique =
  | Original       (** unmodified program *)
  | Dup_only       (** state-variable producer-chain duplication only *)
  | Dup_valchk     (** the paper's scheme: duplication + expected-value
                       checks, Optimizations 1 and 2 applied *)
  | Full_dup       (** SWIFT-style full-duplication baseline *)
  | Cfc_only       (** signature-based control-flow checking only *)
  | Dup_valchk_cfc (** the paper's scheme plus the complementary
                       signature scheme for branch-target faults (§IV-C) *)
  | Planned        (** an explicit protection plan ({!Analysis.Plan});
                       built by {!protect_plan}, not {!protect} *)

(** The four techniques of the paper's evaluation. *)
val all_techniques : technique list

(** All techniques, including the control-flow-checking extensions. *)
val extended_techniques : technique list

val technique_name : technique -> string

(** A workload protected by one technique: the transformed program plus
    the static statistics of the transformation (Figure 10 vocabulary). *)
type protected = {
  workload : Workloads.Workload.t;
  technique : technique;
  prog : Ir.Prog.t;
  static_stats : Transform.Pipeline.stats;
  profile_false_positive_info : int option;
}

(** Build a fresh program for the workload and apply the technique.  For
    the check-inserting techniques the program is first value-profiled on
    the training input (the paper's offline step); [params] tunes the
    check-derivation heuristics, [opt1]/[opt2] toggle the interaction
    optimizations (ablation), and [profile_role] supports the §V
    cross-validation study.  [lint] (default false) runs the
    transform-invariant lint ({!Analysis.Lint}) after every pipeline
    stage, raising [Analysis.Lint.Error] on any violated invariant. *)
val protect :
  ?params:Profiling.Value_profile.params ->
  ?opt1:bool ->
  ?opt2:bool ->
  ?lint:bool ->
  ?profile_role:Workloads.Workload.input_role ->
  Workloads.Workload.t ->
  technique ->
  protected

(** Build a fresh program for the workload and execute a protection plan
    on it ({!Transform.Pipeline.of_plan}).  The workload is value-profiled
    on [profile_role] only when the plan names terminator or check sites.
    [lint] (default false) lints every stage against the plan-derived
    expectation ({!Analysis.Lint.Plan}).  The plan's checkpoint interval
    is a runtime knob: pass it to {!golden}/{!campaign} yourself. *)
val protect_plan :
  ?params:Profiling.Value_profile.params ->
  ?lint:bool ->
  ?profile_role:Workloads.Workload.input_role ->
  Workloads.Workload.t ->
  Analysis.Plan.t ->
  protected

(** Wrap as a fault-campaign subject on the given input role. *)
val subject :
  ?label:string ->
  protected ->
  role:Workloads.Workload.input_role ->
  Faults.Campaign.subject

(** Fault-free reference run (simulated cycles, output, false positives).
    [profile] attaches an observation-only execution profile to the run;
    [checkpoint_interval] (default 0: off) enables rollback checkpointing,
    whose fault-free overhead then shows up in the cycle count.  A
    {!campaign} on the same [p], [role] and interval right after takes
    this pass instead of running its own ({!Faults.Campaign.golden_run}). *)
val golden :
  ?profile:Interp.Profile.t ->
  ?checkpoint_interval:int ->
  protected ->
  role:Workloads.Workload.input_role ->
  Faults.Campaign.golden

(** Runtime overhead versus the unmodified program, as a fraction
    (0.195 = 19.5 %), in simulated cycles — the Figure 12 quantity.
    Pass [baseline] to amortize the original's golden run. *)
val overhead :
  ?baseline:Faults.Campaign.golden ->
  protected ->
  role:Workloads.Workload.input_role ->
  float

(** Statistical fault injection against the protected program.  [domains]
    fans the trials out over OCaml 5 domains; results are bit-identical
    for any worker count (see {!Faults.Campaign.run}).
    [checkpoint_interval] (default 0: off) enables checkpoint/rollback
    recovery in the golden run and every trial (DESIGN.md §9).
    [taint_trace] (default false) attaches the fault-propagation tracer
    to every trial (DESIGN.md §10): outcomes stay bit-identical, trials
    gain propagation summaries.  [profile], [stats_out], [progress] and
    [trace] (the campaign flight recorder) are
    {!Faults.Campaign.run}'s observation-only telemetry hooks, and
    [warehouse] is its run-filing sink. *)
val campaign :
  ?seed:int ->
  ?trials:int ->
  ?domains:int ->
  ?checkpoint_interval:int ->
  ?taint_trace:bool ->
  ?profile:Interp.Profile.t ->
  ?stats_out:Faults.Campaign.run_stats option ref ->
  ?warehouse:
    (Faults.Campaign.summary ->
    Faults.Campaign.trial list ->
    Faults.Campaign.run_stats option ->
    unit) ->
  ?progress:Faults.Progress.t ->
  ?trace:Obs.Trace.recorder ->
  protected ->
  role:Workloads.Workload.input_role ->
  Faults.Campaign.summary * Faults.Campaign.trial list

(** 95 %-confidence margin of error for a proportion observed over
    [trials] fault-injection trials (Leveugle et al., cited in §IV-C). *)
val margin_of_error : trials:int -> proportion:float -> float
