(** Public API of the reproduction: protect a workload with one of the
    paper's techniques, measure its runtime overhead, and run statistical
    fault-injection campaigns against it.

    Typical use:
    {[
      let w = Workloads.Registry.find "jpegdec" in
      let p = Softft.protect w Softft.Dup_valchk in
      let overhead = Softft.overhead p in
      let summary, _ = Softft.campaign p ~role:Workloads.Workload.Test ~trials:1000 in
      ...
    ]} *)

type technique = Transform.Pipeline.technique =
  | Original
  | Dup_only
  | Dup_valchk
  | Full_dup
  | Cfc_only
  | Dup_valchk_cfc
  | Planned

let all_techniques = Transform.Pipeline.all_techniques
let extended_techniques = Transform.Pipeline.extended_techniques
let technique_name = Transform.Pipeline.technique_name

(** A workload protected by one technique: the transformed program plus the
    static statistics of the transformation (Figure 10 vocabulary). *)
type protected = {
  workload : Workloads.Workload.t;
  technique : technique;
  prog : Ir.Prog.t;
  static_stats : Transform.Pipeline.stats;
  profile_false_positive_info : int option;
      (** dynamic value-check failures of the profiling run, if profiled *)
}

(** Build a fresh program for [w] and apply [technique].  For [Dup_valchk]
    the program is first value-profiled on the training input (the paper's
    offline step); [params] tunes the check-derivation heuristics.  [lint]
    runs the transform-invariant lint ({!Analysis.Lint}) after every
    pipeline stage, raising on any violated invariant. *)
let protect ?params ?opt1 ?opt2 ?lint
    ?(profile_role = Workloads.Workload.Train) (w : Workloads.Workload.t)
    technique =
  let prog = w.build () in
  let profile =
    match technique with
    | Dup_valchk | Dup_valchk_cfc ->
      let p = Workloads.Workload.profile ~role:profile_role ~prog w in
      Some (fun uid -> Profiling.Value_profile.check_kind ?params p uid)
    | Original | Dup_only | Full_dup | Cfc_only | Planned -> None
  in
  let static_stats =
    Transform.Pipeline.protect ?profile ?opt1 ?opt2 ?lint prog technique
  in
  { workload = w; technique; prog; static_stats;
    profile_false_positive_info = None }

(** Build a fresh program for [w] and execute [plan] on it
    ({!Transform.Pipeline.of_plan}).  The profiling run only happens when
    the plan names terminator or check sites, mirroring [protect]'s
    treatment of the check-inserting techniques. *)
let protect_plan ?params ?lint ?(profile_role = Workloads.Workload.Train)
    (w : Workloads.Workload.t) (plan : Analysis.Plan.t) =
  let plan = Analysis.Plan.normalize plan in
  let prog = w.build () in
  let profile =
    if plan.Analysis.Plan.terminators <> [] || plan.Analysis.Plan.checks <> []
    then
      let p = Workloads.Workload.profile ~role:profile_role ~prog w in
      Some (fun uid -> Profiling.Value_profile.check_kind ?params p uid)
    else None
  in
  let static_stats = Transform.Pipeline.of_plan ?profile ?lint prog plan in
  { workload = w; technique = Planned; prog; static_stats;
    profile_false_positive_info = None }

let subject ?label (p : protected) ~role =
  let label =
    match label with
    | Some l -> l
    | None ->
      Printf.sprintf "%s/%s/%s" p.workload.name (technique_name p.technique)
        (Workloads.Workload.role_name role)
  in
  Workloads.Workload.subject ~label p.workload ~role ~prog:p.prog

(** Fault-free reference run (also yields simulated cycles and the
    false-positive statistics of the inserted value checks).  [profile]
    attaches an observation-only execution profile to the run;
    [checkpoint_interval] enables rollback checkpointing, whose fault-free
    overhead then shows up in the cycle count. *)
let golden ?profile ?checkpoint_interval (p : protected) ~role =
  Faults.Campaign.golden_run ?profile ?checkpoint_interval (subject p ~role)

(** Runtime overhead of the protected program relative to the unmodified
    one, as a fraction (0.195 = 19.5 %), measured in simulated cycles on
    [role]'s input — the paper's Figure 12 quantity. *)
let overhead ?baseline (p : protected) ~role =
  let base =
    match baseline with
    | Some g -> g
    | None ->
      let original = protect p.workload Original in
      golden original ~role
  in
  let own = golden p ~role in
  (float_of_int own.Faults.Campaign.cycles /. float_of_int base.Faults.Campaign.cycles)
  -. 1.0

(** Statistical fault injection against the protected program.  [domains]
    fans the trials out over OCaml 5 domains (deterministic for any worker
    count; see {!Faults.Campaign.run}).  [profile], [stats_out] and
    [progress] are {!Faults.Campaign.run}'s observation-only telemetry
    hooks — any combination leaves results bit-identical; [taint_trace]
    attaches the fault-propagation tracer to every trial (outcomes
    unchanged, trials gain propagation summaries); [trace] attaches the
    campaign flight recorder (phase/worker/chunk duration spans, rendered
    with {!Obs.Trace.to_chrome}). *)
let campaign ?seed ?(trials = 1000) ?domains ?checkpoint_interval
    ?taint_trace ?profile ?stats_out ?warehouse ?progress ?trace
    (p : protected) ~role =
  Faults.Campaign.run ?seed ?domains ?checkpoint_interval
    ?taint_trace ?profile ?stats_out ?warehouse ?progress ?trace
    (subject p ~role) ~trials

(** 95 %-confidence margin of error for a proportion observed over [n]
    fault-injection trials (Leveugle et al., as cited in §IV-C). *)
let margin_of_error ~trials ~proportion =
  if trials = 0 then 1.0
  else 1.96 *. sqrt (proportion *. (1.0 -. proportion) /. float_of_int trials)
