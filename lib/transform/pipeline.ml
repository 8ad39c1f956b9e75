open Ir

(** Program-variant construction: ties the passes into the four techniques
    the paper evaluates, and reports the static statistics of Figure 10. *)

type technique =
  | Original       (** unmodified program *)
  | Dup_only       (** state-variable producer-chain duplication only *)
  | Dup_valchk     (** duplication + expected-value checks + Opt. 1 and 2 *)
  | Full_dup       (** SWIFT-style full duplication baseline *)
  | Cfc_only       (** signature-based control-flow checking only *)
  | Dup_valchk_cfc (** the paper's scheme combined with the complementary
                       signature scheme it points to for branch-target
                       faults (§IV-C) *)
  | Planned        (** an explicit protection plan executed by {!of_plan};
                       generalizes the fixed configurations above *)

let all_techniques = [ Original; Dup_only; Dup_valchk; Full_dup ]
let extended_techniques = all_techniques @ [ Cfc_only; Dup_valchk_cfc ]

let technique_name = function
  | Original -> "Original"
  | Dup_only -> "Dup only"
  | Dup_valchk -> "Dup + val chks"
  | Full_dup -> "Full duplication"
  | Cfc_only -> "CFC only"
  | Dup_valchk_cfc -> "Dup + val chks + CFC"
  | Planned -> "Planned"

(** Static statistics in the vocabulary of Figure 10: everything is reported
    against the *original* static instruction count. *)
type stats = {
  technique : technique;
  original_instrs : int;      (** static IR instructions before the pass *)
  state_vars : int;
  duplicated_instrs : int;    (** clones added (instructions + phis) *)
  dup_checks : int;
  value_checks : int;         (** stand-alone + Optimization-2 checks *)
  suppressed_by_opt1 : int;
}

let fraction ~of_ n =
  if of_ = 0 then 0.0 else float_of_int n /. float_of_int of_

let duplicated_fraction s = fraction ~of_:s.original_instrs s.duplicated_instrs
let value_check_fraction s = fraction ~of_:s.original_instrs s.value_checks
let state_var_fraction s = fraction ~of_:s.original_instrs s.state_vars

(** Apply [technique] to [prog] in place.  [profile] supplies the
    expected-value check shapes (required only by [Dup_valchk]).  [opt1]
    and [opt2] toggle the paper's two interaction optimizations (both on
    by default; exposed for the ablation study).  The transformed program
    is re-verified before returning; with [lint] on, the transform-invariant
    lint ({!Analysis.Lint}) additionally runs after every stage, with the
    duplication discipline the stage just established and the value profile
    wired into its check-shape rule. *)
let protect ?profile ?(opt1 = true) ?(opt2 = true) ?(lint = false)
    (prog : Prog.t) technique =
  let original_instrs = Prog.instr_count prog in
  let stage expect =
    if lint then Analysis.Lint.run ~expect ?profile prog
  in
  let stats =
    match technique with
    | Original ->
      stage Analysis.Lint.Any;
      { technique; original_instrs; state_vars = State_vars.count_prog prog;
        duplicated_instrs = 0; dup_checks = 0; value_checks = 0;
        suppressed_by_opt1 = 0 }
    | Dup_only ->
      let d, (_ : (int, unit) Hashtbl.t) = Duplicate.run prog in
      stage Analysis.Lint.Selective;
      { technique; original_instrs; state_vars = d.state_vars;
        duplicated_instrs = d.cloned_instrs + d.cloned_phis;
        dup_checks = d.dup_checks; value_checks = 0; suppressed_by_opt1 = 0 }
    | Dup_valchk ->
      let profile =
        match profile with
        | Some p -> p
        | None ->
          invalid_arg "Pipeline.protect: Dup_valchk requires a value profile"
      in
      let d, opt2_checked =
        if opt2 then Duplicate.run ~profile prog else Duplicate.run prog
      in
      stage Analysis.Lint.Selective;
      let v =
        Value_checks.run ~use_opt1:opt1 prog ~profile
          ~already_checked:opt2_checked
      in
      stage Analysis.Lint.Selective;
      { technique; original_instrs; state_vars = d.state_vars;
        duplicated_instrs = d.cloned_instrs + d.cloned_phis;
        dup_checks = d.dup_checks;
        value_checks = v.inserted + d.opt2_value_checks;
        suppressed_by_opt1 = v.suppressed_by_opt1 }
    | Full_dup ->
      let f = Full_dup.run prog in
      stage Analysis.Lint.Full;
      { technique; original_instrs; state_vars = State_vars.count_prog prog;
        duplicated_instrs = f.cloned_instrs + f.cloned_phis;
        dup_checks = f.dup_checks; value_checks = 0; suppressed_by_opt1 = 0 }
    | Cfc_only ->
      let c = Cfc.run prog in
      stage Analysis.Lint.Any;
      { technique; original_instrs; state_vars = State_vars.count_prog prog;
        duplicated_instrs = 0; dup_checks = 0;
        value_checks = c.signature_checks; suppressed_by_opt1 = 0 }
    | Dup_valchk_cfc ->
      let profile =
        match profile with
        | Some p -> p
        | None ->
          invalid_arg "Pipeline.protect: Dup_valchk_cfc requires a value profile"
      in
      let d, opt2_checked =
        if opt2 then Duplicate.run ~profile prog else Duplicate.run prog
      in
      stage Analysis.Lint.Selective;
      let v =
        Value_checks.run ~use_opt1:opt1 prog ~profile
          ~already_checked:opt2_checked
      in
      stage Analysis.Lint.Selective;
      let c = Cfc.run prog in
      stage Analysis.Lint.Selective;
      { technique; original_instrs; state_vars = d.state_vars;
        duplicated_instrs = d.cloned_instrs + d.cloned_phis;
        dup_checks = d.dup_checks;
        value_checks = v.inserted + d.opt2_value_checks + c.signature_checks;
        suppressed_by_opt1 = v.suppressed_by_opt1 }
    | Planned ->
      invalid_arg "Pipeline.protect: Planned is built by Pipeline.of_plan"
  in
  Verifier.verify prog;
  stats

(** Execute a protection plan on [prog] in place: duplicate exactly the
    planned producer chains (with planned terminators applied through the
    Opt-2 hook, restricted to their uids), then place the planned
    stand-alone value checks — no Opt-1 second-guessing, the plan is the
    decision.  [profile] is required as soon as the plan names terminator
    or check sites.  The plan's checkpoint interval is a runtime knob:
    callers pass it to golden runs and campaigns themselves.  With [lint]
    on, {!Analysis.Lint} runs after every stage with the plan-derived
    expectation ({!Analysis.Lint.Plan}). *)
let of_plan ?profile ?(lint = false) (prog : Prog.t) (plan : Analysis.Plan.t) =
  let plan = Analysis.Plan.normalize plan in
  let original_instrs = Prog.instr_count prog in
  let stage expect_plan =
    if lint then
      Analysis.Lint.run ~expect:(Analysis.Lint.Plan expect_plan) ?profile prog
  in
  let places_checks =
    plan.Analysis.Plan.terminators <> [] || plan.Analysis.Plan.checks <> []
  in
  (match profile with
   | None when places_checks ->
     invalid_arg "Pipeline.of_plan: plan places value checks but no profile was given"
   | _ -> ());
  let term_profile =
    match profile with
    | Some p when plan.Analysis.Plan.terminators <> [] ->
      Some
        (fun uid ->
          if Analysis.Plan.mem_terminator plan uid then p uid else None)
    | _ -> None
  in
  let select (sv : State_vars.state_var) =
    Analysis.Plan.mem_chain plan ~phi_uid:sv.State_vars.phi.Instr.phi_uid
  in
  let d, opt2_checked = Duplicate.run ?profile:term_profile ~select prog in
  (* Stand-alone checks are not placed yet, so stage 1 lints against the
     plan with its check list emptied. *)
  stage { plan with Analysis.Plan.checks = [] };
  let v =
    if plan.Analysis.Plan.checks = [] then Value_checks.empty_stats ()
    else
      let p = Option.get profile in
      Value_checks.run ~use_opt1:false
        ~only:(fun uid -> Analysis.Plan.mem_check plan uid)
        prog ~profile:p ~already_checked:opt2_checked
  in
  stage plan;
  Verifier.verify prog;
  { technique = Planned; original_instrs; state_vars = d.state_vars;
    duplicated_instrs = d.cloned_instrs + d.cloned_phis;
    dup_checks = d.dup_checks;
    value_checks = v.inserted + d.opt2_value_checks;
    suppressed_by_opt1 = v.suppressed_by_opt1 }

(** The lint expectation matching each technique's duplication discipline,
    for callers that lint a finished program on their own. *)
let lint_expectation = function
  | Original | Cfc_only -> Analysis.Lint.Any
  | Dup_only | Dup_valchk | Dup_valchk_cfc -> Analysis.Lint.Selective
  | Full_dup -> Analysis.Lint.Full
  | Planned -> Analysis.Lint.Any
  (* Without the plan value the latch rule cannot be derived; callers that
     hold the plan lint with [Analysis.Lint.Plan] directly. *)
