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
}

let fraction ~of_ n =
  if of_ = 0 then 0.0 else float_of_int n /. float_of_int of_

let duplicated_fraction s = fraction ~of_:s.original_instrs s.duplicated_instrs
let value_check_fraction s = fraction ~of_:s.original_instrs s.value_checks

(* Membership in a site list, as a hash set: the passes test every
   instruction. *)
let uid_set uids =
  let t = Hashtbl.create 64 in
  List.iter (fun uid -> Hashtbl.replace t uid ()) uids;
  Hashtbl.mem t

(** Execute a protection plan on [prog] in place: duplicate exactly the
    planned producer chains (with planned terminators applied through the
    Opt-2 hook, restricted to their uids), then place the planned
    stand-alone value checks.  [profile] is required as soon as the plan
    names terminator or check sites.  The plan's checkpoint interval is a
    runtime knob: callers pass it to golden runs and campaigns themselves.
    With [lint] on, {!Analysis.Lint} runs after every stage with the
    plan-derived expectation ({!Analysis.Lint.Plan}). *)
let of_plan ?profile ?(lint = false) (prog : Prog.t) (plan : Analysis.Plan.t) =
  let plan = Analysis.Plan.normalize plan in
  let original_instrs = Prog.instr_count prog in
  let stage expect_plan =
    if lint then
      Analysis.Lint.run ~expect:(Analysis.Lint.Plan expect_plan) ?profile prog
  in
  (* The profile restricted to planned sites; [None] for no sites. *)
  let profile_at = function
    | [] -> None
    | sites -> (
      match profile with
      | None ->
        invalid_arg
          "Pipeline.of_plan: plan places value checks but no profile was given"
      | Some p ->
        let mem =
          uid_set (List.map (fun (s : Analysis.Plan.site) -> s.Analysis.Plan.vs_uid) sites)
        in
        Some (fun uid -> if mem uid then p uid else None))
  in
  let term_profile = profile_at plan.Analysis.Plan.terminators in
  let check_profile = profile_at plan.Analysis.Plan.checks in
  let chain_set =
    uid_set
      (List.map
         (fun (c : Analysis.Plan.chain) -> c.Analysis.Plan.ch_phi_uid)
         plan.Analysis.Plan.chains)
  in
  let select (phi : Instr.phi) = chain_set phi.Instr.phi_uid in
  let d, opt2_checked = Duplicate.run ?profile:term_profile ~select prog in
  (* Stand-alone checks are not placed yet, so stage 1 lints against the
     plan with its check list emptied. *)
  stage { plan with Analysis.Plan.checks = [] };
  let inserted =
    match check_profile with
    | None -> 0
    | Some p ->
      (* A site Opt-2 already checked keeps its one check. *)
      Value_checks.run prog ~profile:(fun uid ->
        if Hashtbl.mem opt2_checked uid then None else p uid)
  in
  stage plan;
  Verifier.verify prog;
  { technique = Planned; original_instrs; state_vars = d.state_vars;
    duplicated_instrs = d.cloned_instrs + d.cloned_phis;
    dup_checks = d.dup_checks;
    value_checks = inserted + d.opt2_value_checks }

(** Apply [technique] to [prog] in place.  [profile] supplies the
    expected-value check shapes (required by [Dup_valchk] and
    [Dup_valchk_cfc]).  The duplicating techniques run as plans through
    {!of_plan}: [Dup_only] is {!Analysis.Plan.all_chains}, and the paper's
    scheme is {!Analysis.Plan.paper}, where [opt1] and [opt2] toggle the
    two interaction optimizations (both on by default; exposed for the
    ablation study).  The transformed program is re-verified before
    returning; with [lint] on, the transform-invariant lint
    ({!Analysis.Lint}) additionally runs after every stage, with the
    duplication discipline the stage just established and the value
    profile wired into its check-shape rule. *)
let protect ?profile ?(opt1 = true) ?(opt2 = true) ?(lint = false)
    (prog : Prog.t) technique =
  let original_instrs = Prog.instr_count prog in
  let stage expect =
    if lint then Analysis.Lint.run ~expect ?profile prog
  in
  (* Counts the source program's state variables before [pass] runs: a
     pass's own shadow phis are not state variables of the workload. *)
  let unplanned ~expect pass =
    let state_vars = List.length (Analysis.Plan.candidate_chains prog) in
    let duplicated_instrs, dup_checks, value_checks = pass () in
    stage expect;
    { technique; original_instrs; state_vars; duplicated_instrs; dup_checks;
      value_checks }
  in
  let stats =
    match technique with
    | Original -> unplanned ~expect:Analysis.Lint.Any (fun () -> (0, 0, 0))
    | Dup_only | Dup_valchk | Dup_valchk_cfc ->
      let plan =
        match (technique, profile) with
        | Dup_only, _ -> Analysis.Plan.all_chains prog
        | _, Some profile -> Analysis.Plan.paper ~opt1 ~opt2 ~profile prog
        | Dup_valchk, None ->
          invalid_arg "Pipeline.protect: Dup_valchk requires a value profile"
        | _, None ->
          invalid_arg "Pipeline.protect: Dup_valchk_cfc requires a value profile"
      in
      let s = { (of_plan ?profile ~lint prog plan) with technique } in
      if technique <> Dup_valchk_cfc then s
      else begin
        let c = Cfc.run prog in
        stage Analysis.Lint.Selective;
        { s with value_checks = s.value_checks + c.signature_checks }
      end
    | Full_dup ->
      unplanned ~expect:Analysis.Lint.Full (fun () ->
        let f = Full_dup.run prog in
        (f.cloned_instrs + f.cloned_phis, f.dup_checks, 0))
    | Cfc_only ->
      unplanned ~expect:Analysis.Lint.Any (fun () ->
        let c = Cfc.run prog in
        (0, 0, c.signature_checks))
    | Planned ->
      invalid_arg "Pipeline.protect: Planned is built by Pipeline.of_plan"
  in
  Verifier.verify prog;
  stats
