(** Tests for the protection-plan optimizer stack (DESIGN.md §16): the
    plan type ({!Analysis.Plan}), the static predictor
    ({!Analysis.Predict}), the plan-driven pipeline
    ({!Transform.Pipeline.of_plan} via {!Softft.protect_plan}) and the
    Pareto search with injection validation ({!Softft.Optimize}). *)

module Plan = Analysis.Plan
module Predict = Analysis.Predict
module Optimize = Softft.Optimize

let cost = Optimize.cost_model ()
let workload name = Workloads.Registry.find name

(* Value profile + dynamic block weights of [w]'s original program — the
   same inputs `experiments optimize` feeds the search. *)
let search_inputs (w : Workloads.Workload.t) =
  let prog = w.build () in
  let vp = Workloads.Workload.profile ~prog w in
  let profile uid = Profiling.Value_profile.check_kind vp uid in
  let exec_counts =
    let prof = Interp.Profile.create () in
    let orig = Softft.protect w Softft.Original in
    let (_ : Faults.Campaign.golden) =
      Softft.golden ~profile:prof orig ~role:Workloads.Workload.Train
    in
    Interp.Profile.func_block_counts prof
  in
  (prog, profile, exec_counts)

(* A nontrivial plan touching every field: two chains, the first chain's
   Opt-2 terminator sites, one stand-alone check, a checkpoint interval. *)
let sample_plan (w : Workloads.Workload.t) =
  let prog, profile, _ = search_inputs w in
  let chains = Plan.candidate_chains prog in
  let sites = Plan.candidate_sites ~profile prog in
  let plan =
    match chains with
    | c0 :: c1 :: _ ->
      let p = Plan.add_chain (Plan.add_chain Plan.empty c0) c1 in
      let p =
        match List.assoc_opt c0 (Plan.chain_terminators ~profile prog) with
        | Some (t :: _) -> Plan.add_terminator p t
        | Some [] | None -> p
      in
      (match
         List.find_opt
           (fun (s : Plan.site) -> not (Plan.mem_terminator p s.Plan.vs_uid))
           sites
       with
       | Some s -> Plan.add_check p s
       | None -> p)
    | _ -> Alcotest.fail "expected at least two candidate chains"
  in
  Plan.normalize { plan with Plan.checkpoint = 500 }

(* ----- of_plan generalizes the fixed pipelines ----- *)

let test_all_chains_equals_dup_only () =
  List.iter
    (fun (w : Workloads.Workload.t) ->
      let name = w.Workloads.Workload.name in
      let prog = w.build () in
      let planned = Softft.protect_plan ~lint:true w (Plan.all_chains prog) in
      let fixed = Softft.protect ~lint:true w Softft.Dup_only in
      let ps = planned.Softft.static_stats
      and fs = fixed.Softft.static_stats in
      Alcotest.(check string)
        (name ^ ": same program as Dup_only")
        (Warehouse.Store.prog_digest fixed.Softft.prog)
        (Warehouse.Store.prog_digest planned.Softft.prog);
      Alcotest.(check int)
        (name ^ ": duplicated instrs match Dup_only")
        fs.Transform.Pipeline.duplicated_instrs
        ps.Transform.Pipeline.duplicated_instrs;
      Alcotest.(check int)
        (name ^ ": dup checks match Dup_only")
        fs.Transform.Pipeline.dup_checks ps.Transform.Pipeline.dup_checks;
      Alcotest.(check int)
        (name ^ ": state vars match Dup_only")
        fs.Transform.Pipeline.state_vars ps.Transform.Pipeline.state_vars)
    Workloads.Registry.all

(* The duplicating pipelines run as plans; their protected programs are
   pinned by digest, recorded when each pipeline still had a code path of
   its own.  Any change to the Opt-1/Opt-2 decisions, the chain rule or
   the passes shows up here as a digest mismatch. *)
let protect_configurations =
  [ ("dup", Softft.Dup_only, true, true);
    ("dupval", Softft.Dup_valchk, true, true);
    ("dupval-no-opt1", Softft.Dup_valchk, false, true);
    ("dupval-no-opt2", Softft.Dup_valchk, true, false);
    ("dupval-no-opt12", Softft.Dup_valchk, false, false);
    ("dupvalcfc", Softft.Dup_valchk_cfc, true, true) ]

let test_protect_digests_pinned () =
  let pinned =
    In_channel.with_open_text "fixtures/protect_digests.txt"
      In_channel.input_lines
  in
  let actual =
    List.concat_map
      (fun (w : Workloads.Workload.t) ->
        List.map
          (fun (config, technique, opt1, opt2) ->
            let p = Softft.protect ~opt1 ~opt2 w technique in
            Printf.sprintf "%s %s %s" w.Workloads.Workload.name config
              (Warehouse.Store.prog_digest p.Softft.prog))
          protect_configurations)
      Workloads.Registry.all
  in
  Alcotest.(check int) "78 configurations" 78 (List.length actual);
  Alcotest.(check (list string)) "protected programs unchanged" pinned actual

(* The paper's plan on every workload: all chains; terminators and
   stand-alone checks are candidate sites and never overlap; Opt-1 only
   removes checks; without Opt-2 there are no terminators. *)
let test_paper_plan_invariants () =
  List.iter
    (fun (w : Workloads.Workload.t) ->
      let name = w.Workloads.Workload.name in
      let prog = w.build () in
      let vp = Workloads.Workload.profile ~prog w in
      let profile uid = Profiling.Value_profile.check_kind vp uid in
      let uids = List.map (fun (s : Plan.site) -> s.Plan.vs_uid) in
      let candidates = uids (Plan.candidate_sites ~profile prog) in
      let subset what a b =
        Alcotest.(check bool) (Printf.sprintf "%s: %s" name what) true
          (List.for_all (fun u -> List.mem u b) a)
      in
      let paper = Plan.paper ~profile prog in
      let no_opt1 = Plan.paper ~opt1:false ~profile prog in
      let no_opt2 = Plan.paper ~opt2:false ~profile prog in
      Alcotest.(check bool) (name ^ ": every chain") true
        (paper.Plan.chains = Plan.candidate_chains prog);
      subset "terminators are candidates" (uids paper.Plan.terminators)
        candidates;
      subset "checks are candidates" (uids paper.Plan.checks) candidates;
      Alcotest.(check bool) (name ^ ": terminators and checks disjoint") true
        (List.for_all
           (fun u -> not (Plan.mem_terminator paper u))
           (uids paper.Plan.checks));
      subset "Opt-1 only removes checks" (uids paper.Plan.checks)
        (uids no_opt1.Plan.checks);
      Alcotest.(check int) (name ^ ": without Opt-2, no terminators") 0
        (List.length no_opt2.Plan.terminators);
      Alcotest.(check bool) (name ^ ": terminators are the chain walks'") true
        (paper.Plan.terminators
         = (Plan.chain_terminators ~profile prog
            |> List.concat_map snd
            |> fun terminators ->
            (Plan.normalize { Plan.empty with Plan.terminators }).Plan.terminators)))
    Workloads.Registry.all

(* Plans with check placements survive the plan-derived lint and the
   protected program still computes the right answer. *)
let test_planned_program_lints_and_runs () =
  let w = workload "kmeans" in
  let plan = sample_plan w in
  let p = Softft.protect_plan ~lint:true w plan in
  let orig = Softft.protect w Softft.Original in
  let g = Softft.golden p ~role:Workloads.Workload.Test in
  let g0 = Softft.golden orig ~role:Workloads.Workload.Test in
  Alcotest.(check bool) "output unchanged" true
    (g0.Faults.Campaign.output = g.Faults.Campaign.output);
  Alcotest.(check int) "no false positives" 0
    g.Faults.Campaign.false_positives

(* ----- predictor: SDC estimate is monotone in the chain set ----- *)

let test_sdc_monotone_in_chains () =
  List.iter
    (fun name ->
      let w = workload name in
      let prog, profile, exec_counts = search_inputs w in
      let chains = Plan.candidate_chains prog in
      let last = ref 1.0 in
      let (_ : Plan.t) =
        List.fold_left
          (fun acc c ->
            let acc = Plan.add_chain acc c in
            let est =
              Predict.estimate ~exec_counts ~profile ~cost prog acc
            in
            Alcotest.(check bool)
              (Printf.sprintf "%s: SDC non-increasing at %d chains (%.4f <= %.4f)"
                 name
                 (List.length acc.Plan.chains)
                 est.Predict.pe_sdc_fraction !last)
              true
              (est.Predict.pe_sdc_fraction <= !last +. 1e-12);
            last := est.Predict.pe_sdc_fraction;
            acc)
          Plan.empty chains
      in
      ())
    [ "kmeans"; "g721enc" ]

(* qcheck flavor: for a random subset S and random extra chains E,
   predicted SDC of S ∪ E never exceeds that of S. *)
let prop_sdc_monotone_random_subsets =
  let w = workload "kmeans" in
  let prog, profile, exec_counts = search_inputs w in
  let chains = Array.of_list (Plan.candidate_chains prog) in
  let n = Array.length chains in
  QCheck.Test.make ~name:"plan SDC monotone on random chain subsets"
    ~count:40
    QCheck.(pair (int_range 0 1_000_000) (int_range 0 1_000_000))
    (fun (seed_s, seed_e) ->
      let subset seed =
        let rng = Rng.create seed in
        Array.to_list chains
        |> List.filter (fun _ -> Int64.rem (Rng.bits rng) 2L = 0L)
      in
      let s = subset seed_s in
      let e = subset seed_e in
      let plan_of cs = Plan.normalize { Plan.empty with Plan.chains = cs } in
      let est cs =
        (Predict.estimate ~exec_counts ~profile ~cost prog (plan_of cs))
          .Predict.pe_sdc_fraction
      in
      n = 0 || est (s @ e) <= est s +. 1e-12)

(* ----- predictor agrees with the coverage analyzer's denominator ----- *)

let test_empty_plan_predicts_original () =
  let w = workload "kmeans" in
  let prog, profile, exec_counts = search_inputs w in
  let est = Predict.estimate ~exec_counts ~profile ~cost prog Plan.empty in
  Alcotest.(check (float 1e-9)) "empty plan: all exposure SDC-prone" 1.0
    est.Predict.pe_sdc_fraction;
  Alcotest.(check (float 1e-9)) "empty plan: no added cycles" 0.0
    est.Predict.pe_added_cycles

(* ----- manifest: distinct plans hash to distinct warehouse keys ----- *)

let test_plan_in_manifest_changes_run_key () =
  let w = workload "kmeans" in
  let prog = w.build () in
  let chains = Plan.candidate_chains prog in
  let manifest_for plan =
    Faults.Journal.manifest_record ~technique:"Planned"
      ~plan:(Plan.to_json plan) ~counts:[] ~label:"kmeans/plan/test"
      ~trials:0 ~seed:1
      ~domains:1 ~hw_window:Faults.Classify.default_hw_window
      ~fault_kind:"register_bit"
      ~golden:
        { Faults.Campaign.output = [||]; steps = 0; cycles = 0;
          false_positives = 0; failing_checks = [] }
      ()
  in
  let plan_a = Plan.normalize { Plan.empty with Plan.chains } in
  let plan_b =
    Plan.normalize
      { Plan.empty with Plan.chains = [ List.hd chains ] }
  in
  let key p = Warehouse.Store.run_key (manifest_for p) in
  Alcotest.(check bool) "same plan, same key" true
    (key plan_a = key plan_a);
  Alcotest.(check bool) "distinct plans, distinct keys" true
    (key plan_a <> key plan_b);
  (* The plan document reads back from a written manifest, which is how
     ingest rebuilds a plan run's program. *)
  let plan_c =
    Plan.normalize
      { plan_a with
        Plan.terminators = [ { Plan.vs_func = "main"; vs_uid = 7 } ];
        checks = [ { Plan.vs_func = "main"; vs_uid = 3 } ];
        checkpoint = 1000 }
  in
  let read_back p =
    Obs.Json.member "plan"
      (Obs.Json.parse (Obs.Json.to_string (manifest_for p)))
    |> Fun.flip Option.bind Plan.of_json
  in
  Alcotest.(check bool) "plan reads back from the manifest" true
    (read_back plan_a = Some plan_a && read_back plan_c = Some plan_c);
  Alcotest.(check bool) "not a plan document" true
    (Plan.of_json (Obs.Json.Obj []) = None)

(* ----- coverage ranking determinism (ISSUE 10 satellite) ----- *)

let test_ranked_regs_deterministic () =
  let w = workload "kmeans" in
  let analyze () =
    let p = Softft.protect w Softft.Dup_valchk in
    Analysis.Coverage.analyze p.Softft.prog
  in
  let a = Analysis.Coverage.ranked_regs (analyze ()) in
  let b = Analysis.Coverage.ranked_regs (analyze ()) in
  Alcotest.(check bool) "two analyses rank identically" true (a = b);
  Alcotest.(check string) "register CSV is bit-stable"
    (Softft.Report.coverage_reg_csv (analyze ()))
    (Softft.Report.coverage_reg_csv (analyze ()));
  (* The documented total order: unprotected class first, exposure
     descending, ties by (function, register) ascending. *)
  let unprot (r : Analysis.Coverage.reg_row) =
    match r.Analysis.Coverage.r_status with
    | Analysis.Coverage.Unprotected | Analysis.Coverage.Dup_unchecked -> 0
    | _ -> 1
  in
  let rec pairwise = function
    | x :: (y :: _ as rest) ->
      let ordered =
        unprot x < unprot y
        || (unprot x = unprot y
            && (x.Analysis.Coverage.r_exposure > y.Analysis.Coverage.r_exposure
               || (x.Analysis.Coverage.r_exposure
                   = y.Analysis.Coverage.r_exposure
                  && (x.Analysis.Coverage.r_func, x.Analysis.Coverage.r_reg)
                     < (y.Analysis.Coverage.r_func, y.Analysis.Coverage.r_reg)
                  )))
      in
      Alcotest.(check bool) "total order respected" true ordered;
      pairwise rest
    | _ -> ()
  in
  pairwise a

(* ----- Pareto search ----- *)

let run_search ?(budget = 0.15) name =
  let w = workload name in
  let prog, profile, exec_counts = search_inputs w in
  (w, Optimize.search ~beam:2 ~budget ~exec_counts ~profile prog)

let test_frontier_properties () =
  let _, fr = run_search "kmeans" in
  Alcotest.(check bool) "frontier non-empty" true (fr.Optimize.fr_points <> []);
  (* Overhead ascending, SDC strictly decreasing along the frontier. *)
  let rec sweep = function
    | a :: (b :: _ as rest) ->
      Alcotest.(check bool) "overhead ascending" true
        (Optimize.overhead a <= Optimize.overhead b);
      Alcotest.(check bool) "SDC strictly decreasing" true
        (Optimize.sdc b < Optimize.sdc a);
      sweep rest
    | _ -> ()
  in
  sweep fr.Optimize.fr_points;
  List.iter
    (fun p ->
      Alcotest.(check bool) "frontier within budget" true
        (Optimize.overhead p <= fr.Optimize.fr_budget))
    fr.Optimize.fr_points;
  (* Fixed pipelines sit on or below the frontier: none strictly
     dominates a frontier point. *)
  List.iter
    (fun fixed ->
      List.iter
        (fun p ->
          Alcotest.(check bool)
            (Printf.sprintf "%s does not dominate %s"
               fixed.Optimize.op_label p.Optimize.op_label)
            false
            (Optimize.strictly_dominates fixed p))
        fr.Optimize.fr_points)
    fr.Optimize.fr_fixed;
  (* ISSUE 10 acceptance: at 15%% budget the searched frontier strictly
     dominates at least one fixed pipeline. *)
  Alcotest.(check bool) "some fixed pipeline is dominated" true
    (fr.Optimize.fr_dominated_fixed <> [])

(* ----- static-vs-measured rank agreement on knee points (§11/§16) ----- *)

let test_rank_agreement name =
  let w, fr = run_search name in
  let knees = Optimize.knee_points ~n:2 fr.Optimize.fr_points in
  Alcotest.(check bool) "has knee points" true (knees <> []);
  let vals =
    Optimize.validate ~seed:7 ~ci:0.08 ~max_trials:1500 w knees
  in
  List.iter
    (fun (v : Optimize.validation) ->
      Alcotest.(check bool) "spent trials" true (v.Optimize.vl_trials > 0))
    vals;
  Alcotest.(check bool)
    (name ^ ": predicted vs measured SDC rank order concordant") true
    (Optimize.rank_order_agrees vals)

(* ----- staged predictor and pinned search output ----- *)

(* Every workload searched under the CLI defaults of `optimize --budget
   15`, once for the suite. *)
let searched =
  lazy
    (List.map
       (fun (w : Workloads.Workload.t) ->
         let prog, profile, exec_counts = search_inputs w in
         let fr =
           Optimize.search ~beam:4 ~budget:0.15 ~exec_counts ~profile prog
         in
         (w, (prog, profile, exec_counts), fr))
       Workloads.Registry.all)

(* One closure prices the frontier and fixed points forwards and then
   backwards; each estimate must equal a fresh full application, so no
   plan sees state another plan left behind. *)
let test_staged_predictor_stateless () =
  List.iter
    (fun ((w : Workloads.Workload.t), (prog, profile, exec_counts), fr) ->
      let name = w.Workloads.Workload.name in
      let price = Predict.estimate ~exec_counts ~profile ~cost prog in
      let plans =
        List.map
          (fun (p : Optimize.point) -> p.Optimize.op_plan)
          (fr.Optimize.fr_points @ fr.Optimize.fr_fixed)
      in
      List.iteri
        (fun i plan ->
          let fresh = Predict.estimate ~exec_counts ~profile ~cost prog plan in
          Alcotest.(check bool)
            (Printf.sprintf "%s: plan %d (%s) priced as fresh" name i
               (Plan.slug plan))
            true
            (price plan = fresh))
        (plans @ List.rev plans))
    (Lazy.force searched)

(* The predictor's clone and check counts are the transform's: every
   workload's all-chains and paper plans and every frontier and fixed
   point, priced statically and then applied to a fresh build. *)
let test_predictor_matches_transform () =
  List.iter
    (fun ((w : Workloads.Workload.t), (prog, profile, exec_counts), fr) ->
      let name = w.Workloads.Workload.name in
      let price = Predict.estimate ~exec_counts ~profile ~cost prog in
      let plans =
        Plan.all_chains prog :: Plan.paper ~profile prog
        :: List.map
             (fun (p : Optimize.point) -> p.Optimize.op_plan)
             (fr.Optimize.fr_points @ fr.Optimize.fr_fixed)
      in
      List.iter
        (fun plan ->
          let e = price plan in
          let s = Transform.Pipeline.of_plan ~profile (w.build ()) plan in
          let check what predicted applied =
            Alcotest.(check int)
              (Printf.sprintf "%s %s: %s" name (Plan.slug plan) what)
              applied predicted
          in
          check "cloned" (e.Predict.pe_cloned_instrs + e.Predict.pe_cloned_phis)
            s.Transform.Pipeline.duplicated_instrs;
          check "dup checks" e.Predict.pe_dup_checks
            s.Transform.Pipeline.dup_checks;
          check "value checks" e.Predict.pe_value_checks
            s.Transform.Pipeline.value_checks)
        plans)
    (Lazy.force searched)

(* Label, SDC and overhead (bit-exact, %h) and the clone and check counts
   of every frontier and fixed point, plus the plans explored. *)
let frontier_digest (fr : Optimize.frontier) =
  let b = Buffer.create 256 in
  Printf.bprintf b "explored %d\n" fr.Optimize.fr_explored;
  List.iter
    (fun (p : Optimize.point) ->
      let e = p.Optimize.op_est in
      Printf.bprintf b "%s %h %h %d %d %d %d\n" p.Optimize.op_label
        (Optimize.sdc p) (Optimize.overhead p) e.Predict.pe_cloned_instrs
        e.Predict.pe_cloned_phis e.Predict.pe_dup_checks
        e.Predict.pe_value_checks)
    (fr.Optimize.fr_points @ fr.Optimize.fr_fixed);
  Digest.to_hex (Digest.string (Buffer.contents b))

(* Pinned from the search before the predictor was staged; a deliberate
   change to the predictor or the search regenerates the fixture. *)
let test_frontier_digests_pinned () =
  let pinned =
    In_channel.with_open_text "fixtures/frontier_digests.txt"
      In_channel.input_lines
  in
  let actual =
    List.map
      (fun ((w : Workloads.Workload.t), _, fr) ->
        Printf.sprintf "%s %s" w.Workloads.Workload.name (frontier_digest fr))
      (Lazy.force searched)
  in
  Alcotest.(check (list string)) "search output unchanged" pinned actual

let test_rank_agreement_kmeans () = test_rank_agreement "kmeans"
let test_rank_agreement_jpegdec () = test_rank_agreement "jpegdec"

let tests =
  [ Alcotest.test_case "all-chains plan = Dup_only" `Quick
      test_all_chains_equals_dup_only;
    Alcotest.test_case "fixed pipelines: program digests pinned" `Quick
      test_protect_digests_pinned;
    Alcotest.test_case "paper plan: Opt-1/Opt-2 invariants" `Quick
      test_paper_plan_invariants;
    Alcotest.test_case "planned program lints and runs" `Quick
      test_planned_program_lints_and_runs;
    Alcotest.test_case "predicted SDC monotone in chains" `Quick
      test_sdc_monotone_in_chains;
    QCheck_alcotest.to_alcotest prop_sdc_monotone_random_subsets;
    Alcotest.test_case "empty plan predicts the original" `Quick
      test_empty_plan_predicts_original;
    Alcotest.test_case "plan in manifest changes run key" `Quick
      test_plan_in_manifest_changes_run_key;
    Alcotest.test_case "coverage ranking deterministic" `Quick
      test_ranked_regs_deterministic;
    Alcotest.test_case "Pareto frontier properties (kmeans)" `Quick
      test_frontier_properties;
    Alcotest.test_case "staged predictor carries no state" `Quick
      test_staged_predictor_stateless;
    Alcotest.test_case "search output: frontier digests pinned" `Quick
      test_frontier_digests_pinned;
    Alcotest.test_case "predictor counts match the transform" `Quick
      test_predictor_matches_transform;
    Alcotest.test_case "knee-point rank agreement (kmeans)" `Slow
      test_rank_agreement_kmeans;
    Alcotest.test_case "knee-point rank agreement (jpegdec)" `Slow
      test_rank_agreement_jpegdec ]
