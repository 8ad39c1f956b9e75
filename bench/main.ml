(** Benchmark and reproduction harness.

    Two halves:
    - Bechamel micro-benchmarks, one per paper table/figure, timing the
      computational core that experiment exercises (transform passes,
      golden runs, injection trials, classification);
    - the reproduction harness proper, which re-runs the paper's
      experiments and prints every table and figure (see DESIGN.md §4).

    Campaign speed is measured by the performance ledger
    ([python3 ledger/run.py ledger]), not here.

    Usage:
      bench/main.exe                 micro-benchmarks + all tables (default trials)
      bench/main.exe all             all tables only
      bench/main.exe fig2|fig10|fig11|fig12|fig13|table1|table2|crossval|falsepos
      bench/main.exe micro           micro-benchmarks only
      bench/main.exe adaptive        adaptive vs. uniform trial counts
                                     (merged into BENCH_campaign.json)
      bench/main.exe optimize        plan optimizer, predicted vs. measured
                                     (merged into BENCH_campaign.json)
      bench/main.exe taint           campaign throughput, tracing off vs. on
                                     (verifies outcomes are bit-identical)
      options: --trials N  --seed N  --benchmarks a,b,c  --domains N  --quick *)

let default_trials = ref 120
let seed = ref 0xC0FFEE
let selected_benchmarks : string list option ref = ref None
let domains = ref (Faults.Pool.recommended_domains ())

(* BENCH_campaign.json holds one section per bench, each under its own
   key: replace [key]'s section and keep every other one. *)
let merge_section key json =
  let path = "BENCH_campaign.json" in
  let base =
    match
      Obs.Json.parse (In_channel.with_open_text path In_channel.input_all)
    with
    | Obs.Json.Obj fields -> List.filter (fun (k, _) -> k <> key) fields
    | _ | (exception (Obs.Json.Parse_error _ | Sys_error _)) -> []
  in
  Out_channel.with_open_text path (fun oc ->
    output_string oc
      (Obs.Json.to_string (Obs.Json.Obj (base @ [ (key, json) ])));
    output_char oc '\n');
  Printf.printf "\nwrote %s (%s section)\n" path key

let log =
  lazy (Obs.Log.make ~sinks:[ Obs.Log.stderr_sink () ] "bench")

let workloads () =
  match !selected_benchmarks with
  | None -> Workloads.Registry.all
  | Some names -> List.map Workloads.Registry.find names

(* ----- Bechamel micro-benchmarks ----- *)

let stage = Bechamel.Staged.stage

let micro_tests () =
  let open Bechamel in
  let w = Workloads.Registry.find "g721enc" in
  let original = Softft.protect w Softft.Original in
  let protected_ = Softft.protect w Softft.Dup_valchk in
  let golden = Softft.golden protected_ ~role:Workloads.Workload.Test in
  let disabled = Hashtbl.create 4 in
  [ (* Figure 2 / 11 / 13 all stand on single-trial fault injections. *)
    Test.make ~name:"fig2_injection_trial_original"
      (stage (fun () ->
         Faults.Campaign.run_trial
           (Softft.subject original ~role:Workloads.Workload.Test)
           ~golden ~disabled ~hw_window:1000 ~seed:42));
    Test.make ~name:"fig11_injection_trial_protected"
      (stage (fun () ->
         Faults.Campaign.run_trial
           (Softft.subject protected_ ~role:Workloads.Workload.Test)
           ~golden ~disabled ~hw_window:1000 ~seed:42));
    Test.make ~name:"fig13_outcome_classification"
      (stage (fun () ->
         Faults.Classify.classify ~hw_window:1000
           ~result:
             { Interp.Machine.stop = Interp.Machine.Finished None; steps = 100;
               cycles = 100; valchk_failures = 0; failed_check_uids = [];
               injection = None; recovered = None; rollback_denied = false;
               checkpoints = 0; taint = None; rejoined_at = None }
           ~identical:(fun () -> false)
           ~acceptable:(fun () -> true)));
    (* Figure 10: the static transformation itself. *)
    Test.make ~name:"fig10_protect_dup_valchk"
      (stage (fun () -> Softft.protect w Softft.Dup_valchk));
    (* Figure 12: simulated execution (the overhead measurement primitive). *)
    Test.make ~name:"fig12_golden_run_protected"
      (stage (fun () -> Softft.golden protected_ ~role:Workloads.Workload.Test));
    (* Table I: building a workload program. *)
    Test.make ~name:"table1_build_workload" (stage (fun () -> w.build ()));
    (* Table II: the simulated machine itself, amortized over a full run. *)
    Test.make ~name:"table2_interpreter_run"
      (stage (fun () -> Softft.golden original ~role:Workloads.Workload.Test));
    (* The offline profiling step feeding the Figure 6 check shapes. *)
    Test.make ~name:"value_profiling_run"
      (stage (fun () -> Workloads.Workload.profile w));
  ]

let run_micro () =
  let open Bechamel in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let instances = Toolkit.Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:200 ~quota:(Time.second 0.25) ~kde:(Some 100) ()
  in
  let tests = Test.make_grouped ~name:"softft" ~fmt:"%s/%s" (micro_tests ()) in
  let raw = Benchmark.all cfg instances tests in
  let results = Analyze.all ols Bechamel.Toolkit.Instance.monotonic_clock raw in
  Printf.printf "\n== Micro-benchmarks (one per paper table/figure) ==\n";
  Printf.printf "%-50s %15s\n" "benchmark" "time/run";
  Printf.printf "%s\n" (String.make 66 '-');
  let rows = ref [] in
  Hashtbl.iter (fun name r -> rows := (name, r) :: !rows) results;
  List.iter
    (fun (name, ols_result) ->
      match Analyze.OLS.estimates ols_result with
      | Some [ est ] ->
        let pretty =
          if est > 1e9 then Printf.sprintf "%.2f s" (est /. 1e9)
          else if est > 1e6 then Printf.sprintf "%.2f ms" (est /. 1e6)
          else if est > 1e3 then Printf.sprintf "%.2f us" (est /. 1e3)
          else Printf.sprintf "%.0f ns" est
        in
        Printf.printf "%-50s %15s\n" name pretty
      | Some _ | None -> Printf.printf "%-50s %15s\n" name "n/a")
    (List.sort compare !rows)

(* ----- Reproduction harness ----- *)

let evaluated = ref None

let results () =
  match !evaluated with
  | Some r -> r
  | None ->
    let r =
      Softft.Experiments.evaluate ~trials:!default_trials ~seed:!seed
        ~log:(Lazy.force log) ~domains:!domains (workloads ())
    in
    evaluated := Some r;
    r

let print_all () =
  Softft.Experiments.print_table1 ();
  Softft.Experiments.print_table2 ();
  let r = results () in
  Softft.Experiments.print_fig2 r;
  Softft.Experiments.print_fig10 r;
  Softft.Experiments.print_fig11 r;
  Softft.Experiments.print_fig12 r;
  Softft.Experiments.print_fig13 r;
  Softft.Experiments.print_falsepos r;
  Softft.Experiments.print_headline r;
  Printf.printf
    "\n(95%% confidence margin of error at %d trials/config: +-%.1f points)\n"
    !default_trials
    (100.0
     *. Softft.margin_of_error ~trials:!default_trials ~proportion:0.5)

let run_crossval () =
  let rows =
    Softft.Experiments.crossval ~trials:!default_trials ~seed:!seed
      ~domains:!domains ()
  in
  Softft.Experiments.print_crossval rows

(* ----- Adaptive-campaign bench: trials to a target SDC half-width -----

   Per workload, one adaptive stratified campaign (DESIGN.md §14) against
   the dup+valchk variant: how many trials it needed, versus the
   fixed-size uniform design guaranteeing the same target (the savings
   headline) and the oracle sequential-uniform lower bound — plus a
   serial-vs-parallel bit-identity check.  Results merge into
   BENCH_campaign.json under an "adaptive" key. *)
let run_adaptive_bench () =
  (* --quick keeps CI minutes-scale: a looser target converges in a few
     pilot rounds while still exercising every scheduler phase. *)
  let ci = if !default_trials <= 40 then 0.05 else 0.01 in
  let dom = max 2 !domains in
  let names =
    match !selected_benchmarks with
    | Some names -> names
    | None -> [ "kmeans"; "jpegdec" ]
  in
  Printf.printf
    "\n== Adaptive stratified campaigns (target SDC half-width %.3f) ==\n"
    ci;
  Printf.printf "%-12s %7s %8s %8s %8s %7s %6s\n" "workload" "strata"
    "trials" "planned" "oracle" "saved" "same?";
  Printf.printf "%s\n" (String.make 64 '-');
  let rows =
    List.map
      (fun name ->
        let w = Workloads.Registry.find name in
        let p = Softft.protect w Softft.Dup_valchk in
        let cov = Analysis.Coverage.analyze p.Softft.prog in
        let groups = Analysis.Strata.reg_groups p.Softft.prog cov in
        let priors = Analysis.Strata.priors cov in
        let subject = Softft.subject p ~role:Workloads.Workload.Test in
        let run d =
          let t0 = Unix.gettimeofday () in
          let _, trial_list, ad =
            Faults.Campaign.run_adaptive ~seed:!seed ~domains:d ~groups
              ~group_names:Analysis.Strata.group_names ~priors ~ci subject
          in
          (Unix.gettimeofday () -. t0, trial_list, ad)
        in
        let wall, trials1, ad = run 1 in
        let _, trials_n, _ = run dom in
        let same = Faults.Campaign.trials_equal trials1 trials_n in
        let saved =
          float_of_int ad.Faults.Campaign.ad_equiv_uniform
          /. float_of_int (max 1 ad.ad_trials)
        in
        Printf.printf "%-12s %7d %8d %8d %8d %6.1fx %6s\n" w.name
          (Array.length ad.ad_strata)
          ad.ad_trials ad.ad_equiv_uniform ad.ad_oracle_uniform saved
          (if same then "yes" else "NO");
        (w.name, wall, ad, same))
      names
  in
  let adaptive_json =
    Obs.Json.Obj
      [ ("ci_target", Obs.Json.Float ci);
        ("seed", Obs.Json.Int !seed);
        ("technique", Obs.Json.Str "dup_valchk");
        ("workloads",
         Obs.Json.List
           (List.map
              (fun (name, wall, (ad : Faults.Campaign.adaptive), same) ->
                Obs.Json.Obj
                  [ ("name", Obs.Json.Str name);
                    ("strata", Obs.Json.Int (Array.length ad.ad_strata));
                    ("trials", Obs.Json.Int ad.ad_trials);
                    ("planned_uniform_trials",
                     Obs.Json.Int ad.ad_equiv_uniform);
                    ("oracle_uniform_trials",
                     Obs.Json.Int ad.ad_oracle_uniform);
                    ("trials_saved_factor",
                     Obs.Json.Float
                       (float_of_int ad.ad_equiv_uniform
                        /. float_of_int (max 1 ad.ad_trials)));
                    ("sdc", Obs.Stats.to_json ad.ad_sdc);
                    ("wall_sec", Obs.Json.Float wall);
                    ("bit_identical", Obs.Json.Bool same) ])
              rows)) ]
  in
  merge_section "adaptive" adaptive_json

(* ----- Plan-optimizer bench: predicted vs measured at the knee -----

   Per workload, one Pareto search over the protection-plan space
   (DESIGN.md §16) under a 15% overhead budget, then adaptive validation
   of the frontier's knee points — the static predictor's SDC ranking
   against the measured stratified estimates, the §11 cross-check run at
   bench cadence.  Results merge into BENCH_campaign.json under an
   "optimize" key, next to the adaptive section. *)
let run_optimize_bench () =
  let ci = if !default_trials <= 40 then 0.08 else 0.05 in
  let budget = 0.15 in
  let names =
    match !selected_benchmarks with
    | Some names -> names
    | None -> [ "kmeans"; "jpegdec" ]
  in
  Printf.printf
    "\n== Plan optimizer: predicted vs measured at the knee (budget \
     %.0f%%, half-width %.2f) ==\n"
    (100.0 *. budget) ci;
  Printf.printf "%-10s %-24s %9s %9s %9s %9s %7s\n" "workload" "plan"
    "pred.SDC" "meas.SDC" "pred.ovh" "meas.ovh" "trials";
  Printf.printf "%s\n" (String.make 82 '-');
  let rows =
    List.map
      (fun name ->
        let w = Workloads.Registry.find name in
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
        let fr =
          Softft.Optimize.search ~beam:2 ~budget ~exec_counts ~profile prog
        in
        let knees = Softft.Optimize.knee_points ~n:2 fr.fr_points in
        let vals =
          Softft.Optimize.validate ~seed:!seed ~domains:!domains ~ci w knees
        in
        List.iter
          (fun (v : Softft.Optimize.validation) ->
            Printf.printf "%-10s %-24s %9.4f %9.4f %8.1f%% %8.1f%% %7d\n"
              w.name v.vl_point.op_label
              (Softft.Optimize.sdc v.vl_point)
              v.vl_measured_sdc.Obs.Stats.ci_estimate
              (100.0 *. Softft.Optimize.overhead v.vl_point)
              (100.0 *. v.vl_measured_overhead)
              v.vl_trials)
          vals;
        let concordant = Softft.Optimize.rank_order_agrees vals in
        Printf.printf "%-10s rank order %s, %d plans explored, %d \
                       dominated fixed pipeline(s)\n"
          w.name
          (if concordant then "concordant" else "DISCORDANT")
          fr.Softft.Optimize.fr_explored
          (List.length fr.Softft.Optimize.fr_dominated_fixed);
        (name, fr, vals, concordant))
      names
  in
  let optimize_json =
    Obs.Json.Obj
      [ ("budget", Obs.Json.Float budget);
        ("ci_target", Obs.Json.Float ci);
        ("seed", Obs.Json.Int !seed);
        ("workloads",
         Obs.Json.List
           (List.map
              (fun (name, (fr : Softft.Optimize.frontier), vals, concordant) ->
                Obs.Json.Obj
                  [ ("name", Obs.Json.Str name);
                    ("explored", Obs.Json.Int fr.fr_explored);
                    ("frontier_size",
                     Obs.Json.Int (List.length fr.fr_points));
                    ("dominated_fixed",
                     Obs.Json.List
                       (List.map
                          (fun (f, by) ->
                            Obs.Json.Obj
                              [ ("fixed", Obs.Json.Str f);
                                ("by", Obs.Json.Str by) ])
                          fr.fr_dominated_fixed));
                    ("rank_order_concordant", Obs.Json.Bool concordant);
                    ("knees",
                     Obs.Json.List
                       (List.map Softft.Optimize.validation_json vals)) ])
              rows)) ]
  in
  merge_section "optimize" optimize_json

(* Tracing-overhead bench: the same campaign with the propagation tracer
   off and on.  Verifies the observation-only contract (identical outcomes,
   steps and cycles) and reports what the shadow state costs — the tracer
   is opt-in, so this cost is paid only by `--taint` campaigns, but it
   should still stay within a small factor. *)
let run_taint_bench () =
  let trials = !default_trials in
  let dom = !domains in
  Printf.printf
    "\n== Propagation-tracing overhead (%d trials/campaign, %d domains) ==\n"
    trials dom;
  Printf.printf "%-12s %14s %14s %9s %6s\n" "workload" "plain tr/s"
    "traced tr/s" "slowdown" "same?";
  Printf.printf "%s\n" (String.make 60 '-');
  List.iter
    (fun name ->
      let w = Workloads.Registry.find name in
      let p = Softft.protect w Softft.Dup_valchk in
      let subject = Softft.subject p ~role:Workloads.Workload.Test in
      ignore (Faults.Campaign.golden_run subject);
      let timed taint_trace =
        let t0 = Unix.gettimeofday () in
        let summary, trial_list =
          Faults.Campaign.run ~seed:!seed ~domains:dom ~taint_trace subject
            ~trials
        in
        (Unix.gettimeofday () -. t0, summary, trial_list)
      in
      let plain_sec, plain_summary, plain_trials = timed false in
      let traced_sec, traced_summary, traced_trials = timed true in
      (* The traced trials differ exactly in their [taint] field; compare
         everything else bit-exactly. *)
      let strip (t : Faults.Campaign.trial) =
        { t with Faults.Campaign.taint = None }
      in
      let identical =
        plain_summary.Faults.Campaign.counts
          = traced_summary.Faults.Campaign.counts
        && Faults.Campaign.trials_equal plain_trials
             (List.map strip traced_trials)
        && List.for_all
             (fun (t : Faults.Campaign.trial) -> t.taint <> None)
             traced_trials
      in
      let per_sec sec = float_of_int trials /. max 1e-9 sec in
      Printf.printf "%-12s %14.1f %14.1f %8.2fx %6s\n" w.name
        (per_sec plain_sec) (per_sec traced_sec)
        (traced_sec /. max 1e-9 plain_sec)
        (if identical then "yes" else "NO"))
    (match !selected_benchmarks with
     | Some names -> names
     | None -> [ "jpegdec"; "kmeans" ])

let () =
  let commands = ref [] in
  let rec parse = function
    | [] -> ()
    | "--trials" :: n :: rest ->
      default_trials := int_of_string n;
      parse rest
    | "--seed" :: n :: rest ->
      seed := int_of_string n;
      parse rest
    | "--benchmarks" :: names :: rest ->
      selected_benchmarks := Some (String.split_on_char ',' names);
      parse rest
    | "--domains" :: n :: rest ->
      (domains :=
         match String.lowercase_ascii n with
         | "auto" -> Faults.Pool.recommended_domains ()
         | n -> max 1 (int_of_string n));
      parse rest
    | "--quick" :: rest ->
      default_trials := 40;
      selected_benchmarks := Some [ "jpegdec"; "g721enc"; "kmeans" ];
      parse rest
    | cmd :: rest ->
      commands := cmd :: !commands;
      parse rest
  in
  parse (List.tl (Array.to_list Sys.argv));
  let run_command = function
    | "micro" -> run_micro ()
    | "all" -> print_all ()
    | "table1" -> Softft.Experiments.print_table1 ()
    | "table2" -> Softft.Experiments.print_table2 ()
    | "fig2" -> Softft.Experiments.print_fig2 (results ())
    | "fig10" -> Softft.Experiments.print_fig10 (results ())
    | "fig11" -> Softft.Experiments.print_fig11 (results ())
    | "fig12" -> Softft.Experiments.print_fig12 (results ())
    | "fig13" -> Softft.Experiments.print_fig13 (results ())
    | "falsepos" -> Softft.Experiments.print_falsepos (results ())
    | "headline" -> Softft.Experiments.print_headline (results ())
    | "crossval" -> run_crossval ()
    | "adaptive" -> run_adaptive_bench ()
    | "optimize" -> run_optimize_bench ()
    | "taint" -> run_taint_bench ()
    | "ablation" ->
      List.iter
        (fun name ->
          let w = Workloads.Registry.find name in
          let rows =
            Softft.Experiments.ablation ~trials:!default_trials ~seed:!seed
              ~domains:!domains w
          in
          Softft.Experiments.print_ablation w rows)
        (match !selected_benchmarks with
         | Some names -> names
         | None -> [ "jpegdec"; "g721enc" ])
    | "sources" ->
      let rows =
        Softft.Experiments.detection_sources ~trials:!default_trials
          ~seed:!seed ~domains:!domains (workloads ())
      in
      Softft.Experiments.print_detection_sources rows
    | "csv" ->
      print_string (Softft.Experiments.to_csv (results ()))
    | "branchfault" ->
      let rows =
        Softft.Experiments.branch_faults ~trials:!default_trials ~seed:!seed
          ~domains:!domains
          (match !selected_benchmarks with
           | Some names -> List.map Workloads.Registry.find names
           | None ->
             List.map Workloads.Registry.find [ "jpegdec"; "g721enc"; "kmeans" ])
      in
      Softft.Experiments.print_branch_faults rows
    | "latency" ->
      let rows =
        Softft.Experiments.latency ~trials:!default_trials ~seed:!seed
          ~domains:!domains (workloads ())
      in
      Softft.Experiments.print_latency rows
    | "recovery" ->
      (* Checkpoint-interval sweep: fault-free overhead vs. the fraction of
         software detections that become transparent recoveries. *)
      List.iter
        (fun name ->
          let w = Workloads.Registry.find name in
          let rows =
            Softft.Experiments.recovery ~trials:!default_trials ~seed:!seed
              ~domains:!domains w
          in
          Softft.Experiments.print_recovery w rows)
        (match !selected_benchmarks with
         | Some names -> names
         | None -> [ "jpegdec"; "kmeans" ])
    | cmd ->
      Printf.eprintf
        "unknown command %S (try: micro all fig2 fig10 fig11 fig12 fig13 \
         table1 table2 falsepos headline crossval adaptive optimize taint \
         ablation latency recovery branchfault sources csv)\n"
        cmd;
      exit 1
  in
  let run_extras () =
    (* The studies beyond the paper's own tables, at reduced scope so the
       default invocation stays minutes-scale. *)
    let subset names = List.map Workloads.Registry.find names in
    List.iter
      (fun name ->
        let w = Workloads.Registry.find name in
        Softft.Experiments.print_ablation w
          (Softft.Experiments.ablation ~trials:!default_trials ~seed:!seed
             ~domains:!domains w))
      [ "jpegdec"; "g721enc" ];
    Softft.Experiments.print_detection_sources
      (Softft.Experiments.detection_sources ~trials:!default_trials
         ~seed:!seed ~domains:!domains
         (subset [ "jpegdec"; "g721enc"; "kmeans" ]));
    Softft.Experiments.print_latency
      (Softft.Experiments.latency ~trials:!default_trials ~seed:!seed
         ~domains:!domains (subset [ "jpegdec"; "g721enc"; "kmeans" ]));
    Softft.Experiments.print_branch_faults
      (Softft.Experiments.branch_faults ~trials:!default_trials ~seed:!seed
         ~domains:!domains (subset [ "jpegdec"; "g721enc"; "kmeans" ]));
    run_crossval ()
  in
  match List.rev !commands with
  | [] ->
    run_micro ();
    print_all ();
    run_extras ()
  | [ "extras" ] -> run_extras ()
  | cmds -> List.iter run_command cmds
