(** Command-line front end of the reproduction: every table and figure
    of the paper's evaluation at paper scale ([all]: 1000 trials per
    benchmark and technique, §IV-C), the studies beyond them ([study]),
    single campaigns, and the journal, warehouse, coverage and optimizer
    tools built on them. *)

open Cmdliner

(* Bad names and counts are command-line errors: Cmdliner exits 124 and
   lists the valid values, instead of the run failing part-way. *)
let int_at_least lo what =
  let parse s =
    match Arg.conv_parser Arg.int s with
    | Ok n when n < lo ->
      Error (`Msg (Printf.sprintf "invalid value '%d', expected a %s integer" n what))
    | r -> r
  in
  Arg.conv (parse, Format.pp_print_int)

let non_negative_int = int_at_least 0 "non-negative"
let positive_int = int_at_least 1 "positive"

(* A percentage: nan, infinities and negatives are refused. *)
let non_negative_float =
  let parse s =
    match Arg.conv_parser Arg.float s with
    | Ok x when not (Float.is_finite x && x >= 0.0) ->
      Error (`Msg (Printf.sprintf "invalid value '%s', expected a finite non-negative number" s))
    | r -> r
  in
  Arg.conv (parse, Format.pp_print_float)

let workload_conv =
  let names = Arg.enum (List.map (fun n -> (n, n)) Workloads.Registry.names) in
  Arg.conv
    ( (fun s -> Result.map Workloads.Registry.find (Arg.conv_parser names s)),
      fun ppf (w : Workloads.Workload.t) -> Format.pp_print_string ppf w.name )

(* Technique names are case-insensitive, with the long aliases. *)
let technique_conv =
  let names =
    Arg.enum
      [ ("original", Softft.Original); ("dup", Softft.Dup_only);
        ("dup_only", Softft.Dup_only); ("dupval", Softft.Dup_valchk);
        ("dup_valchk", Softft.Dup_valchk); ("full", Softft.Full_dup);
        ("full_dup", Softft.Full_dup); ("cfc", Softft.Cfc_only);
        ("dupvalcfc", Softft.Dup_valchk_cfc) ]
  in
  Arg.conv
    ( (fun s -> Arg.conv_parser names (String.lowercase_ascii s)),
      Arg.conv_printer names )

let trials_arg =
  let doc = "Fault-injection trials per (benchmark, technique)." in
  Arg.(value & opt non_negative_int 1000 & info [ "trials"; "t" ] ~docv:"N" ~doc)

let seed_arg =
  let doc = "Master random seed (campaigns are deterministic per seed)." in
  Arg.(value & opt int 0xC0FFEE & info [ "seed" ] ~docv:"SEED" ~doc)

let benchmarks_arg =
  let doc =
    "Comma-separated benchmark subset (default: all 13; for `study', the \
     study's own subset)."
  in
  Arg.(
    value
    & opt (some (list workload_conv)) None
    & info [ "benchmarks"; "b" ] ~docv:"NAMES" ~doc)

(* [--domains] accepts a positive integer or the word "auto"; "auto"
   resolves to {!Faults.Pool.recommended_domains} at parse time, so every
   downstream consumer (campaigns, run_stats, journal manifests) sees the
   resolved count, never the sentinel. *)
let domains_conv =
  let parse s =
    match String.lowercase_ascii (String.trim s) with
    | "auto" -> Ok (Faults.Pool.recommended_domains ())
    | s ->
      (match int_of_string_opt s with
       | Some n when n >= 1 -> Ok n
       | Some _ -> Error (`Msg "DOMAINS must be a positive integer or \"auto\"")
       | None ->
         Error
           (`Msg
              (Printf.sprintf
                 "invalid domain count %S (expected an integer or \"auto\")" s)))
  in
  Cmdliner.Arg.conv (parse, Format.pp_print_int)

let domains_arg =
  let doc =
    "Worker domains per campaign: a positive integer, or $(b,auto) for the \
     recommended domain count of this machine (the default; 1 = serial).  \
     Results are bit-identical for any value."
  in
  Arg.(
    value
    & opt domains_conv (Faults.Pool.recommended_domains ())
    & info [ "domains"; "j" ] ~docv:"N" ~doc)

let quiet_arg =
  let doc = "Only log warnings and errors." in
  Arg.(value & flag & info [ "quiet"; "q" ] ~doc)

let log_json_arg =
  let doc = "Also append structured log events to $(docv) as JSON lines." in
  Arg.(value & opt (some string) None & info [ "log-json" ] ~docv:"FILE" ~doc)

let resolve_benchmarks = Option.value ~default:Workloads.Registry.all

(** Structured logger for the process: pretty events on stderr (warnings
    only under [--quiet]), plus an optional JSONL sink. *)
let logger_of quiet log_json =
  let level = if quiet then Obs.Log.Warn else Obs.Log.Info in
  let log = Obs.Log.make ~level ~sinks:[ Obs.Log.stderr_sink () ] "experiments" in
  (match log_json with
   | Some path ->
     let oc = open_out path in
     at_exit (fun () -> close_out_noerr oc);
     Obs.Log.add_sink log (Obs.Log.jsonl_sink oc)
   | None -> ());
  log

let write_file path contents =
  Faults.Journal.replace_file ~path (fun oc -> output_string oc contents);
  Printf.printf "written: %s\n" path

(* Load a journal, or name the file and exit 1: a journal with broken
   lines or no manifest is an error the caller must see, never an empty
   report. *)
let load_journal ~cmd path =
  match Faults.Journal.load path with
  | loaded -> loaded
  | exception Faults.Journal.Malformed msg ->
    prerr_endline
      (Printf.sprintf "experiments %s: %s is not a campaign journal (%s)" cmd
         path msg);
    exit 1
  | exception Sys_error msg ->
    prerr_endline (Printf.sprintf "experiments %s: %s" cmd msg);
    exit 1

(* Run a warehouse operation, or name the index line it cannot read and
   exit 1: the store raises [Failure "PATH:LINE: ..."] on a corrupt
   index. *)
let with_index ~cmd f =
  match f () with
  | v -> v
  | exception Failure msg ->
    prerr_endline (Printf.sprintf "experiments %s: %s" cmd msg);
    exit 1

(* File a finished run into the warehouse at [dir] and log whether it was
   new or already filed. *)
let file_run log ~dir (p : Softft.protected) ~manifest results =
  let verdict, (entry : Warehouse.Store.entry) =
    match
      with_index ~cmd:"warehouse" (fun () ->
        Warehouse.Store.file_run
          ~prog_digest:(Warehouse.Store.prog_digest p.Softft.prog) ~dir
          ~manifest ~trials:results ())
    with
    | `Ingested e -> ("filed", e)
    | `Duplicate e -> ("already filed (duplicate)", e)
  in
  Obs.Log.info log
    ~fields:
      [ ("dir", Obs.Json.Str dir);
        ("key", Obs.Json.Str entry.Warehouse.Store.e_key) ]
    ("warehouse: run " ^ verdict)

let run_all trials seed benchmarks domains quiet log_json csv =
  let log = logger_of quiet log_json in
  let workloads = resolve_benchmarks benchmarks in
  let results =
    Softft.Experiments.evaluate ~trials ~seed ~log ~domains workloads
  in
  Softft.Experiments.print_table1 ();
  Softft.Experiments.print_table2 ();
  Softft.Experiments.print_fig2 results;
  Softft.Experiments.print_fig10 results;
  Softft.Experiments.print_fig11 results;
  Softft.Experiments.print_fig12 results;
  Softft.Experiments.print_fig13 results;
  Softft.Experiments.print_falsepos results;
  Softft.Experiments.print_headline results;
  Printf.printf
    "\n(95%% confidence margin of error at %d trials: +-%.1f points)\n" trials
    (100.0 *. Softft.margin_of_error ~trials ~proportion:0.5);
  Option.iter (fun path -> Softft.Experiments.write_csv path results) csv

let all_csv_arg =
  let doc =
    "Also write the evaluation matrix to $(docv) as CSV: one row per \
     (benchmark, technique) with outcome shares, overhead and static \
     statistics."
  in
  Arg.(value & opt (some string) None & info [ "csv" ] ~docv:"FILE" ~doc)

let all_cmd =
  let doc = "Run every table and figure of the paper's evaluation." in
  Cmd.v
    (Cmd.info "all" ~doc)
    Term.(
      const run_all $ trials_arg $ seed_arg $ benchmarks_arg $ domains_arg
      $ quiet_arg $ log_json_arg $ all_csv_arg)

(* The studies beyond the paper's own tables: name, default benchmark
   subset, and the driver that runs and prints it. *)
let studies =
  let module E = Softft.Experiments in
  [ ("crossval", [ "jpegdec"; "kmeans" ],
     fun ~trials ~seed ~domains ws ->
       let names = List.map (fun (w : Workloads.Workload.t) -> w.name) ws in
       E.print_crossval (E.crossval ~trials ~seed ~names ~domains ()));
    ("ablation", [ "jpegdec"; "g721enc" ],
     fun ~trials ~seed ~domains ->
       List.iter (fun w ->
         E.print_ablation w (E.ablation ~trials ~seed ~domains w)));
    ("latency", Workloads.Registry.names,
     fun ~trials ~seed ~domains ws ->
       E.print_latency (E.latency ~trials ~seed ~domains ws));
    ("branchfault", [ "jpegdec"; "g721enc"; "kmeans" ],
     fun ~trials ~seed ~domains ws ->
       E.print_branch_faults (E.branch_faults ~trials ~seed ~domains ws));
    ("sources", Workloads.Registry.names,
     fun ~trials ~seed ~domains ws ->
       E.print_detection_sources
         (E.detection_sources ~trials ~seed ~domains ws));
    ("recovery", [ "jpegdec"; "kmeans" ],
     fun ~trials ~seed ~domains ->
       List.iter (fun w ->
         E.print_recovery w (E.recovery ~trials ~seed ~domains w))) ]

let run_study (defaults, run) trials seed benchmarks domains =
  run ~trials ~seed ~domains
    (match benchmarks with
     | Some ws -> ws
     | None -> List.map Workloads.Registry.find defaults)

let study_arg =
  let doc =
    "The study to run: $(b,crossval) (paper \xc2\xa7V: profile on the test \
     input, inject on the train input), $(b,ablation) (Optimizations 1 \
     and 2 toggled off), $(b,latency) (instructions from fault to \
     detection), $(b,branchfault) (branch-target faults, with and without \
     the CFC pass), $(b,sources) (software detections by detector kind) \
     or $(b,recovery) (checkpoint-interval sweep)."
  in
  Arg.(
    required
    & pos 0
        (some (enum (List.map (fun (name, d, r) -> (name, (d, r))) studies)))
        None
    & info [] ~docv:"STUDY" ~doc)

let study_cmd =
  let doc =
    "Run one study beyond the paper's own tables.  Default benchmarks: \
     jpegdec and kmeans for crossval and recovery; jpegdec and g721enc for \
     ablation; jpegdec, g721enc and kmeans for branchfault; all 13 for \
     latency and sources."
  in
  Cmd.v
    (Cmd.info "study" ~doc)
    Term.(
      const run_study $ study_arg $ trials_arg $ seed_arg $ benchmarks_arg
      $ domains_arg)

let name_arg =
  let doc = "Benchmark name (see `table1')." in
  Arg.(
    required & pos 0 (some workload_conv) None & info [] ~docv:"BENCHMARK" ~doc)

let technique_arg =
  let doc = "Protection technique: original, dup, dupval, full, cfc or dupvalcfc." in
  Arg.(value & pos 1 technique_conv Softft.Dup_valchk & info [] ~docv:"TECHNIQUE" ~doc)

let journal_arg =
  let doc =
    "Write a trial journal to $(docv): one JSON line per trial, preceded \
     by a campaign manifest.  Aggregate it later with the `report' command."
  in
  Arg.(value & opt (some string) None & info [ "journal" ] ~docv:"FILE" ~doc)

let checkpoint_arg =
  let doc =
    "Enable checkpoint/rollback recovery with a checkpoint every $(docv) \
     dynamic instructions (0 = off).  Trials whose software check fires \
     then roll back and replay, reclassifying as Recovered/Unrecoverable."
  in
  Arg.(value & opt non_negative_int 0 & info [ "checkpoint"; "k" ] ~docv:"INTERVAL" ~doc)

let profile_arg =
  let doc =
    "Collect an execution profile over all trials (dynamic opcode mix, hot \
     blocks, check firings) and print it after the campaign.  \
     Observation-only: trial outcomes are bit-identical either way."
  in
  Arg.(value & flag & info [ "profile" ] ~doc)

let taint_arg =
  let doc =
    "Trace fault propagation: every trial carries a shadow taint bit per \
     register and memory word, seeded at the injection, and records a \
     propagation summary in the journal (schema v4).  Observation-only: \
     outcomes and costs are bit-identical either way."
  in
  Arg.(value & flag & info [ "taint" ] ~doc)

let progress_arg =
  let doc =
    "Print a live heartbeat to stderr while the campaign runs: trials \
     done/total, per-outcome running counts, trials/sec and ETA."
  in
  Arg.(value & flag & info [ "progress" ] ~doc)

let progress_jsonl_arg =
  let doc =
    "Also stream campaign progress snapshots to $(docv) as JSON lines \
     (one {\"type\":\"progress\",...} record per heartbeat)."
  in
  Arg.(value & opt (some string) None & info [ "progress-jsonl" ] ~docv:"FILE" ~doc)

let timeline_arg =
  let doc =
    "Record the campaign flight recorder and write a Chrome trace-event \
     timeline to $(docv) (load it in Perfetto or chrome://tracing): \
     golden-run (fork capture included) and trial-phase spans plus every \
     worker domain's chunk claims.  Observation-only: results are \
     bit-identical either way."
  in
  Arg.(
    value & opt (some string) None
    & info [ "trace-timeline" ] ~docv:"FILE" ~doc)

(* `campaign` runs a uniform campaign ([Softft.campaign]) by default, and
   --adaptive switches to the stratified scheduler of DESIGN.md §14 —
   static-coverage × ring-residency strata, Neyman allocation,
   per-stratum early stopping, mass-reweighted whole-program rates.  Both
   print the static stats and the golden run the campaign itself made. *)
let run_campaign (w : Workloads.Workload.t) technique adaptive ci trials max_trials bands
    seed domains checkpoint taint progress progress_jsonl journal warehouse
    timeline profile_flag quiet log_json =
  if adaptive && profile_flag then begin
    prerr_endline
      "experiments campaign: --profile applies to uniform campaigns, not \
       --adaptive";
    exit Cmd.Exit.cli_error
  end;
  let log = logger_of quiet log_json in
  let p = Softft.protect w technique in
  Printf.printf "%s / %s%s\n" w.name
    (Softft.technique_name technique)
    (if adaptive then
       Printf.sprintf "  (adaptive, target SDC half-width %.4f)" ci
     else "");
  Printf.printf "  static instrs (orig) : %d\n" p.static_stats.original_instrs;
  Printf.printf "  state variables      : %d\n" p.static_stats.state_vars;
  Printf.printf "  duplicated instrs    : %d\n" p.static_stats.duplicated_instrs;
  Printf.printf "  value checks         : %d\n" p.static_stats.value_checks;
  let profile =
    if profile_flag then Some (Interp.Profile.create ()) else None
  in
  let stats = ref None in
  let progress_oc = Option.map open_out progress_jsonl in
  let sinks =
    (if progress then [ Faults.Progress.stderr_sink () ] else [])
    @ (match progress_oc with
       | Some oc -> [ Faults.Progress.jsonl_sink oc ]
       | None -> [])
  in
  let trace = Option.map (fun _ -> Obs.Trace.recorder ()) timeline in
  (* The journal and the warehouse sink share one manifest — the run key
     hashes it, so a run filed as it finishes and the same journal
     ingested later land on the same key. *)
  let manifest ?adaptive run_stats (summary : Faults.Campaign.summary) =
    Faults.Journal.manifest_record
      ~technique:(Softft.technique_name technique)
      ?stats:run_stats ~counts:summary.counts ?adaptive
      ~label:(Printf.sprintf "%s/%s/test" w.name
                (Softft.technique_name technique))
      ~trials:summary.trials ~seed ~domains ~checkpoint_interval:checkpoint
      ~taint_trace:taint ~hw_window:Faults.Classify.default_hw_window
      ~fault_kind:"register_bit" ~golden:summary.golden_info ()
  in
  let file_in dir ?adaptive summary results run_stats =
    file_run log ~dir p ~manifest:(manifest ?adaptive run_stats summary)
      results
  in
  let summary, results, adaptive_out =
    if not adaptive then begin
      let pg =
        match sinks with
        | [] -> None
        | _ :: _ -> Some (Faults.Progress.create ~sinks ~total:trials ())
      in
      let summary, results =
        Softft.campaign p ~role:Workloads.Workload.Test ~trials ~seed
          ~domains ~checkpoint_interval:checkpoint ~taint_trace:taint
          ?profile ~stats_out:stats
          ?warehouse:
            (Option.map
               (fun dir summary results run_stats ->
                 file_in dir summary results run_stats)
               warehouse)
          ?progress:pg ?trace
      in
      (summary, results, None)
    end
    else begin
      let cov = Analysis.Coverage.analyze p.Softft.prog in
      let groups = Analysis.Strata.reg_groups p.Softft.prog cov in
      let priors = Analysis.Strata.priors cov in
      let subj = Softft.subject p ~role:Workloads.Workload.Test in
      let progress_for =
        match sinks with
        | [] -> None
        | _ :: _ ->
          Some
            (fun ~nstrata ~total ->
              Faults.Progress.create ~sinks ~strata:nstrata ~total ())
      in
      let summary, results, ad =
        Faults.Campaign.run_adaptive ~seed ~domains
          ~checkpoint_interval:checkpoint ~taint_trace:taint ~stats_out:stats
          ?warehouse:
            (Option.map
               (fun dir summary results run_stats ad ->
                 file_in dir ~adaptive:ad summary results run_stats)
               warehouse)
          ?progress_for ?trace ~bands ~max_trials ~groups
          ~group_names:Analysis.Strata.group_names ~priors ~ci subj
      in
      (summary, results, Some ad)
    end
  in
  (match progress_oc with Some oc -> close_out oc | None -> ());
  let golden = summary.golden_info in
  Printf.printf "  golden steps/cycles  : %d / %d\n" golden.steps golden.cycles;
  Printf.printf "  false positives      : %d\n" golden.false_positives;
  List.iter
    (fun outcome ->
      Printf.printf "  %-13s : %5.1f%%\n"
        (Faults.Classify.name outcome)
        (Faults.Campaign.percent summary outcome))
    Faults.Classify.all;
  (match !stats with
   | Some (rs : Faults.Campaign.run_stats) ->
     Printf.printf
       "  rejoined golden run  : %d trials (%d settled at the flip), %d \
        steps skipped\n"
       rs.rejoined rs.settled rs.steps_skipped
   | None -> ());
  (match adaptive_out with
   | Some (ad : Faults.Campaign.adaptive) ->
     Printf.printf "  strata               : %d (+ empty-ring mass %.4f)\n"
       (Array.length ad.ad_strata) ad.ad_mass_empty;
     Array.iter
       (fun (ss : Faults.Campaign.stratum_stats) ->
         let s = ss.ss_stratum in
         let k =
           List.fold_left
             (fun acc (o, n) ->
               if Faults.Classify.is_sdc o then acc + n else acc)
             0 ss.ss_counts
         in
         Printf.printf
           "    #%d %-13s band %d [%d,%d)  mass %.4f  trials %4d  SDC %s\n"
           s.Faults.Campaign.st_id s.st_group_name s.st_band s.st_lo
           s.st_hi s.st_mass ss.ss_trials
           (Obs.Stats.pp_pct (Obs.Stats.wilson ~k ~n:ss.ss_trials)))
       ad.ad_strata;
     Printf.printf "  SDC rate (reweighted): %.4f [%.4f, %.4f]\n"
       ad.ad_sdc.Obs.Stats.ci_estimate ad.ad_sdc.ci_low ad.ad_sdc.ci_high;
     Printf.printf
       "  trials               : %d (planned uniform: %d, %.1fx saved; \
        oracle uniform: %d)\n"
       ad.ad_trials ad.ad_equiv_uniform
       (float_of_int ad.ad_equiv_uniform
        /. float_of_int (max 1 ad.ad_trials))
       ad.ad_oracle_uniform
   | None -> ());
  (match journal with
   | Some path ->
     Faults.Journal.write ?trace ~path
       ~manifest:(manifest ?adaptive:adaptive_out !stats summary)
       ~trials:results ();
     Obs.Log.info log
       ~fields:
         [ ("path", Obs.Json.Str path);
           ("trials", Obs.Json.Int (List.length results)) ]
       "journal written"
   | None -> ());
  (match timeline, trace with
   | Some path, Some r ->
     Obs.Trace.write_chrome r ~path;
     Obs.Log.info log
       ~fields:
         [ ("path", Obs.Json.Str path);
           ("spans", Obs.Json.Int (List.length (Obs.Trace.durs r))) ]
       "timeline written"
   | _, _ -> ());
  match profile with
  | Some prof -> Softft.Report.print_profile prof
  | None -> ()

let adaptive_arg =
  let doc =
    "Adaptive stratified campaign (DESIGN.md §14): partition the injection \
     space by static protection coverage and ring residency, allocate \
     trials Neyman-style, stop each stratum once its Wilson interval is \
     tight, and reweight by stratum mass into unbiased whole-program rates."
  in
  Arg.(value & flag & info [ "adaptive" ] ~doc)

let ci_arg =
  let doc =
    "Target half-width of the whole-program SDC 95% interval — the \
     adaptive stopping rule (implies nothing in uniform mode)."
  in
  Arg.(value & opt float 0.01 & info [ "ci" ] ~docv:"HALF_WIDTH" ~doc)

let max_trials_arg =
  let doc = "Adaptive trial budget cap." in
  Arg.(value & opt int 100_000 & info [ "max-trials" ] ~docv:"N" ~doc)

let bands_arg =
  let doc = "Residency bands per protection group (adaptive strata)." in
  Arg.(value & opt int 3 & info [ "bands" ] ~docv:"N" ~doc)

let warehouse_sink_arg =
  let doc =
    "File the finished run into the campaign warehouse at $(docv) \
     (content-addressed by program, technique, fault model, configuration \
     and seed; re-running an identical campaign is a no-op).  Query it \
     later with `history', `diff-runs', `regress' and `heatmap'."
  in
  Arg.(value & opt (some string) None & info [ "warehouse" ] ~docv:"DIR" ~doc)

let campaign_cmd =
  let doc =
    "Run a fault campaign: uniform sampling by default, or --adaptive \
     stratified sampling with per-stratum early stopping."
  in
  Cmd.v
    (Cmd.info "campaign" ~doc)
    Term.(
      const run_campaign $ name_arg $ technique_arg $ adaptive_arg $ ci_arg
      $ trials_arg $ max_trials_arg $ bands_arg $ seed_arg $ domains_arg
      $ checkpoint_arg $ taint_arg $ progress_arg $ progress_jsonl_arg
      $ journal_arg $ warehouse_sink_arg $ timeline_arg $ profile_arg
      $ quiet_arg $ log_json_arg)

let run_coverage (w : Workloads.Workload.t) technique dynamic csv regs_csv =
  let p = Softft.protect w technique in
  let exec_counts =
    if not dynamic then None
    else begin
      (* Weight exposure by real block execution counts from a golden run. *)
      let prof = Interp.Profile.create () in
      let (_ : Faults.Campaign.golden) =
        Softft.golden ~profile:prof p ~role:Workloads.Workload.Test
      in
      Some (Interp.Profile.func_block_counts prof)
    end
  in
  let cov = Analysis.Coverage.analyze ?exec_counts p.Softft.prog in
  let label =
    Printf.sprintf "%s/%s" w.name (Softft.technique_name technique)
  in
  Softft.Report.print_coverage ~label cov;
  Option.iter (fun out -> write_file out (Softft.Report.coverage_csv cov)) csv;
  Option.iter
    (fun out -> write_file out (Softft.Report.coverage_reg_csv cov))
    regs_csv

let dynamic_arg =
  let doc =
    "Weight register exposure by dynamic block execution counts from a \
     fault-free golden run (default: static weight 1 per block)."
  in
  Arg.(value & flag & info [ "dynamic" ] ~doc)

let coverage_csv_arg =
  let doc = "Export the per-instruction classification to $(docv) as CSV." in
  Arg.(value & opt (some string) None & info [ "csv" ] ~docv:"FILE" ~doc)

let regs_csv_arg =
  let doc = "Export the per-register exposure table to $(docv) as CSV." in
  Arg.(value & opt (some string) None & info [ "regs-csv" ] ~docv:"FILE" ~doc)

let coverage_cmd =
  let doc =
    "Static protection-coverage analysis: classify every instruction and \
     register of a protected benchmark and estimate the SDC-prone fraction \
     without running a campaign."
  in
  Cmd.v
    (Cmd.info "coverage" ~doc)
    Term.(
      const run_coverage $ name_arg $ technique_arg $ dynamic_arg
      $ coverage_csv_arg $ regs_csv_arg)

let optimize_point_row (p : Softft.Optimize.point) =
  Printf.printf "  %-34s %9.4f %8.1f%%  c%-3d t%-3d v%-3d\n" p.op_label
    (Softft.Optimize.sdc p)
    (100.0 *. Softft.Optimize.overhead p)
    (List.length p.op_plan.Analysis.Plan.chains)
    (List.length p.op_plan.Analysis.Plan.terminators)
    (List.length p.op_plan.Analysis.Plan.checks)

let optimize_frontier_csv (fr : Softft.Optimize.frontier) =
  let buf = Buffer.create 512 in
  Buffer.add_string buf
    "label,fixed,predicted_sdc,predicted_overhead,chains,terminators,\
     checks,checkpoint\n";
  List.iter
    (fun (p : Softft.Optimize.point) ->
      Buffer.add_string buf
        (Printf.sprintf "%s,%b,%.6f,%.6f,%d,%d,%d,%d\n" p.op_label p.op_fixed
           (Softft.Optimize.sdc p)
           (Softft.Optimize.overhead p)
           (List.length p.op_plan.Analysis.Plan.chains)
           (List.length p.op_plan.Analysis.Plan.terminators)
           (List.length p.op_plan.Analysis.Plan.checks)
           p.op_plan.Analysis.Plan.checkpoint))
    (fr.fr_points @ fr.fr_fixed);
  Buffer.contents buf

let run_optimize (w : Workloads.Workload.t) budget beam checkpoint validate_n seed domains ci
    max_trials warehouse csv plan_out quiet log_json =
  let log = logger_of quiet log_json in
  let prog = w.build () in
  (* The paper's offline step: value-profile on the training input so the
     search knows which sites are check-amenable. *)
  let vp = Workloads.Workload.profile ~prog w in
  let profile uid = Profiling.Value_profile.check_kind vp uid in
  (* Block weights from a fault-free run of the original program on the
     same (training) input — the predictor's AVF residency weights. *)
  let exec_counts =
    let prof = Interp.Profile.create () in
    let orig = Softft.protect w Softft.Original in
    let (_ : Faults.Campaign.golden) =
      Softft.golden ~profile:prof orig ~role:Workloads.Workload.Train
    in
    Interp.Profile.func_block_counts prof
  in
  let fr =
    Softft.Optimize.search ~beam
      ?budget:(Option.map (fun pct -> pct /. 100.0) budget)
      ~exec_counts ~profile ~checkpoint prog
  in
  Printf.printf "%s: explored %d plans%s\n" w.name fr.fr_explored
    (match budget with
     | Some pct -> Printf.sprintf " under a %.1f%% overhead budget" pct
     | None -> "");
  Printf.printf "  %-34s %9s %9s  %s\n" "plan" "pred.SDC" "pred.ovh"
    "size";
  List.iter optimize_point_row fr.fr_points;
  print_endline "  fixed pipelines (same predictor):";
  List.iter optimize_point_row fr.fr_fixed;
  List.iter
    (fun (fixed, by) ->
      Printf.printf "  note: %s strictly dominates fixed pipeline %s\n" by
        fixed)
    fr.fr_dominated_fixed;
  (match csv with
   | Some out -> write_file out (optimize_frontier_csv fr)
   | None -> ());
  (match plan_out with
   | Some out ->
     write_file out
       (Obs.Json.to_string (Softft.Optimize.frontier_json fr) ^ "\n")
   | None -> ());
  if validate_n > 0 then begin
    let knees = Softft.Optimize.knee_points ~n:validate_n fr.fr_points in
    Printf.printf
      "validating %d knee point(s) by adaptive injection (target \
       half-width %.4f):\n"
      (List.length knees) ci;
    let file_in dir (v : Softft.Optimize.validation)
        (p : Softft.protected) (summary : Faults.Campaign.summary) results
        run_stats ad ~golden:(_ : Faults.Campaign.golden) =
      let pt = v.Softft.Optimize.vl_point in
      let manifest =
        Faults.Journal.manifest_record ~technique:"Planned"
          ~plan:(Analysis.Plan.to_json pt.Softft.Optimize.op_plan)
          ?stats:run_stats ~counts:summary.Faults.Campaign.counts
          ~adaptive:ad
          ~label:(Printf.sprintf "%s/%s/test" w.name
                    (Analysis.Plan.slug pt.Softft.Optimize.op_plan))
          ~trials:summary.Faults.Campaign.trials ~seed ~domains
          ~checkpoint_interval:pt.Softft.Optimize.op_plan.Analysis.Plan.checkpoint
          ~hw_window:Faults.Classify.default_hw_window
          ~fault_kind:"register_bit"
          ~golden:summary.Faults.Campaign.golden_info ()
      in
      file_run log ~dir p ~manifest results
    in
    let vals =
      Softft.Optimize.validate ~seed ~domains ~ci ~max_trials
        ?on_run:(Option.map file_in warehouse) w knees
    in
    Printf.printf "  %-34s %9s %9s %19s %9s %7s\n" "plan" "pred.SDC"
      "meas.SDC" "95% CI" "meas.ovh" "trials";
    List.iter
      (fun (v : Softft.Optimize.validation) ->
        Printf.printf
          "  %-34s %9.4f %9.4f [%7.4f,%7.4f] %8.1f%% %7d\n"
          v.vl_point.op_label
          (Softft.Optimize.sdc v.vl_point)
          v.vl_measured_sdc.Obs.Stats.ci_estimate
          v.vl_measured_sdc.Obs.Stats.ci_low
          v.vl_measured_sdc.Obs.Stats.ci_high
          (100.0 *. v.vl_measured_overhead)
          v.vl_trials)
      vals;
    Printf.printf "  predicted-vs-measured SDC rank order: %s\n"
      (if Softft.Optimize.rank_order_agrees vals then "concordant"
       else "DISCORDANT")
  end

let budget_arg =
  let doc =
    "Overhead budget as a percentage (e.g. 15 caps the frontier at 15% \
     predicted runtime overhead).  Default: unbounded."
  in
  Arg.(value & opt (some non_negative_float) None & info [ "budget" ] ~docv:"PCT" ~doc)

let beam_arg =
  let doc = "Beam width over chain subsets during the search." in
  Arg.(value & opt positive_int 4 & info [ "beam" ] ~docv:"N" ~doc)

let validate_arg =
  let doc =
    "Validate the $(docv) knee points of the frontier by targeted \
     adaptive fault campaigns and report predicted-vs-measured deltas \
     (0 = skip validation)."
  in
  Arg.(value & opt non_negative_int 0 & info [ "validate" ] ~docv:"N" ~doc)

let plan_out_arg =
  let doc =
    "Write the frontier (plans included) to $(docv) as JSON, a record for \
     inspection and plotting: no command reads plan files back."
  in
  Arg.(value & opt (some string) None & info [ "plan-out" ] ~docv:"FILE" ~doc)

let optimize_csv_arg =
  let doc = "Export the frontier and fixed-pipeline points to $(docv) as CSV." in
  Arg.(value & opt (some string) None & info [ "csv" ] ~docv:"FILE" ~doc)

let optimize_cmd =
  let doc =
    "Search the protection-plan space with the static AVF/cost predictor \
     and emit the Pareto frontier (SDC-prone fraction vs predicted \
     overhead); optionally validate knee points by adaptive injection."
  in
  Cmd.v
    (Cmd.info "optimize" ~doc)
    Term.(
      const run_optimize $ name_arg $ budget_arg $ beam_arg
      $ checkpoint_arg $ validate_arg $ seed_arg $ domains_arg $ ci_arg
      $ max_trials_arg $ warehouse_sink_arg $ optimize_csv_arg
      $ plan_out_arg $ quiet_arg $ log_json_arg)

(* Every pipeline configuration the lint must hold for; mirrors the
   property suite in test/test_lint.ml. *)
let lint_configurations =
  [ ("original", Softft.Original, true, true);
    ("dup", Softft.Dup_only, true, true);
    ("dupval", Softft.Dup_valchk, true, true);
    ("dupval-no-opt1", Softft.Dup_valchk, false, true);
    ("dupval-no-opt2", Softft.Dup_valchk, true, false);
    ("full", Softft.Full_dup, true, true);
    ("cfc", Softft.Cfc_only, true, true);
    ("dupvalcfc", Softft.Dup_valchk_cfc, true, true) ]

let run_lint benchmarks =
  let workloads = resolve_benchmarks benchmarks in
  let failures = ref 0 in
  List.iter
    (fun (w : Workloads.Workload.t) ->
      List.iter
        (fun (config, technique, opt1, opt2) ->
          match Softft.protect ~lint:true ~opt1 ~opt2 w technique with
          | (_ : Softft.protected) ->
            Printf.printf "ok   %-10s %s\n" w.name config
          | exception Analysis.Lint.Error issues ->
            incr failures;
            Printf.printf "FAIL %-10s %s\n" w.name config;
            List.iter
              (fun issue ->
                Format.printf "  %a@." Analysis.Lint.pp_issue issue)
              issues
          | exception Ir.Verifier.Invalid err ->
            incr failures;
            Format.printf "FAIL %-10s %s@.  verifier: %a@." w.name config
              Ir.Verifier.pp_error err)
        lint_configurations)
    workloads;
  if !failures > 0 then begin
    Printf.printf "\n%d configuration(s) failed the lint\n" !failures;
    exit 1
  end
  else print_endline "\nall configurations lint-clean"

let lint_cmd =
  let doc =
    "Run the transform-invariant lint over every pipeline configuration \
     of the selected benchmarks; exits nonzero on any violation."
  in
  Cmd.v (Cmd.info "lint" ~doc) Term.(const run_lint $ benchmarks_arg)

(* Rebuild the protected program a journal manifest describes, when its
   label names a registered workload and its technique a fixed pipeline,
   or "Planned" with the manifest's plan document.  Protection pipelines
   are deterministic, so the rebuilt program — and hence its warehouse
   digest and coverage map — matches the one the campaign ran. *)
let protected_of_manifest manifest =
  let technique =
    Option.bind (Obs.Json.member "technique" manifest) Obs.Json.to_str
  in
  let fixed =
    List.find_opt
      (fun t -> technique = Some (Softft.technique_name t))
      Softft.extended_techniques
  in
  let plan =
    if technique = Some (Softft.technique_name Softft.Planned) then
      Option.bind (Obs.Json.member "plan" manifest) Analysis.Plan.of_json
    else None
  in
  let workload =
    Option.bind (Obs.Json.member "label" manifest) Obs.Json.to_str
    |> Option.map (fun label ->
           match String.index_opt label '/' with
           | Some i -> String.sub label 0 i
           | None -> label)
  in
  let protect name =
    let w = Workloads.Registry.find name in
    match fixed, plan with
    | Some t, _ -> Some (Softft.protect w t)
    | None, Some plan -> Some (Softft.protect_plan w plan)
    | None, None -> None
  in
  Option.bind workload (fun name -> try protect name with _ -> None)

let coverage_of_manifest manifest =
  Option.map
    (fun p -> Analysis.Coverage.analyze p.Softft.prog)
    (protected_of_manifest manifest)

let report_one ~manifest ~views strata =
  Softft.Report.print_journal_report ~manifest views;
  if strata then
    match coverage_of_manifest manifest with
    | Some cov -> Softft.Report.print_journal_strata cov views
    | None ->
      prerr_endline
        "experiments report: --strata needs a manifest whose label and \
         technique match a registered workload; skipping strata table"

(* A directory of journals is reported one section per *run* — journals
   are grouped by their warehouse run key (program config, seed, trials),
   never silently merged: pooling trials from different configurations
   under one outcome table would manufacture rates no campaign measured. *)
let run_report_dir dir strata =
  let files =
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".jsonl")
    |> List.sort compare
    |> List.map (Filename.concat dir)
  in
  if files = [] then begin
    prerr_endline ("experiments report: no .jsonl journals in " ^ dir);
    exit 1
  end;
  let loaded =
    List.map
      (fun f ->
        let manifest, views = load_journal ~cmd:"report" f in
        let prog_digest =
          Option.map
            (fun p -> Warehouse.Store.prog_digest p.Softft.prog)
            (protected_of_manifest manifest)
        in
        (f, Warehouse.Store.run_key ?prog_digest manifest, manifest, views))
      files
  in
  let keys_in_order =
    List.fold_left
      (fun acc (_, key, _, _) -> if List.mem key acc then acc else key :: acc)
      [] loaded
    |> List.rev
  in
  Printf.printf "%d journal(s), %d distinct run(s)\n" (List.length loaded)
    (List.length keys_in_order);
  List.iter
    (fun key ->
      let group = List.filter (fun (_, k, _, _) -> k = key) loaded in
      let file, _, manifest, views = List.hd group in
      let label =
        match Option.bind (Obs.Json.member "label" manifest) Obs.Json.to_str
        with
        | Some l -> l
        | None -> "?"
      in
      Printf.printf "\n== run %s  %s  (%s) ==\n"
        (String.sub key 0 12)
        label file;
      report_one ~manifest ~views strata;
      match List.tl group with
      | [] -> ()
      | dups ->
        Printf.printf "(+%d duplicate journal(s) of this run: %s)\n"
          (List.length dups)
          (String.concat ", " (List.map (fun (f, _, _, _) -> f) dups)))
    keys_in_order

let run_report path strata csv =
  if Sys.file_exists path && Sys.is_directory path then begin
    (match csv with
     | Some _ ->
       prerr_endline
         "experiments report: --csv wants a single journal, not a directory";
       exit 1
     | None -> ());
    run_report_dir path strata
  end
  else begin
    let manifest, views = load_journal ~cmd:"report" path in
    report_one ~manifest ~views strata;
    Option.iter
      (fun out ->
        Out_channel.with_open_text out (fun oc ->
          output_string oc (Softft.Report.journal_check_csv views));
        Printf.printf "\nper-check CSV written to %s\n" out)
      csv
  end

let journal_path_arg =
  let doc =
    "Trial journal produced by `campaign --journal', or a directory of such \
     journals (reported one section per distinct run, grouped by \
     warehouse run key — never merged)."
  in
  Arg.(required & pos 0 (some string) None & info [] ~docv:"JOURNAL" ~doc)

let csv_arg =
  let doc = "Export the per-check firing table to $(docv) as CSV." in
  Arg.(value & opt (some string) None & info [ "csv" ] ~docv:"FILE" ~doc)

let strata_arg =
  let doc =
    "Join the journal with the static protection-coverage map (the \
     manifest names the workload and technique) and print per-register \
     strata — SDC/detected/masked rates with Wilson 95% intervals per \
     protection status of the register the fault hit."
  in
  Arg.(value & flag & info [ "strata" ] ~doc)

let report_cmd =
  let doc =
    "Aggregate a trial journal: outcome shares with Wilson 95% intervals, \
     detection-latency histogram, and per-check firing tables."
  in
  Cmd.v
    (Cmd.info "report" ~doc)
    Term.(const run_report $ journal_path_arg $ strata_arg $ csv_arg)

(* ------------------------------------------------------------------ *)
(* The campaign warehouse: ingest, history, diff-runs, regress, heatmap *)

let warehouse_dir_arg =
  let doc = "The campaign warehouse directory." in
  Arg.(
    required
    & opt (some string) None
    & info [ "warehouse"; "w" ] ~docv:"DIR" ~doc)

let warehouse_opt_arg =
  let doc =
    "Campaign warehouse directory, for resolving run keys and locating \
     journals."
  in
  Arg.(
    value & opt (some string) None & info [ "warehouse"; "w" ] ~docv:"DIR" ~doc)

let run_ingest dir files =
  let ingest_journal path =
    let manifest, _views = load_journal ~cmd:"ingest" path in
    let prog_digest =
      Option.map
        (fun p -> Warehouse.Store.prog_digest p.Softft.prog)
        (protected_of_manifest manifest)
    in
    match
      with_index ~cmd:"ingest" (fun () ->
        Warehouse.Store.ingest ?prog_digest ~dir path)
    with
    | `Ingested e ->
      Printf.printf "filed      %s  %s\n" e.Warehouse.Store.e_key path
    | `Duplicate e ->
      Printf.printf "duplicate  %s  %s\n" e.Warehouse.Store.e_key path
  in
  List.iter
    (fun path ->
      match ingest_journal path with
      | () -> ()
      | exception Sys_error msg ->
        prerr_endline ("experiments ingest: " ^ msg);
        exit 1)
    files

let ingest_files_arg =
  let doc = "Campaign journals (.jsonl) to file." in
  Arg.(non_empty & pos_all string [] & info [] ~docv:"FILE" ~doc)

let ingest_cmd =
  let doc =
    "File campaign journals into the campaign warehouse: content-addressed \
     by run key, so re-ingesting a journal already filed is a no-op."
  in
  Cmd.v
    (Cmd.info "ingest" ~doc)
    Term.(const run_ingest $ warehouse_dir_arg $ ingest_files_arg)

let label_matches_bench bench label =
  label = bench
  || (String.length label > String.length bench
      && String.sub label 0 (String.length bench + 1) = bench ^ "/")

(* Share of [e]'s trials whose outcome name satisfies [pred], in percent. *)
let outcome_rate (e : Warehouse.Store.entry) pred =
  let k =
    List.fold_left (fun acc (o, n) -> if pred o then acc + n else acc) 0
      e.e_counts
  in
  100.0 *. float_of_int k /. float_of_int (max 1 e.e_trials)

let run_history dir bench tech =
  let want_tech =
    Option.map Softft.technique_name tech
  in
  let rows =
    List.filter
      (fun (e : Warehouse.Store.entry) ->
        label_matches_bench bench e.e_label
        && match want_tech with
           | None -> true
           | Some t -> e.e_technique = Some t)
      (with_index ~cmd:"history" (fun () -> Warehouse.Store.entries ~dir))
  in
  match rows with
  | [] ->
    Printf.printf "no runs for %s%s in %s\n" bench
      (match want_tech with Some t -> "/" ^ t | None -> "")
      dir
  | rows ->
    Softft.Report.print
      ~title:
        (Printf.sprintf "%s%s: %d run(s)" bench
           (match want_tech with Some t -> "/" ^ t | None -> "")
           (List.length rows))
      ~header:
        [ "#"; "key"; "technique"; "schema"; "trials"; "seed"; "ckpt";
          "SDC"; "detected"; "recovered"; "trials/s"; "git" ]
      ~rows:
        (List.map
           (fun (e : Warehouse.Store.entry) ->
             [ string_of_int e.e_seq;
               String.sub e.e_key 0 12;
               (match e.e_technique with Some t -> t | None -> "-");
               e.e_journal_schema;
               string_of_int e.e_trials;
               string_of_int e.e_seed;
               string_of_int e.e_checkpoint_interval;
               Obs.Stats.pp_pct e.e_sdc;
               Printf.sprintf "%.1f%%"
                 (outcome_rate e (fun o ->
                      Faults.Classify.group_of_name o = `Detected));
               Printf.sprintf "%.1f%%"
                 (outcome_rate e (fun o -> o = "Recovered"));
               (match e.e_trials_per_sec with
                | Some tps -> Printf.sprintf "%.0f" tps
                | None -> "-");
               (if String.length e.e_git > 8 then String.sub e.e_git 0 8
                else e.e_git) ])
           rows)

let history_bench_arg =
  let doc = "Benchmark whose run timeline to print." in
  Arg.(required & pos 0 (some string) None & info [] ~docv:"BENCHMARK" ~doc)

let history_tech_arg =
  let doc = "Restrict to one technique (default: all)." in
  Arg.(value & pos 1 (some technique_conv) None & info [] ~docv:"TECHNIQUE" ~doc)

let history_cmd =
  let doc =
    "Print a benchmark's run timeline from the warehouse: outcome rates \
     with Wilson 95% intervals, throughput and configuration provenance, \
     one row per ingested run."
  in
  Cmd.v
    (Cmd.info "history" ~doc)
    Term.(
      const run_history $ warehouse_dir_arg $ history_bench_arg
      $ history_tech_arg)

let diff_row_cells (r : Warehouse.Store.diff_row) =
  [ r.dr_name;
    Printf.sprintf "%d/%d" r.dr_old_k r.dr_old_n;
    Obs.Stats.pp_pct r.dr_old;
    Printf.sprintf "%d/%d" r.dr_new_k r.dr_new_n;
    Obs.Stats.pp_pct r.dr_new;
    Printf.sprintf "%+.1f"
      (100.0 *. (r.dr_new.Obs.Stats.ci_estimate -. r.dr_old.ci_estimate));
    (if r.dr_significant then "SIGNIFICANT" else "") ]

let diff_header = [ "outcome"; "old k/n"; "old"; "new k/n"; "new"; "Δpts"; "" ]

let run_diff_runs dir old_arg new_arg =
  let resolve a =
    match Warehouse.Store.resolve ?dir a with
    | p -> p
    | exception Failure msg ->
      prerr_endline ("experiments diff-runs: " ^ msg);
      exit 1
  in
  match
    Warehouse.Store.diff_runs ~old_path:(resolve old_arg)
      ~new_path:(resolve new_arg)
  with
  | exception Faults.Journal.Malformed msg ->
    prerr_endline ("experiments diff-runs: " ^ msg);
    exit 1
  | d ->
    Printf.printf "old: %s\nnew: %s\n" d.Warehouse.Store.df_old d.df_new;
    Softft.Report.print ~title:"outcome rates" ~header:diff_header
      ~rows:(List.map diff_row_cells (d.df_outcomes @ [ d.df_sdc ]));
    if d.df_strata <> [] then
      Softft.Report.print ~title:"per-stratum SDC" ~header:diff_header
        ~rows:(List.map diff_row_cells d.df_strata);
    let significant =
      List.filter
        (fun (r : Warehouse.Store.diff_row) -> r.dr_significant)
        ((d.df_sdc :: d.df_outcomes) @ d.df_strata)
    in
    Printf.printf "\n%d significant delta(s) (disjoint %s)\n"
      (List.length significant)
      (if d.df_reweighted then
         "95% intervals: Wilson, and mass-reweighted stratified for SDC"
       else "Wilson 95% intervals")

let diff_old_arg =
  let doc = "Old run: a journal path, or a run key (prefix) resolved in \
             the warehouse."
  in
  Arg.(required & pos 0 (some string) None & info [] ~docv:"OLD" ~doc)

let diff_new_arg =
  let doc = "New run: a journal path or warehouse run key (prefix)." in
  Arg.(required & pos 1 (some string) None & info [] ~docv:"NEW" ~doc)

let diff_runs_cmd =
  let doc =
    "Diff two campaign runs outcome by outcome (plus per-stratum SDC on \
     adaptive journals).  A delta is significant only when the two Wilson \
     95% intervals are disjoint — a run diffed against itself reports \
     zero."
  in
  Cmd.v
    (Cmd.info "diff-runs" ~doc)
    Term.(const run_diff_runs $ warehouse_opt_arg $ diff_old_arg $ diff_new_arg)

let load_index path =
  with_index ~cmd:"regress" (fun () ->
    if Sys.file_exists path && Sys.is_directory path then
      Warehouse.Store.entries ~dir:path
    else Warehouse.Store.entries_of_file path)

let run_regress baseline current =
  let g =
    Warehouse.Store.regress ~baseline:(load_index baseline)
      ~current:(load_index current)
  in
  (match g.Warehouse.Store.rx_rows with
   | [] -> print_endline "no configuration present in both indexes"
   | rows ->
     Softft.Report.print ~title:"coverage gate"
       ~header:[ "configuration"; "old SDC"; "new SDC"; "Δpts"; "verdict" ]
       ~rows:
         (List.map
            (fun (r : Warehouse.Store.regress_row) ->
              [ r.rg_identity;
                Obs.Stats.pp_pct r.rg_sdc.Warehouse.Store.dr_old;
                Obs.Stats.pp_pct r.rg_sdc.dr_new;
                Printf.sprintf "%+.1f"
                  (100.0
                   *. (r.rg_sdc.dr_new.Obs.Stats.ci_estimate
                       -. r.rg_sdc.dr_old.ci_estimate));
                (if r.rg_regressed then "REGRESSED"
                 else if r.rg_improved then "improved"
                 else "ok") ])
            rows));
  let list_only what entries =
    if entries <> [] then
      Printf.printf "%s only: %s\n" what
        (String.concat ", "
           (List.map
              (fun (e : Warehouse.Store.entry) -> e.e_label)
              entries))
  in
  list_only "baseline" g.rx_only_old;
  list_only "current" g.rx_only_new;
  match g.rx_failures with
  | [] -> print_endline "regress: gate green"
  | failures ->
    List.iter (fun m -> prerr_endline ("experiments regress: " ^ m)) failures;
    exit 1

let baseline_arg =
  let doc =
    "Baseline warehouse index: a directory, or an index.jsonl snapshot \
     (e.g. the committed WAREHOUSE_baseline.jsonl)."
  in
  Arg.(
    required & opt (some string) None & info [ "baseline" ] ~docv:"PATH" ~doc)

let current_arg =
  let doc = "Current warehouse index: a directory or an index.jsonl file." in
  Arg.(
    required & opt (some string) None & info [ "current" ] ~docv:"PATH" ~doc)

let regress_cmd =
  let doc =
    "The cross-run regression gate: match baseline and current runs by \
     configuration identity and fail (exit 1) when any SDC rate rose with \
     disjoint Wilson 95% intervals."
  in
  Cmd.v
    (Cmd.info "regress" ~doc)
    Term.(
      const run_regress $ baseline_arg $ current_arg)

let run_heatmap (w : Workloads.Workload.t) technique journal warehouse csv html =
  let pretty = Softft.technique_name technique in
  let journal_path =
    match journal, warehouse with
    | Some path, _ -> path
    | None, Some dir ->
      let matching =
        List.filter
          (fun (e : Warehouse.Store.entry) ->
            label_matches_bench w.Workloads.Workload.name e.e_label
            && e.e_technique = Some pretty)
          (with_index ~cmd:"heatmap" (fun () -> Warehouse.Store.entries ~dir))
      in
      (match List.rev matching with
       | e :: _ -> Filename.concat dir e.Warehouse.Store.e_path
       | [] ->
         prerr_endline
           (Printf.sprintf
              "experiments heatmap: no %s/%s run in warehouse %s" w.name
              pretty dir);
         exit 1)
    | None, None ->
      prerr_endline
        "experiments heatmap: pass --journal FILE, or --warehouse DIR to \
         use the latest filed run";
      exit 1
  in
  let manifest, views = load_journal ~cmd:"heatmap" journal_path in
  let expected = Printf.sprintf "%s/%s" w.name pretty in
  let label =
    match Option.bind (Obs.Json.member "label" manifest) Obs.Json.to_str
    with
    | Some l -> l
    | None -> expected
  in
  (* Injection attribution joins the journal's register numbers against
     this program's defining sites; a journal from a different program
     or technique would misbind silently, so refuse it. *)
  if not (label_matches_bench expected label) then begin
    prerr_endline
      (Printf.sprintf
         "experiments heatmap: journal %s records run %s, not %s"
         journal_path label expected);
    exit 1
  end;
  let p = Softft.protect w technique in
  let cov = Analysis.Coverage.analyze p.Softft.prog in
  let hm =
    Warehouse.Heatmap.build ~prog:p.Softft.prog ~cov ~label
      ~technique:pretty ~manifest views
  in
  Printf.printf "%s  (%d trials, %d injected)\n"
    hm.Warehouse.Heatmap.hm_label hm.hm_trials hm.hm_injected;
  Printf.printf "static SDC-prone fraction %5.1f%%   measured SDC %s\n"
    (100.0 *. hm.hm_static_fraction)
    (Obs.Stats.pp_pct hm.hm_measured_sdc);
  let hot =
    List.filter (fun (s : Warehouse.Heatmap.site) -> s.s_total > 0)
      hm.hm_sites
    |> List.stable_sort
         (fun (a : Warehouse.Heatmap.site) (b : Warehouse.Heatmap.site) ->
           compare b.s_total a.s_total)
  in
  let shown = List.filteri (fun i _ -> i < 20) hot in
  Softft.Report.print
    ~title:
      (Printf.sprintf "hottest injection sites (%d of %d with hits)"
         (List.length shown) (List.length hot))
    ~header:
      [ "func"; "block"; "site"; "status"; "inj"; "SDC"; "det"; "mask";
        "other" ]
    ~rows:
      (List.map
         (fun (s : Warehouse.Heatmap.site) ->
           [ s.s_func; s.s_block; s.s_desc; s.s_status;
             string_of_int s.s_total; string_of_int s.s_sdc;
             string_of_int s.s_detected; string_of_int s.s_masked;
             string_of_int s.s_other ])
         shown);
  Option.iter (fun out -> write_file out (Warehouse.Heatmap.to_csv hm)) csv;
  Option.iter (fun out -> write_file out (Warehouse.Heatmap.to_html hm)) html

let heatmap_journal_arg =
  let doc =
    "Join this journal (instead of the latest matching warehouse run)."
  in
  Arg.(value & opt (some string) None & info [ "journal" ] ~docv:"FILE" ~doc)

let heatmap_csv_arg =
  let doc = "Write the full per-site table to $(docv) as CSV." in
  Arg.(value & opt (some string) None & info [ "csv" ] ~docv:"FILE" ~doc)

let heatmap_html_arg =
  let doc =
    "Render the annotated listing to $(docv) as a standalone HTML page."
  in
  Arg.(value & opt (some string) None & info [ "html" ] ~docv:"FILE" ~doc)

let heatmap_cmd =
  let doc =
    "Per-instruction SDC heatmap: join a campaign journal with the static \
     coverage map and show, for every defining site, how many injections \
     landed there and how they resolved (SDC / detected / masked) next to \
     the static protection status."
  in
  Cmd.v
    (Cmd.info "heatmap" ~doc)
    Term.(
      const run_heatmap $ name_arg $ technique_arg $ heatmap_journal_arg
      $ warehouse_opt_arg $ heatmap_csv_arg $ heatmap_html_arg)

let run_table1 () = Softft.Experiments.print_table1 ()

let table1_cmd =
  Cmd.v
    (Cmd.info "table1" ~doc:"Print the benchmark inventory (Table I).")
    Term.(const run_table1 $ const ())

let run_dump (w : Workloads.Workload.t) technique =
  let p = Softft.protect w technique in
  print_string (Ir.Printer.prog_to_string p.prog)

let dump_cmd =
  let doc = "Print the (optionally protected) IR of a benchmark." in
  Cmd.v (Cmd.info "dump" ~doc) Term.(const run_dump $ name_arg $ technique_arg)

let run_trace (w : Workloads.Workload.t) limit =
  let prog = w.build () in
  let state = w.fresh_state Workloads.Workload.Test in
  let events, result =
    Interp.Trace.first_values ~limit prog ~entry:Workloads.Workload.entry
      ~args:state.args ~mem:state.mem
  in
  List.iter print_endline (Interp.Trace.render prog events);
  Format.printf "... run %a after %d steps@." Interp.Machine.pp_stop
    result.stop result.steps

let limit_arg =
  let doc = "How many produced values to trace." in
  Arg.(value & opt int 60 & info [ "limit"; "n" ] ~docv:"N" ~doc)

let trace_cmd =
  let doc = "Trace the first values a benchmark's kernel produces." in
  Cmd.v (Cmd.info "trace" ~doc) Term.(const run_trace $ name_arg $ limit_arg)

let run_trace_fault (w : Workloads.Workload.t) technique seed trial_index =
  let p = Softft.protect w technique in
  let subject = Softft.subject p ~role:Workloads.Workload.Test in
  let golden = Faults.Campaign.golden_run subject in
  let disabled = Hashtbl.create 8 in
  List.iter
    (fun uid -> Hashtbl.replace disabled uid ())
    golden.Faults.Campaign.failing_checks;
  (* The same seed discipline as a campaign, so `trace-fault --trial I`
     replays exactly the trial a journal records at index I. *)
  let seeds = Faults.Campaign.derive_seeds ~seed ~trials:(trial_index + 1) in
  let t =
    Faults.Campaign.run_trial ~taint_trace:true subject ~golden ~disabled
      ~hw_window:Faults.Classify.default_hw_window ~seed:seeds.(trial_index)
  in
  Printf.printf "%s / %s  trial %d  (seed %d)\n" w.name
    (Softft.technique_name technique)
    trial_index t.Faults.Campaign.trial_seed;
  (match t.Faults.Campaign.injection with
   | Some (inj : Interp.Machine.injection) ->
     Printf.printf "injection : step %d, r%d bit %d  (%s -> %s)\n"
       inj.inj_step inj.inj_reg inj.inj_bit
       (Ir.Value.to_string inj.before)
       (Ir.Value.to_string inj.after)
   | None -> print_endline "injection : (did not land)");
  Printf.printf "outcome   : %s  (%d steps, %d cycles)\n"
    (Faults.Classify.name t.Faults.Campaign.outcome)
    t.Faults.Campaign.steps t.Faults.Campaign.cycles;
  match t.Faults.Campaign.taint with
  | None -> print_endline "no propagation summary recorded"
  | Some (s : Interp.Taint.summary) ->
    let dist = function None -> "-" | Some d -> Printf.sprintf "+%d" d in
    Printf.printf "taint     : reg hwm %d, mem words %d, %d events\n"
      s.ts_reg_hwm s.ts_mem_words s.ts_events_total;
    Printf.printf
      "distances : first store %s, first branch %s, died %s, end %s\n"
      (dist s.ts_first_store) (dist s.ts_first_branch) (dist s.ts_died_at)
      (dist s.ts_end_distance);
    Printf.printf "output    : %s\n"
      (if s.ts_output_tainted then "TAINTED" else "clean");
    print_endline "\npropagation (distance from injection, event, site):";
    List.iter print_endline
      (Softft.Report.render_taint_events p.Softft.prog s);
    let shown = List.length s.ts_events in
    if s.ts_events_total > shown then
      Printf.printf "... %d further events not retained (limit %d)\n"
        (s.ts_events_total - shown)
        Interp.Taint.event_limit

let trial_index_arg =
  let doc =
    "Campaign trial index to replay (same seed discipline as a uniform \
     `campaign')."
  in
  Arg.(value & opt non_negative_int 0 & info [ "trial"; "i" ] ~docv:"INDEX" ~doc)

let trace_fault_cmd =
  let doc =
    "Replay one campaign trial with the fault-propagation tracer and \
     render how the injected fault flowed through the program."
  in
  Cmd.v
    (Cmd.info "trace-fault" ~doc)
    Term.(
      const run_trace_fault $ name_arg $ technique_arg $ seed_arg
      $ trial_index_arg)

let main_cmd =
  let doc =
    "Reproduction of `Harnessing Soft Computations for Low-budget Fault \
     Tolerance' (MICRO 2014)"
  in
  Cmd.group
    (Cmd.info "experiments" ~version:"1.0.0" ~doc)
    [ all_cmd; study_cmd; campaign_cmd; coverage_cmd;
      optimize_cmd; lint_cmd;
      report_cmd; ingest_cmd; history_cmd; diff_runs_cmd;
      regress_cmd; heatmap_cmd; table1_cmd; dump_cmd; trace_cmd;
      trace_fault_cmd ]

let () = exit (Cmd.eval main_cmd)
