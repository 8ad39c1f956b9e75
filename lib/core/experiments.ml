(** Reproduction drivers for every table and figure of the paper's
    evaluation (see DESIGN.md §4 for the experiment index).

    [evaluate] runs the full matrix (workload x technique): protection,
    golden run, overhead and a fault-injection campaign; the per-figure
    functions slice and print that matrix the way the paper does. *)

open Faults

type cell = {
  technique : Api.technique;
  static_stats : Transform.Pipeline.stats;
  golden : Campaign.golden;
  overhead : float;                       (** vs. Original on the same input *)
  summary : Campaign.summary;
}

type bench_result = {
  workload : Workloads.Workload.t;
  cells : cell list;                      (** one per technique, in order *)
}

let find_cell r technique =
  match List.find_opt (fun c -> c.technique = technique) r.cells with
  | Some c -> c
  | None ->
    invalid_arg
      (Printf.sprintf "no %s cell for %s"
         (Api.technique_name technique) r.workload.name)

(** Run the full evaluation matrix on the test input.  [trials] is per
    (workload, technique); the paper uses 1000.  [domains] parallelizes each campaign over OCaml 5
    domains without changing any result (see {!Faults.Campaign.run}).
    [log] is a structured {!Obs.Log} logger; every campaign emits a start
    event and a completion event carrying its wall-clock timings. *)
let evaluate ?(trials = 200) ?(seed = 0xC0FFEE)
    ?(techniques = Api.all_techniques) ?(log = Obs.Log.null)
    ?domains workloads =
  let role = Workloads.Workload.Test in
  List.map
    (fun (w : Workloads.Workload.t) ->
      let baseline = ref None in
      let cells =
        List.map
          (fun technique ->
            let tname = Api.technique_name technique in
            Obs.Log.info log
              ~fields:
                [ ("workload", Obs.Json.Str w.name);
                  ("technique", Obs.Json.Str tname);
                  ("trials", Obs.Json.Int trials) ]
              "campaign start";
            let p = Api.protect w technique in
            let golden = Api.golden p ~role in
            (match technique with
             | Api.Original -> baseline := Some golden
             | Api.Dup_only | Api.Dup_valchk | Api.Full_dup | Api.Cfc_only
             | Api.Dup_valchk_cfc | Api.Planned -> ());
            let overhead =
              match !baseline with
              | Some base ->
                (float_of_int golden.cycles /. float_of_int base.cycles) -. 1.0
              | None -> 0.0
            in
            let stats = ref None in
            let summary, (_ : Campaign.trial list) =
              Api.campaign p ~role ~trials ~seed ?domains ~stats_out:stats
            in
            Obs.Log.info log
              ~fields:
                ([ ("workload", Obs.Json.Str w.name);
                   ("technique", Obs.Json.Str tname);
                   ("usdc_pct",
                    Obs.Json.Float
                      (Campaign.percent_many summary
                         [ Classify.Usdc_large; Classify.Usdc_small ])) ]
                 @ (match !stats with
                    | Some (rs : Campaign.run_stats) ->
                      [ ("wall_sec", Obs.Json.Float rs.wall_sec);
                        ("trials_sec", Obs.Json.Float rs.trials_sec);
                        ("golden_reused", Obs.Json.Bool rs.golden_reused) ]
                    | None -> []))
              "campaign done";
            { technique; static_stats = p.static_stats; golden; overhead;
              summary })
          techniques
      in
      { workload = w; cells })
    workloads

(* ----- Figure 2: SDC breakdown of unmodified applications ----- *)

let fig2_header =
  [ "benchmark"; "SDC%"; "ASDC%"; "USDC-large%"; "USDC-small%" ]

let fig2_rows results =
  let row r =
    let c = find_cell r Api.Original in
    let p o = Campaign.percent c.summary o in
    [ r.workload.name;
      Report.pct (p Classify.Asdc +. p Classify.Usdc_large +. p Classify.Usdc_small);
      Report.pct (p Classify.Asdc);
      Report.pct (p Classify.Usdc_large);
      Report.pct (p Classify.Usdc_small) ]
  in
  let mean outs =
    Campaign.mean_percent
      (List.map (fun r -> (find_cell r Api.Original).summary) results)
      outs
  in
  List.map row results
  @ [ [ "average";
        Report.pct (mean [ Classify.Asdc; Classify.Usdc_large; Classify.Usdc_small ]);
        Report.pct (mean [ Classify.Asdc ]);
        Report.pct (mean [ Classify.Usdc_large ]);
        Report.pct (mean [ Classify.Usdc_small ]) ] ]

let print_fig2 results =
  Report.print
    ~title:"Figure 2: SDCs of unmodified applications, split into \
            acceptable and unacceptable (large/small value change)"
    ~header:fig2_header ~rows:(fig2_rows results)

(* ----- Figure 10: static transformation statistics ----- *)

let fig10_header =
  [ "benchmark"; "static IR"; "state vars"; "dup instrs"; "value chks";
    "dup%"; "chk%" ]

let fig10_rows results =
  List.map
    (fun r ->
      let s = (find_cell r Api.Dup_valchk).static_stats in
      [ r.workload.name;
        string_of_int s.original_instrs;
        string_of_int s.state_vars;
        string_of_int s.duplicated_instrs;
        string_of_int s.value_checks;
        Report.frac_pct (Transform.Pipeline.duplicated_fraction s);
        Report.frac_pct (Transform.Pipeline.value_check_fraction s) ])
    results

let print_fig10 results =
  Report.print
    ~title:"Figure 10: state variables, duplicated instructions and value \
            checks as fractions of static IR instructions (Dup + val chks)"
    ~header:fig10_header ~rows:(fig10_rows results)

(* ----- Figure 11: fault outcome classification ----- *)

let fig11_techniques = [ Api.Original; Api.Dup_only; Api.Dup_valchk ]

let fig11_header =
  [ "benchmark/technique"; "Masked%"; "SWDetect%"; "HWDetect%"; "Failure%";
    "USDC%" ]

let fig11_row_of_summary label (s : Campaign.summary) =
  let p os = Campaign.percent_many s os in
  [ label;
    Report.pct (p [ Classify.Masked; Classify.Asdc ]);
    Report.pct (p [ Classify.Sw_detect ]);
    Report.pct (p [ Classify.Hw_detect ]);
    Report.pct (p [ Classify.Failure ]);
    Report.pct (p [ Classify.Usdc_large; Classify.Usdc_small ]) ]

let fig11_rows results =
  List.concat_map
    (fun r ->
      List.map
        (fun t ->
          let c = find_cell r t in
          fig11_row_of_summary
            (Printf.sprintf "%s/%s" r.workload.name (Api.technique_name t))
            c.summary)
        fig11_techniques)
    results
  @ List.map
      (fun t ->
        let summaries = List.map (fun r -> (find_cell r t).summary) results in
        let mean os = Campaign.mean_percent summaries os in
        [ Printf.sprintf "average/%s" (Api.technique_name t);
          Report.pct (mean [ Classify.Masked; Classify.Asdc ]);
          Report.pct (mean [ Classify.Sw_detect ]);
          Report.pct (mean [ Classify.Hw_detect ]);
          Report.pct (mean [ Classify.Failure ]);
          Report.pct (mean [ Classify.Usdc_large; Classify.Usdc_small ]) ])
      fig11_techniques

let print_fig11 results =
  Report.print
    ~title:"Figure 11: fault-injection outcome classification"
    ~header:fig11_header ~rows:(fig11_rows results)

(* ----- Figure 12: performance overhead ----- *)

let fig12_header =
  [ "benchmark"; "Dup only"; "Dup + val chks"; "Full duplication" ]

let fig12_rows results =
  let pct_of r t = 100.0 *. (find_cell r t).overhead in
  List.map
    (fun r ->
      [ r.workload.name;
        Report.pct (pct_of r Api.Dup_only);
        Report.pct (pct_of r Api.Dup_valchk);
        Report.pct (pct_of r Api.Full_dup) ])
    results
  @ (let mean t =
       List.fold_left (fun acc r -> acc +. pct_of r t) 0.0 results
       /. float_of_int (max 1 (List.length results))
     in
     [ [ "average";
         Report.pct (mean Api.Dup_only);
         Report.pct (mean Api.Dup_valchk);
         Report.pct (mean Api.Full_dup) ] ])

let print_fig12 results =
  Report.print
    ~title:"Figure 12: runtime overhead vs. unmodified (simulated cycles)"
    ~header:fig12_header ~rows:(fig12_rows results)

(* ----- Figure 13: ASDC/USDC split of SDCs per technique ----- *)

let fig13_header =
  [ "benchmark/technique"; "SDC%"; "ASDC%"; "USDC%" ]

let fig13_rows results =
  List.concat_map
    (fun r ->
      List.map
        (fun t ->
          let s = (find_cell r t).summary in
          let p os = Campaign.percent_many s os in
          [ Printf.sprintf "%s/%s" r.workload.name (Api.technique_name t);
            Report.pct
              (p [ Classify.Asdc; Classify.Usdc_large; Classify.Usdc_small ]);
            Report.pct (p [ Classify.Asdc ]);
            Report.pct (p [ Classify.Usdc_large; Classify.Usdc_small ]) ])
        fig11_techniques)
    results
  @ List.map
      (fun t ->
        let summaries = List.map (fun r -> (find_cell r t).summary) results in
        let mean os = Campaign.mean_percent summaries os in
        [ Printf.sprintf "average/%s" (Api.technique_name t);
          Report.pct
            (mean [ Classify.Asdc; Classify.Usdc_large; Classify.Usdc_small ]);
          Report.pct (mean [ Classify.Asdc ]);
          Report.pct (mean [ Classify.Usdc_large; Classify.Usdc_small ]) ])
      fig11_techniques

let print_fig13 results =
  Report.print
    ~title:"Figure 13: silent data corruptions split into acceptable and \
            unacceptable"
    ~header:fig13_header ~rows:(fig13_rows results)

(* ----- Table I: benchmark inventory ----- *)

let table1_header =
  [ "benchmark (suite)"; "category"; "inputs"; "fidelity (threshold)" ]

let table1_rows () =
  List.map
    (fun (w : Workloads.Workload.t) ->
      [ Printf.sprintf "%s (%s)" w.name w.suite;
        w.category;
        Printf.sprintf "%s / %s" w.train_desc w.test_desc;
        Fidelity.Metric.spec_to_string w.metric ])
    Workloads.Registry.all

let print_table1 () =
  Report.print ~title:"Table I: benchmarks and fidelity measures"
    ~header:table1_header ~rows:(table1_rows ())

(* ----- Table II: simulated machine parameters ----- *)

let print_table2 () =
  Report.print ~title:"Table II: simulated machine parameters"
    ~header:[ "parameter"; "value" ]
    ~rows:(List.map (fun (k, v) -> [ k; v ]) (Interp.Cost.describe ()))

(* ----- False positives (paper §V): value-check failures, fault-free ----- *)

let falsepos_header =
  [ "benchmark"; "value chks"; "false positives"; "instructions"; "rate" ]

let falsepos_rows results =
  List.map
    (fun r ->
      let c = find_cell r Api.Dup_valchk in
      let fp = c.golden.false_positives in
      let rate =
        if fp = 0 then "none"
        else Printf.sprintf "1 per %d" (c.golden.steps / fp)
      in
      [ r.workload.name;
        string_of_int c.static_stats.value_checks;
        string_of_int fp;
        string_of_int c.golden.steps;
        rate ])
    results

let print_falsepos results =
  Report.print
    ~title:"False positives: value-check failures on fault-free runs \
            (checks that fire are disabled after one spurious recovery)"
    ~header:falsepos_header ~rows:(falsepos_rows results)

(* ----- Cross-validation (paper §V): swap train and test inputs ----- *)

type crossval_row = {
  cv_name : string;
  normal : Campaign.summary;
  swapped : Campaign.summary;
}

(** Profile on the test input and inject on the train input (the reverse of
    the normal direction), as the paper does for jpegdec and kmeans. *)
let crossval ?(trials = 200) ?(seed = 0xBEEF) ?(names = [ "jpegdec"; "kmeans" ])
    ?domains () =
  List.map
    (fun name ->
      let w = Workloads.Registry.find name in
      let normal_p = Api.protect w Api.Dup_valchk in
      let normal, (_ : Campaign.trial list) =
        Api.campaign normal_p ~role:Workloads.Workload.Test ~trials ~seed
          ?domains
      in
      let swapped_p =
        Api.protect ~profile_role:Workloads.Workload.Test w Api.Dup_valchk
      in
      let swapped, (_ : Campaign.trial list) =
        Api.campaign swapped_p ~role:Workloads.Workload.Train ~trials ~seed
          ?domains
      in
      { cv_name = name; normal; swapped })

    names

let crossval_header =
  [ "benchmark"; "direction"; "Masked%"; "SWDetect%"; "HWDetect%"; "Failure%";
    "USDC%" ]

let crossval_rows rows =
  List.concat_map
    (fun r ->
      let line label (s : Campaign.summary) =
        let p os = Campaign.percent_many s os in
        [ r.cv_name; label;
          Report.pct (p [ Classify.Masked; Classify.Asdc ]);
          Report.pct (p [ Classify.Sw_detect ]);
          Report.pct (p [ Classify.Hw_detect ]);
          Report.pct (p [ Classify.Failure ]);
          Report.pct (p [ Classify.Usdc_large; Classify.Usdc_small ]) ]
      in
      [ line "train->test" r.normal; line "test->train" r.swapped ])
    rows

let print_crossval rows =
  Report.print
    ~title:"Cross-validation: profile/inject input roles swapped \
            (Dup + val chks)"
    ~header:crossval_header ~rows:(crossval_rows rows)

(* ----- Coverage summary (paper abstract numbers) ----- *)

let print_headline results =
  let mean_pct t os =
    Campaign.mean_percent (List.map (fun r -> (find_cell r t).summary) results) os
  in
  let sdc = [ Classify.Asdc; Classify.Usdc_large; Classify.Usdc_small ] in
  let usdc = [ Classify.Usdc_large; Classify.Usdc_small ] in
  let mean_ovh t =
    100.0
    *. (List.fold_left (fun acc r -> acc +. (find_cell r t).overhead) 0.0 results
        /. float_of_int (max 1 (List.length results)))
  in
  Printf.printf
    "\n== Headline (paper: SDC 15%%->7.3%%, USDC 3.4%%->1.2%% at 19.5%% \
     overhead; full dup 1.4%% USDC at 57%%) ==\n";
  Printf.printf "%-18s %8s %8s %10s\n" "technique" "SDC%" "USDC%" "overhead%";
  List.iter
    (fun t ->
      Printf.printf "%-18s %7.1f%% %7.1f%% %9.1f%%\n"
        (Api.technique_name t) (mean_pct t sdc) (mean_pct t usdc)
        (mean_ovh t))
    [ Api.Original; Api.Dup_only; Api.Dup_valchk; Api.Full_dup ];
  (* The §V comparison quantity: what fraction of the unmodified
     program's USDCs the implemented detectors remove (paper: 82.5 % at
     19.5 % overhead). *)
  let usdc_orig = mean_pct Api.Original usdc in
  if usdc_orig > 0.0 then
    Printf.printf
      "USDC coverage of Dup + val chks: %.1f%% (paper §V: 82.5%%)\n"
      (100.0 *. (usdc_orig -. mean_pct Api.Dup_valchk usdc) /. usdc_orig)

(* ----- Ablation: the two interaction optimizations (paper §III-C) ----- *)

type ablation_row = {
  ab_label : string;
  ab_checks : int;
  ab_duplicated : int;
  ab_overhead : float;
  ab_usdc : float;
  ab_swdetect : float;
}

(** Compare Dup+val chks with each optimization toggled off, on one
    workload.  Opt. 1 removes redundant checks on one producer chain;
    Opt. 2 trades duplication for checks. *)
let ablation ?(trials = 200) ?(seed = 0xAB1A) ?domains
    (w : Workloads.Workload.t) =
  let role = Workloads.Workload.Test in
  let baseline = Api.golden (Api.protect w Api.Original) ~role in
  let configuration ~label ~opt1 ~opt2 =
    let p = Api.protect ~opt1 ~opt2 w Api.Dup_valchk in
    let overhead = Api.overhead ~baseline p ~role in
    let summary, (_ : Campaign.trial list) =
      Api.campaign p ~role ~trials ~seed ?domains
    in
    { ab_label = label;
      ab_checks = p.static_stats.value_checks;
      ab_duplicated = p.static_stats.duplicated_instrs;
      ab_overhead = overhead;
      ab_usdc =
        Campaign.percent_many summary [ Classify.Usdc_large; Classify.Usdc_small ];
      ab_swdetect = Campaign.percent summary Classify.Sw_detect }
  in
  [ configuration ~label:"both optimizations" ~opt1:true ~opt2:true;
    configuration ~label:"without opt 1" ~opt1:false ~opt2:true;
    configuration ~label:"without opt 2" ~opt1:true ~opt2:false;
    configuration ~label:"without either" ~opt1:false ~opt2:false;
  ]

let print_ablation w rows =
  Report.print
    ~title:
      (Printf.sprintf
         "Ablation on %s: interaction optimizations of Dup + val chks"
         w.Workloads.Workload.name)
    ~header:[ "configuration"; "checks"; "dup instrs"; "overhead"; "SWDetect%"; "USDC%" ]
    ~rows:
      (List.map
         (fun r ->
           [ r.ab_label;
             string_of_int r.ab_checks;
             string_of_int r.ab_duplicated;
             Report.pct (100.0 *. r.ab_overhead);
             Report.pct r.ab_swdetect;
             Report.pct r.ab_usdc ])
         rows)

(* ----- Detection latency (paper §IV-D): the window recovery must cover ----- *)

type latency_row = {
  lat_label : string;
  lat_detections : int;
  lat_mean : float;
  lat_median : int;
  lat_p95 : int;
  lat_within_1000 : float;   (** fraction of detections within the ~1000
                                 instruction checkpoint the paper assumes *)
}

let latency_of_trials label trials =
  let latencies =
    List.filter_map (fun t -> t.Campaign.detect_latency) trials
    |> List.sort compare
  in
  let n = List.length latencies in
  let within = List.length (List.filter (fun l -> l <= 1000) latencies) in
  { lat_label = label; lat_detections = n;
    lat_mean = Report.mean_of latencies;
    lat_median = Report.nth_pct latencies 50;
    lat_p95 = Report.nth_pct latencies 95;
    lat_within_1000 = float_of_int within /. float_of_int (max 1 n) }

(** Detection-latency study: how many dynamic instructions pass between a
    flip and its detection, per technique.  A checkpoint-based recovery
    needs state at least that old (the paper argues ~1000 instructions). *)
let latency ?(trials = 300) ?(seed = 0x1A7) ?domains workloads =
  List.concat_map
    (fun (w : Workloads.Workload.t) ->
      List.map
        (fun technique ->
          let p = Api.protect w technique in
          let (_ : Campaign.summary), trial_list =
            Api.campaign p ~role:Workloads.Workload.Test ~trials ~seed ?domains
          in
          latency_of_trials
            (Printf.sprintf "%s/%s" w.name (Api.technique_name technique))
            trial_list)
        [ Api.Dup_only; Api.Dup_valchk ])
    workloads

let print_latency rows =
  Report.print
    ~title:
      "Detection latency: dynamic instructions between fault and detection \
       (SWDetect + HWDetect)"
    ~header:
      [ "benchmark/technique"; "detections"; "mean"; "median"; "p95";
        "within 1000" ]
    ~rows:
      (List.map
         (fun r ->
           [ r.lat_label;
             string_of_int r.lat_detections;
             Printf.sprintf "%.0f" r.lat_mean;
             string_of_int r.lat_median;
             string_of_int r.lat_p95;
             Report.frac_pct r.lat_within_1000 ])
         rows)

(* ----- Checkpoint/rollback recovery (DESIGN.md §9): what turning the
   detections into transparent repairs costs, as a function of how often
   state is checkpointed ----- *)

type recovery_row = {
  rc_interval : int;        (** checkpoint interval; 0 = recovery off *)
  rc_overhead : float;      (** fault-free checkpointing overhead vs. the
                                same protected program without it *)
  rc_swdetect : float;      (** % of trials still stopping at a check *)
  rc_recovered : float;     (** % rolled back and replayed to the golden
                                output *)
  rc_unrecoverable : float; (** % whose detection outran the checkpoints *)
  rc_usdc : float;          (** % unacceptable SDCs (recovery-independent) *)
  rc_mean_replay : float;   (** mean replayed steps over recovered trials *)
  rc_mean_ckpts : float;    (** mean checkpoints taken per trial *)
}

(** Sweep the checkpoint interval on one Dup + val chks workload: the runtime
    cost of checkpointing more often against the fraction of
    software-detected faults that become transparent recoveries.  The
    paper's §IV-D argument — detection latencies are almost always under
    ~1000 instructions — predicts that an interval around 1000 already
    recovers nearly every detection while keeping overhead low.  The first
    returned row is the recovery-off baseline. *)
let recovery ?(trials = 300) ?(seed = 0x5EC0) ?domains
    (w : Workloads.Workload.t) =
  let role = Workloads.Workload.Test in
  let p = Api.protect w Api.Dup_valchk in
  let base = Api.golden p ~role in
  let row interval =
    let summary, trial_list =
      Api.campaign p ~role ~trials ~seed ?domains
        ~checkpoint_interval:interval
    in
    let golden = summary.Campaign.golden_info in
    { rc_interval = interval;
      rc_overhead =
        (float_of_int golden.Campaign.cycles /. float_of_int base.Campaign.cycles)
        -. 1.0;
      rc_swdetect = Campaign.percent summary Classify.Sw_detect;
      rc_recovered = Campaign.percent summary Classify.Recovered;
      rc_unrecoverable = Campaign.percent summary Classify.Unrecoverable;
      rc_usdc =
        Campaign.percent_many summary
          [ Classify.Usdc_large; Classify.Usdc_small ];
      rc_mean_replay =
        Report.mean_of
          (List.filter_map
             (fun (t : Campaign.trial) ->
               Option.map
                 (fun (r : Interp.Machine.recovery) -> r.rec_replayed_steps)
                 t.recovery)
             trial_list);
      rc_mean_ckpts =
        Report.mean_of
          (List.map (fun (t : Campaign.trial) -> t.Campaign.checkpoints)
             trial_list) }
  in
  row 0 :: List.map row [ 250; 500; 1000; 2000; 4000 ]

let print_recovery w rows =
  Report.print
    ~title:
      (Printf.sprintf
         "Checkpoint/rollback recovery on %s: interval vs. overhead vs. \
          recovered fraction (paper argues a ~1000-instruction window \
          suffices)"
         w.Workloads.Workload.name)
    ~header:
      [ "interval"; "overhead"; "SWDetect%"; "Recovered%"; "Unrecov%";
        "USDC%"; "mean replay"; "ckpts/trial" ]
    ~rows:
      (List.map
         (fun r ->
           [ (if r.rc_interval = 0 then "off" else string_of_int r.rc_interval);
             Report.pct (100.0 *. r.rc_overhead);
             Report.pct r.rc_swdetect;
             Report.pct r.rc_recovered;
             Report.pct r.rc_unrecoverable;
             Report.pct r.rc_usdc;
             Printf.sprintf "%.0f" r.rc_mean_replay;
             Printf.sprintf "%.1f" r.rc_mean_ckpts ])
         rows)

(* ----- Branch-target faults (paper §IV-C): the class the paper defers to
   signature-based control-flow checking ----- *)

type branchfault_row = {
  bf_label : string;
  bf_summary : Campaign.summary;
}

(** Inject branch-target corruptions (instead of register bit flips) and
    compare the paper's scheme with and without the complementary
    signature-based control-flow checking. *)
let branch_faults ?(trials = 200) ?(seed = 0xB4A) ?domains workloads =
  List.concat_map
    (fun (w : Workloads.Workload.t) ->
      List.map
        (fun technique ->
          let p = Api.protect w technique in
          let subject = Api.subject p ~role:Workloads.Workload.Test in
          let summary, (_ : Campaign.trial list) =
            Campaign.run ~seed ~fault_kind:Interp.Machine.Branch_target
              ?domains subject ~trials
          in
          { bf_label =
              Printf.sprintf "%s/%s" w.name (Api.technique_name technique);
            bf_summary = summary })
        [ Api.Original; Api.Dup_valchk; Api.Dup_valchk_cfc ])
    workloads

let print_branch_faults rows =
  Report.print
    ~title:
      "Branch-target faults: outcomes when the corrupted value is a branch \
       target (the paper's scheme needs the complementary CFC signatures \
       here)"
    ~header:
      [ "benchmark/technique"; "Masked%"; "SWDetect%"; "HWDetect%";
        "Failure%"; "USDC%" ]
    ~rows:
      (List.map
         (fun r ->
           let p os = Campaign.percent_many r.bf_summary os in
           [ r.bf_label;
             Report.pct (p [ Classify.Masked; Classify.Asdc ]);
             Report.pct (p [ Classify.Sw_detect ]);
             Report.pct (p [ Classify.Hw_detect ]);
             Report.pct (p [ Classify.Failure ]);
             Report.pct (p [ Classify.Usdc_large; Classify.Usdc_small ]) ])
         rows)

(* ----- Detection sources: which kind of check catches what ----- *)

type sources_row = {
  src_label : string;
  src_swdetect : int;
  src_dup_checks : int;     (** caught by a duplication compare *)
  src_value_checks : int;   (** caught by an expected-value check *)
}

(** Decompose SWDetect by detector kind — the anatomy of the Dup only vs.
    Dup + val chks gap.  Under Dup only every detection is a duplication
    compare; under the full scheme the value checks add coverage on the
    non-state computation. *)
let detection_sources ?(trials = 300) ?(seed = 0x5EC) ?domains workloads =
  List.concat_map
    (fun (w : Workloads.Workload.t) ->
      List.map
        (fun technique ->
          let p = Api.protect w technique in
          let (_ : Campaign.summary), trial_list =
            Api.campaign p ~role:Workloads.Workload.Test ~trials ~seed ?domains
          in
          let detections =
            List.filter_map (fun t -> t.Campaign.detected_by) trial_list
          in
          { src_label =
              Printf.sprintf "%s/%s" w.name (Api.technique_name technique);
            src_swdetect = List.length detections;
            src_dup_checks =
              List.length
                (List.filter
                   (fun (d : Interp.Machine.detection) -> d.dup_check)
                   detections);
            src_value_checks =
              List.length
                (List.filter
                   (fun (d : Interp.Machine.detection) -> not d.dup_check)
                   detections) })
        [ Api.Dup_only; Api.Dup_valchk ])
    workloads

let print_detection_sources rows =
  Report.print
    ~title:"Detection sources: SWDetect decomposed by detector kind"
    ~header:[ "benchmark/technique"; "SWDetect"; "dup checks"; "value checks" ]
    ~rows:
      (List.map
         (fun r ->
           [ r.src_label;
             string_of_int r.src_swdetect;
             string_of_int r.src_dup_checks;
             string_of_int r.src_value_checks ])
         rows)

(* ----- CSV export for downstream plotting ----- *)

(** Comma-separated form of the full evaluation matrix: one row per
    (benchmark, technique) with outcome percentages, overhead and static
    statistics — the file a plotting script would consume to redraw the
    paper's figures. *)
let to_csv results =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf
    "benchmark,technique,trials,masked_pct,asdc_pct,usdc_large_pct,\
     usdc_small_pct,swdetect_pct,hwdetect_pct,failure_pct,overhead_pct,\
     static_instrs,state_vars,duplicated,value_checks,golden_cycles,\
     false_positives\n";
  List.iter
    (fun r ->
      List.iter
        (fun c ->
          let p o = Campaign.percent c.summary o in
          Buffer.add_string buf
            (Printf.sprintf "%s,%s,%d,%.2f,%.2f,%.2f,%.2f,%.2f,%.2f,%.2f,%.2f,%d,%d,%d,%d,%d,%d\n"
               (Obs.Csv.field r.workload.Workloads.Workload.name)
               (Obs.Csv.field (Api.technique_name c.technique))
               c.summary.trials (p Classify.Masked) (p Classify.Asdc)
               (p Classify.Usdc_large) (p Classify.Usdc_small)
               (p Classify.Sw_detect) (p Classify.Hw_detect)
               (p Classify.Failure)
               (100.0 *. c.overhead)
               c.static_stats.original_instrs c.static_stats.state_vars
               c.static_stats.duplicated_instrs c.static_stats.value_checks
               c.golden.cycles c.golden.false_positives))
        r.cells)
    results;
  Buffer.contents buf

let write_csv path results =
  Faults.Journal.replace_file ~path (fun oc -> output_string oc (to_csv results))
