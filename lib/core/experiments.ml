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

(** Run the full evaluation matrix.  [trials] is per (workload, technique);
    the paper uses 1000.  [domains] parallelizes each campaign over OCaml 5
    domains without changing any result (see {!Faults.Campaign.run}).
    [log] is a structured {!Obs.Log} logger; every campaign emits a start
    event and a completion event carrying its wall-clock timings. *)
let evaluate ?(trials = 200) ?(seed = 0xC0FFEE) ?(role = Workloads.Workload.Test)
    ?(techniques = Api.all_techniques) ?(log = Obs.Log.null)
    ?domains workloads =
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
                        ("trials_sec", Obs.Json.Float rs.trials_sec) ]
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

let fig11_rows ?(techniques = fig11_techniques) results =
  List.concat_map
    (fun r ->
      List.map
        (fun t ->
          let c = find_cell r t in
          fig11_row_of_summary
            (Printf.sprintf "%s/%s" r.workload.name (Api.technique_name t))
            c.summary)
        techniques)
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
      techniques

let print_fig11 ?techniques results =
  Report.print
    ~title:"Figure 11: fault-injection outcome classification"
    ~header:fig11_header ~rows:(fig11_rows ?techniques results)

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

let fig13_rows ?(techniques = fig11_techniques) results =
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
        techniques)
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
      techniques

let print_fig13 ?techniques results =
  Report.print
    ~title:"Figure 13: silent data corruptions split into acceptable and \
            unacceptable"
    ~header:fig13_header ~rows:(fig13_rows ?techniques results)

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
  if n = 0 then
    { lat_label = label; lat_detections = 0; lat_mean = 0.0; lat_median = 0;
      lat_p95 = 0; lat_within_1000 = 0.0 }
  else begin
    let arr = Array.of_list latencies in
    let mean =
      float_of_int (Array.fold_left ( + ) 0 arr) /. float_of_int n
    in
    let within =
      float_of_int (List.length (List.filter (fun l -> l <= 1000) latencies))
      /. float_of_int n
    in
    { lat_label = label; lat_detections = n; lat_mean = mean;
      lat_median = arr.(n / 2); lat_p95 = arr.(min (n - 1) (n * 95 / 100));
      lat_within_1000 = within }
  end

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

(** Sweep the checkpoint interval on one protected workload: the runtime
    cost of checkpointing more often against the fraction of
    software-detected faults that become transparent recoveries.  The
    paper's §IV-D argument — detection latencies are almost always under
    ~1000 instructions — predicts that an interval around 1000 already
    recovers nearly every detection while keeping overhead low.  The first
    returned row is the recovery-off baseline. *)
let recovery ?(trials = 300) ?(seed = 0x5EC0) ?domains
    ?(technique = Api.Dup_valchk) ?(intervals = [ 250; 500; 1000; 2000; 4000 ])
    (w : Workloads.Workload.t) =
  let role = Workloads.Workload.Test in
  let p = Api.protect w technique in
  let base = Api.golden p ~role in
  let mean = function
    | [] -> 0.0
    | l ->
      float_of_int (List.fold_left ( + ) 0 l) /. float_of_int (List.length l)
  in
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
        mean
          (List.filter_map
             (fun (t : Campaign.trial) ->
               Option.map
                 (fun (r : Interp.Machine.recovery) -> r.rec_replayed_steps)
                 t.recovery)
             trial_list);
      rc_mean_ckpts =
        mean (List.map (fun (t : Campaign.trial) -> t.Campaign.checkpoints)
                trial_list) }
  in
  row 0 :: List.map row intervals

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
               (Report.csv_field r.workload.Workloads.Workload.name)
               (Report.csv_field (Api.technique_name c.technique))
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
  let oc = open_out path in
  output_string oc (to_csv results);
  close_out oc

(* ----- Journal reports: aggregate a campaign trial journal (see
   Faults.Journal) into the paper-style per-check and latency views that
   the end-of-campaign summary tables discard ----- *)

(* [stats] is the manifest's final-stats object (["stats"], journal v4+).
   The CI column renders only from it: a pre-v4 journal carries no final
   intervals, and recomputing them from replayed views would silently
   report confidence the journal never recorded — those rows degrade to
   "—" instead.  Outcomes the manifest omits were unobserved (k = 0), so
   their interval is recomputed from the zero count, which is exactly what
   the writer would have stamped. *)
let journal_outcome_rows ?stats (views : Faults.Journal.view list) =
  let trials = List.length views in
  let total = max 1 trials in
  List.map
    (fun o ->
      let name = Classify.name o in
      let n =
        List.length
          (List.filter
             (fun (v : Faults.Journal.view) -> v.v_outcome = name)
             views)
      in
      let ci =
        match stats with
        | None -> "\xe2\x80\x94"   (* — : pre-v4 journal, no final stats *)
        | Some stats ->
          let iv =
            match Obs.Json.member name stats with
            | Some entry ->
              let f field =
                Option.bind (Obs.Json.member field entry) Obs.Json.to_float
              in
              (match (f "lo", f "hi") with
               | Some lo, Some hi -> (lo, hi)
               | _ ->
                 let iv = Obs.Stats.wilson ~k:n ~n:trials () in
                 (iv.Obs.Stats.ci_low, iv.Obs.Stats.ci_high))
            | None ->
              let iv = Obs.Stats.wilson ~k:n ~n:trials () in
              (iv.Obs.Stats.ci_low, iv.Obs.Stats.ci_high)
          in
          Printf.sprintf "[%.1f, %.1f]" (100.0 *. fst iv) (100.0 *. snd iv)
      in
      [ name; string_of_int n;
        Report.pct (100.0 *. float_of_int n /. float_of_int total);
        ci ])
    Classify.all

(** Detection-latency histogram (log2 buckets) over every trial that
    recorded a latency — the distribution a checkpoint-recovery scheme
    must cover (paper §IV-D). *)
let journal_latency_rows (views : Faults.Journal.view list) =
  let reg = Obs.Metrics.registry () in
  let h = Obs.Metrics.histogram reg "detect_latency" in
  List.iter
    (fun (v : Faults.Journal.view) ->
      match v.v_latency with
      | Some l -> Obs.Metrics.observe h l
      | None -> ())
    views;
  let total = max 1 (Obs.Metrics.hist_count h) in
  let cumulative = ref 0 in
  let bucket_rows =
    List.map
      (fun (lo, hi, n) ->
        cumulative := !cumulative + n;
        [ Printf.sprintf "[%d, %d)" lo hi;
          string_of_int n;
          Report.pct (100.0 *. float_of_int !cumulative /. float_of_int total)
        ])
      (Obs.Metrics.hist_buckets h)
  in
  (* Interpolated quantiles straight from the histogram; tighter than the
     bucket upper bounds once log2 buckets get wide. *)
  let quantile_rows =
    if Obs.Metrics.hist_count h = 0 then []
    else
      List.map
        (fun (label, q) ->
          [ label; string_of_int (Obs.Metrics.approx_quantile h q); "" ])
        [ ("~p50", 0.5); ("~p95", 0.95); ("~p99", 0.99) ]
  in
  bucket_rows @ quantile_rows

(* Latencies of the SWDetect trials a given check caught, plus helpers. *)
let check_groups (views : Faults.Journal.view list) =
  let by_uid : (int, bool * int list ref) Hashtbl.t = Hashtbl.create 16 in
  List.iter
    (fun (v : Faults.Journal.view) ->
      match v.v_check_uid with
      | None -> ()
      | Some uid ->
        let dup = match v.v_dup_check with Some d -> d | None -> false in
        let lats =
          match Hashtbl.find_opt by_uid uid with
          | Some (_, l) -> l
          | None ->
            let l = ref [] in
            Hashtbl.replace by_uid uid (dup, l);
            l
        in
        (match v.v_latency with Some l -> lats := l :: !lats | None -> ()))
    views;
  Hashtbl.fold
    (fun uid (dup, lats) acc -> (uid, dup, List.sort compare !lats) :: acc)
    by_uid []
  |> List.sort (fun (ua, _, la) (ub, _, lb) ->
         match compare (List.length lb) (List.length la) with
         | 0 -> compare ua ub
         | c -> c)

let mean_of = function
  | [] -> 0.0
  | l ->
    float_of_int (List.fold_left ( + ) 0 l) /. float_of_int (List.length l)

let nth_pct sorted p =
  match sorted with
  | [] -> 0
  | _ :: _ ->
    let n = List.length sorted in
    List.nth sorted (min (n - 1) (n * p / 100))

(** Per-check firing table: which detector catches how many faults, at
    what latency — the Table I / Figure 9 style decomposition DETOx-like
    placement studies need. *)
let journal_check_rows (views : Faults.Journal.view list) =
  let detections =
    List.length
      (List.filter
         (fun (v : Faults.Journal.view) -> v.v_check_uid <> None)
         views)
  in
  List.map
    (fun (uid, dup, lats) ->
      let fires =
        List.length
          (List.filter
             (fun (v : Faults.Journal.view) -> v.v_check_uid = Some uid)
             views)
      in
      [ string_of_int uid;
        (if dup then "dup" else "value");
        string_of_int fires;
        Report.pct
          (100.0 *. float_of_int fires /. float_of_int (max 1 detections));
        Printf.sprintf "%.0f" (mean_of lats);
        string_of_int (nth_pct lats 50);
        string_of_int (nth_pct lats 95) ])
    (check_groups views)

let journal_check_csv (views : Faults.Journal.view list) =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    "check_uid,kind,fires,share_of_swdetect_pct,mean_latency,p50_latency,\
     p95_latency\n";
  List.iter
    (fun row ->
      (* The table rows are already plain numbers plus a % suffix;
         [csv_row] still quotes anything that would break the format. *)
      Buffer.add_string buf
        (Report.csv_row
           (List.map
              (fun cell ->
                match String.index_opt cell '%' with
                | Some i -> String.sub cell 0 i
                | None -> cell)
              row));
      Buffer.add_char buf '\n')
    (journal_check_rows views);
  Buffer.contents buf

(** Recovery aggregation over a v2 journal: how often the rollback path
    ran, how much work it replayed, what the checkpoints cost.  Empty for
    v1 journals and recovery-off campaigns. *)
let journal_recovery_rows (views : Faults.Journal.view list) =
  let recovered =
    List.filter_map (fun (v : Faults.Journal.view) -> v.v_recovery) views
  in
  let unrecoverable =
    List.length
      (List.filter
         (fun (v : Faults.Journal.view) -> v.v_outcome = "Unrecoverable")
         views)
  in
  if recovered = [] && unrecoverable = 0 then []
  else begin
    let replayed =
      List.sort compare
        (List.map
           (fun (r : Faults.Journal.recovery_view) -> r.rv_replayed_steps)
           recovered)
    in
    let rollback_cycles =
      List.map
        (fun (r : Faults.Journal.recovery_view) -> r.rv_rollback_cycles)
        recovered
    in
    let ckpts =
      List.map (fun (v : Faults.Journal.view) -> v.v_checkpoints) views
    in
    [ [ "recovered trials"; string_of_int (List.length recovered) ];
      [ "unrecoverable trials"; string_of_int unrecoverable ];
      [ "mean replayed steps"; Printf.sprintf "%.0f" (mean_of replayed) ];
      [ "p50 replayed steps"; string_of_int (nth_pct replayed 50) ];
      [ "p95 replayed steps"; string_of_int (nth_pct replayed 95) ];
      [ "mean rollback cycles";
        Printf.sprintf "%.0f" (mean_of rollback_cycles) ];
      [ "mean checkpoints/trial"; Printf.sprintf "%.1f" (mean_of ckpts) ] ]
  end

(* ----- Propagation report (journal v3 taint summaries) ----- *)

(* The (view, taint) pairs of every traced trial in the journal; empty for
   v1/v2 journals and untraced campaigns, which switches the whole
   propagation section off. *)
let journal_taints (views : Faults.Journal.view list) =
  List.filter_map
    (fun (v : Faults.Journal.view) ->
      Option.map (fun t -> (v, t)) v.v_taint)
    views

let log2_bucket d =
  if d < 1 then (0, 1)
  else begin
    let lo = ref 1 in
    while d >= !lo * 2 do
      lo := !lo * 2
    done;
    (!lo, !lo * 2)
  end

(** Latency vs. breadth: how widely taint had spread by the time the trial
    ended (detection, completion, or death), bucketed by the propagation
    distance — the "how long does a fault stay catchable, and how big has
    the blast radius grown" view (paper §IV-D read through the tracer). *)
let journal_propagation_rows taints =
  let by_bucket = Hashtbl.create 16 in
  List.iter
    (fun ((_ : Faults.Journal.view), (t : Faults.Journal.taint_view)) ->
      match t.tv_end_distance with
      | None -> ()
      | Some d ->
        let b = log2_bucket d in
        let l =
          match Hashtbl.find_opt by_bucket b with
          | Some l -> l
          | None ->
            let l = ref [] in
            Hashtbl.replace by_bucket b l;
            l
        in
        l := t :: !l)
    taints;
  Hashtbl.fold (fun b l acc -> (b, !l) :: acc) by_bucket []
  |> List.sort compare
  |> List.map (fun ((lo, hi), ts) ->
         let n = List.length ts in
         let mean f = mean_of (List.map f ts) in
         let tainted_out =
           List.length
             (List.filter
                (fun (t : Faults.Journal.taint_view) -> t.tv_output_tainted)
                ts)
         in
         [ Printf.sprintf "[%d, %d)" lo hi;
           string_of_int n;
           Printf.sprintf "%.1f"
             (mean (fun (t : Faults.Journal.taint_view) -> t.tv_reg_hwm));
           Printf.sprintf "%.1f"
             (mean (fun (t : Faults.Journal.taint_view) -> t.tv_mem_words));
           Report.pct
             (100.0 *. float_of_int tainted_out /. float_of_int (max 1 n)) ])

(** Per-outcome propagation breadth: how far faults of each fate spread —
    Masked faults should die narrow, SDCs should reach the output. *)
let journal_outcome_breadth_rows taints =
  List.filter_map
    (fun o ->
      let name = Classify.name o in
      let ts =
        List.filter_map
          (fun ((v : Faults.Journal.view), t) ->
            if v.v_outcome = name then Some t else None)
          taints
      in
      match ts with
      | [] -> None
      | _ :: _ ->
        let n = List.length ts in
        let mem =
          List.sort compare
            (List.map
               (fun (t : Faults.Journal.taint_view) -> t.tv_mem_words)
               ts)
        in
        let tainted_out =
          List.length
            (List.filter
               (fun (t : Faults.Journal.taint_view) -> t.tv_output_tainted)
               ts)
        in
        Some
          [ name; string_of_int n;
            Printf.sprintf "%.1f"
              (mean_of
                 (List.map
                    (fun (t : Faults.Journal.taint_view) -> t.tv_reg_hwm)
                    ts));
            string_of_int (nth_pct mem 50);
            string_of_int (nth_pct mem 95);
            Report.pct
              (100.0 *. float_of_int tainted_out /. float_of_int n) ])
    Classify.all

(** Why the Masked trials were masked: did the taint die (overwritten /
    scrubbed before it could matter), linger in memory the output never
    read, or even reach the output with a value that happened to match?
    The tracer is a conservative over-approximation, so the last bucket is
    exactly the "tainted but value-identical" luck the paper's soft-
    computation argument predicts. *)
let journal_masked_attribution_rows taints =
  let masked =
    List.filter_map
      (fun ((v : Faults.Journal.view), t) ->
        if v.v_outcome = "Masked" then Some t else None)
      taints
  in
  match masked with
  | [] -> []
  | _ :: _ ->
    let died =
      List.filter_map
        (fun (t : Faults.Journal.taint_view) -> t.tv_died_at)
        masked
    in
    let latent =
      List.filter
        (fun (t : Faults.Journal.taint_view) ->
          t.tv_died_at = None && not t.tv_output_tainted)
        masked
    in
    let lucky =
      List.filter
        (fun (t : Faults.Journal.taint_view) -> t.tv_output_tainted)
        masked
    in
    let died_sorted = List.sort compare died in
    [ [ "masked trials (traced)"; string_of_int (List.length masked) ];
      [ "taint died before the end"; string_of_int (List.length died) ];
      [ "mean death distance"; Printf.sprintf "%.0f" (mean_of died) ];
      [ "p95 death distance"; string_of_int (nth_pct died_sorted 95) ];
      [ "latent (alive, output untouched)";
        string_of_int (List.length latent) ];
      [ "output tainted, value identical"; string_of_int (List.length lucky) ]
    ]

let print_journal_propagation taints =
  Report.print
    ~title:
      "Propagation: latency vs. breadth (log2 buckets of distance to \
       detection-or-end)"
    ~header:
      [ "distance bucket"; "trials"; "mean reg hwm"; "mean mem words";
        "output tainted" ]
    ~rows:(journal_propagation_rows taints);
  Report.print ~title:"Propagation breadth by outcome"
    ~header:
      [ "outcome"; "trials"; "mean reg hwm"; "p50 mem"; "p95 mem";
        "output tainted" ]
    ~rows:(journal_outcome_breadth_rows taints);
  match journal_masked_attribution_rows taints with
  | [] -> ()
  | rows ->
    Report.print ~title:"Masked-fault attribution (why the fault vanished)"
      ~header:[ "statistic"; "value" ] ~rows

(* ----- Single-trial propagation rendering (the trace-fault subcommand;
   the taint analogue of Interp.Trace.render) ----- *)

(** Render one traced trial's propagation events against the static
    program: one line per retained event with its distance from the
    injection and the instruction it flowed through. *)
let render_taint_events prog (s : Interp.Taint.summary) =
  let instr_text = Hashtbl.create 256 in
  Ir.Prog.iter_funcs
    (fun f ->
      Ir.Func.iter_instrs
        (fun ins ->
          Hashtbl.replace instr_text ins.Ir.Instr.uid
            (String.trim (Format.asprintf "%a" Ir.Printer.pp_instr ins)))
        f)
    prog;
  List.map
    (fun (e : Interp.Taint.event) ->
      let site =
        if e.ev_uid >= 0 then
          match Hashtbl.find_opt instr_text e.ev_uid with
          | Some t -> t
          | None -> Printf.sprintf "#%d" e.ev_uid
        else if e.ev_addr >= 0 then Printf.sprintf "mem[%d]" e.ev_addr
        else ""
      in
      Printf.sprintf "%+6d  %-7s %s"
        (e.ev_step - s.ts_inj_step)
        (Interp.Taint.kind_name e.ev_kind)
        site)
    s.ts_events

(* ----- Adaptive stratification section (journal v5): the manifest's
   "adaptive" object rendered as a per-stratum table plus the combined
   reweighted SDC interval and the equivalent-uniform price of the same
   precision — the savings headline ----- *)

let print_journal_adaptive ad =
  let strata =
    match Option.bind (Obs.Json.member "strata" ad) Obs.Json.to_list with
    | Some l -> l
    | None -> []
  in
  let rows =
    List.map
      (fun s ->
        let i name =
          Option.value ~default:0
            (Option.bind (Obs.Json.member name s) Obs.Json.to_int)
        in
        let n = i "trials" in
        let sdc_k =
          match Obs.Json.member "counts" s with
          | Some counts ->
            List.fold_left
              (fun acc name ->
                acc
                + Option.value ~default:0
                    (Option.bind (Obs.Json.member name counts)
                       Obs.Json.to_int))
              0
              [ "ASDC"; "USDC(large)"; "USDC(small)" ]
          | None -> 0
        in
        [ string_of_int (i "id");
          Option.value ~default:"?"
            (Option.bind (Obs.Json.member "group_name" s) Obs.Json.to_str);
          Printf.sprintf "[%d,%d)" (i "lo") (i "hi");
          Printf.sprintf "%.4f"
            (Option.value ~default:0.0
               (Option.bind (Obs.Json.member "mass" s) Obs.Json.to_float));
          string_of_int n;
          Obs.Stats.pp_pct (Obs.Stats.wilson ~k:sdc_k ~n ()) ])
      strata
  in
  Report.print ~title:"Adaptive stratification (journal v5)"
    ~header:[ "stratum"; "group"; "steps"; "mass"; "trials"; "SDC" ]
    ~rows;
  let flt name j =
    Option.value ~default:0.0
      (Option.bind (Obs.Json.member name j) Obs.Json.to_float)
  in
  (match Obs.Json.member "sdc" ad with
   | Some s ->
     Printf.printf
       "  combined SDC rate      : %.4f [%.4f, %.4f]  (target half-width \
        %.4f)\n"
       (flt "est" s) (flt "lo" s) (flt "hi" s) (flt "ci_target" ad)
   | None -> ());
  let int name =
    Option.bind (Obs.Json.member name ad) Obs.Json.to_int
  in
  match int "trials", int "equivalent_uniform_trials" with
  | Some t, Some e when t > 0 ->
    Printf.printf
      "  trials used            : %d (planned uniform: %d, %.1fx saved%s)\n"
      t e
      (float_of_int e /. float_of_int t)
      (match int "oracle_uniform_trials" with
       | Some o -> Printf.sprintf "; oracle uniform: %d" o
       | None -> "")
  | _, _ -> ()

let print_journal_report ~manifest (views : Faults.Journal.view list) =
  let m = manifest in
  let str name =
    match Option.bind (Obs.Json.member name m) Obs.Json.to_str with
    | Some s -> s
    | None -> "?"
  in
  let int name =
    match Option.bind (Obs.Json.member name m) Obs.Json.to_int with
    | Some i -> string_of_int i
    | None -> "?"
  in
  let checkpoint_interval =
    match Option.bind (Obs.Json.member "checkpoint_interval" m) Obs.Json.to_int
    with
    | Some i -> i
    | None -> 0   (* v1 manifest: recovery did not exist *)
  in
  Printf.printf
    "journal: %s  (schema %s, git %s, %s trials, seed %s, %s domains, \
     fault kind %s, checkpoint interval %d)\n"
    (str "label") (str "schema") (str "git") (int "trials") (int "seed")
    (int "domains") (str "fault_kind") checkpoint_interval;
  Report.print ~title:"Outcome classification (from journal)"
    ~header:[ "outcome"; "trials"; "share"; "95% CI" ]
    ~rows:(journal_outcome_rows ?stats:(Obs.Json.member "stats" m) views);
  (match Obs.Json.member "adaptive" m with
   | Some ad -> print_journal_adaptive ad
   | None -> ());
  Report.print
    ~title:"Detection latency histogram (log2 buckets, SWDetect + HWDetect)"
    ~header:[ "latency bucket"; "detections"; "cumulative" ]
    ~rows:(journal_latency_rows views);
  Report.print
    ~title:"Per-check firings (SWDetect decomposed by detecting check)"
    ~header:
      [ "check uid"; "kind"; "fires"; "share"; "mean lat"; "p50"; "p95" ]
    ~rows:(journal_check_rows views);
  (match journal_recovery_rows views with
   | [] -> ()
   | rows ->
     Report.print ~title:"Checkpoint/rollback recovery (journal v2)"
       ~header:[ "statistic"; "value" ] ~rows);
  match journal_taints views with
  | [] -> ()   (* v1/v2 journal or untraced campaign: no section *)
  | taints -> print_journal_propagation taints

(* ----- Execution-profile report (Interp.Profile) ----- *)

let print_profile ?(block_limit = 12) (p : Interp.Profile.t) =
  Report.print ~title:"Dynamic opcode mix"
    ~header:[ "opcode class"; "dynamic count"; "share" ]
    ~rows:
      (let total = max 1 (Interp.Profile.total_instrs p) in
       List.map
         (fun (name, n) ->
           [ name; string_of_int n;
             Report.pct (100.0 *. float_of_int n /. float_of_int total) ])
         (Interp.Profile.opcode_rows p));
  Report.print ~title:"Hottest blocks"
    ~header:[ "function"; "block"; "executions" ]
    ~rows:
      (List.map
         (fun (func, block, n) ->
           [ func; string_of_int block; string_of_int n ])
         (Interp.Profile.hot_blocks ~limit:block_limit p));
  match Interp.Profile.check_rows p with
  | [] -> ()
  | rows ->
    Report.print ~title:"Check activity (executions vs. fires)"
      ~header:[ "check uid"; "executed"; "fired" ]
      ~rows:
        (List.map
           (fun (uid, ex, fired) ->
             [ string_of_int uid; string_of_int ex; string_of_int fired ])
           rows)

(* ----- Static protection-coverage report (Analysis.Coverage): what the
   transformation promises on paper, next to what a fault campaign
   actually measured ----- *)

let coverage_statuses =
  [ Analysis.Coverage.Dup_checked; Analysis.Coverage.Value_checked;
    Analysis.Coverage.Dup_unchecked; Analysis.Coverage.Shadow;
    Analysis.Coverage.Check; Analysis.Coverage.Unprotected ]

let coverage_status_rows (cov : Analysis.Coverage.t) =
  let total = max 1 cov.total_instrs in
  List.map
    (fun st ->
      let n =
        match List.assoc_opt st cov.by_status with Some n -> n | None -> 0
      in
      [ Analysis.Coverage.status_name st;
        string_of_int n;
        Report.pct (100.0 *. float_of_int n /. float_of_int total) ])
    coverage_statuses

let coverage_reg_rows ?(limit = 12) (cov : Analysis.Coverage.t) =
  List.map
    (fun (r : Analysis.Coverage.reg_row) ->
      [ r.r_func;
        Printf.sprintf "r%d" r.r_reg;
        Analysis.Coverage.status_name r.r_status;
        Printf.sprintf "%.0f" r.r_exposure;
        Report.pct
          (100.0 *. r.r_exposure /. Float.max 1.0 cov.exposure_total) ])
    (Analysis.Coverage.ranked_regs ~limit cov)

let print_coverage ~label (cov : Analysis.Coverage.t) =
  Report.print
    ~title:(Printf.sprintf "%s: protection status by instruction" label)
    ~header:[ "status"; "instrs"; "share" ]
    ~rows:(coverage_status_rows cov);
  Report.print
    ~title:
      (Printf.sprintf "%s: most vulnerable register slots (%s exposure)"
         label
         (if cov.dynamic_weights then "dynamic" else "static"))
    ~header:[ "function"; "register"; "status"; "exposure"; "share" ]
    ~rows:(coverage_reg_rows cov);
  Printf.printf
    "\npredicted SDC-prone fraction: %s  (unprotected exposure %.0f of \
     %.0f)\n"
    (Report.frac_pct cov.sdc_prone_fraction)
    cov.exposure_unprotected cov.exposure_total

(** Per-instruction CSV of the coverage classification. *)
let coverage_csv (cov : Analysis.Coverage.t) =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "func,block,uid,kind,status\n";
  List.iter
    (fun (r : Analysis.Coverage.instr_row) ->
      Buffer.add_string buf
        (Report.csv_row
           [ r.i_func; r.i_block; string_of_int r.i_uid; r.i_desc;
             Analysis.Coverage.status_name r.i_status ]);
      Buffer.add_char buf '\n')
    cov.instrs;
  Buffer.contents buf

(** Per-register CSV: protection status and liveness exposure. *)
let coverage_reg_csv (cov : Analysis.Coverage.t) =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "func,reg,status,exposure\n";
  List.iter
    (fun (r : Analysis.Coverage.reg_row) ->
      Buffer.add_string buf
        (Report.csv_row
           [ r.r_func; string_of_int r.r_reg;
             Analysis.Coverage.status_name r.r_status;
             Printf.sprintf "%.1f" r.r_exposure ]);
      Buffer.add_char buf '\n')
    (Analysis.Coverage.ranked_regs cov);
  Buffer.contents buf

(* A journal outcome spells silent corruption when the output differed
   without any detector firing (ASDC keeps the corruption silent even
   though the quality stays acceptable). *)
let outcome_is_sdc = function
  | "ASDC" | "USDC(large)" | "USDC(small)" -> true
  | _ -> false

let outcome_is_detected = function
  | "SWDetect" | "Recovered" | "Unrecoverable" -> true
  | _ -> false

(** Join the static classification with a campaign journal: bucket every
    injected trial by the protection status of the register it hit and
    measure each bucket's outcome mix.  The validation the analyzer
    exists for: unprotected slots must show a higher measured SDC rate
    than checked ones. *)
let coverage_vs_journal_rows (cov : Analysis.Coverage.t)
    (views : Faults.Journal.view list) =
  let status_of_reg = Analysis.Coverage.reg_status cov in
  let bucket_of (v : Faults.Journal.view) =
    Option.map
      (fun reg ->
        match status_of_reg reg with
        | Some st -> Analysis.Coverage.status_name st
        | None -> "(unmapped)")
      v.v_inj_reg
  in
  let row_of name =
    let hits =
      List.filter (fun v -> bucket_of v = Some name) views
    in
    match hits with
    | [] -> None
    | _ :: _ ->
      let n = List.length hits in
      let count pred =
        List.length
          (List.filter
             (fun (v : Faults.Journal.view) -> pred v.v_outcome)
             hits)
      in
      let sdc = count outcome_is_sdc in
      let detected = count outcome_is_detected in
      let masked = count (fun o -> o = "Masked") in
      Some
        [ name; string_of_int n;
          string_of_int sdc;
          Report.pct (100.0 *. float_of_int sdc /. float_of_int n);
          Report.pct (100.0 *. float_of_int detected /. float_of_int n);
          Report.pct (100.0 *. float_of_int masked /. float_of_int n) ]
  in
  List.filter_map row_of
    (List.map Analysis.Coverage.status_name coverage_statuses
     @ [ "(unmapped)" ])

let print_coverage_vs_journal (cov : Analysis.Coverage.t)
    (views : Faults.Journal.view list) =
  Report.print
    ~title:"Static prediction vs. injected outcomes (by register hit)"
    ~header:
      [ "status of hit reg"; "trials"; "SDC"; "SDC rate"; "detected";
        "masked" ]
    ~rows:(coverage_vs_journal_rows cov views);
  let injected =
    List.filter
      (fun (v : Faults.Journal.view) -> v.v_inj_reg <> None)
      views
  in
  let n = max 1 (List.length injected) in
  let sdc =
    List.length
      (List.filter
         (fun (v : Faults.Journal.view) -> outcome_is_sdc v.v_outcome)
         injected)
  in
  Printf.printf
    "\nstatic SDC-prone fraction %s vs. measured SDC rate %s over %d \
     injected trials\n"
    (Report.frac_pct cov.sdc_prone_fraction)
    (Report.pct (100.0 *. float_of_int sdc /. float_of_int n))
    (List.length injected)

(* ----- Per-register strata (report --strata): the coverage-map join of
   print_coverage_vs_journal, but with Wilson 95% intervals on every
   stratum rate — small strata (a status few registers carry) get wide
   intervals instead of falsely precise point estimates, which is what an
   adaptive sampler would allocate further trials by ----- *)

let journal_strata_rows (cov : Analysis.Coverage.t)
    (views : Faults.Journal.view list) =
  let status_of_reg = Analysis.Coverage.reg_status cov in
  let bucket_of (v : Faults.Journal.view) =
    Option.map
      (fun reg ->
        match status_of_reg reg with
        | Some st -> Analysis.Coverage.status_name st
        | None -> "(unmapped)")
      v.v_inj_reg
  in
  let ci_cell ~k ~n =
    let iv = Obs.Stats.wilson ~k ~n () in
    Printf.sprintf "%s [%.1f, %.1f]"
      (Report.pct (100.0 *. iv.Obs.Stats.ci_estimate))
      (100.0 *. iv.Obs.Stats.ci_low)
      (100.0 *. iv.Obs.Stats.ci_high)
  in
  List.filter_map
    (fun name ->
      let hits = List.filter (fun v -> bucket_of v = Some name) views in
      match hits with
      | [] -> None
      | _ :: _ ->
        let n = List.length hits in
        let count pred =
          List.length
            (List.filter
               (fun (v : Faults.Journal.view) -> pred v.v_outcome)
               hits)
        in
        Some
          [ name; string_of_int n;
            ci_cell ~k:(count outcome_is_sdc) ~n;
            ci_cell ~k:(count outcome_is_detected) ~n;
            ci_cell ~k:(count (fun o -> o = "Masked")) ~n ])
    (List.map Analysis.Coverage.status_name coverage_statuses
     @ [ "(unmapped)" ])

let print_journal_strata (cov : Analysis.Coverage.t)
    (views : Faults.Journal.view list) =
  Report.print
    ~title:
      "Per-register strata (by status of hit register, Wilson 95% \
       intervals)"
    ~header:[ "stratum"; "trials"; "SDC"; "detected"; "masked" ]
    ~rows:(journal_strata_rows cov views)
