(** Plain-text table rendering for the experiment harness, and the reports
    built on it: journal aggregation, propagation and adaptive sections,
    execution profiles and static protection coverage. *)

let pad width s =
  let n = String.length s in
  if n >= width then s else s ^ String.make (width - n) ' '

let pad_left width s =
  let n = String.length s in
  if n >= width then s else String.make (width - n) ' ' ^ s

(** Render a table: the first column is left-aligned, the rest right-aligned. *)
let render ~header ~rows =
  let cols = List.length header in
  List.iteri
    (fun i r ->
      let n = List.length r in
      if n <> cols then
        invalid_arg
          (Printf.sprintf
             "Report.render: row %d has %d cells, header has %d" i n cols))
    rows;
  let widths =
    List.mapi
      (fun c h ->
        List.fold_left
          (fun acc row -> max acc (String.length (List.nth row c)))
          (String.length h) rows)
      header
  in
  let line cells =
    String.concat "  "
      (List.mapi
         (fun c cell ->
           let w = List.nth widths c in
           if c = 0 then pad w cell else pad_left w cell)
         cells)
  in
  let sep =
    String.concat "  " (List.map (fun w -> String.make w '-') widths)
  in
  String.concat "\n" (line header :: sep :: List.map line rows)

let print ~title ~header ~rows =
  Printf.printf "\n== %s ==\n%s\n" title (render ~header ~rows)

let pct v = Printf.sprintf "%.1f%%" v
let frac_pct v = Printf.sprintf "%.1f%%" (100.0 *. v)

open Faults

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
                 let iv = Obs.Stats.wilson ~k:n ~n:trials in
                 (iv.Obs.Stats.ci_low, iv.Obs.Stats.ci_high))
            | None ->
              let iv = Obs.Stats.wilson ~k:n ~n:trials in
              (iv.Obs.Stats.ci_low, iv.Obs.Stats.ci_high)
          in
          Printf.sprintf "[%.1f, %.1f]" (100.0 *. fst iv) (100.0 *. snd iv)
      in
      [ name; string_of_int n;
        pct (100.0 *. float_of_int n /. float_of_int total);
        ci ])
    Classify.all

(** The log2 bucket [[lo, hi)] holding [d]: [[0, 1)] for [d < 1], else
    [[2^k, 2^(k+1))]. *)
let log2_bucket d =
  if d < 1 then (0, 1)
  else begin
    let lo = ref 1 in
    while d / 2 >= !lo do
      lo := !lo * 2
    done;
    (!lo, !lo * 2)
  end

(** The non-empty {!log2_bucket}s of [values] as [(lo, hi, count)], in
    ascending order. *)
let log2_histogram values =
  let counts = Hashtbl.create 16 in
  List.iter
    (fun v ->
      let b = log2_bucket v in
      Hashtbl.replace counts b
        (1 + Option.value ~default:0 (Hashtbl.find_opt counts b)))
    values;
  Hashtbl.fold (fun (lo, hi) n acc -> (lo, hi, n) :: acc) counts []
  |> List.sort compare

(** [approx_quantile values q] finds the log2 bucket holding the
    [q]-quantile's rank and interpolates inside it, taking observations
    as uniform over the bucket — a tighter point estimate than the
    bucket's upper bound once buckets get wide.  [q] is clamped into
    [[0, 1]] and the result to the largest observation; 0 when empty. *)
let approx_quantile values q =
  match values with
  | [] -> 0
  | _ :: _ ->
    let n = List.length values in
    let q = Float.max 0.0 (Float.min 1.0 q) in
    let need = int_of_float (ceil (q *. float_of_int n)) |> max 1 |> min n in
    let largest = List.fold_left max 0 values in
    let rec walk prev = function
      | [] -> largest
      | (lo, hi, c) :: rest ->
        if prev + c < need then walk (prev + c) rest
        else begin
          let frac = (float_of_int (need - prev) -. 0.5) /. float_of_int c in
          lo + int_of_float (Float.round (frac *. float_of_int (hi - lo)))
        end
    in
    min (walk 0 (log2_histogram values)) largest

(** Detection-latency histogram (log2 buckets) over every trial that
    recorded a latency — the distribution a checkpoint-recovery scheme
    must cover (paper §IV-D). *)
let journal_latency_rows (views : Faults.Journal.view list) =
  let latencies =
    List.filter_map (fun (v : Faults.Journal.view) -> v.v_latency) views
  in
  let total = max 1 (List.length latencies) in
  let cumulative = ref 0 in
  let bucket_rows =
    List.map
      (fun (lo, hi, n) ->
        cumulative := !cumulative + n;
        [ Printf.sprintf "[%d, %d)" lo hi;
          string_of_int n;
          pct (100.0 *. float_of_int !cumulative /. float_of_int total)
        ])
      (log2_histogram latencies)
  in
  let quantile_rows =
    if latencies = [] then []
    else
      List.map
        (fun (label, q) ->
          [ label; string_of_int (approx_quantile latencies q); "" ])
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

(** Mean of [l]; 0 when empty. *)
let mean_of = function
  | [] -> 0.0
  | l ->
    float_of_int (List.fold_left ( + ) 0 l) /. float_of_int (List.length l)

(** The [p]th percentile of an ascending list: its element at rank
    [n * p / 100], clamped to the last; 0 when empty. *)
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
        pct
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
         [Obs.Csv.row] still quotes anything that would break the format. *)
      Buffer.add_string buf
        (Obs.Csv.row
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
           pct
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
            pct
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
  print
    ~title:
      "Propagation: latency vs. breadth (log2 buckets of distance to \
       detection-or-end)"
    ~header:
      [ "distance bucket"; "trials"; "mean reg hwm"; "mean mem words";
        "output tainted" ]
    ~rows:(journal_propagation_rows taints);
  print ~title:"Propagation breadth by outcome"
    ~header:
      [ "outcome"; "trials"; "mean reg hwm"; "p50 mem"; "p95 mem";
        "output tainted" ]
    ~rows:(journal_outcome_breadth_rows taints);
  match journal_masked_attribution_rows taints with
  | [] -> ()
  | rows ->
    print ~title:"Masked-fault attribution (why the fault vanished)"
      ~header:[ "statistic"; "value" ] ~rows

(* ----- Single-trial propagation rendering (the trace-fault subcommand;
   the taint analogue of Interp.Trace.render) ----- *)

(** Render one traced trial's propagation events against the static
    program: one line per retained event with its distance from the
    injection and the instruction it flowed through. *)
let render_taint_events prog (s : Interp.Taint.summary) =
  let instr_text = Ir.Printer.instr_text prog in
  List.map
    (fun (e : Interp.Taint.event) ->
      let site =
        if e.ev_uid >= 0 then instr_text e.ev_uid
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
          | Some (Obs.Json.Obj counts) ->
            List.fold_left
              (fun acc (name, k) ->
                if Classify.group_of_name name = `Sdc then
                  acc + Option.value ~default:0 (Obs.Json.to_int k)
                else acc)
              0 counts
          | Some _ | None -> 0
        in
        [ string_of_int (i "id");
          Option.value ~default:"?"
            (Option.bind (Obs.Json.member "group_name" s) Obs.Json.to_str);
          Printf.sprintf "[%d,%d)" (i "lo") (i "hi");
          Printf.sprintf "%.4f"
            (Option.value ~default:0.0
               (Option.bind (Obs.Json.member "mass" s) Obs.Json.to_float));
          string_of_int n;
          Obs.Stats.pp_pct (Obs.Stats.wilson ~k:sdc_k ~n) ])
      strata
  in
  print ~title:"Adaptive stratification (journal v5)"
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
  print ~title:"Outcome classification (from journal)"
    ~header:[ "outcome"; "trials"; "share"; "95% CI" ]
    ~rows:(journal_outcome_rows ?stats:(Obs.Json.member "stats" m) views);
  (match Obs.Json.member "adaptive" m with
   | Some ad -> print_journal_adaptive ad
   | None -> ());
  print
    ~title:"Detection latency histogram (log2 buckets, SWDetect + HWDetect)"
    ~header:[ "latency bucket"; "detections"; "cumulative" ]
    ~rows:(journal_latency_rows views);
  print
    ~title:"Per-check firings (SWDetect decomposed by detecting check)"
    ~header:
      [ "check uid"; "kind"; "fires"; "share"; "mean lat"; "p50"; "p95" ]
    ~rows:(journal_check_rows views);
  (match journal_recovery_rows views with
   | [] -> ()
   | rows ->
     print ~title:"Checkpoint/rollback recovery (journal v2)"
       ~header:[ "statistic"; "value" ] ~rows);
  match journal_taints views with
  | [] -> ()   (* v1/v2 journal or untraced campaign: no section *)
  | taints -> print_journal_propagation taints

(* ----- Execution-profile report (Interp.Profile) ----- *)

let print_profile (p : Interp.Profile.t) =
  print ~title:"Dynamic opcode mix"
    ~header:[ "opcode class"; "dynamic count"; "share" ]
    ~rows:
      (let total = max 1 (Interp.Profile.total_instrs p) in
       List.map
         (fun (name, n) ->
           [ name; string_of_int n;
             pct (100.0 *. float_of_int n /. float_of_int total) ])
         (Interp.Profile.opcode_rows p));
  print ~title:"Hottest blocks"
    ~header:[ "function"; "block"; "executions" ]
    ~rows:
      (List.map
         (fun (func, block, n) ->
           [ func; string_of_int block; string_of_int n ])
         (Interp.Profile.hot_blocks p));
  match Interp.Profile.check_rows p with
  | [] -> ()
  | rows ->
    print ~title:"Check activity (executions vs. fires)"
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
        pct (100.0 *. float_of_int n /. float_of_int total) ])
    coverage_statuses

let coverage_reg_rows (cov : Analysis.Coverage.t) =
  List.map
    (fun (r : Analysis.Coverage.reg_row) ->
      [ r.r_func;
        Printf.sprintf "r%d" r.r_reg;
        Analysis.Coverage.status_name r.r_status;
        Printf.sprintf "%.0f" r.r_exposure;
        pct
          (100.0 *. r.r_exposure /. Float.max 1.0 cov.exposure_total) ])
    (Analysis.Coverage.ranked_regs ~limit:12 cov)

let print_coverage ~label (cov : Analysis.Coverage.t) =
  print
    ~title:(Printf.sprintf "%s: protection status by instruction" label)
    ~header:[ "status"; "instrs"; "share" ]
    ~rows:(coverage_status_rows cov);
  print
    ~title:
      (Printf.sprintf "%s: most vulnerable register slots (%s exposure)"
         label
         (if cov.dynamic_weights then "dynamic" else "static"))
    ~header:[ "function"; "register"; "status"; "exposure"; "share" ]
    ~rows:(coverage_reg_rows cov);
  Printf.printf
    "\npredicted SDC-prone fraction: %s  (unprotected exposure %.0f of \
     %.0f)\n"
    (frac_pct cov.sdc_prone_fraction)
    cov.exposure_unprotected cov.exposure_total

(** Per-instruction CSV of the coverage classification. *)
let coverage_csv (cov : Analysis.Coverage.t) =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "func,block,uid,kind,status\n";
  List.iter
    (fun (r : Analysis.Coverage.instr_row) ->
      Buffer.add_string buf
        (Obs.Csv.row
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
        (Obs.Csv.row
           [ r.r_func; string_of_int r.r_reg;
             Analysis.Coverage.status_name r.r_status;
             Printf.sprintf "%.1f" r.r_exposure ]);
      Buffer.add_char buf '\n')
    (Analysis.Coverage.ranked_regs cov);
  Buffer.contents buf

(* ----- Per-register strata (report --strata): the injected trials
   bucketed by the static protection status of the register each fault
   hit, the check of the coverage analyzer against measurement.  Every
   rate carries a Wilson 95% interval, so a small stratum (a status few
   registers carry) shows a wide interval instead of a falsely precise
   point estimate ----- *)

type stratum = {
  sm_status : string;   (** {!Analysis.Coverage.status_name}, or "(unmapped)" *)
  sm_trials : int;
  sm_sdc : int;
  sm_detected : int;
  sm_masked : int;
  sm_other : int;       (** Failure, and outcomes this build does not know *)
}

(** Tally the injected trials of [views] per protection status of the
    register hit, grouped by {!Faults.Classify.group_of_name}; statuses no
    trial hit are left out. *)
let journal_strata (cov : Analysis.Coverage.t)
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
  List.filter_map
    (fun name ->
      let groups =
        List.filter_map
          (fun (v : Faults.Journal.view) ->
            if bucket_of v = Some name then
              Some (Classify.group_of_name v.v_outcome)
            else None)
          views
      in
      match groups with
      | [] -> None
      | _ :: _ ->
        let count g = List.length (List.filter (( = ) g) groups) in
        Some
          { sm_status = name; sm_trials = List.length groups;
            sm_sdc = count `Sdc; sm_detected = count `Detected;
            sm_masked = count `Masked; sm_other = count `Other })
    (List.map Analysis.Coverage.status_name coverage_statuses
     @ [ "(unmapped)" ])

let print_journal_strata (cov : Analysis.Coverage.t)
    (views : Faults.Journal.view list) =
  let strata = journal_strata cov views in
  let ci_cell ~k ~n =
    let iv = Obs.Stats.wilson ~k ~n in
    Printf.sprintf "%s [%.1f, %.1f]"
      (pct (100.0 *. iv.Obs.Stats.ci_estimate))
      (100.0 *. iv.Obs.Stats.ci_low)
      (100.0 *. iv.Obs.Stats.ci_high)
  in
  print
    ~title:
      "Per-register strata (by status of hit register, Wilson 95% \
       intervals)"
    ~header:[ "stratum"; "trials"; "SDC"; "detected"; "masked" ]
    ~rows:
      (List.map
         (fun sm ->
           let n = sm.sm_trials in
           [ sm.sm_status; string_of_int n;
             ci_cell ~k:sm.sm_sdc ~n;
             ci_cell ~k:sm.sm_detected ~n;
             ci_cell ~k:sm.sm_masked ~n ])
         strata);
  let sum f = List.fold_left (fun acc sm -> acc + f sm) 0 strata in
  let injected = sum (fun sm -> sm.sm_trials) in
  Printf.printf
    "\nstatic SDC-prone fraction %s vs. measured SDC rate %s over %d \
     injected trials\n"
    (frac_pct cov.sdc_prone_fraction)
    (pct
       (100.0 *. float_of_int (sum (fun sm -> sm.sm_sdc))
        /. float_of_int (max 1 injected)))
    injected
