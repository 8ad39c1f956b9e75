(** Campaign-warehouse tests: run keys, ingest idempotence, cross-run
    diffing, the regression gate, fixture-journal compatibility and
    per-instruction heatmaps (DESIGN.md §15). *)

module Store = Warehouse.Store
module Heatmap = Warehouse.Heatmap
module Campaign = Faults.Campaign
module Journal = Faults.Journal

(* A fresh directory for [f], removed with its contents when [f] returns
   or raises. *)
let with_tmp_dir ?(prefix = "softft_wh") f =
  let path = Filename.temp_file prefix "" in
  Sys.remove path;
  Sys.mkdir path 0o755;
  Fun.protect
    ~finally:(fun () ->
      ignore (Sys.command ("rm -rf " ^ Filename.quote path)))
    (fun () -> f path)

let tmp_journal () = Filename.temp_file "softft_whj" ".jsonl"

(* One campaign per (workload, technique), shared across tests — the
   results are deterministic in the seed, so caching changes nothing. *)
let campaign_cache : (string, Campaign.summary * Campaign.trial list * Softft.protected) Hashtbl.t =
  Hashtbl.create 8

let seed = 0xC0FFEE
let trials = 150

let run_campaign name technique =
  let key = name ^ "/" ^ Softft.technique_name technique in
  match Hashtbl.find_opt campaign_cache key with
  | Some r -> r
  | None ->
    let w = Workloads.Registry.find name in
    let p = Softft.protect w technique in
    let summary, results =
      Softft.campaign p ~role:Workloads.Workload.Test ~trials ~seed
        ~domains:2
    in
    let r = (summary, results, p) in
    Hashtbl.replace campaign_cache key r;
    r

let manifest_of ?(git = "test") ?(domains = 2) ?(seed = seed) ?technique
    (summary : Campaign.summary) =
  Journal.manifest_record ~git ?technique
    ~counts:summary.Campaign.counts ~label:summary.Campaign.subject_label
    ~trials:summary.Campaign.trials ~seed ~domains
    ~hw_window:Faults.Classify.default_hw_window ~fault_kind:"register_bit"
    ~golden:summary.Campaign.golden_info ()

let write_journal ?technique (summary : Campaign.summary) results =
  let path = tmp_journal () in
  Journal.write ~path ~manifest:(manifest_of ?technique summary)
    ~trials:results ();
  path

(* ----- Wilson-interval disjointness ----- *)

let test_disjoint () =
  let a = Obs.Stats.wilson ~k:5 ~n:1000 in
  let b = Obs.Stats.wilson ~k:100 ~n:1000 in
  Alcotest.(check bool) "far-apart rates are disjoint" true
    (Obs.Stats.disjoint a b);
  Alcotest.(check bool) "disjointness is symmetric" true
    (Obs.Stats.disjoint b a);
  Alcotest.(check bool) "an interval is never disjoint from itself" false
    (Obs.Stats.disjoint a a);
  let c = Obs.Stats.wilson ~k:6 ~n:1000 in
  Alcotest.(check bool) "overlapping neighbours are not disjoint" false
    (Obs.Stats.disjoint a c)

(* ----- Run keys ----- *)

let test_run_key_stable_across_domains () =
  let summary, _, p = run_campaign "kmeans" Softft.Dup_valchk in
  let digest = Store.prog_digest p.Softft.prog in
  let key domains git =
    Store.run_key ~prog_digest:digest (manifest_of ~domains ~git summary)
  in
  Alcotest.(check string) "domains 1 vs 2" (key 1 "test") (key 2 "test");
  Alcotest.(check string) "domains 2 vs 4" (key 2 "test") (key 4 "test");
  Alcotest.(check string) "git revision is excluded" (key 2 "test")
    (key 2 "other-rev");
  let other_seed =
    Store.run_key ~prog_digest:digest (manifest_of ~seed:7 summary)
  in
  Alcotest.(check bool) "a different seed is a different run" true
    (other_seed <> key 2 "test")

let test_prog_digest_sensitivity () =
  let _, _, p_dupval = run_campaign "kmeans" Softft.Dup_valchk in
  let w = Workloads.Registry.find "kmeans" in
  let p_orig = Softft.protect w Softft.Original in
  Alcotest.(check bool) "different programs, different digests" true
    (Store.prog_digest p_dupval.Softft.prog
     <> Store.prog_digest p_orig.Softft.prog);
  Alcotest.(check string) "rebuilding the program reproduces the digest"
    (Store.prog_digest p_dupval.Softft.prog)
    (Store.prog_digest (Softft.protect w Softft.Dup_valchk).Softft.prog)

(* ----- Ingest ----- *)

let test_ingest_idempotent () =
  let summary, results, p = run_campaign "kmeans" Softft.Dup_valchk in
  with_tmp_dir @@ fun dir ->
  let path = write_journal summary results in
  let digest = Store.prog_digest p.Softft.prog in
  let first = Store.ingest ~prog_digest:digest ~dir path in
  (match first with
   | `Ingested _ -> ()
   | `Duplicate _ -> Alcotest.fail "first ingest reported a duplicate");
  (match Store.ingest ~prog_digest:digest ~dir path with
   | `Duplicate _ -> ()
   | `Ingested _ -> Alcotest.fail "second ingest was not a no-op");
  Alcotest.(check int) "one index entry" 1
    (List.length (Store.entries ~dir));
  (* Filing the same run straight from memory hits the same key. *)
  (match
     Store.file_run ~prog_digest:digest ~dir
       ~manifest:(manifest_of ~domains:4 summary) ~trials:results ()
   with
   | `Duplicate _ -> ()
   | `Ingested _ ->
     Alcotest.fail "file_run at another domain count minted a new key");
  Sys.remove path

let test_ingest_records_counts () =
  let summary, results, _ = run_campaign "kmeans" Softft.Dup_valchk in
  with_tmp_dir @@ fun dir ->
  let path = write_journal summary results in
  (match Store.ingest ~dir path with
   | `Ingested e ->
     Alcotest.(check int) "trials" trials e.Store.e_trials;
     let total =
       List.fold_left (fun acc (_, k) -> acc + k) 0 e.Store.e_counts
     in
     Alcotest.(check int) "outcome counts sum to trials" trials total
   | `Duplicate _ -> Alcotest.fail "fresh warehouse reported a duplicate");
  Sys.remove path

(* ----- Diffing ----- *)

let test_diff_self_zero_significant () =
  let summary, results, _ = run_campaign "kmeans" Softft.Dup_valchk in
  let path = write_journal summary results in
  let d = Store.diff_runs ~old_path:path ~new_path:path in
  let all = (d.Store.df_sdc :: d.Store.df_outcomes) @ d.Store.df_strata in
  List.iter
    (fun (r : Store.diff_row) ->
      Alcotest.(check bool)
        (Printf.sprintf "%s: self-diff is never significant" r.Store.dr_name)
        false r.Store.dr_significant;
      Alcotest.(check int)
        (Printf.sprintf "%s: identical counts" r.Store.dr_name)
        r.Store.dr_old_k r.Store.dr_new_k)
    all;
  Sys.remove path

let test_diff_v5_strata_rows () =
  let path = Filename.concat "fixtures" "journal_v5.jsonl" in
  let d = Store.diff_runs ~old_path:path ~new_path:path in
  Alcotest.(check bool) "v5 self-diff carries per-stratum rows" true
    (d.Store.df_strata <> []);
  List.iter
    (fun (r : Store.diff_row) ->
      Alcotest.(check bool) "stratum self-delta is not significant" false
        r.Store.dr_significant)
    d.Store.df_strata

let test_v5_sdc_is_reweighted () =
  (* An adaptive run's pooled SDC count is allocation-biased (1 of 4
     here, Wilson 25.0%±32.7); diff-runs and the heatmap report the
     manifest's mass-reweighted interval, as the index does. *)
  let path = Filename.concat "fixtures" "journal_v5.jsonl" in
  let manifest, views = Journal.load path in
  let reweighted = Store.sdc_interval manifest ~k:1 ~n:4 in
  Alcotest.(check (float 1e-12)) "manifest estimate" 0.2
    reweighted.Obs.Stats.ci_estimate;
  let d = Store.diff_runs ~old_path:path ~new_path:path in
  Alcotest.(check bool) "diff-runs old SDC interval" true
    (d.Store.df_sdc.Store.dr_old = reweighted);
  Alcotest.(check bool) "diff-runs new SDC interval" true
    (d.Store.df_sdc.Store.dr_new = reweighted);
  Alcotest.(check bool) "self-diff not significant" false
    d.Store.df_sdc.Store.dr_significant;
  let p = Softft.protect (Workloads.Registry.find "kmeans") Softft.Dup_valchk in
  let hm =
    Heatmap.build ~prog:p.Softft.prog
      ~cov:(Analysis.Coverage.analyze p.Softft.prog)
      ~label:"kmeans/Dup + val chks/test" ~technique:"Dup + val chks"
      ~manifest views
  in
  Alcotest.(check bool) "heatmap measured SDC" true
    (hm.Heatmap.hm_measured_sdc = reweighted)

(* A synthetic journal with a chosen SDC count — rate separation under
   test control, independent of any workload's actual fault response. *)
let synthetic_journal ~sdc_k ~trials =
  let path = tmp_journal () in
  let oc = open_out path in
  Printf.fprintf oc
    "{\"type\":\"manifest\",\"schema\":\"softft.journal.v1\",\"git\":\"t\",\
     \"label\":\"synthetic/test\",\"trials\":%d,\"seed\":1,\"domains\":1,\
     \"hw_window\":1000,\"fault_kind\":\"register_bit\"}\n"
    trials;
  for i = 0 to trials - 1 do
    Printf.fprintf oc
      "{\"type\":\"trial\",\"i\":%d,\"seed\":%d,\"at_step\":3,\
       \"outcome\":%S,\"steps\":10,\"cycles\":12,\
       \"injection\":{\"step\":3,\"reg\":1,\"bit\":0}}\n"
      i (100 + i)
      (if i < sdc_k then "ASDC" else "Masked")
  done;
  close_out oc;
  path

let test_diff_detects_disjoint_rates () =
  let old_path = synthetic_journal ~sdc_k:50 ~trials:200 in
  let new_path = synthetic_journal ~sdc_k:0 ~trials:200 in
  let d = Store.diff_runs ~old_path ~new_path in
  Alcotest.(check bool) "25% -> 0% SDC is significant" true
    d.Store.df_sdc.Store.dr_significant;
  Alcotest.(check bool) "and downward" true
    (d.Store.df_sdc.Store.dr_new.Obs.Stats.ci_estimate
     < d.Store.df_sdc.Store.dr_old.Obs.Stats.ci_estimate);
  (* A small wobble inside the intervals is noise, not a delta. *)
  let near_path = synthetic_journal ~sdc_k:47 ~trials:200 in
  let d' = Store.diff_runs ~old_path ~new_path:near_path in
  Alcotest.(check bool) "overlapping intervals never flag" false
    d'.Store.df_sdc.Store.dr_significant;
  List.iter Sys.remove [ old_path; new_path; near_path ]

(* ----- The regression gate ----- *)

let entry ~seq ~label ~sdc_k ~trials ~tps ~cores : Store.entry =
  { Store.e_seq = seq;
    e_key = Printf.sprintf "key%d" seq;
    e_label = label;
    e_technique = Some "Dup + val chks";
    e_journal_schema = "softft.journal.v4";
    e_git = "test";
    e_prog_digest = None;
    e_trials = trials;
    e_seed = 0;
    e_domains = 1;
    e_hw_window = 1000;
    e_fault_kind = "register_bit";
    e_checkpoint_interval = 0;
    e_taint_trace = false;
    e_ci_target = None;
    e_path = Printf.sprintf "runs/key%d.jsonl" seq;
    e_host = "host";
    e_host_cores = cores;
    e_ingested_at = 0.0;
    e_trials_per_sec = Some tps;
    e_counts = [ ("ASDC", sdc_k); ("Masked", trials - sdc_k) ];
    e_sdc = Obs.Stats.wilson ~k:sdc_k ~n:trials }

let test_regress_gate () =
  let base = [ entry ~seq:1 ~label:"a/test" ~sdc_k:5 ~trials:1000 ~tps:100.0 ~cores:8 ] in
  let worse = [ entry ~seq:2 ~label:"a/test" ~sdc_k:100 ~trials:1000 ~tps:100.0 ~cores:8 ] in
  let g = Store.regress ~baseline:base ~current:worse in
  Alcotest.(check int) "one matched pair" 1 (List.length g.Store.rx_rows);
  Alcotest.(check bool) "SDC up with disjoint intervals regresses" true
    (List.hd g.Store.rx_rows).Store.rg_regressed;
  Alcotest.(check bool) "the gate fails" true (g.Store.rx_failures <> []);
  (* The same movement downward is an improvement, not a failure. *)
  let g' = Store.regress ~baseline:worse ~current:base in
  Alcotest.(check bool) "SDC down improves" true
    (List.hd g'.Store.rx_rows).Store.rg_improved;
  Alcotest.(check (list string)) "and passes" [] g'.Store.rx_failures;
  (* Self-comparison is always green. *)
  let g'' = Store.regress ~baseline:base ~current:base in
  Alcotest.(check (list string)) "self-regress is green" []
    g''.Store.rx_failures

let test_regress_unmatched_identities () =
  let base = [ entry ~seq:1 ~label:"a/test" ~sdc_k:5 ~trials:1000 ~tps:100.0 ~cores:8 ] in
  let curr = [ entry ~seq:2 ~label:"b/test" ~sdc_k:5 ~trials:1000 ~tps:100.0 ~cores:8 ] in
  let g = Store.regress ~baseline:base ~current:curr in
  Alcotest.(check int) "no matched pairs" 0 (List.length g.Store.rx_rows);
  Alcotest.(check int) "baseline-only identity" 1
    (List.length g.Store.rx_only_old);
  Alcotest.(check int) "current-only identity" 1
    (List.length g.Store.rx_only_new);
  Alcotest.(check (list string)) "unmatched identities never fail" []
    g.Store.rx_failures

(* ----- resolve / old indexes ----- *)

let test_resolve_key_prefix () =
  let summary, results, p = run_campaign "kmeans" Softft.Dup_valchk in
  with_tmp_dir @@ fun dir ->
  let digest = Store.prog_digest p.Softft.prog in
  let e =
    match
      Store.file_run ~prog_digest:digest ~dir ~manifest:(manifest_of summary)
        ~trials:results ()
    with
    | `Ingested e | `Duplicate e -> e
  in
  let full = Store.resolve ~dir e.Store.e_key in
  Alcotest.(check bool) "full key resolves to an existing journal" true
    (Sys.file_exists full);
  Alcotest.(check string) "an 8-char prefix resolves to the same path" full
    (Store.resolve ~dir (String.sub e.Store.e_key 0 8));
  (match Store.resolve ~dir "zzzzzzzz" with
   | _ -> Alcotest.fail "an unknown key resolved"
   | exception Failure _ -> ())

(* A "bench" index record as versions before the ledger filed them, for
   BENCH_campaign.json snapshots. *)
let old_bench_record =
  "{\"type\":\"bench\",\"schema\":\"softft.warehouse.v1\",\"seq\":1,\
   \"key\":\"0123456789abcdef0123456789abcdef\",\
   \"path\":\"bench/0123456789abcdef0123456789abcdef.json\",\
   \"host\":\"old\",\"host_cores\":1,\"ingested_at\":0.0}\n"

let test_old_index_with_bench_record () =
  with_tmp_dir @@ fun dir ->
  let index = Filename.concat dir "index.jsonl" in
  Out_channel.with_open_text index (fun oc ->
    output_string oc old_bench_record);
  let summary, results, p = run_campaign "kmeans" Softft.Dup_valchk in
  ignore
    (Store.file_run ~prog_digest:(Store.prog_digest p.Softft.prog) ~dir
       ~manifest:(manifest_of summary) ~trials:results ());
  (match Store.entries ~dir with
   | [ e ] ->
     Alcotest.(check int) "the run is numbered after the bench record" 2
       e.Store.e_seq
   | es -> Alcotest.failf "expected one run entry, got %d" (List.length es));
  Alcotest.(check int) "a bare index file reads the same" 1
    (List.length (Store.entries_of_file index));
  let g =
    Store.regress ~baseline:(Store.entries_of_file index)
      ~current:(Store.entries ~dir)
  in
  Alcotest.(check int) "regress matches the run against itself" 1
    (List.length g.Store.rx_rows);
  Alcotest.(check (list string)) "and stays green" [] g.Store.rx_failures

(* ----- Fixture journals (schema compatibility, v1..v5) ----- *)

let fixture v = Filename.concat "fixtures" (Printf.sprintf "journal_v%d.jsonl" v)

let test_fixtures_parse () =
  let expect_views = [ (1, 3); (2, 3); (3, 2); (4, 4); (5, 4) ] in
  List.iter
    (fun (v, n) ->
      let manifest, views = Journal.load (fixture v) in
      let schema =
        Option.value ~default:"?"
          (Option.bind (Obs.Json.member "schema" manifest) Obs.Json.to_str)
      in
      Alcotest.(check string)
        (Printf.sprintf "v%d schema" v)
        (Printf.sprintf "softft.journal.v%d" v)
        schema;
      Alcotest.(check int) (Printf.sprintf "v%d views" v) n
        (List.length views);
      (* fold agrees with load. *)
      let _, folded =
        Journal.fold (fixture v) ~init:0 ~f:(fun acc _ -> acc + 1)
      in
      Alcotest.(check int) (Printf.sprintf "v%d fold count" v) n folded)
    expect_views

let test_fixture_version_fields () =
  let _, v2 = Journal.load (fixture 2) in
  Alcotest.(check bool) "v2 carries a recovery record" true
    (List.exists (fun v -> v.Journal.v_recovery <> None) v2);
  let _, v3 = Journal.load (fixture 3) in
  Alcotest.(check bool) "v3 carries taint summaries" true
    (List.for_all (fun v -> v.Journal.v_taint <> None) v3);
  let _, v4 = Journal.load (fixture 4) in
  Alcotest.(check bool) "v4 tolerates an injection-free trial" true
    (List.exists (fun v -> v.Journal.v_inj_reg = None) v4);
  let _, v5 = Journal.load (fixture 5) in
  Alcotest.(check bool) "v5 trials carry stratum ids" true
    (List.for_all (fun v -> v.Journal.v_stratum <> None) v5)

let test_fixtures_ingest () =
  with_tmp_dir @@ fun dir ->
  List.iter (fun v ->
      match Store.ingest ~dir (fixture v) with
      | `Ingested _ -> ()
      | `Duplicate _ ->
        Alcotest.fail (Printf.sprintf "fixture v%d ingested twice" v))
    [ 1; 2; 3; 4; 5 ];
  Alcotest.(check int) "five distinct runs" 5
    (List.length (Store.entries ~dir));
  (* The v5 entry carries its adaptive interval, not pooled Wilson. *)
  let e5 =
    List.find
      (fun (e : Store.entry) -> e.Store.e_journal_schema = "softft.journal.v5")
      (Store.entries ~dir)
  in
  Alcotest.(check (option (float 1e-9))) "adaptive ci target recorded"
    (Some 0.05) e5.Store.e_ci_target;
  Alcotest.(check (float 1e-9)) "adaptive SDC estimate preserved" 0.2
    e5.Store.e_sdc.Obs.Stats.ci_estimate

(* ----- Heatmaps ----- *)

let heatmap_of name technique =
  let summary, results, p = run_campaign name technique in
  let path = write_journal summary results in
  let manifest, views = Journal.load path in
  Sys.remove path;
  let cov = Analysis.Coverage.analyze p.Softft.prog in
  ( Heatmap.build ~prog:p.Softft.prog ~cov
      ~label:summary.Campaign.subject_label
      ~technique:(Softft.technique_name technique)
      ~manifest views,
    views )

let test_heatmap_totals () =
  let hm, views = heatmap_of "kmeans" Softft.Dup_valchk in
  Alcotest.(check int) "per-site totals sum to the injected-trial count"
    hm.Heatmap.hm_injected
    (List.fold_left (fun acc s -> acc + s.Heatmap.s_total) 0 hm.Heatmap.hm_sites);
  let injected =
    List.length (List.filter (fun v -> v.Journal.v_inj_reg <> None) views)
  in
  Alcotest.(check int) "hm_injected counts the journal's injections"
    injected hm.Heatmap.hm_injected;
  Alcotest.(check int) "hm_trials counts every trial" trials
    hm.Heatmap.hm_trials;
  let sdc_names = [ "ASDC"; "USDC(large)"; "USDC(small)" ] in
  let journal_sdc =
    List.length
      (List.filter
         (fun v ->
           v.Journal.v_inj_reg <> None
           && List.mem v.Journal.v_outcome sdc_names)
         views)
  in
  let site_sdc =
    List.fold_left
      (fun acc (s : Heatmap.site) -> acc + s.Heatmap.s_sdc)
      0 hm.Heatmap.hm_sites
  in
  Alcotest.(check int) "SDC split agrees with the journal" journal_sdc
    site_sdc

let test_heatmap_static_vs_measured_ranking () =
  (* DESIGN.md §11: SDC-prone exposure ranks original > selective
     (dup+valchk) > full duplication, and the measured SDC rates follow. *)
  List.iter
    (fun name ->
      let frac t =
        let hm, _ = heatmap_of name t in
        (hm.Heatmap.hm_static_fraction,
         hm.Heatmap.hm_measured_sdc.Obs.Stats.ci_estimate)
      in
      let s_orig, m_orig = frac Softft.Original in
      let s_sel, m_sel = frac Softft.Dup_valchk in
      let s_full, m_full = frac Softft.Full_dup in
      Alcotest.(check bool)
        (name ^ ": static original > selective")
        true (s_orig > s_sel);
      Alcotest.(check bool)
        (name ^ ": static selective > full")
        true (s_sel > s_full);
      Alcotest.(check bool)
        (name ^ ": measured original >= selective")
        true (m_orig >= m_sel);
      Alcotest.(check bool)
        (name ^ ": measured selective >= full")
        true (m_sel >= m_full);
      (* kmeans' nearest-centroid output absorbs every surviving flip at
         this trial count (all three rates are 0), so the strict measured
         separation is asserted on jpegdec, whose original variant does
         leak ASDC. *)
      if name = "jpegdec" then
        Alcotest.(check bool)
          (name ^ ": measured original > full")
          true (m_orig > m_full))
    [ "kmeans"; "jpegdec" ]

let test_heatmap_renderings () =
  let hm, _ = heatmap_of "kmeans" Softft.Dup_valchk in
  let csv = Heatmap.to_csv hm in
  let lines = String.split_on_char '\n' (String.trim csv) in
  Alcotest.(check string) "CSV header"
    "func,block,uid,site,status,sdc_prone,injections,sdc,detected,masked,other"
    (List.hd lines);
  Alcotest.(check int) "one CSV row per site"
    (List.length hm.Heatmap.hm_sites)
    (List.length (List.tl lines));
  let html = Heatmap.to_html hm in
  let contains needle =
    let n = String.length needle and h = String.length html in
    let rec go i = i + n <= h && (String.sub html i n = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "HTML is a standalone page" true
    (contains "<!doctype html>" || contains "<!DOCTYPE html>");
  Alcotest.(check bool) "HTML names the run" true
    (contains hm.Heatmap.hm_label)

(* ----- Torn and corrupt index lines ----- *)

(* Cut the last [n] bytes off a file, as a crash mid-append would. *)
let cut_tail path n =
  let text = In_channel.with_open_bin path In_channel.input_all in
  Out_channel.with_open_bin path (fun oc ->
    output_string oc (String.sub text 0 (String.length text - n)))

let test_torn_index () =
  (* A torn last line is skipped; once a later run is filed after it, it
     is corruption mid-file, named by its line number.  The later run's
     record starts on a line of its own and stays readable. *)
  let summary, results, p = run_campaign "kmeans" Softft.Dup_valchk in
  with_tmp_dir @@ fun dir ->
  let index = Filename.concat dir "index.jsonl" in
  let file seed =
    ignore
      (Store.file_run ~prog_digest:(Store.prog_digest p.Softft.prog) ~dir
         ~manifest:(manifest_of ~seed summary) ~trials:results ())
  in
  file 1;
  file 2;
  cut_tail index 40;
  (match Store.entries ~dir with
   | [ e ] -> Alcotest.(check int) "the whole line survives" 1 e.Store.e_seq
   | es -> Alcotest.failf "expected one entry, got %d" (List.length es));
  file 3;
  (match Store.entries ~dir with
   | _ -> Alcotest.fail "a malformed line mid-file was accepted"
   | exception Failure msg ->
     let want = index ^ ":2:" in
     Alcotest.(check string) "error names the line" want
       (String.sub msg 0 (min (String.length msg) (String.length want))));
  let lines =
    String.split_on_char '\n'
      (In_channel.with_open_bin index In_channel.input_all)
  in
  Alcotest.(check int) "three lines and a final newline" 4
    (List.length lines);
  match Obs.Json.parse (List.nth lines 2) with
  | j ->
    Alcotest.(check int) "the new record is whole" 2
      (Option.value ~default:0
         (Option.bind (Obs.Json.member "seq" j) Obs.Json.to_int))
  | exception Obs.Json.Parse_error msg ->
    Alcotest.failf "the record filed after the torn line is torn: %s" msg

let tests =
  [ Alcotest.test_case "stats: interval disjointness" `Quick test_disjoint;
    Alcotest.test_case "key: stable across domains and git" `Quick
      test_run_key_stable_across_domains;
    Alcotest.test_case "key: program digest sensitivity" `Quick
      test_prog_digest_sensitivity;
    Alcotest.test_case "ingest: idempotent" `Quick test_ingest_idempotent;
    Alcotest.test_case "ingest: outcome counts" `Quick
      test_ingest_records_counts;
    Alcotest.test_case "diff-runs: self has zero significant deltas" `Quick
      test_diff_self_zero_significant;
    Alcotest.test_case "diff-runs: v5 strata rows" `Quick
      test_diff_v5_strata_rows;
    Alcotest.test_case "diff-runs, heatmap: v5 SDC is reweighted" `Quick
      test_v5_sdc_is_reweighted;
    Alcotest.test_case "diff-runs: disjoint rates flag" `Quick
      test_diff_detects_disjoint_rates;
    Alcotest.test_case "regress: coverage gate" `Quick test_regress_gate;
    Alcotest.test_case "regress: unmatched identities" `Quick
      test_regress_unmatched_identities;
    Alcotest.test_case "resolve: key prefixes" `Quick test_resolve_key_prefix;
    Alcotest.test_case "old index: bench records skipped" `Quick
      test_old_index_with_bench_record;
    Alcotest.test_case "fixtures: v1..v5 parse" `Quick test_fixtures_parse;
    Alcotest.test_case "fixtures: version-specific fields" `Quick
      test_fixture_version_fields;
    Alcotest.test_case "fixtures: all five ingest" `Quick
      test_fixtures_ingest;
    Alcotest.test_case "heatmap: totals sum to injections" `Quick
      test_heatmap_totals;
    Alcotest.test_case "heatmap: static vs measured ranking" `Quick
      test_heatmap_static_vs_measured_ranking;
    Alcotest.test_case "heatmap: CSV and HTML renderings" `Quick
      test_heatmap_renderings;
    Alcotest.test_case "index: torn last line, corrupt line named" `Quick
      test_torn_index ]
