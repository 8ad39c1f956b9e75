(** Help-surface snapshot: every `experiments' subcommand answers --help
    with exit 0 and documents its flags — the CLI contract CI and the
    README walkthrough rely on.  Runs the real binary (a test dep). *)

let exe = Filename.concat (Filename.concat ".." "bin") "experiments.exe"

let contains haystack needle =
  let n = String.length needle and h = String.length haystack in
  let rec go i = i + n <= h && (String.sub haystack i n = needle || go (i + 1)) in
  go 0

(* Run the binary with ARGS, stdout and (unless [~stderr:false]) stderr to
   a file; return the exit code and the output. *)
let run_exe ?(stderr = true) args =
  let out = Filename.temp_file "softft_cli" ".txt" in
  let rc =
    Sys.command
      (Printf.sprintf "%s %s > %s %s" exe args (Filename.quote out)
         (if stderr then "2>&1" else "2>/dev/null"))
  in
  let text = In_channel.with_open_text out In_channel.input_all in
  Sys.remove out;
  (rc, text)

let help_of sub =
  run_exe
    ((match sub with "" -> "" | s -> Filename.quote s) ^ " --help=plain")

(* Every subcommand, with the flags its help must document.  A flag
   silently dropped from the CLI breaks scripts; this list is the
   snapshot that catches it. *)
let surface =
  [ ("all",
     [ "--trials"; "--seed"; "--benchmarks"; "--domains"; "--quiet"; "--csv" ]);
    ("study", [ "--trials"; "--seed"; "--benchmarks"; "--domains" ]);
    ("campaign",
     [ "--trials"; "--seed"; "--domains"; "--adaptive"; "--ci";
       "--max-trials"; "--bands"; "--checkpoint"; "--taint"; "--profile";
       "--journal"; "--warehouse"; "--progress"; "--trace-timeline" ]);
    ("coverage", [ "--dynamic"; "--csv"; "--regs-csv" ]);
    ("optimize",
     [ "--budget"; "--beam"; "--checkpoint"; "--validate"; "--ci";
       "--max-trials"; "--warehouse"; "--csv"; "--plan-out" ]);
    ("lint", [ "--benchmarks" ]);
    ("report", [ "--strata"; "--csv" ]);
    ("ingest", [ "--warehouse" ]);
    ("history", [ "--warehouse" ]);
    ("diff-runs", [ "--warehouse" ]);
    ("regress", [ "--baseline"; "--current" ]);
    ("heatmap", [ "--warehouse"; "--journal"; "--csv"; "--html" ]);
    ("table1", []);
    ("dump", []);
    ("trace", [ "--limit" ]);
    ("trace-fault", [ "--trial" ]) ]

(* Flags removed from a subcommand, which its help must no longer offer:
   `report --strata' is the one join of a journal against static
   coverage, and `regress' gates coverage only (speed is the ledger's
   job). *)
let retired = [ ("coverage", "--journal"); ("regress", "--tolerance") ]

let test_subcommand_help () =
  List.iter
    (fun (sub, flags) ->
      let rc, text = help_of sub in
      Alcotest.(check int) (sub ^ " --help exits 0") 0 rc;
      List.iter
        (fun flag ->
          Alcotest.(check bool)
            (Printf.sprintf "%s --help documents %s" sub flag)
            true (contains text flag))
        flags)
    surface;
  List.iter
    (fun (sub, flag) ->
      let _, text = help_of sub in
      Alcotest.(check bool)
        (Printf.sprintf "%s --help no longer offers %s" sub flag)
        false (contains text flag))
    retired

(* The command names of the top-level help's COMMANDS section: its lines
   indented by exactly seven spaces that start with a letter. *)
let listed_commands text =
  let rec skip = function
    | [] -> []
    | "COMMANDS" :: rest -> rest
    | _ :: rest -> skip rest
  in
  let rec section = function
    | line :: rest when line = "" || line.[0] = ' ' -> line :: section rest
    | _ -> []
  in
  let command line =
    if
      String.length line > 7
      && String.sub line 0 7 = "       "
      && line.[7] >= 'a' && line.[7] <= 'z'
    then Some (List.hd (String.split_on_char ' ' (String.trim line)))
    else None
  in
  List.filter_map command (section (skip (String.split_on_char '\n' text)))

let test_toplevel_lists_subcommands () =
  let rc, text = help_of "" in
  Alcotest.(check int) "experiments --help exits 0" 0 rc;
  Alcotest.(check (list string)) "top-level help lists exactly the surface"
    (List.sort compare (List.map fst surface))
    (List.sort compare (listed_commands text))

let test_unknown_subcommand_fails () =
  (* Without --help: cmdliner must reject the command, not fall back. *)
  let rc =
    Sys.command (Printf.sprintf "%s no-such-subcommand > /dev/null 2>&1" exe)
  in
  Alcotest.(check bool) "unknown subcommand exits nonzero" true (rc <> 0)

let studies =
  [ "crossval"; "ablation"; "latency"; "branchfault"; "sources"; "recovery" ]

(* A bad benchmark or technique name, or a negative count, is a
   command-line error: exit 124 with the valid values listed, before any
   work starts. *)
let test_bad_arguments () =
  List.iter
    (fun (args, expected) ->
      let rc, text = run_exe args in
      Alcotest.(check int) (args ^ " exits 124") 124 rc;
      Alcotest.(check bool)
        (Printf.sprintf "%s names %s" args expected)
        true (contains text expected);
      Alcotest.(check bool) (args ^ " raises nothing") false
        (contains text "uncaught exception"))
    [ ("dump kmeans bogus", "'dupvalcfc'");
      ("history -w no-such-dir kmeans bogus", "'dupval'");
      ("heatmap kmeans bogus", "'original'");
      ("dump nosuch dupval", "'kmeans'");
      ("all -b kmeans,nosuch", "'jpegdec'");
      ("campaign kmeans dupval --trials=-3", "non-negative");
      ("trace-fault kmeans dupval --trial=-1", "non-negative");
      ("campaign kmeans dupval --trials 4 --checkpoint=-5", "non-negative");
      ("campaign kmeans dupval --trials 4 -k-5", "non-negative");
      ("optimize kmeans --checkpoint=-1", "non-negative");
      ("optimize kmeans --validate=-1", "non-negative");
      ("optimize kmeans --beam=0", "positive");
      ("optimize kmeans --beam=-2", "positive");
      ("optimize g721enc --budget=nan", "non-negative number");
      ("optimize g721enc --budget=inf", "non-negative number");
      ("optimize g721enc --budget=-5", "non-negative number") ];
  (* The aliases and the case-insensitive spelling still parse. *)
  List.iter
    (fun args ->
      let rc, _ = run_exe args in
      Alcotest.(check int) (args ^ " exits 0") 0 rc)
    [ "trace-fault kmeans DupVal"; "trace-fault kmeans dup_valchk" ]

let test_unknown_study_fails () =
  let rc, text = run_exe "study no-such-study" in
  Alcotest.(check bool) "unknown study exits nonzero" true (rc <> 0);
  List.iter
    (fun name ->
      Alcotest.(check bool) ("the error lists " ^ name) true
        (contains text ("'" ^ name ^ "'")))
    studies

let test_every_study_runs () =
  (* One workload, four trials: each study runs its driver and prints its
     table under the driver's own title. *)
  List.iter2
    (fun name title ->
      let rc, text =
        run_exe
          ("study " ^ name ^ " --trials 4 --benchmarks g721enc --domains 1")
      in
      Alcotest.(check int) ("study " ^ name ^ " exits 0") 0 rc;
      Alcotest.(check bool) ("study " ^ name ^ " prints its table") true
        (contains text ("== " ^ title)))
    studies
    [ "Cross-validation"; "Ablation on g721enc"; "Detection latency";
      "Branch-target faults"; "Detection sources";
      "Checkpoint/rollback recovery on g721enc" ]

let test_all_headline_and_csv () =
  (* g721enc has unacceptable SDCs unprotected even at 20 trials, so the
     headline prints its coverage line; --csv writes the library's CSV. *)
  let csv = Filename.temp_file "softft_cli" ".csv" in
  let rc, text =
    run_exe ~stderr:false
      ("all --benchmarks g721enc --trials 20 --domains 1 -q --csv "
       ^ Filename.quote csv)
  in
  Alcotest.(check int) "all exits 0" 0 rc;
  Alcotest.(check bool) "coverage line cites paper \xc2\xa7V" true
    (contains text "USDC coverage of Dup + val chks: "
     && contains text "(paper \xc2\xa7V: 82.5%)");
  Alcotest.(check bool) "no double-encoded byte in stdout" false
    (contains text "\xc3\x82");
  let expected =
    Softft.Experiments.to_csv
      (Softft.Experiments.evaluate ~trials:20 ~domains:1
         [ Workloads.Registry.find "g721enc" ])
  in
  Alcotest.(check string) "--csv writes the evaluation matrix" expected
    (In_channel.with_open_text csv In_channel.input_all);
  Sys.remove csv

let read_lines path =
  In_channel.with_open_text path In_channel.input_all
  |> String.split_on_char '\n'
  |> List.filter (fun l -> l <> "")

(* Run `campaign ARGS --journal F' quietly and return the journal lines. *)
let campaign_journal args =
  let path = Filename.temp_file "softft_cli" ".jsonl" in
  let rc =
    Sys.command
      (Printf.sprintf "%s campaign %s -q --journal %s > /dev/null 2>&1" exe
         args (Filename.quote path))
  in
  Alcotest.(check int) ("campaign " ^ args ^ " exits 0") 0 rc;
  let lines = read_lines path in
  Sys.remove path;
  lines

let test_campaign_journal_matches_library () =
  (* The command's trial lines are exactly the library campaign's, and
     worker count stays unobservable. *)
  let lines =
    campaign_journal "g721enc dupval --trials 12 --seed 7 --domains 2"
  in
  let p =
    Softft.protect (Workloads.Registry.find "g721enc") Softft.Dup_valchk
  in
  let _, trials =
    Softft.campaign p ~role:Workloads.Workload.Test ~trials:12 ~seed:7
      ~domains:1
  in
  Alcotest.(check (list string)) "trial lines"
    (List.mapi
       (fun index t ->
         Obs.Json.to_string (Faults.Journal.trial_record ~index t))
       trials)
    (List.tl lines)

let test_campaign_taint_journal () =
  match campaign_journal "g721enc dupval --trials 4 --domains 1 --taint" with
  | manifest :: _ ->
    Alcotest.(check bool) "schema v4" true
      (contains manifest "\"schema\":\"softft.journal.v4\"");
    Alcotest.(check bool) "taint_trace stamped" true
      (contains manifest "\"taint_trace\":true")
  | [] -> Alcotest.fail "empty journal"

let test_report_fixtures_pinned () =
  (* The report of every journal generation, byte for byte: v1 and v2
     (no final stats: the CI column degrades), v3 (propagation tables),
     v4 and v5 (adaptive section). *)
  List.iter
    (fun v ->
      let rc, text =
        run_exe ~stderr:false
          (Printf.sprintf "report fixtures/journal_v%d.jsonl" v)
      in
      Alcotest.(check int) (Printf.sprintf "report v%d exits 0" v) 0 rc;
      Alcotest.(check string)
        (Printf.sprintf "report v%d stdout" v)
        (In_channel.with_open_bin
           (Printf.sprintf "fixtures/report_v%d.txt" v)
           In_channel.input_all)
        text)
    [ 1; 2; 3; 4; 5 ]

let test_diff_runs_footer () =
  (* The footer names the intervals the rows compare: Wilson for uniform
     runs, and the mass-reweighted one on the SDC row once either run is
     adaptive (v5). *)
  let footer a b =
    let rc, text =
      run_exe ~stderr:false
        (Printf.sprintf "diff-runs fixtures/journal_v%d.jsonl \
                         fixtures/journal_v%d.jsonl" a b)
    in
    Alcotest.(check int) (Printf.sprintf "v%d vs v%d exits 0" a b) 0 rc;
    List.nth (List.rev (String.split_on_char '\n' text)) 1
  in
  Alcotest.(check string) "uniform runs: Wilson"
    "0 significant delta(s) (disjoint Wilson 95% intervals)" (footer 4 4);
  Alcotest.(check string) "an adaptive run: reweighted SDC"
    "0 significant delta(s) (disjoint 95% intervals: Wilson, and \
     mass-reweighted stratified for SDC)"
    (footer 4 5)

let test_old_warehouse () =
  (* A warehouse from before the ledger: its index holds a "bench" record
     ahead of a run.  history and regress read it; ingest refuses a
     BENCH_campaign.json-shaped file and leaves the index as it was. *)
  Test_warehouse.with_tmp_dir ~prefix:"softft_cliwh" @@ fun dir ->
  let index = Filename.concat dir "index.jsonl" in
  Out_channel.with_open_text index (fun oc ->
    output_string oc Test_warehouse.old_bench_record);
  let wh = Filename.quote dir in
  let rc, _ =
    run_exe ("campaign g721enc dupval --trials 4 --domains 1 -q --warehouse "
             ^ wh)
  in
  Alcotest.(check int) "campaign --warehouse exits 0" 0 rc;
  let rc, text = run_exe ("history g721enc --warehouse " ^ wh) in
  Alcotest.(check int) "history exits 0" 0 rc;
  Alcotest.(check bool) "history lists the one run" true
    (contains text "1 run(s)");
  let rc, text =
    run_exe
      (Printf.sprintf "regress --baseline %s --current %s"
         (Filename.quote index) wh)
  in
  Alcotest.(check int) "regress exits 0" 0 rc;
  Alcotest.(check bool) "regress is green" true
    (contains text "regress: gate green");
  let before = In_channel.with_open_text index In_channel.input_all in
  let bench = Filename.temp_file "softft_bench" ".json" in
  Out_channel.with_open_text bench (fun oc ->
    output_string oc
      "{\"schema\":\"softft.bench_campaign.v3\",\"host_cores\":1,\
       \"workloads\":[]}\n");
  let rc, text =
    run_exe
      (Printf.sprintf "ingest --warehouse %s %s" wh (Filename.quote bench))
  in
  Alcotest.(check bool) "ingest of a bench snapshot fails" true (rc <> 0);
  Alcotest.(check bool) "as not a campaign journal" true
    (contains text "not a campaign journal");
  Alcotest.(check string) "index untouched" before
    (In_channel.with_open_text index In_channel.input_all);
  Sys.remove bench

let test_torn_warehouse_index () =
  (* A crash that tears the index's last line costs that one run, not the
     warehouse: history skips it and exits 0.  Filed after, the torn piece
     sits mid-file, and history names its line and exits 1. *)
  Test_warehouse.with_tmp_dir ~prefix:"softft_cliwh" @@ fun dir ->
  let wh = Filename.quote dir in
  let index = Filename.concat dir "index.jsonl" in
  let campaign seed =
    let rc, _ =
      run_exe
        (Printf.sprintf
           "campaign g721enc dupval --trials 4 --domains 1 --seed %d -q \
            --warehouse %s"
           seed wh)
    in
    Alcotest.(check int) (Printf.sprintf "campaign --seed %d exits 0" seed)
      0 rc
  in
  campaign 1;
  campaign 2;
  Test_warehouse.cut_tail index 40;
  let rc, text = run_exe ("history g721enc dupval --warehouse " ^ wh) in
  Alcotest.(check int) "history over a torn index exits 0" 0 rc;
  Alcotest.(check bool) "lists the whole run" true
    (contains text "1 run(s)");
  Alcotest.(check bool) "and warns about the torn line" true
    (contains text "torn last line");
  campaign 3;
  let rc, text = run_exe ("history g721enc dupval --warehouse " ^ wh) in
  Alcotest.(check int) "history over a corrupt line exits 1" 1 rc;
  Alcotest.(check bool) "naming PATH:LINE" true
    (contains text (index ^ ":2: malformed index line"))

let test_concurrent_ingest () =
  (* Two ingest processes filing into one warehouse at once, first with
     disjoint journals and then with the same ones: each run is filed
     exactly once, under a seq of its own, on a line of its own. *)
  Test_warehouse.with_tmp_dir ~prefix:"softft_cliwh" @@ fun jdir ->
  let journals =
    List.init 8 (fun i ->
      let path = Filename.concat jdir (Printf.sprintf "j%d.jsonl" i) in
      let rc, _ =
        run_exe
          (Printf.sprintf
             "campaign g721enc dupval --trials 4 --domains 1 --seed %d -q \
              --journal %s"
             (i + 1) (Filename.quote path))
      in
      Alcotest.(check int) "campaign --journal exits 0" 0 rc;
      Filename.quote path)
  in
  let ingest_pair what a b =
    Test_warehouse.with_tmp_dir ~prefix:"softft_cliwh" @@ fun dir ->
    let ingest files =
      Printf.sprintf "%s ingest --warehouse %s %s > /dev/null 2>&1" exe
        (Filename.quote dir) (String.concat " " files)
    in
    let rc =
      Sys.command
        (Printf.sprintf "%s & p=$!; %s; b=$?; wait $p && exit $b" (ingest a)
           (ingest b))
    in
    Alcotest.(check int) (what ^ ": both ingests exit 0") 0 rc;
    let lines =
      In_channel.with_open_text (Filename.concat dir "index.jsonl")
        In_channel.input_lines
    in
    let records =
      List.map
        (fun line ->
          match Obs.Json.parse line with
          | j -> j
          | exception Obs.Json.Parse_error msg ->
            Alcotest.failf "%s: index line does not parse (%s): %s" what msg
              line)
        lines
    in
    let field name conv j =
      match Option.bind (Obs.Json.member name j) conv with
      | Some v -> v
      | None -> Alcotest.failf "%s: index record without %s" what name
    in
    let keys = List.map (field "key" Obs.Json.to_str) records in
    let seqs = List.map (field "seq" Obs.Json.to_int) records in
    Alcotest.(check int) (what ^ ": every run filed once") 8
      (List.length (List.sort_uniq compare keys));
    Alcotest.(check int) (what ^ ": no key filed twice") 8 (List.length keys);
    Alcotest.(check int) (what ^ ": distinct seqs") 8
      (List.length (List.sort_uniq compare seqs))
  in
  ingest_pair "disjoint journals"
    (List.filteri (fun i _ -> i < 4) journals)
    (List.filteri (fun i _ -> i >= 4) journals);
  ingest_pair "same journals" journals journals

let test_plan_runs_reingest_as_duplicates () =
  (* A plan-driven run files under a key that covers the plan's program;
     ingest, rebuilding that program from the journal's plan document,
     must land on the same key and file nothing new. *)
  Test_warehouse.with_tmp_dir ~prefix:"softft_planwh" @@ fun dir ->
  let rc, _ =
    run_exe
      (Printf.sprintf
         "optimize kmeans --budget 15 --validate 2 --ci 0.05 --warehouse %s"
         (Filename.quote dir))
  in
  Alcotest.(check int) "optimize --validate exits 0" 0 rc;
  let index_lines () =
    List.length
      (In_channel.with_open_text (Filename.concat dir "index.jsonl")
         In_channel.input_lines)
  in
  Alcotest.(check int) "two runs filed" 2 (index_lines ());
  let runs = Filename.concat dir "runs" in
  let journals =
    Sys.readdir runs |> Array.to_list |> List.sort compare
    |> List.map (fun f -> Filename.quote (Filename.concat runs f))
  in
  let rc, text =
    run_exe
      (Printf.sprintf "ingest --warehouse %s %s" (Filename.quote dir)
         (String.concat " " journals))
  in
  Alcotest.(check int) "ingest exits 0" 0 rc;
  let verdicts =
    String.split_on_char '\n' text
    |> List.filter (fun l -> l <> "")
    |> List.map (fun l -> List.hd (String.split_on_char ' ' l))
  in
  Alcotest.(check (list string)) "every run a duplicate"
    [ "duplicate"; "duplicate" ] verdicts;
  Alcotest.(check int) "index unchanged" 2 (index_lines ())

let tests =
  [ Alcotest.test_case "every subcommand's --help" `Quick
      test_subcommand_help;
    Alcotest.test_case "top-level help lists all subcommands" `Quick
      test_toplevel_lists_subcommands;
    Alcotest.test_case "unknown subcommand" `Quick
      test_unknown_subcommand_fails;
    Alcotest.test_case "campaign journal matches the library" `Quick
      test_campaign_journal_matches_library;
    Alcotest.test_case "campaign --taint stamps the manifest" `Quick
      test_campaign_taint_journal;
    Alcotest.test_case "old warehouse: history, regress, ingest" `Quick
      test_old_warehouse;
    Alcotest.test_case "unknown study" `Quick test_unknown_study_fails;
    Alcotest.test_case "bad names and counts: exit 124" `Quick
      test_bad_arguments;
    Alcotest.test_case "every study runs" `Quick test_every_study_runs;
    Alcotest.test_case "all: headline section sign and --csv" `Quick
      test_all_headline_and_csv;
    Alcotest.test_case "report: fixture journals v1..v5 pinned" `Quick
      test_report_fixtures_pinned;
    Alcotest.test_case "diff-runs: the footer names the SDC interval" `Quick
      test_diff_runs_footer;
    Alcotest.test_case "torn warehouse index: exit 0, then 1" `Quick
      test_torn_warehouse_index;
    Alcotest.test_case "concurrent ingest: one filing per run" `Quick
      test_concurrent_ingest;
    Alcotest.test_case "plan runs: re-ingest is a duplicate" `Quick
      test_plan_runs_reingest_as_duplicates ]
