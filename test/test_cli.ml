(** Help-surface snapshot: every `experiments' subcommand answers --help
    with exit 0 and documents its flags — the CLI contract CI and the
    README walkthrough rely on.  Runs the real binary (a test dep). *)

let exe = Filename.concat (Filename.concat ".." "bin") "experiments.exe"

let contains haystack needle =
  let n = String.length needle and h = String.length haystack in
  let rec go i = i + n <= h && (String.sub haystack i n = needle || go (i + 1)) in
  go 0

let help_of sub =
  let out = Filename.temp_file "softft_help" ".txt" in
  let rc =
    Sys.command
      (Printf.sprintf "%s %s --help=plain > %s 2>&1" exe
         (match sub with "" -> "" | s -> Filename.quote s)
         (Filename.quote out))
  in
  let text = In_channel.with_open_text out In_channel.input_all in
  Sys.remove out;
  (rc, text)

(* Every subcommand, with the flags its help must document.  A flag
   silently dropped from the CLI breaks scripts; this list is the
   snapshot that catches it. *)
let surface =
  [ ("all", [ "--trials"; "--seed"; "--benchmarks"; "--domains"; "--quiet" ]);
    ("crossval", [ "--trials"; "--seed"; "--domains" ]);
    ("campaign",
     [ "--trials"; "--seed"; "--domains"; "--adaptive"; "--ci";
       "--max-trials"; "--bands"; "--checkpoint"; "--taint"; "--profile";
       "--journal"; "--warehouse"; "--progress"; "--trace-timeline" ]);
    ("coverage", [ "--dynamic"; "--csv"; "--regs-csv"; "--journal" ]);
    ("optimize",
     [ "--budget"; "--beam"; "--checkpoint"; "--validate"; "--ci";
       "--max-trials"; "--warehouse"; "--csv"; "--plan-out" ]);
    ("lint", [ "--benchmarks" ]);
    ("report", [ "--strata"; "--csv" ]);
    ("bench-diff", [ "--tolerance"; "--require-same-host" ]);
    ("ingest", [ "--warehouse" ]);
    ("history", [ "--warehouse" ]);
    ("diff-runs", [ "--warehouse" ]);
    ("regress", [ "--baseline"; "--current"; "--tolerance" ]);
    ("heatmap", [ "--warehouse"; "--journal"; "--csv"; "--html" ]);
    ("table1", []);
    ("dump", []);
    ("trace", [ "--limit" ]);
    ("trace-fault", [ "--trial" ]) ]

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
    surface

let test_toplevel_lists_subcommands () =
  let rc, text = help_of "" in
  Alcotest.(check int) "experiments --help exits 0" 0 rc;
  List.iter
    (fun (sub, _) ->
      Alcotest.(check bool)
        (Printf.sprintf "top-level help lists %s" sub)
        true (contains text sub))
    surface

let test_unknown_subcommand_fails () =
  (* Without --help: cmdliner must reject the command, not fall back. *)
  let rc =
    Sys.command (Printf.sprintf "%s no-such-subcommand > /dev/null 2>&1" exe)
  in
  Alcotest.(check bool) "unknown subcommand exits nonzero" true (rc <> 0)

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
      test_campaign_taint_journal ]
