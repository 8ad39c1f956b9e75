(** Table-rendering and journal-report unit tests (Softft.Report). *)

module Report = Softft.Report

(* ----- pad / pad_left ----- *)

let test_pad () =
  Alcotest.(check string) "pads right" "ab  " (Report.pad 4 "ab");
  Alcotest.(check string) "exact width unchanged" "abcd" (Report.pad 4 "abcd");
  Alcotest.(check string) "wider than width unchanged" "abcde"
    (Report.pad 4 "abcde");
  Alcotest.(check string) "empty string" "   " (Report.pad 3 "");
  Alcotest.(check string) "zero width" "x" (Report.pad 0 "x")

let test_pad_left () =
  Alcotest.(check string) "pads left" "  ab" (Report.pad_left 4 "ab");
  Alcotest.(check string) "exact width unchanged" "abcd"
    (Report.pad_left 4 "abcd");
  Alcotest.(check string) "wider than width unchanged" "abcde"
    (Report.pad_left 4 "abcde");
  Alcotest.(check string) "empty string" "   " (Report.pad_left 3 "")

(* ----- render ----- *)

let test_render_basic () =
  let out =
    Report.render ~header:[ "name"; "n" ] ~rows:[ [ "a"; "10" ]; [ "bb"; "5" ] ]
  in
  Alcotest.(check string) "layout"
    "name   n\n----  --\na     10\nbb     5" out

let test_render_empty_rows () =
  let out = Report.render ~header:[ "col"; "x" ] ~rows:[] in
  Alcotest.(check string) "header and separator only" "col  x\n---  -" out

let test_render_ragged_names_row () =
  (* The error must name the offending row and both widths. *)
  Alcotest.check_raises "ragged row error"
    (Invalid_argument "Report.render: row 1 has 2 cells, header has 3")
    (fun () ->
      ignore
        (Report.render ~header:[ "a"; "b"; "c" ]
           ~rows:[ [ "1"; "2"; "3" ]; [ "1"; "2" ] ]))

let test_render_ragged_wide_row () =
  Alcotest.check_raises "too-wide row error"
    (Invalid_argument "Report.render: row 0 has 3 cells, header has 1")
    (fun () ->
      ignore (Report.render ~header:[ "a" ] ~rows:[ [ "1"; "2"; "3" ] ]))

let test_render_multibyte_header () =
  (* Column widths are byte widths: a 3-byte UTF-8 header ("\xce\xbcs" is
     "(mu)s", 3 bytes) sets the column to 3 bytes, and cells pad to it. *)
  let out = Report.render ~header:[ "\xce\xbcs"; "n" ] ~rows:[ [ "x"; "2" ] ] in
  Alcotest.(check string) "byte-width layout"
    "\xce\xbcs  n\n---  -\nx    2" out

(* ----- csv_field / csv_row (RFC 4180 quoting) ----- *)

let test_csv_field_plain () =
  (* Plain fields pass through byte-identically — existing CSV exports must
     not change shape. *)
  Alcotest.(check string) "number untouched" "12.50" (Obs.Csv.field "12.50");
  Alcotest.(check string) "word untouched" "kmeans" (Obs.Csv.field "kmeans");
  Alcotest.(check string) "empty untouched" "" (Obs.Csv.field "")

let test_csv_field_quoted () =
  Alcotest.(check string) "comma quoted" "\"a,b\"" (Obs.Csv.field "a,b");
  Alcotest.(check string) "quote doubled" "\"he said \"\"hi\"\"\""
    (Obs.Csv.field "he said \"hi\"");
  Alcotest.(check string) "newline quoted" "\"a\nb\"" (Obs.Csv.field "a\nb");
  Alcotest.(check string) "CR quoted" "\"a\rb\"" (Obs.Csv.field "a\rb")

let test_csv_row () =
  Alcotest.(check string) "mixed row" "plain,\"with,comma\",3"
    (Obs.Csv.row [ "plain"; "with,comma"; "3" ])

(* ----- log2 histogram and interpolated quantiles (the detection-latency
   table of the journal report) ----- *)

let test_log2_histogram () =
  (* 0 -> [0,1), 1 -> [1,2), 2..3 -> [2,4), 4 -> [4,8),
     1024 -> [1024,2048); a negative value shares the [0,1) bucket. *)
  Alcotest.(check (list (triple int int int))) "buckets"
    [ (0, 1, 1); (1, 2, 1); (2, 4, 2); (4, 8, 1); (1024, 2048, 1) ]
    (Report.log2_histogram [ 0; 1; 2; 3; 4; 1024 ]);
  Alcotest.(check (list (triple int int int))) "empty" []
    (Report.log2_histogram []);
  Alcotest.(check (pair int int)) "negative" (0, 1) (Report.log2_bucket (-5));
  (* No doubling overflow on the way up: the top bucket starts at 2^61. *)
  Alcotest.(check int) "largest int" (max_int / 2 + 1)
    (fst (Report.log2_bucket max_int))

let test_approx_quantile () =
  let q = Report.approx_quantile in
  Alcotest.(check int) "empty" 0 (q [] 0.5);
  Alcotest.(check int) "all-zero observations" 0 (q [ 0; 0; 0 ] 0.9);
  (* One observation of 1000 sits in bucket [512,1024): the interpolated
     mid-bucket estimate beats the bucket's upper bound. *)
  Alcotest.(check int) "interpolates inside the bucket" 768 (q [ 1000 ] 0.5);
  (* Uniform 1..100: monotone in q, clamped to the observed max, and q is
     clamped into [0,1]. *)
  let u = List.init 100 (fun i -> i + 1) in
  let qs = [ 0.0; 0.25; 0.5; 0.75; 0.9; 0.99; 1.0 ] in
  let estimates = List.map (q u) qs in
  Alcotest.(check bool) "monotone in q" true
    (List.sort compare estimates = estimates);
  let p50 = q u 0.5 in
  Alcotest.(check bool)
    (Printf.sprintf "p50 lands in its bucket (%d)" p50)
    true
    (p50 >= 32 && p50 <= 64);
  List.iter
    (fun e -> Alcotest.(check bool) "never exceeds the max" true (e <= 100))
    estimates;
  Alcotest.(check int) "q clamps low" (q u 0.0) (q u (-3.0));
  Alcotest.(check int) "q clamps high" (q u 1.0) (q u 2.0)

(* ----- Per-register strata (report --strata) ----- *)

let view ?inj_reg index outcome : Faults.Journal.view =
  { v_index = index; v_seed = index; v_at_step = 0; v_outcome = outcome;
    v_check_uid = None; v_dup_check = None; v_latency = None; v_steps = 0;
    v_cycles = 0; v_checkpoints = 0; v_recovery = None; v_taint = None;
    v_inj_reg = inj_reg; v_stratum = None }

let array_sum_coverage () =
  let subject = Test_faults.protected_array_sum () in
  Analysis.Coverage.analyze subject.Faults.Campaign.prog

let test_strata_partition () =
  (* Every outcome (and one name this build does not know) on every
     register, plus a register the coverage map lacks and an
     injection-free trial: each stratum's four groups add up to its trial
     count, and the strata hold exactly the injected trials. *)
  let cov = array_sum_coverage () in
  let regs =
    List.map
      (fun (r : Analysis.Coverage.reg_row) -> r.r_reg)
      (Analysis.Coverage.ranked_regs cov)
    @ [ 1_000_000 ]
  in
  let names =
    "Bogus" :: List.map Faults.Classify.name Faults.Classify.all
  in
  let views =
    view 0 "Masked"
    :: List.concat_map
         (fun reg -> List.map (fun o -> view ~inj_reg:reg 0 o) names)
         regs
  in
  let strata = Report.journal_strata cov views in
  List.iter
    (fun (sm : Report.stratum) ->
      Alcotest.(check int)
        (sm.sm_status ^ ": SDC + detected + masked + other = trials")
        sm.sm_trials
        (sm.sm_sdc + sm.sm_detected + sm.sm_masked + sm.sm_other))
    strata;
  Alcotest.(check int) "strata hold every injected trial"
    (List.length views - 1)
    (List.fold_left (fun acc (sm : Report.stratum) -> acc + sm.sm_trials) 0
       strata);
  Alcotest.(check bool) "unmapped register has its stratum" true
    (List.exists (fun (sm : Report.stratum) -> sm.sm_status = "(unmapped)")
       strata)

let test_strata_hwdetect_detected () =
  let cov = array_sum_coverage () in
  let reg =
    match Analysis.Coverage.ranked_regs cov with
    | r :: _ -> r.Analysis.Coverage.r_reg
    | [] -> Alcotest.fail "no registers"
  in
  match Report.journal_strata cov [ view ~inj_reg:reg 0 "HWDetect" ] with
  | [ sm ] ->
    Alcotest.(check (list int)) "HWDetect counts as detected"
      [ 1; 0; 1; 0; 0 ]
      [ sm.sm_trials; sm.sm_sdc; sm.sm_detected; sm.sm_masked; sm.sm_other ]
  | strata ->
    Alcotest.failf "expected one stratum, got %d" (List.length strata)

let tests =
  [ Alcotest.test_case "pad" `Quick test_pad;
    Alcotest.test_case "csv_field: plain passthrough" `Quick
      test_csv_field_plain;
    Alcotest.test_case "csv_field: RFC 4180 quoting" `Quick
      test_csv_field_quoted;
    Alcotest.test_case "csv_row" `Quick test_csv_row;
    Alcotest.test_case "pad_left" `Quick test_pad_left;
    Alcotest.test_case "render: basic" `Quick test_render_basic;
    Alcotest.test_case "render: empty rows" `Quick test_render_empty_rows;
    Alcotest.test_case "render: ragged row named" `Quick
      test_render_ragged_names_row;
    Alcotest.test_case "render: too-wide row named" `Quick
      test_render_ragged_wide_row;
    Alcotest.test_case "render: multi-byte header" `Quick
      test_render_multibyte_header;
    Alcotest.test_case "log2 histogram: buckets" `Quick test_log2_histogram;
    Alcotest.test_case "approx quantile" `Quick test_approx_quantile;
    Alcotest.test_case "strata: groups partition each stratum" `Quick
      test_strata_partition;
    Alcotest.test_case "strata: HWDetect counts as detected" `Quick
      test_strata_hwdetect_detected;
  ]
