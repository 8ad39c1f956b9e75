(** Tuning the expected-value checks: an ablation over the profiling
    heuristics of Section III-C.  Sweeps the range-width threshold (the
    R_thr of Algorithm 2) and the range slack, reporting how many checks
    are inserted, what they cost, how often they fire spuriously on the
    test input, and what coverage they buy.

    Run with: dune exec examples/check_tuning.exe *)

let trials = 150

let evaluate_params label params =
  let w = Workloads.Registry.find "jpegenc" in
  let p = Softft.protect ~params w Softft.Dup_valchk in
  let role = Workloads.Workload.Test in
  let baseline =
    Softft.golden (Softft.protect w Softft.Original) ~role
  in
  let golden = Softft.golden p ~role in
  let overhead = Softft.overhead ~baseline p ~role in
  let summary, (_ : Faults.Campaign.trial list) =
    Softft.campaign p ~role ~trials ~seed:23
  in
  let usdc =
    Faults.Campaign.percent_many summary
      [ Faults.Classify.Usdc_large; Faults.Classify.Usdc_small ]
  in
  let sw = Faults.Campaign.percent summary Faults.Classify.Sw_detect in
  Printf.printf "%-24s %7d %9.1f%% %10d %8.1f%% %8.1f%%\n" label
    p.static_stats.value_checks (100.0 *. overhead) golden.false_positives sw
    usdc

let () =
  Printf.printf
    "Ablation on jpegenc (Dup + val chks), %d trials per configuration\n\n"
    trials;
  Printf.printf "%-24s %7s %10s %10s %9s %9s\n" "configuration" "checks"
    "overhead" "false-pos" "SWDetect" "USDC";
  Printf.printf "%s\n" (String.make 75 '-');
  let base = Profiling.Value_profile.default_params in
  evaluate_params "default" base;
  evaluate_params "tight ranges (R=256)"
    { base with r_thr_abs = 256.0 };
  evaluate_params "wide ranges (R=65536)"
    { base with r_thr_abs = 65536.0 };
  evaluate_params "no slack"
    { base with slack = 0.0 };
  evaluate_params "double slack"
    { base with slack = 2.0 *. base.slack };
  evaluate_params "hot-only (execs>=512)"
    { base with min_execs = 512 };
  evaluate_params "everything (execs>=4)"
    { base with min_execs = 4 };
  Printf.printf
    "\nReading guide: more checks buy SWDetect coverage but cost overhead \
     and\nfalse positives (checks that fire on the fault-free test input \
     and are\ndisabled after one spurious recovery, paper \xc2\xa7V).\n"
