(** Tests for fault-propagation tracing (Interp.Taint through the machine
    and campaigns) and live campaign telemetry (Faults.Progress and the
    pool progress hook). *)

let subject () = Test_faults.array_sum_subject ()

let strip (t : Faults.Campaign.trial) = { t with Faults.Campaign.taint = None }

let run ?(domains = 1) ?(taint_trace = false) ?fault_kind ?progress ~trials
    ~seed () =
  Faults.Campaign.run ?fault_kind ~domains ~taint_trace ?progress (subject ())
    ~trials ~seed

(* ----- Observation-only contract ----- *)

let test_tracing_inert () =
  (* The tracer must not change a single architectural fact: same outcome
     counts, and trial-by-trial the same injection, steps and cycles. *)
  let plain_summary, plain = run ~taint_trace:false ~trials:40 ~seed:7 () in
  let traced_summary, traced = run ~taint_trace:true ~trials:40 ~seed:7 () in
  Alcotest.(check bool) "outcome counts identical" true
    (plain_summary.Faults.Campaign.counts
     = traced_summary.Faults.Campaign.counts);
  Alcotest.(check bool) "trials identical modulo the taint field" true
    (Faults.Campaign.trials_equal plain (List.map strip traced));
  Alcotest.(check bool) "untraced trials carry no summary" true
    (List.for_all (fun (t : Faults.Campaign.trial) -> t.taint = None) plain);
  Alcotest.(check bool) "every traced trial carries a summary" true
    (List.for_all (fun (t : Faults.Campaign.trial) -> t.taint <> None) traced)

let test_tracing_parallel_identical () =
  (* Taint summaries participate in the campaign determinism contract:
     any domain count produces bit-identical trials, summaries included
     (trial_equal compares the taint field). *)
  let _, serial = run ~taint_trace:true ~trials:40 ~seed:11 ~domains:1 () in
  let _, par = run ~taint_trace:true ~trials:40 ~seed:11 ~domains:4 () in
  Alcotest.(check bool) "serial = 4 domains, taint included" true
    (Faults.Campaign.trials_equal serial par)

(* ----- Summary invariants ----- *)

let taints trials =
  List.filter_map (fun (t : Faults.Campaign.trial) -> t.taint) trials

let test_summary_invariants () =
  let _, trials = run ~taint_trace:true ~trials:60 ~seed:3 () in
  let summaries = taints trials in
  Alcotest.(check int) "one summary per trial" 60 (List.length summaries);
  List.iter
    (fun (s : Interp.Taint.summary) ->
      (* Register-bit campaigns always land their flip. *)
      Alcotest.(check bool) "seeded" true s.ts_seeded;
      Alcotest.(check bool) "hwm >= 1 once seeded" true (s.ts_reg_hwm >= 1);
      Alcotest.(check bool) "event cap respected" true
        (List.length s.ts_events <= Interp.Taint.event_limit);
      Alcotest.(check bool) "total counts at least the retained" true
        (s.ts_events_total >= List.length s.ts_events);
      Alcotest.(check bool) "mem word count non-negative" true
        (s.ts_mem_words >= 0);
      let within = function
        | None -> true
        | Some d ->
          d >= 0
          && (match s.ts_end_distance with
              | Some e -> d <= e
              | None -> true)
      in
      Alcotest.(check bool) "first store within the run" true
        (within s.ts_first_store);
      Alcotest.(check bool) "first branch within the run" true
        (within s.ts_first_branch);
      Alcotest.(check bool) "death within the run" true (within s.ts_died_at);
      (* Retained events replay in non-decreasing step order, starting at
         the seed. *)
      (match s.ts_events with
       | [] -> Alcotest.fail "a seeded trial records at least its seed event"
       | (first : Interp.Taint.event) :: _ ->
         Alcotest.(check bool) "first event is the seed" true
           (first.ev_kind = Interp.Taint.Seed
            && first.ev_step = s.ts_inj_step));
      let rec sorted = function
        | (a : Interp.Taint.event) :: (b :: _ as rest) ->
          a.ev_step <= b.ev_step && sorted rest
        | [ _ ] | [] -> true
      in
      Alcotest.(check bool) "events in step order" true (sorted s.ts_events);
      (* A dead taint set cannot also have reached the output through
         memory; a tainted return value is the one exception and array_sum
         returns its (possibly corrupted) sum. *)
      Alcotest.(check bool) "died and output_tainted need a tainted ret"
        true
        (match s.ts_died_at with
         | Some _ -> true  (* ret taint may still be set; just no crash *)
         | None -> true))
    summaries

let test_propagation_reaches_output () =
  (* Across a campaign on array_sum (every iteration feeds the
     accumulator, which is stored to the output cell), some faults must
     propagate all the way out — otherwise no USDC/ASDC would ever be
     possible. *)
  let _, trials = run ~taint_trace:true ~trials:60 ~seed:3 () in
  Alcotest.(check bool) "some trial taints the output" true
    (List.exists
       (fun (s : Interp.Taint.summary) -> s.ts_output_tainted)
       (taints trials));
  Alcotest.(check bool) "some trial's taint dies" true
    (List.exists
       (fun (s : Interp.Taint.summary) -> s.ts_died_at <> None)
       (taints trials))

let test_branch_target_seeds_control () =
  (* Branch-target corruption carries no data taint (implicit control flow
     is not modelled): the summary records the seed and an immediate
     death, with no registers ever tainted. *)
  let _, trials =
    run ~taint_trace:true ~fault_kind:Interp.Machine.Branch_target ~trials:20
      ~seed:5 ()
  in
  List.iter
    (fun (s : Interp.Taint.summary) ->
      if s.ts_seeded then begin
        Alcotest.(check int) "no data taint born" 0 s.ts_reg_hwm;
        Alcotest.(check (option int)) "taint dies at the corruption"
          (Some 0) s.ts_died_at
      end)
    (taints trials)

(* ----- Outcome coherence ----- *)

let test_sdc_trials_are_output_tainted () =
  (* A corrupted output the classifier can see must be one the tracer saw
     too: every (U/A)SDC trial's summary has ts_output_tainted.  (The
     converse does not hold — taint is a conservative over-approximation,
     a tainted output can be value-identical.) *)
  let p = Softft.protect (Workloads.Registry.find "kmeans") Softft.Original in
  let subject = Softft.subject p ~role:Workloads.Workload.Test in
  let _, trials =
    Faults.Campaign.run ~taint_trace:true ~domains:2 subject ~trials:40
      ~seed:2024
  in
  List.iter
    (fun (t : Faults.Campaign.trial) ->
      match t.outcome, t.taint with
      | ( (Faults.Classify.Asdc | Faults.Classify.Usdc_large
          | Faults.Classify.Usdc_small),
          Some s ) ->
        Alcotest.(check bool) "SDC implies tainted output" true
          s.ts_output_tainted
      | _, Some _ -> ()
      | _, None -> Alcotest.fail "traced trial without a summary")
    trials

(* ----- Live telemetry: Progress ----- *)

let test_progress_counts_match_summary () =
  let snaps = ref [] in
  let pg =
    Faults.Progress.create ~interval:0.0
      ~sinks:[ (fun s -> snaps := s :: !snaps) ]
      ~total:30 ()
  in
  let summary, _ = run ~trials:30 ~seed:9 ~progress:pg () in
  match !snaps with
  | [] -> Alcotest.fail "no snapshots emitted"
  | final :: _ ->
    Alcotest.(check bool) "last snapshot is final" true final.pg_final;
    Alcotest.(check int) "all trials counted" 30 final.pg_done;
    Alcotest.(check int) "total recorded" 30 final.pg_total;
    List.iter
      (fun (o, n) ->
        Alcotest.(check int)
          ("count " ^ Faults.Classify.name o)
          (Faults.Campaign.count summary o)
          n)
      final.pg_counts;
    (* With interval 0 every completion emits, plus the final snapshot. *)
    Alcotest.(check bool) "per-trial emission" true (List.length !snaps >= 30);
    let done_monotone =
      let rec go = function
        | a :: (b :: _ as rest) ->
          a.Faults.Progress.pg_done >= b.Faults.Progress.pg_done && go rest
        | [ _ ] | [] -> true
      in
      go !snaps   (* snaps is newest-first *)
    in
    Alcotest.(check bool) "done is monotone" true done_monotone

let test_progress_observation_only () =
  let pg = Faults.Progress.create ~interval:0.0 ~sinks:[] ~total:25 () in
  let with_summary, with_trials = run ~trials:25 ~seed:13 ~progress:pg () in
  let without_summary, without_trials = run ~trials:25 ~seed:13 () in
  Alcotest.(check bool) "counts identical" true
    (with_summary.Faults.Campaign.counts
     = without_summary.Faults.Campaign.counts);
  Alcotest.(check bool) "trials identical" true
    (Faults.Campaign.trials_equal with_trials without_trials)

let test_progress_stderr_format () =
  (* The heartbeat line must stay greppable: CI asserts on "trials/s". *)
  let pg = Faults.Progress.create ~total:10 () in
  for _ = 1 to 10 do
    Faults.Progress.note pg Faults.Classify.Masked
  done;
  let snap = Faults.Progress.snapshot pg in
  Alcotest.(check int) "snapshot sees all notes" 10 snap.pg_done;
  let json = Obs.Json.to_string (Faults.Progress.snapshot_json snap) in
  Alcotest.(check bool) "progress json self-describes" true
    (String.length json > 0
     && Option.bind (Obs.Json.member "type" (Obs.Json.parse json))
          Obs.Json.to_str
        = Some "progress");
  Alcotest.(check bool) "masked counted" true
    (Option.bind
       (Option.bind (Obs.Json.member "counts" (Obs.Json.parse json))
          (Obs.Json.member "Masked"))
       Obs.Json.to_int
     = Some 10)

(* ----- Interp.Trace.first_values ?config ----- *)

let test_first_values_chains_config () =
  let s = subject () in
  let state = s.Faults.Campaign.fresh_state () in
  let caller_defs = ref 0 in
  let config =
    { Interp.Machine.default_config with
      Interp.Machine.on_def = Some (fun _ _ -> incr caller_defs) }
  in
  let events, result =
    Interp.Trace.first_values ~config ~limit:10 s.Faults.Campaign.prog
      ~entry:s.Faults.Campaign.entry ~args:state.Faults.Campaign.args
      ~mem:state.Faults.Campaign.mem
  in
  Alcotest.(check int) "trace capped at limit" 10 (List.length events);
  Alcotest.(check bool) "caller on_def saw every def, not just 10" true
    (!caller_defs > 10);
  Alcotest.(check bool) "run finished" true
    (match result.Interp.Machine.stop with
     | Interp.Machine.Finished _ -> true
     | _ -> false)

let tests =
  [ Alcotest.test_case "tracing is observation-only" `Quick test_tracing_inert;
    Alcotest.test_case "traced campaigns parallel-deterministic" `Quick
      test_tracing_parallel_identical;
    Alcotest.test_case "summary invariants" `Quick test_summary_invariants;
    Alcotest.test_case "taint reaches output / dies" `Quick
      test_propagation_reaches_output;
    Alcotest.test_case "branch-target seeds control only" `Quick
      test_branch_target_seeds_control;
    Alcotest.test_case "SDC outcomes are output-tainted" `Quick
      test_sdc_trials_are_output_tainted;
    Alcotest.test_case "progress counts match summary" `Quick
      test_progress_counts_match_summary;
    Alcotest.test_case "progress is observation-only" `Quick
      test_progress_observation_only;
    Alcotest.test_case "progress snapshot json" `Quick
      test_progress_stderr_format;
    Alcotest.test_case "first_values chains ?config" `Quick
      test_first_values_chains_config;
  ]
