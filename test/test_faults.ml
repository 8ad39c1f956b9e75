(** Tests for the fault library: outcome classification and campaigns. *)

open Ir

(* A small subject: sums an input array into an output cell, loop-carried
   accumulator; acceptable if the single output cell is within 10%. *)
let array_sum_subject ?(n = 64) ?(mult = 13) ?(prog = None) () =
  let build () =
    let prog = Prog.create () in
    let b = Builder.create prog ~name:"main" ~n_params:3 in
    let src = Builder.param b 0 in
    let len = Builder.param b 1 in
    let out = Builder.param b 2 in
    let s =
      Workloads.Kutil.for1 b ~from:(Builder.imm 0) ~until:len ~init:(Builder.imm 0)
        ~body:(fun ~i acc -> Builder.add b acc (Builder.geti b src i))
    in
    Builder.seti b out (Builder.imm 0) s;
    Builder.ret b s;
    Builder.finish b;
    prog
  in
  let prog = match prog with Some p -> p | None -> build () in
  let fresh_state () =
    let mem = Interp.Memory.create () in
    let data = Array.init n (fun i -> (i * mult mod 50) + 1) in
    let src = Interp.Memory.alloc_ints mem data in
    let out = Interp.Memory.alloc mem 1 in
    { Faults.Campaign.mem;
      args = [ Value.of_int src; Value.of_int n; Value.of_int out ];
      read_output =
        (fun (_ : Value.t option) ->
          Array.map float_of_int (Interp.Memory.read_ints_tolerant mem out 1)) }
  in
  { Faults.Campaign.label = "array_sum"; prog; entry = "main"; fresh_state;
    metric = Fidelity.Metric.mismatch_spec 0.0 }

(* ----- Classification ----- *)

let mk_result stop ~steps ~inj_step : Interp.Machine.result =
  { stop; steps; cycles = steps; valchk_failures = 0; failed_check_uids = [];
    injection =
      Some { Interp.Machine.inj_step; inj_kind = Interp.Machine.Register_bit;
             inj_reg = 0; inj_bit = 3;
             before = Value.of_int 0; after = Value.of_int 8 };
    recovered = None; rollback_denied = false; checkpoints = 0; taint = None;
    rejoined_at = None; settled = false }

let classify ?(identical = false) ?(acceptable = false) result =
  Faults.Classify.classify ~hw_window:1000 ~result
    ~identical:(fun () -> identical)
    ~acceptable:(fun () -> acceptable)

let test_classify_masked () =
  let r = mk_result (Interp.Machine.Finished None) ~steps:100 ~inj_step:50 in
  Alcotest.(check string) "masked" "Masked"
    (Faults.Classify.name (classify ~identical:true r))

let test_classify_asdc () =
  let r = mk_result (Interp.Machine.Finished None) ~steps:100 ~inj_step:50 in
  Alcotest.(check string) "asdc" "ASDC"
    (Faults.Classify.name (classify ~acceptable:true r))

let test_classify_usdc_small () =
  let r = mk_result (Interp.Machine.Finished None) ~steps:100 ~inj_step:50 in
  Alcotest.(check string) "usdc small" "USDC(small)"
    (Faults.Classify.name (classify r))

let test_classify_usdc_large () =
  let r =
    { (mk_result (Interp.Machine.Finished None) ~steps:100 ~inj_step:50) with
      injection =
        Some { Interp.Machine.inj_step = 50;
               inj_kind = Interp.Machine.Register_bit; inj_reg = 0;
               inj_bit = 40;
               before = Value.of_int 0; after = Value.Int 1099511627776L } }
  in
  Alcotest.(check string) "usdc large" "USDC(large)"
    (Faults.Classify.name (classify r))

let test_classify_hw_window () =
  let trap = Interp.Machine.Trapped (Interp.Machine.Segfault 1) in
  let within = mk_result trap ~steps:500 ~inj_step:100 in
  let beyond = mk_result trap ~steps:5000 ~inj_step:100 in
  Alcotest.(check string) "within window" "HWDetect"
    (Faults.Classify.name (classify within));
  Alcotest.(check string) "beyond window" "Failure"
    (Faults.Classify.name (classify beyond))

let test_classify_sw_and_fuel () =
  let sw =
    mk_result
      (Interp.Machine.Sw_detected { check_uid = 7; dup_check = true })
      ~steps:100 ~inj_step:50
  in
  let fuel = mk_result Interp.Machine.Out_of_fuel ~steps:100 ~inj_step:50 in
  Alcotest.(check string) "sw" "SWDetect" (Faults.Classify.name (classify sw));
  Alcotest.(check string) "fuel is failure" "Failure"
    (Faults.Classify.name (classify fuel))

let test_groupings () =
  let open Faults.Classify in
  let group o = group_of_name (name o) in
  Alcotest.(check bool) "asdc is sdc" true (is_sdc Asdc);
  Alcotest.(check bool) "asdc groups as sdc" true (group Asdc = `Sdc);
  Alcotest.(check bool) "swdetect detected" true (group Sw_detect = `Detected);
  Alcotest.(check bool) "failure is other" true (group Failure = `Other);
  Alcotest.(check int) "nine categories" 9 (List.length all);
  (* Recovery outcomes: a recovered trial ran to a correct answer and an
     unrecoverable one was still caught by a check; neither is silent
     corruption, both started as software detections. *)
  Alcotest.(check bool) "recovered not sdc" false (is_sdc Recovered);
  Alcotest.(check bool) "recovered detected" true (group Recovered = `Detected);
  Alcotest.(check bool) "unrecoverable detected" true
    (group Unrecoverable = `Detected);
  Alcotest.(check bool) "names roundtrip" true
    (List.for_all (fun o -> of_name (name o) = Some o) all);
  Alcotest.(check bool) "unknown name" true (of_name "NotAnOutcome" = None)

let mk_recovery ~detect_step : Interp.Machine.recovery =
  { rec_detection = { check_uid = 7; dup_check = true };
    rec_detect_step = detect_step; rec_checkpoint_step = detect_step - 40;
    rec_replayed_steps = 40; rec_wasted_cycles = 55; rec_rollback_cycles = 80 }

let test_classify_recovered () =
  (* A run that rolled back and finished with the golden output. *)
  let r =
    { (mk_result (Interp.Machine.Finished None) ~steps:200 ~inj_step:50) with
      recovered = Some (mk_recovery ~detect_step:60) }
  in
  Alcotest.(check string) "recovered" "Recovered"
    (Faults.Classify.name (classify ~identical:true r));
  (* Rolled back but the output still differs: the checkpoint was not
     clean after all — Unrecoverable, never silent-corruption. *)
  Alcotest.(check string) "recovery that missed" "Unrecoverable"
    (Faults.Classify.name (classify r));
  Alcotest.(check string) "even if acceptable" "Unrecoverable"
    (Faults.Classify.name (classify ~acceptable:true r))

let test_classify_rollback_denied () =
  (* Check fired but no clean checkpoint predated the injection: the
     machine refuses the rollback and the detection stands, downgraded to
     Unrecoverable (detection latency exceeded the checkpoint window). *)
  let r =
    { (mk_result
         (Interp.Machine.Sw_detected { check_uid = 3; dup_check = false })
         ~steps:100 ~inj_step:50)
      with rollback_denied = true }
  in
  Alcotest.(check string) "denied rollback" "Unrecoverable"
    (Faults.Classify.name (classify r))

(* ----- Campaign ----- *)

let test_golden_run () =
  let subject = array_sum_subject () in
  let g = Faults.Campaign.golden_run subject in
  Alcotest.(check int) "one output" 1 (Array.length g.output);
  Alcotest.(check bool) "positive sum" true (g.output.(0) > 0.0);
  Alcotest.(check bool) "steps counted" true (g.steps > 100)

let test_campaign_counts_sum_to_trials () =
  let subject = array_sum_subject () in
  let summary, trials = Faults.Campaign.run subject ~trials:50 ~seed:1 in
  let total = List.fold_left (fun a (_, n) -> a + n) 0 summary.counts in
  Alcotest.(check int) "counts sum" 50 total;
  Alcotest.(check int) "trial list length" 50 (List.length trials)

let test_campaign_deterministic () =
  let run () =
    let summary, _ = Faults.Campaign.run (array_sum_subject ()) ~trials:40 ~seed:77 in
    summary.counts
  in
  Alcotest.(check bool) "same seed, same counts" true (run () = run ())

let test_campaign_seed_sensitivity () =
  let run seed =
    let _, trials = Faults.Campaign.run (array_sum_subject ()) ~trials:30 ~seed in
    List.map (fun t -> t.Faults.Campaign.at_step) trials
  in
  Alcotest.(check bool) "different seeds, different schedule" true
    (run 1 <> run 2)

let test_campaign_finds_corruptions () =
  (* With a strict metric (mismatch 0), any changed sum is a USDC. *)
  let summary, _ = Faults.Campaign.run (array_sum_subject ()) ~trials:200 ~seed:3 in
  let usdc =
    Faults.Campaign.count summary Faults.Classify.Usdc_large
    + Faults.Campaign.count summary Faults.Classify.Usdc_small
  in
  Alcotest.(check bool)
    (Printf.sprintf "some corruptions (%d/200)" usdc)
    true (usdc > 0)

let test_campaign_protection_reduces_usdc () =
  (* Duplicate the accumulator chain: SWDetect must appear and USDC drop. *)
  let unprotected, _ =
    Faults.Campaign.run (array_sum_subject ()) ~trials:200 ~seed:5
  in
  let protected_subject =
    let s = array_sum_subject () in
    let (_ : Transform.Duplicate.stats), (_ : (int, unit) Hashtbl.t) =
      Transform.Duplicate.run s.prog
    in
    Ir.Verifier.verify s.prog;
    s
  in
  let protected_, _ = Faults.Campaign.run protected_subject ~trials:200 ~seed:5 in
  let usdc s =
    Faults.Campaign.count s Faults.Classify.Usdc_large
    + Faults.Campaign.count s Faults.Classify.Usdc_small
  in
  let sw = Faults.Campaign.count protected_ Faults.Classify.Sw_detect in
  Alcotest.(check bool) "protection detects" true (sw > 0);
  Alcotest.(check bool)
    (Printf.sprintf "usdc reduced (%d -> %d)" (usdc unprotected) (usdc protected_))
    true
    (usdc protected_ < usdc unprotected)

(* ----- Parallel campaign determinism ----- *)

(* The determinism contract: because every trial seed is pre-derived from
   the master RNG before any worker starts, the worker count must be
   unobservable — same summary, same trial list, bit for bit. *)
let check_parallel_identical subject ~trials ~seed =
  let serial_summary, serial_trials =
    Faults.Campaign.run subject ~trials ~seed ~domains:1
  in
  let par_summary, par_trials =
    Faults.Campaign.run subject ~trials ~seed ~domains:4
  in
  Alcotest.(check bool) "summaries identical" true
    (serial_summary.Faults.Campaign.counts = par_summary.Faults.Campaign.counts
     && serial_summary.subject_label = par_summary.subject_label
     && serial_summary.trials = par_summary.trials);
  Alcotest.(check bool) "trial lists identical" true
    (Faults.Campaign.trials_equal serial_trials par_trials)

let test_campaign_parallel_identical_array_sum () =
  check_parallel_identical (array_sum_subject ()) ~trials:40 ~seed:11

let test_campaign_parallel_identical_workload () =
  let p = Softft.protect (Workloads.Registry.find "g721enc") Softft.Dup_only in
  let subject = Softft.subject p ~role:Workloads.Workload.Test in
  check_parallel_identical subject ~trials:16 ~seed:42

let test_derive_seeds_matches_serial () =
  (* The pre-derived schedule must reproduce what the historical serial
     loop drew from the master generator, one trial at a time. *)
  let trials = 25 and seed = 123 in
  let master = Rng.create seed in
  let expected = Array.make trials 0 in
  for i = 0 to trials - 1 do
    expected.(i) <- (Int64.to_int (Rng.bits master) land 0x3FFFFFFF) + i
  done;
  let got = Faults.Campaign.derive_seeds ~seed ~trials in
  Alcotest.(check (array int)) "seed schedule" expected got

let test_derive_seeds_unique () =
  (* Regression: the raw 30-bit-draw-plus-index schedule collides for
     these (seed, trials) pairs — (123, 100k) repeats 9 seeds, (1, 65536)
     repeats 2 — and a repeated seed silently reruns the same trial.  The
     deduped schedule must be pairwise distinct while keeping every
     non-colliding draw at its historical value. *)
  List.iter
    (fun (seed, trials) ->
      let seeds = Faults.Campaign.derive_seeds ~seed ~trials in
      let seen = Hashtbl.create (2 * trials) in
      let dups = ref 0 in
      Array.iter
        (fun s ->
          if Hashtbl.mem seen s then incr dups;
          Hashtbl.replace seen s ())
        seeds;
      Alcotest.(check int)
        (Printf.sprintf "no duplicate seeds (seed=%d trials=%d)" seed trials)
        0 !dups;
      (* Spot-check the historical prefix survives: short schedules have no
         collisions, so they must be byte-for-byte the raw draws. *)
      let master = Rng.create seed in
      let raw i = (Int64.to_int (Rng.bits master) land 0x3FFFFFFF) + i in
      let agree = ref true in
      for i = 0 to min 24 (trials - 1) do
        if seeds.(i) <> raw i then agree := false
      done;
      Alcotest.(check bool) "non-colliding prefix unchanged" true !agree)
    [ (123, 100_000); (1, 65_536) ]

let test_percent_helpers () =
  let summary, _ = Faults.Campaign.run (array_sum_subject ()) ~trials:50 ~seed:9 in
  let total =
    List.fold_left
      (fun acc o -> acc +. Faults.Campaign.percent summary o)
      0.0 Faults.Classify.all
  in
  Alcotest.(check (float 1e-6)) "percents sum to 100" 100.0 total

let test_mean_percent () =
  let s1, _ = Faults.Campaign.run (array_sum_subject ()) ~trials:50 ~seed:1 in
  let s2, _ = Faults.Campaign.run (array_sum_subject ()) ~trials:50 ~seed:2 in
  let m =
    Faults.Campaign.mean_percent [ s1; s2 ] [ Faults.Classify.Masked ]
  in
  let a = Faults.Campaign.percent s1 Faults.Classify.Masked in
  let b = Faults.Campaign.percent s2 Faults.Classify.Masked in
  Alcotest.(check (float 1e-6)) "mean of two" ((a +. b) /. 2.0) m

(* ----- Edge cases: empty campaigns ----- *)

let test_percent_zero_trials () =
  (* Regression: percent over an empty campaign used to be 0/0 = NaN,
     which then poisoned every table it was averaged into. *)
  let summary, trials =
    Faults.Campaign.run (array_sum_subject ()) ~trials:0 ~seed:1
  in
  Alcotest.(check int) "no trials ran" 0 (List.length trials);
  List.iter
    (fun o ->
      let p = Faults.Campaign.percent summary o in
      Alcotest.(check bool)
        (Printf.sprintf "percent %s finite" (Faults.Classify.name o))
        false (Float.is_nan p);
      Alcotest.(check (float 1e-9)) "zero" 0.0 p)
    Faults.Classify.all

let test_mean_percent_empty () =
  (* Regression: the mean over no summaries must be 0, not NaN. *)
  let m = Faults.Campaign.mean_percent [] [ Faults.Classify.Masked ] in
  Alcotest.(check bool) "finite" false (Float.is_nan m);
  Alcotest.(check (float 1e-9)) "zero" 0.0 m

(* ----- Checkpoint/rollback recovery ----- *)

(* An array_sum subject whose accumulator chain is duplicated: software
   checks fire, so with checkpointing enabled those trials can recover. *)
let protected_array_sum () =
  let s = array_sum_subject () in
  let (_ : Transform.Duplicate.stats), (_ : (int, unit) Hashtbl.t) =
    Transform.Duplicate.run s.prog
  in
  Ir.Verifier.verify s.prog;
  s

let test_recovery_reclassifies_swdetect () =
  let count = Faults.Campaign.count in
  let plain, _ =
    Faults.Campaign.run (protected_array_sum ()) ~trials:200 ~seed:5
  in
  let recov, trials =
    Faults.Campaign.run (protected_array_sum ()) ~trials:200 ~seed:5
      ~checkpoint_interval:200
  in
  let sw0 = count plain Faults.Classify.Sw_detect in
  let recovered = count recov Faults.Classify.Recovered in
  let unrec = count recov Faults.Classify.Unrecoverable in
  Alcotest.(check bool) "protection detected something" true (sw0 > 0);
  (* Every detection either recovers or is explicitly unrecoverable; the
     paper's claim is that a short window suffices, i.e. the majority
     recovers. *)
  Alcotest.(check int)
    (Printf.sprintf "detections conserved (%d -> %d+%d+%d)" sw0
       (count recov Faults.Classify.Sw_detect) recovered unrec)
    sw0
    (count recov Faults.Classify.Sw_detect + recovered + unrec);
  Alcotest.(check bool)
    (Printf.sprintf "majority recovered (%d of %d)" recovered sw0)
    true
    (recovered * 2 > sw0);
  (* Recovery never manufactures silent corruption. *)
  let usdc s =
    count s Faults.Classify.Usdc_large + count s Faults.Classify.Usdc_small
  in
  Alcotest.(check bool) "usdc not increased" true (usdc recov <= usdc plain);
  (* Every Recovered trial carries its telemetry and replayed a plausible
     span: from a checkpoint at or before detection. *)
  List.iter
    (fun (t : Faults.Campaign.trial) ->
      match t.outcome, t.recovery with
      | Faults.Classify.Recovered, Some r ->
        Alcotest.(check bool) "replay nonnegative" true
          (r.Interp.Machine.rec_replayed_steps >= 0);
        Alcotest.(check bool) "checkpoint before detection" true
          (r.Interp.Machine.rec_checkpoint_step
           <= r.Interp.Machine.rec_detect_step);
        Alcotest.(check bool) "trial took checkpoints" true (t.checkpoints > 0)
      | Faults.Classify.Recovered, None ->
        Alcotest.fail "Recovered trial without recovery telemetry"
      | _ -> ())
    trials

let test_recovery_overhead_monotone () =
  (* Fault-free cost: more frequent checkpoints must cost monotonically
     more cycles, and recovery off must be the cheapest. *)
  let cycles interval =
    (Faults.Campaign.golden_run ~checkpoint_interval:interval
       (array_sum_subject ()))
      .cycles
  in
  let off = cycles 0 and sparse = cycles 200 and dense = cycles 50 in
  Alcotest.(check bool)
    (Printf.sprintf "off <= sparse (%d <= %d)" off sparse)
    true (off <= sparse);
  Alcotest.(check bool)
    (Printf.sprintf "sparse < dense (%d < %d)" sparse dense)
    true (sparse < dense)

let test_recovery_steps_deterministic_and_golden () =
  (* Checkpointing a fault-free run must not change what it computes. *)
  let plain = Faults.Campaign.golden_run (array_sum_subject ()) in
  let ckpt =
    Faults.Campaign.golden_run ~checkpoint_interval:100 (array_sum_subject ())
  in
  Alcotest.(check int) "same steps" plain.steps ckpt.steps;
  Alcotest.(check bool) "same output" true (plain.output = ckpt.output);
  Alcotest.(check bool) "checkpoints cost cycles" true
    (ckpt.cycles > plain.cycles)

let test_recovery_parallel_identical () =
  (* The determinism contract survives recovery: rollback decisions depend
     only on the trial's own execution, so worker count stays
     unobservable. *)
  let run domains =
    Faults.Campaign.run (protected_array_sum ()) ~trials:60 ~seed:11 ~domains
      ~checkpoint_interval:150
  in
  let s1, t1 = run 1 in
  let s4, t4 = run 4 in
  Alcotest.(check bool) "summaries identical" true
    (s1.Faults.Campaign.counts = s4.Faults.Campaign.counts);
  Alcotest.(check bool) "trial lists bit-identical" true
    (Faults.Campaign.trials_equal t1 t4);
  Alcotest.(check bool) "some trial recovered" true
    (Faults.Campaign.count s1 Faults.Classify.Recovered > 0)

(* ----- Golden-prefix snapshot forking ----- *)

(* The from-scratch reference of a uniform campaign's trials: [run_trial]
   on each trial's seed, against the campaign's own golden record. *)
let from_scratch ?(fault_kind = Interp.Machine.Register_bit)
    ?(checkpoint_interval = 0) ?(taint_trace = false) subject
    (summary : Faults.Campaign.summary) trials =
  let golden = summary.golden_info in
  let disabled = Hashtbl.create 8 in
  List.iter (fun uid -> Hashtbl.replace disabled uid ()) golden.failing_checks;
  List.map
    (fun (t : Faults.Campaign.trial) ->
      Faults.Campaign.run_trial ~fault_kind ~checkpoint_interval ~taint_trace
        subject ~golden ~disabled ~hw_window:Faults.Classify.default_hw_window
        ~seed:t.trial_seed)
    trials

(* The fork determinism contract (DESIGN.md §12): a campaign's forked
   trials equal their from-scratch runs bit for bit — outcomes, steps,
   cycles, injections, recovery and taint telemetry. *)
let check_fork_identical ~checkpoint_interval ~taint_trace subject ~trials
    ~seed =
  let summary, forked =
    Faults.Campaign.run subject ~trials ~seed ~checkpoint_interval
      ~taint_trace
  in
  Alcotest.(check bool) "trial lists bit-identical" true
    (Faults.Campaign.trials_equal
       (from_scratch ~checkpoint_interval ~taint_trace subject summary forked)
       forked)

let test_fork_identical_all_workloads () =
  (* Every registered workload under the paper's main technique. *)
  List.iter
    (fun (w : Workloads.Workload.t) ->
      let p = Softft.protect w Softft.Dup_valchk in
      let subject = Softft.subject p ~role:Workloads.Workload.Test in
      check_fork_identical ~checkpoint_interval:0 ~taint_trace:false subject
        ~trials:6 ~seed:321)
    Workloads.Registry.all

let test_fork_identical_configs () =
  (* Deep cross on two workloads: technique x checkpointing x taint
     tracing, covering the interactions the resume path must reproduce
     (synthetic checkpoints, shadow-taint seeding after the fork). *)
  List.iter
    (fun name ->
      List.iter
        (fun technique ->
          List.iter
            (fun (checkpoint_interval, taint_trace) ->
              let w = Workloads.Registry.find name in
              let p = Softft.protect w technique in
              let subject = Softft.subject p ~role:Workloads.Workload.Test in
              check_fork_identical ~checkpoint_interval ~taint_trace subject
                ~trials:4 ~seed:97)
            [ (0, false); (0, true); (5_000, false); (5_000, true) ])
        [ Softft.Original; Softft.Dup_only; Softft.Dup_valchk;
          Softft.Dup_valchk_cfc ])
    [ "g721enc"; "kmeans" ]

let test_fork_short_golden_run () =
  (* A golden run shorter than the first stride still has snapshot 0, so
     its trials resume, rejoin and settle like a long run's, and still
     equal their from-scratch runs. *)
  let subject = array_sum_subject () in
  let stats = ref None in
  let summary, trials =
    Faults.Campaign.run subject ~trials:40 ~seed:7 ~stats_out:stats
  in
  let stats = Option.get !stats in
  Alcotest.(check bool)
    (Printf.sprintf "golden run shorter than a stride (%d steps)"
       summary.golden_info.steps)
    true (summary.golden_info.steps < 1024);
  Alcotest.(check bool) (Printf.sprintf "trials settled (%d)" stats.settled)
    true (stats.settled > 0);
  Alcotest.(check bool) "trial lists bit-identical" true
    (Faults.Campaign.trials_equal (from_scratch subject summary trials) trials)

let dupval name =
  Softft.subject
    (Softft.protect (Workloads.Registry.find name) Softft.Dup_valchk)
    ~role:Workloads.Workload.Test

let test_fork_golden_record () =
  (* The campaign's golden run also captures the fork snapshots; the
     golden record it reports is exactly that of a plain golden run. *)
  let subject = dupval "kmeans" in
  List.iter
    (fun checkpoint_interval ->
      let what = Printf.sprintf "checkpoint %d: " checkpoint_interval in
      let plain = Faults.Campaign.golden_run ~checkpoint_interval subject in
      let summary, _ =
        Faults.Campaign.run subject ~trials:4 ~seed:5 ~checkpoint_interval
      in
      let g = summary.Faults.Campaign.golden_info in
      Alcotest.(check int) (what ^ "steps") plain.steps g.steps;
      Alcotest.(check int) (what ^ "cycles") plain.cycles g.cycles;
      Alcotest.(check bool) (what ^ "output") true
        (Fidelity.Metric.identical ~reference:plain.output g.output);
      Alcotest.(check int) (what ^ "false positives") plain.false_positives
        g.false_positives;
      Alcotest.(check (list int)) (what ^ "failing checks")
        plain.failing_checks g.failing_checks)
    [ 0; 1000 ]

let test_fork_parallel_identical () =
  (* Forking and domain parallelism compose: snapshots are shared
     read-only across workers, so worker count stays unobservable. *)
  let subject = protected_array_sum () in
  let s1, t1 = Faults.Campaign.run subject ~trials:40 ~seed:19 ~domains:1 in
  let s4, t4 = Faults.Campaign.run subject ~trials:40 ~seed:19 ~domains:4 in
  Alcotest.(check bool) "summaries identical" true
    (s1.Faults.Campaign.counts = s4.Faults.Campaign.counts);
  Alcotest.(check bool) "trial lists bit-identical" true
    (Faults.Campaign.trials_equal t1 t4);
  (* The same at workload scale: forked campaigns at 2 and 4 domains match
     the from-scratch reference. *)
  List.iter
    (fun name ->
      let subject = dupval name in
      let run domains =
        Faults.Campaign.run subject ~trials:60 ~seed:0xC0FFEE ~domains
      in
      let s_ref, t_ref = run 1 in
      let t_ref = from_scratch subject s_ref t_ref in
      List.iter
        (fun domains ->
          let _, t = run domains in
          let what = Printf.sprintf "%s, %d domains" name domains in
          Alcotest.(check bool) (what ^ ": trial lists bit-identical") true
            (Faults.Campaign.trials_equal t_ref t))
        [ 2; 4 ])
    [ "g721enc"; "kmeans" ]

(* ----- Rejoining the golden run (DESIGN.md §12) ----- *)

let campaign_stats ?(domains = 1) ?(checkpoint_interval = 0)
    ?(fault_kind = Interp.Machine.Register_bit) ?(taint_trace = false)
    ?profile subject ~trials =
  let stats = ref None in
  let summary, results =
    Faults.Campaign.run subject ~trials ~seed:0xC0FFEE ~domains
      ~checkpoint_interval ~fault_kind ~taint_trace ?profile ~stats_out:stats
  in
  (summary, results, Option.get !stats)

let test_rejoin_campaign_identical () =
  (* Campaigns whose trials rejoin or settle (1 and 2 domains) match the
     from-scratch trials ([run_trial]) trial for trial, and their rejoin
     tallies do not depend on the worker count.  Only register flips
     without checkpointing settle; that configuration runs under every
     paper technique, the others under Dup + val chks. *)
  List.iter
    (fun name ->
      let rejoined = ref 0 and settled = ref 0 in
      List.iter
        (fun technique ->
          let subject =
            Softft.subject
              (Softft.protect (Workloads.Registry.find name) technique)
              ~role:Workloads.Workload.Test
          in
          List.iter
            (fun (checkpoint_interval, fault_kind) ->
              let run domains =
                campaign_stats ~domains ~checkpoint_interval ~fault_kind
                  subject ~trials:8
              in
              let what =
                Printf.sprintf "%s/%s/k=%d" name
                  (Softft.technique_name technique) checkpoint_interval
              in
              let summary, t1, s1 = run 1 in
              let _, t2, s2 = run 2 in
              let reference =
                from_scratch ~fault_kind ~checkpoint_interval subject summary
                  t1
              in
              Alcotest.(check bool) (what ^ ": 1 domain bit-identical") true
                (Faults.Campaign.trials_equal reference t1);
              Alcotest.(check bool) (what ^ ": 2 domains bit-identical") true
                (Faults.Campaign.trials_equal reference t2);
              Alcotest.(check (triple int int int))
                (what ^ ": tallies independent of domains")
                (s1.rejoined, s1.settled, s1.steps_skipped)
                (s2.rejoined, s2.settled, s2.steps_skipped);
              Alcotest.(check bool) (what ^ ": settled trials rejoined") true
                (s1.settled <= s1.rejoined);
              rejoined := !rejoined + s1.rejoined;
              settled := !settled + s1.settled)
            ((0, Interp.Machine.Register_bit)
             :: (if technique = Softft.Dup_valchk then
                   [ (1000, Interp.Machine.Register_bit);
                     (0, Interp.Machine.Branch_target);
                     (1000, Interp.Machine.Branch_target) ]
                 else [])))
        Softft.all_techniques;
      Alcotest.(check bool) (name ^ ": some trials rejoined") true
        (!rejoined > 0);
      Alcotest.(check bool) (name ^ ": some trials settled") true
        (!settled > 0))
    [ "kmeans"; "jpegdec"; "tiff2bw"; "g721enc" ]

let test_rejoin_guard () =
  (* Guards the speed-up against being switched off silently: on kmeans
     under Dup + val chks most Masked trials end by rejoining. *)
  let summary, _, stats = campaign_stats (dupval "kmeans") ~trials:120 in
  let masked = Faults.Campaign.count summary Faults.Classify.Masked in
  Alcotest.(check bool)
    (Printf.sprintf "%d of %d Masked trials rejoined" stats.rejoined masked)
    true
    (stats.rejoined * 2 >= masked && stats.rejoined <= masked);
  Alcotest.(check bool) "skipped steps counted" true (stats.steps_skipped > 0)

let test_rejoin_never_when_observing () =
  let subject = dupval "kmeans" in
  let _, _, plain = campaign_stats subject ~trials:30 in
  let _, _, traced = campaign_stats ~taint_trace:true subject ~trials:30 in
  let _, _, profiled =
    campaign_stats ~profile:(Interp.Profile.create ()) subject ~trials:30
  in
  Alcotest.(check bool) "plain campaign settles" true (plain.settled > 0);
  Alcotest.(check (pair int int)) "taint-traced campaign" (0, 0)
    (traced.rejoined, traced.settled);
  Alcotest.(check (pair int int)) "profiled campaign" (0, 0)
    (profiled.rejoined, profiled.settled);
  (* These rejoin, but only after a snapshot compare: settling needs a
     register flip and no checkpointing. *)
  let _, _, checkpointed =
    campaign_stats ~checkpoint_interval:1000 subject ~trials:30
  in
  let _, _, branch =
    campaign_stats ~fault_kind:Interp.Machine.Branch_target subject ~trials:30
  in
  Alcotest.(check int) "checkpointing campaign settles nothing" 0
    checkpointed.settled;
  Alcotest.(check int) "branch-target campaign settles nothing" 0
    branch.settled

let test_settled_trials_from_scratch () =
  (* Every trial of a settling campaign, on every workload under every
     paper technique, equals its from-scratch run ([run_trial]). *)
  let trials = 60 and seed = 0xC0FFEE in
  let seeds = Faults.Campaign.derive_seeds ~seed ~trials in
  let settled = ref 0 in
  List.iter
    (fun (w : Workloads.Workload.t) ->
      List.iter
        (fun technique ->
          let subject =
            Softft.subject (Softft.protect w technique)
              ~role:Workloads.Workload.Test
          in
          let _, campaign, stats = campaign_stats subject ~trials in
          settled := !settled + stats.settled;
          let golden = Faults.Campaign.golden_run subject in
          let disabled = Hashtbl.create 8 in
          List.iter
            (fun uid -> Hashtbl.replace disabled uid ())
            golden.failing_checks;
          let reference =
            Faults.Pool.map ~domains:2
              (fun i ->
                Faults.Campaign.run_trial subject ~golden ~disabled
                  ~hw_window:Faults.Classify.default_hw_window
                  ~seed:seeds.(i))
              trials
          in
          List.iteri
            (fun i t ->
              Alcotest.(check bool)
                (Printf.sprintf "%s/%s: trial %d" w.name
                   (Softft.technique_name technique) i)
                true
                (Faults.Campaign.trial_equal reference.(i) t))
            campaign)
        Softft.all_techniques)
    Workloads.Registry.all;
  Alcotest.(check bool) "some trials settled" true (!settled > 0)

(* ----- run_trial, the from-scratch reference ----- *)

let test_run_trial_reference () =
  (* [run_trial] is what `trace-fault --trial I` replays: with the
     campaign's seed I it must reproduce trial I, however the campaign
     ran it (forked, rejoined, on any worker count).  A profiled
     campaign's trials match too, and its merged profile is the sum of
     the per-trial profiles. *)
  let trials = 30 and seed = 0xC0FFEE in
  let seeds = Faults.Campaign.derive_seeds ~seed ~trials in
  List.iter
    (fun name ->
      let subject = dupval name in
      List.iter
        (fun checkpoint_interval ->
          let golden =
            Faults.Campaign.golden_run ~checkpoint_interval subject
          in
          let disabled = Hashtbl.create 8 in
          List.iter
            (fun uid -> Hashtbl.replace disabled uid ())
            golden.failing_checks;
          let summed = Interp.Profile.create () in
          let reference =
            List.map
              (fun seed ->
                let profile = Interp.Profile.create () in
                let t =
                  Faults.Campaign.run_trial ~profile ~checkpoint_interval
                    subject ~golden ~disabled
                    ~hw_window:Faults.Classify.default_hw_window ~seed
                in
                Interp.Profile.merge_into ~dst:summed profile;
                t)
              (Array.to_list seeds)
          in
          List.iter
            (fun domains ->
              let what =
                Printf.sprintf "%s ck=%d domains=%d" name checkpoint_interval
                  domains
              in
              let _, plain, _ =
                campaign_stats ~domains ~checkpoint_interval subject ~trials
              in
              List.iteri
                (fun i (r, t) ->
                  Alcotest.(check bool)
                    (Printf.sprintf "%s: trial %d" what i)
                    true
                    (Faults.Campaign.trial_equal r t))
                (List.combine reference plain);
              let merged = Interp.Profile.create () in
              let _, profiled, _ =
                campaign_stats ~domains ~checkpoint_interval ~profile:merged
                  subject ~trials
              in
              Alcotest.(check bool)
                (what ^ ": profiled trials identical")
                true
                (Faults.Campaign.trials_equal plain profiled);
              Alcotest.(check int)
                (what ^ ": total_instrs")
                (Interp.Profile.total_instrs summed)
                (Interp.Profile.total_instrs merged);
              Alcotest.(check (list (pair string int)))
                (what ^ ": opcode_rows")
                (Interp.Profile.opcode_rows summed)
                (Interp.Profile.opcode_rows merged);
              Alcotest.(check (list (triple int int int)))
                (what ^ ": check_rows")
                (Interp.Profile.check_rows summed)
                (Interp.Profile.check_rows merged))
            [ 1; 2 ])
        [ 0; 1000 ])
    [ "kmeans"; "g721enc" ]

(* ----- Adaptive stratified campaigns (DESIGN.md §14) ----- *)

(* The stratification inputs for a protected subject, from the static
   coverage analysis — the same wiring `experiments campaign --adaptive`
   uses. *)
let strata_inputs (subject : Faults.Campaign.subject) =
  let cov = Analysis.Coverage.analyze subject.prog in
  ( Analysis.Strata.reg_groups subject.prog cov,
    Analysis.Strata.group_names,
    Analysis.Strata.priors cov )

let run_adaptive ?(ci = 0.08) ?(seed = 41) ?(domains = 1) ?trace subject =
  let groups, group_names, priors = strata_inputs subject in
  Faults.Campaign.run_adaptive ~seed ~domains ?trace ~groups
    ~group_names ~priors ~ci subject

let test_adaptive_deterministic () =
  (* The contract the journal depends on: for a fixed (seed, config,
     coverage map), the trial list is bit-identical across reruns and
     across worker counts — allocation, stream splitting and batching
     must all be schedule-independent. *)
  let _, t1, _ = run_adaptive (protected_array_sum ()) in
  let _, t2, _ = run_adaptive (protected_array_sum ()) in
  Alcotest.(check bool) "rerun bit-identical" true
    (Faults.Campaign.trials_equal t1 t2);
  let _, t4, _ = run_adaptive ~domains:4 (protected_array_sum ()) in
  Alcotest.(check bool) "1 vs 4 domains bit-identical" true
    (Faults.Campaign.trials_equal t1 t4)

let test_adaptive_masses_from_golden () =
  (* The golden pass measures the stratum masses: they equal, bit for
     bit, those of a separate fault-free run with the ring observer alone
     and no fork capture. *)
  let bits x = Int64.bits_of_float x in
  List.iter
    (fun (name, checkpoint_interval) ->
      let what = Printf.sprintf "%s/k=%d" name checkpoint_interval in
      let subject =
        Softft.subject
          (Softft.protect (Workloads.Registry.find name) Softft.Dup_valchk)
          ~role:Workloads.Workload.Test
      in
      let groups, group_names, priors = strata_inputs subject in
      let obs =
        Interp.Machine.ring_obs ~groups ~ngroups:(Array.length group_names)
      in
      let st = subject.fresh_state () in
      let r =
        Interp.Machine.run_compiled
          ~config:
            { Interp.Machine.default_config with
              mode = Interp.Machine.Record; checkpoint_interval;
              obs = Some obs }
          (Interp.Compiled.cached subject.prog)
          ~entry:subject.entry ~args:st.args ~mem:st.mem
      in
      let alone =
        Faults.Campaign.build_strata ~groups ~group_names ~priors ~bands:3
          ~window:(r.steps - 1) (Interp.Machine.ring_cum obs)
      in
      let _, _, ad =
        Faults.Campaign.run_adaptive ~seed:5 ~checkpoint_interval
          ~max_trials:40 ~groups ~group_names ~priors ~ci:0.2 subject
      in
      Alcotest.(check int) (what ^ ": strata") (Array.length alone.sp_strata)
        (Array.length ad.Faults.Campaign.ad_strata);
      Array.iteri
        (fun i (s : Faults.Campaign.stratum) ->
          let a = ad.ad_strata.(i).ss_stratum in
          Alcotest.(check (pair int int)) (what ^ ": band") (s.st_lo, s.st_hi)
            (a.st_lo, a.st_hi);
          Alcotest.(check int64) (what ^ ": mass") (bits s.st_mass)
            (bits a.st_mass))
        alone.sp_strata;
      Alcotest.(check int64) (what ^ ": empty-ring mass")
        (bits alone.sp_mass_empty) (bits ad.ad_mass_empty))
    [ ("kmeans", 0); ("kmeans", 1000); ("g721enc", 0); ("g721enc", 1000) ]

let test_adaptive_accounting () =
  (* Masses partition the injection space (they sum with the empty-ring
     share to 1 — the unbiasedness precondition), and every executed
     trial is tallied in exactly one stratum. *)
  let _, trials, ad = run_adaptive (protected_array_sum ()) in
  let mass_sum =
    Array.fold_left
      (fun acc (ss : Faults.Campaign.stratum_stats) ->
        acc +. ss.ss_stratum.st_mass)
      ad.Faults.Campaign.ad_mass_empty ad.ad_strata
  in
  Alcotest.(check (float 1e-9)) "masses sum to 1" 1.0 mass_sum;
  Alcotest.(check int) "trials tallied once"
    (List.length trials)
    (Array.fold_left (fun acc ss -> acc + ss.Faults.Campaign.ss_trials)
       0 ad.ad_strata);
  Alcotest.(check int) "ad_trials matches" (List.length trials) ad.ad_trials;
  List.iter
    (fun (t : Faults.Campaign.trial) ->
      match t.stratum with
      | Some s ->
        Alcotest.(check bool) "stratum id in range" true
          (s >= 0 && s < Array.length ad.ad_strata)
      | None -> Alcotest.fail "adaptive trial missing its stratum tag")
    trials

let test_adaptive_converges_to_target () =
  (* When the run stops by convergence (not the trial budget), the
     combined SDC half width must be at or under the target — the
     quadrature lemma, on a real campaign. *)
  let ci = 0.08 in
  let _, _, ad = run_adaptive ~ci (protected_array_sum ()) in
  let half =
    (ad.Faults.Campaign.ad_sdc.Obs.Stats.ci_high
     -. ad.ad_sdc.Obs.Stats.ci_low)
    /. 2.0
  in
  Alcotest.(check bool)
    (Printf.sprintf "combined half width %.4f <= %.4f" half ci)
    true (half <= ci +. 1e-9)

let test_adaptive_agrees_with_uniform () =
  (* Reweighting sanity on a real subject: the stratified whole-program
     SDC interval and a plain uniform campaign's interval must overlap —
     they estimate the same quantity. *)
  let subject = protected_array_sum () in
  let summary, _ = Faults.Campaign.run subject ~trials:400 ~seed:6 in
  let k =
    List.fold_left
      (fun acc o -> acc + Faults.Campaign.count summary o)
      0
      [ Faults.Classify.Asdc; Faults.Classify.Usdc_large;
        Faults.Classify.Usdc_small ]
  in
  let uniform = Obs.Stats.wilson ~k ~n:summary.trials in
  let _, _, ad = run_adaptive subject in
  let sdc = ad.Faults.Campaign.ad_sdc in
  Alcotest.(check bool)
    (Printf.sprintf "intervals overlap ([%.3f,%.3f] vs [%.3f,%.3f])"
       sdc.Obs.Stats.ci_low sdc.ci_high uniform.Obs.Stats.ci_low
       uniform.ci_high)
    true
    (sdc.Obs.Stats.ci_low <= uniform.Obs.Stats.ci_high
     && uniform.Obs.Stats.ci_low <= sdc.Obs.Stats.ci_high)

let test_trial_equal_sees_stratum () =
  (* The bit-identity oracle must not ignore the stratum tag: two trials
     differing only there are different records. *)
  let _, trials, _ = run_adaptive (protected_array_sum ()) in
  match trials with
  | t :: _ ->
    Alcotest.(check bool) "same trial equal" true
      (Faults.Campaign.trials_equal [ t ] [ t ]);
    Alcotest.(check bool) "stratum difference detected" false
      (Faults.Campaign.trials_equal [ t ] [ { t with stratum = None } ])
  | [] -> Alcotest.fail "adaptive campaign ran no trials"


(* ----- One golden pass per program and input (DESIGN.md §12) ----- *)

let golden_equal (a : Faults.Campaign.golden) (b : Faults.Campaign.golden) =
  a.steps = b.steps && a.cycles = b.cycles
  && Fidelity.Metric.identical ~reference:a.output b.output
  && a.false_positives = b.false_positives
  && a.failing_checks = b.failing_checks

(* Replace the kept pass with one of an unrelated subject, so the next
   campaign on a workload runs its own. *)
let evict_memo () =
  ignore (Faults.Campaign.golden_run (array_sum_subject ~n:9 ()))

let test_memo_campaign_identical () =
  (* A campaign right after [golden_run] on the same subject takes that
     pass and its snapshots, and its trials equal a cold campaign's. *)
  let subject = dupval "kmeans" in
  List.iter
    (fun checkpoint_interval ->
      List.iter
        (fun domains ->
          let what =
            Printf.sprintf "ck=%d domains=%d: " checkpoint_interval domains
          in
          evict_memo ();
          let cold_summary, cold, cold_stats =
            campaign_stats ~domains ~checkpoint_interval subject ~trials:16
          in
          Alcotest.(check bool) (what ^ "cold campaign runs its pass") false
            cold_stats.golden_reused;
          evict_memo ();
          let g = Faults.Campaign.golden_run ~checkpoint_interval subject in
          let summary, warm, stats =
            campaign_stats ~domains ~checkpoint_interval subject ~trials:16
          in
          Alcotest.(check bool) (what ^ "campaign reuses the pass") true
            stats.golden_reused;
          Alcotest.(check bool) (what ^ "trials identical") true
            (Faults.Campaign.trials_equal cold warm);
          Alcotest.(check bool) (what ^ "golden records identical") true
            (golden_equal cold_summary.golden_info summary.golden_info
             && golden_equal g summary.golden_info);
          Alcotest.(check (pair int int)) (what ^ "rejoin tallies")
            (cold_stats.rejoined, cold_stats.steps_skipped)
            (stats.rejoined, stats.steps_skipped))
        [ 1; 2 ])
    [ 0; 1000 ]

let test_memo_other_input_misses () =
  (* The same program on another input runs its own pass.  kmeans' Train
     input also differs in its arguments; the two array-sum inputs differ
     in memory only, which the key must see. *)
  let w = Workloads.Registry.find "kmeans" in
  let p = Softft.protect w Softft.Dup_valchk in
  let test_g = Softft.golden p ~role:Workloads.Workload.Test in
  let _, _, train_stats =
    campaign_stats (Softft.subject p ~role:Workloads.Workload.Train)
      ~trials:2
  in
  Alcotest.(check bool) "kmeans train misses" false train_stats.golden_reused;
  let a = array_sum_subject () in
  let b = array_sum_subject ~mult:7 ~prog:(Some a.prog) () in
  let cold_b = Faults.Campaign.golden_run b in
  let ga = Faults.Campaign.golden_run a in
  let summary, _, stats = campaign_stats b ~trials:2 in
  Alcotest.(check bool) "other memory misses" false stats.golden_reused;
  Alcotest.(check bool) "its golden record is its own" true
    (golden_equal cold_b summary.golden_info);
  Alcotest.(check bool) "and differs from the kept pass's" false
    (golden_equal ga summary.golden_info);
  Alcotest.(check bool) "kmeans records differ too" false
    (golden_equal test_g
       (Softft.golden p ~role:Workloads.Workload.Train));
  (* The interval is part of the key as well. *)
  let ga = Faults.Campaign.golden_run a in
  let summary, _, stats = campaign_stats ~checkpoint_interval:100 a ~trials:2 in
  Alcotest.(check bool) "another interval misses" false stats.golden_reused;
  Alcotest.(check bool) "and prices its checkpoints" true
    (summary.golden_info.cycles > ga.cycles)

let test_memo_profiled_untouched () =
  (* A profiled golden run neither takes nor replaces the kept pass, and
     its record equals the capturing run's. *)
  let subject = dupval "g721enc" in
  let other = array_sum_subject () in
  let g = Faults.Campaign.golden_run subject in
  let profile = Interp.Profile.create () in
  let profiled = Faults.Campaign.golden_run ~profile other in
  Alcotest.(check bool) "the profiled run ran" true
    (Interp.Profile.total_instrs profile > 0);
  let profiled_own =
    Faults.Campaign.golden_run ~profile:(Interp.Profile.create ()) subject
  in
  Alcotest.(check bool) "profiled record equals the capturing one" true
    (golden_equal g profiled_own);
  let _, _, stats = campaign_stats subject ~trials:2 in
  Alcotest.(check bool) "entry survives profiled runs" true
    stats.golden_reused;
  Alcotest.(check bool) "profiled record is the subject's own" true
    (golden_equal profiled (Faults.Campaign.golden_run other))

let tests =
  [ Alcotest.test_case "classify: masked" `Quick test_classify_masked;
    Alcotest.test_case "classify: asdc" `Quick test_classify_asdc;
    Alcotest.test_case "classify: usdc small" `Quick test_classify_usdc_small;
    Alcotest.test_case "classify: usdc large" `Quick test_classify_usdc_large;
    Alcotest.test_case "classify: hw window" `Quick test_classify_hw_window;
    Alcotest.test_case "classify: sw and fuel" `Quick test_classify_sw_and_fuel;
    Alcotest.test_case "classify: groupings" `Quick test_groupings;
    Alcotest.test_case "campaign: golden run" `Quick test_golden_run;
    Alcotest.test_case "campaign: counts sum" `Quick
      test_campaign_counts_sum_to_trials;
    Alcotest.test_case "campaign: deterministic" `Quick test_campaign_deterministic;
    Alcotest.test_case "campaign: seed sensitivity" `Quick
      test_campaign_seed_sensitivity;
    Alcotest.test_case "campaign: finds corruptions" `Quick
      test_campaign_finds_corruptions;
    Alcotest.test_case "campaign: protection reduces USDC" `Quick
      test_campaign_protection_reduces_usdc;
    Alcotest.test_case "campaign: parallel identical (array_sum)" `Quick
      test_campaign_parallel_identical_array_sum;
    Alcotest.test_case "campaign: parallel identical (g721enc)" `Quick
      test_campaign_parallel_identical_workload;
    Alcotest.test_case "campaign: derived seed schedule" `Quick
      test_derive_seeds_matches_serial;
    Alcotest.test_case "campaign: percent helpers" `Quick test_percent_helpers;
    Alcotest.test_case "campaign: mean percent" `Quick test_mean_percent;
    Alcotest.test_case "classify: recovered outcomes" `Quick
      test_classify_recovered;
    Alcotest.test_case "classify: rollback denied" `Quick
      test_classify_rollback_denied;
    Alcotest.test_case "campaign: percent of zero trials" `Quick
      test_percent_zero_trials;
    Alcotest.test_case "campaign: mean percent of nothing" `Quick
      test_mean_percent_empty;
    Alcotest.test_case "recovery: reclassifies swdetect" `Quick
      test_recovery_reclassifies_swdetect;
    Alcotest.test_case "recovery: overhead monotone" `Quick
      test_recovery_overhead_monotone;
    Alcotest.test_case "recovery: golden run unchanged" `Quick
      test_recovery_steps_deterministic_and_golden;
    Alcotest.test_case "recovery: parallel identical" `Quick
      test_recovery_parallel_identical;
    Alcotest.test_case "campaign: derived seeds unique" `Quick
      test_derive_seeds_unique;
    Alcotest.test_case "fork: identical on every workload" `Quick
      test_fork_identical_all_workloads;
    Alcotest.test_case "fork: identical across configs" `Quick
      test_fork_identical_configs;
    Alcotest.test_case "fork: short golden runs resume, rejoin and settle"
      `Quick test_fork_short_golden_run;
    Alcotest.test_case "fork: parallel identical" `Quick
      test_fork_parallel_identical;
    Alcotest.test_case "rejoin: campaigns identical at 1 and 2 domains" `Quick
      test_rejoin_campaign_identical;
    Alcotest.test_case "rejoin: most masked kmeans trials rejoin" `Quick
      test_rejoin_guard;
    Alcotest.test_case "rejoin: never in observing campaigns" `Quick
      test_rejoin_never_when_observing;
    Alcotest.test_case "settle: every trial equals its from-scratch run" `Slow
      test_settled_trials_from_scratch;
    Alcotest.test_case "run_trial: reproduces campaign trials and profiles"
      `Quick test_run_trial_reference;
    Alcotest.test_case "adaptive: deterministic across reruns and domains"
      `Quick test_adaptive_deterministic;
    Alcotest.test_case "adaptive: golden pass measures the masses" `Quick
      test_adaptive_masses_from_golden;
    Alcotest.test_case "adaptive: masses and tallies account for everything"
      `Quick test_adaptive_accounting;
    Alcotest.test_case "adaptive: converges to the target half width" `Quick
      test_adaptive_converges_to_target;
    Alcotest.test_case "adaptive: agrees with a uniform campaign" `Quick
      test_adaptive_agrees_with_uniform;
    Alcotest.test_case "adaptive: trial equality sees the stratum tag" `Quick
      test_trial_equal_sees_stratum;
    Alcotest.test_case "fork: golden record unchanged by capture" `Quick
      test_fork_golden_record;
    Alcotest.test_case "memo: campaign after golden run identical" `Quick
      test_memo_campaign_identical;
    Alcotest.test_case "memo: another input or interval misses" `Quick
      test_memo_other_input_misses;
    Alcotest.test_case "memo: profiled golden run leaves the entry" `Quick
      test_memo_profiled_untouched;
  ]
