(** The traced round's per-layer breakdown.

    After a traced round, every trial of every kept campaign is executed
    again through the public calls a campaign makes for it:
    [Fork.best] → [Memory.restore_image] → [Machine.run_compiled ~resume
    ~arena] → [Classify.classify] with [Fidelity.Metric] judging the
    output.  Each call is timed and spanned, and each replayed trial must
    reproduce the campaign's injection step, outcome, steps and cycles.

    [Machine.run_compiled ~resume] restores the snapshot's memory itself,
    so a resumed trial's execute span holds a second restore; the replay
    subtracts the explicit restore it just timed to get execution alone.

    A separate pass reruns each campaign with the propagation tracer, for
    how long Masked trials kept running after their fault had died out.
    That pass only observes; it is not timed. *)

type acc = {
  mutable trials : int;
  mutable resumed : int;
  mutable steps : int;            (** steps a from-scratch run would take *)
  mutable exec_steps : int;       (** steps executed after the fork point *)
  mutable restore_s : float;
  mutable restore_words : int;
  mutable exec_s : float;         (** net of the resume's own restore *)
  mutable classify_s : float;     (** classification minus fidelity *)
  mutable fidelity_s : float;
  mutable trial_us : float list;
  mutable fuel_out : int;
  mutable masked : int;
  mutable checkpoints : int;
  mutable rollbacks : int;
  mutable replayed_steps : int;
  mutable snapshot_words : int;
  mutable masked_tail : int;      (** Masked trials' steps after taint death *)
  mutable mismatches : int;
}

let acc () =
  { trials = 0; resumed = 0; steps = 0; exec_steps = 0; restore_s = 0.0;
    restore_words = 0; exec_s = 0.0; classify_s = 0.0; fidelity_s = 0.0;
    trial_us = []; fuel_out = 0; masked = 0; checkpoints = 0; rollbacks = 0;
    replayed_steps = 0; snapshot_words = 0; masked_tail = 0; mismatches = 0 }

let now = Unix.gettimeofday

(* The campaign's fork capture, made again from outside: the same stride
   (golden steps / 32 snapshots) and the same checkpoint configuration. *)
let capture (r : Work.run) compiled =
  let s = r.r_subject and golden = r.r_golden in
  let plan = Interp.Fork.plan ~stride:(max 1 (golden.steps / 32)) in
  let st = s.fresh_state () in
  let config =
    { Interp.Machine.default_config with
      mode = Interp.Machine.Record; checkpoint_interval = r.r_checkpoint }
  in
  let res =
    Interp.Machine.run_compiled ~config ~fork_capture:plan compiled
      ~entry:s.entry ~args:st.args ~mem:st.mem
  in
  match res.stop with
  | Interp.Machine.Finished _
    when res.steps = golden.steps && res.cycles = golden.cycles ->
    Interp.Fork.finalize plan
  | _ -> [||]

(* A trial's fault, drawn again from its seed the way the campaign drew
   it: uniform trials draw the step, adaptive ones a stratum-conditioned
   step (the trial records it) and then a register inside the stratum's
   group. *)
let fault_of (r : Work.run) (t : Faults.Campaign.trial) =
  let rng = Rng.create t.trial_seed in
  match r.r_strata, t.stratum with
  | Some (groups, ad), Some sid ->
    ignore (Rng.float rng);
    let st = ad.Faults.Campaign.ad_strata.(sid).ss_stratum in
    ( t.at_step,
      Interp.Machine.register_fault ~restrict:(groups, st.st_group)
        ~at_step:t.at_step ~fault_rng:(Rng.split rng) () )
  | _ ->
    let at_step = 1 + Rng.int rng (max 1 (r.r_golden.steps - 1)) in
    (at_step, Interp.Machine.register_fault ~at_step ~fault_rng:(Rng.split rng) ())

let replay_run ctx a (r : Work.run) =
  let s = r.r_subject and golden = r.r_golden in
  let compiled = Interp.Compiled.cached s.prog in
  let state, image0, snaps =
    Work.span ctx "replay.fork_capture" (fun () ->
      let state = s.fresh_state () in
      (state, Interp.Memory.capture state.mem, capture r compiled))
  in
  a.snapshot_words <- a.snapshot_words + Interp.Fork.words snaps;
  let disabled = Hashtbl.create 8 in
  List.iter (fun uid -> Hashtbl.replace disabled uid ()) golden.failing_checks;
  let arena = Interp.Machine.arena () in
  let trials = Array.of_list r.r_trials in
  (* Through the pool, as the campaign's trial phase runs, so the replay
     gets the same per-worker GC settings. *)
  ignore
  @@ Faults.Pool.map ~domains:1 ~gc:Faults.Pool.campaign_gc_tuning
       (fun i ->
      let t = trials.(i) in
      let at_step, fault = fault_of r t in
      let t0 = now () in
      let resume, words =
        Work.span ctx "interp.restore" (fun () ->
          let resume = Interp.Fork.best snaps ~at_step in
          let image =
            match resume with Some sn -> sn.Interp.Fork.fk_mem | None -> image0
          in
          Interp.Memory.restore_image state.mem image;
          (resume, Interp.Memory.image_words image))
      in
      let t1 = now () in
      let config =
        { Interp.Machine.default_config with
          fuel = (golden.steps * 8) + 10_000;
          mode = Interp.Machine.Detect;
          fault = Some fault;
          disabled_checks = disabled;
          checkpoint_interval = r.r_checkpoint }
      in
      let result =
        Work.span ctx "interp.exec" (fun () ->
          Interp.Machine.run_compiled ~config ~arena ?resume compiled
            ~entry:s.entry ~args:state.args ~mem:state.mem)
      in
      let t2 = now () in
      let fid = ref 0.0 in
      let fidelity f =
        let f0 = now () in
        let v = Work.span ctx "fidelity.score" f in
        fid := !fid +. (now () -. f0);
        v
      in
      let output =
        lazy
          (match result.stop with
           | Interp.Machine.Finished ret -> state.read_output ret
           | Interp.Machine.Trapped _ | Interp.Machine.Sw_detected _
           | Interp.Machine.Out_of_fuel -> [||])
      in
      let outcome =
        Work.span ctx "faults.classify" (fun () ->
          Faults.Classify.classify
            ~hw_window:Faults.Classify.default_hw_window ~result
            ~identical:(fun () ->
              fidelity (fun () ->
                Fidelity.Metric.identical ~reference:golden.output
                  (Lazy.force output)))
            ~acceptable:(fun () ->
              fidelity (fun () ->
                Fidelity.Metric.acceptable s.metric ~reference:golden.output
                  (Lazy.force output))))
      in
      let t3 = now () in
      let restore = t1 -. t0 in
      let fork_step =
        match resume with Some sn -> sn.Interp.Fork.fk_step | None -> 0
      in
      (* A resumed run restored the image a second time inside [exec]. *)
      let inner = if resume = None then 0.0 else restore in
      a.trials <- a.trials + 1;
      if resume <> None then a.resumed <- a.resumed + 1;
      a.steps <- a.steps + result.steps;
      a.exec_steps <- a.exec_steps + (result.steps - fork_step);
      a.restore_s <- a.restore_s +. restore;
      a.restore_words <- a.restore_words + words;
      a.exec_s <- a.exec_s +. (t2 -. t1 -. inner);
      a.classify_s <- a.classify_s +. (t3 -. t2 -. !fid);
      a.fidelity_s <- a.fidelity_s +. !fid;
      a.trial_us <- ((t3 -. t0 -. inner) *. 1e6) :: a.trial_us;
      if result.stop = Interp.Machine.Out_of_fuel then
        a.fuel_out <- a.fuel_out + 1;
      if outcome = Faults.Classify.Masked then a.masked <- a.masked + 1;
      a.checkpoints <- a.checkpoints + result.checkpoints;
      (match result.recovered with
       | Some rc ->
         a.rollbacks <- a.rollbacks + 1;
         a.replayed_steps <-
           a.replayed_steps + rc.Interp.Machine.rec_replayed_steps
       | None -> ());
      if
        not
          (at_step = t.at_step && outcome = t.outcome
          && result.steps = t.steps && result.cycles = t.cycles)
      then a.mismatches <- a.mismatches + 1)
       (Array.length trials)

(* The observation-only propagation pass: the traced trials must equal
   the campaign's apart from their summaries. *)
let taint_pass a (r : Work.run) =
  let tainted = r.r_tainted () in
  let strip (t : Faults.Campaign.trial) = { t with taint = None } in
  if not (Faults.Campaign.trials_equal r.r_trials (List.map strip tainted))
  then a.mismatches <- a.mismatches + 1;
  List.iter
    (fun (t : Faults.Campaign.trial) ->
      match t.outcome, t.taint with
      | Faults.Classify.Masked, Some ts when ts.Interp.Taint.ts_seeded ->
        (match ts.ts_died_at with
         | Some d ->
           a.masked_tail <-
             a.masked_tail + max 0 (t.steps - (ts.ts_inj_step + d))
         | None -> ())
      | _ -> ())
    tainted

(* ----- Spans: sums over a window, self times ----- *)

type window = { w_lo : float; w_hi : float }

let within w (d : Obs.Trace.dur) =
  d.du_start_us >= w.w_lo && d.du_start_us < w.w_hi

let container name durs =
  List.find_map
    (fun (d : Obs.Trace.dur) ->
      if d.du_cat = "ledger" && d.du_name = name then
        Some { w_lo = d.du_start_us; w_hi = d.du_start_us +. d.du_dur_us }
      else None)
    durs

let matching ?(cat = "ledger") ws name durs =
  List.filter
    (fun (d : Obs.Trace.dur) ->
      d.du_cat = cat && d.du_name = name && List.exists (fun w -> within w d) ws)
    durs

let total_us ?cat ws name durs =
  List.fold_left
    (fun acc (d : Obs.Trace.dur) -> acc +. d.du_dur_us)
    0.0
    (matching ?cat ws name durs)

let arg_sum ?cat ws name key durs =
  List.fold_left
    (fun acc (d : Obs.Trace.dur) ->
      match List.assoc_opt key d.du_args with
      | Some v -> acc +. Option.value ~default:0.0 (Obs.Json.to_float v)
      | None -> acc)
    0.0
    (matching ?cat ws name durs)

let containers = [ "ledger.setup"; "ledger.round"; "ledger.replay" ]

(** The layer a span's self time is charged to.  The container spans'
    own self time is the part of the traced round no layer span covers. *)
let layer (d : Obs.Trace.dur) =
  match d.du_cat, d.du_name with
  | "campaign", "golden_run" -> "interp.golden"
  | "campaign", "fork_capture" -> "interp.fork_capture"
  | "campaign", "mass_replay" -> "interp.mass_replay"
  | "campaign", "trials" | "pool", _ -> "faults.trials"
  | "ledger", "ledger.warm_up" -> "faults.campaign"
  | "ledger", name when List.mem name containers -> "unattributed"
  | _, name -> name

(** Self time per layer, in µs, largest first: each span's duration minus
    the part its directly nested spans cover.  Spans of one process nest
    properly, so a stack over start-ordered spans finds each parent. *)
let self_times durs =
  let arr =
    Array.of_list
      (List.sort
         (fun (a : Obs.Trace.dur) (b : Obs.Trace.dur) ->
           match compare a.du_start_us b.du_start_us with
           | 0 -> compare b.du_dur_us a.du_dur_us
           | c -> c)
         durs)
  in
  let covered = Array.make (Array.length arr) 0.0 in
  let stack = ref [] in
  let end_of i = arr.(i).du_start_us +. arr.(i).du_dur_us in
  Array.iteri
    (fun i (d : Obs.Trace.dur) ->
      let rec pop () =
        match !stack with
        | j :: rest when end_of j <= d.du_start_us ->
          stack := rest;
          pop ()
        | _ -> ()
      in
      pop ();
      (match !stack with
       | j :: _ -> covered.(j) <- covered.(j) +. d.du_dur_us
       | [] -> ());
      stack := i :: !stack)
    arr;
  let by_layer = Hashtbl.create 16 in
  Array.iteri
    (fun i d ->
      let self = Float.max 0.0 (d.Obs.Trace.du_dur_us -. covered.(i)) in
      let l = layer d in
      Hashtbl.replace by_layer l
        (self +. Option.value ~default:0.0 (Hashtbl.find_opt by_layer l)))
    arr;
  Hashtbl.fold (fun l us acc -> (l, us) :: acc) by_layer []
  |> List.sort (fun (_, a) (_, b) -> Float.compare b a)

(* ----- Per-layer metrics ----- *)

(** A per-layer metric: its unit, and the end-to-end metric it should move
    (metric@workload).  [universal] metrics are reported by every workload
    and listed in BENCHMARK.json; the others only where their layer
    runs. *)
type metric = {
  m_name : string;
  m_unit : string;
  m_moves : string;
  m_universal : bool;
}

let catalogue =
  let m ?(universal = true) m_name m_unit m_moves =
    { m_name; m_unit; m_moves; m_universal = universal }
  in
  [ m "workloads.build_ms" "ms" "matrix.wall_s, setup_s";
    m "profiling.value_profile_ms" "ms" "matrix.wall_s";
    m "transform.protect_ms" "ms" "matrix.wall_s";
    m "interp.golden_ms" "ms" "matrix.wall_s";
    m "interp.golden_steps" "steps" "matrix.wall_s";
    m "interp.fork_capture_ms" "ms" "matrix.wall_s";
    m "interp.fork_snapshot_words" "words" "matrix.wall_s, peak_rss_mb";
    m ~universal:false "warehouse.file_ms" "ms" "matrix.wall_s";
    m "interp.restore_us_per_trial" "us" "short-trials.trials_per_s";
    m "interp.restore_words_per_trial" "words" "short-trials.trials_per_s";
    m "faults.classify_us_per_trial" "us" "short-trials.trials_per_s";
    m "fidelity.score_us_per_trial" "us" "short-trials.trials_per_s";
    m "faults.campaign_other_us_per_trial" "us" "short-trials.trials_per_s";
    m "interp.exec_ns_per_step" "ns" "deep-trials.trials_per_s";
    m "interp.exec_steps_per_trial" "steps" "deep-trials.trials_per_s";
    m "interp.exec_share" "fraction" "deep-trials.trials_per_s";
    m "interp.fork_resume_ratio" "fraction" "deep-trials.trials_per_s";
    m "interp.fork_prefix_skip_share" "fraction" "deep-trials.trials_per_s";
    m "faults.trial_us_p50" "us" "deep-trials.trials_per_s";
    m "faults.trial_us_tail" "us" "deep-trials.trials_per_s";
    m ~universal:false "faults.fuel_exhausted_share" "fraction"
      "deep-trials.trials_per_s";
    m "faults.masked_share" "fraction" "deep-trials.trials_per_s";
    m "interp.masked_tail_step_share" "fraction" "deep-trials.trials_per_s";
    m ~universal:false "interp.checkpoints_per_trial" "count"
      "recovery.trials_per_s";
    m ~universal:false "interp.rollbacks_per_trial" "count"
      "recovery.trials_per_s";
    m ~universal:false "interp.replayed_steps_per_trial" "steps"
      "recovery.trials_per_s";
    m ~universal:false "faults.journal_write_ms" "ms" "recovery.wall_s";
    m ~universal:false "faults.journal_bytes" "bytes" "recovery.wall_s";
    m ~universal:false "analysis.predict_us_per_plan" "us"
      "plan-search.wall_s";
    m ~universal:false "core.plans_explored" "count" "plan-search.wall_s";
    m ~universal:false "core.search_ms" "ms" "plan-search.wall_s";
    m ~universal:false "core.validate_ms" "ms" "plan-search.wall_s";
    m ~universal:false "faults.adaptive_trials" "count" "plan-search.wall_s";
    m "gc.minor_mb_per_trial" "MB"
      "deep-trials.trials_per_s, short-trials.trials_per_s";
    m "gc.major_collections" "count"
      "deep-trials.trials_per_s, short-trials.trials_per_s";
    m "trace.overhead_pct" "%" "nothing (context)";
    m "trace.self_time_coverage" "fraction" "nothing (context)" ]

let unit_of name =
  match List.find_opt (fun m -> m.m_name = name) catalogue with
  | Some m -> m.m_unit
  | None -> invalid_arg ("Replay.unit_of: " ^ name)

(** The highest of a few standard percentiles with at least ten trials
    beyond it ([p50] below twenty trials), by nearest rank. *)
let tail values =
  let a = Array.of_list values in
  Array.sort Float.compare a;
  let n = Array.length a in
  let rank p =
    if n = 0 then 0.0
    else a.(max 0 (min (n - 1) (int_of_float (ceil (p /. 100.0 *. float_of_int n)) - 1)))
  in
  let p =
    List.find_opt
      (fun p -> float_of_int n *. (1.0 -. (p /. 100.0)) >= 10.0)
      [ 99.9; 99.0; 95.0; 90.0; 75.0 ]
    |> Option.value ~default:50.0
  in
  (rank 50.0, Printf.sprintf "p%g" p, rank p)

(** Everything a traced child reports beyond its timings. *)
type report = {
  metrics : (string * float) list;   (** catalogue order; traced wall only
                                         for [trace.overhead_pct] *)
  tail_name : string;                (** which percentile [faults.trial_us_tail] is *)
  self : (string * float) list;      (** layer, self ms *)
  replayed : int;
  mismatches : int;
  traced_round_s : float;
}

let per x n = if n = 0 then 0.0 else x /. float_of_int n

(** Replays the kept campaigns and the probes inside a [ledger.replay]
    container, runs the taint pass after it, and computes the report. *)
let analyse (ctx : Work.ctx) recorder =
  let a = acc () in
  let runs = List.rev ctx.runs in
  Work.span ctx "ledger.replay" (fun () ->
    List.iter (replay_run ctx a) runs;
    List.iter (fun probe -> a.mismatches <- a.mismatches + probe ()) ctx.probes);
  List.iter (taint_pass a) runs;
  let durs = Obs.Trace.durs recorder in
  let get name =
    match container name durs with
    | Some w -> w
    | None -> invalid_arg ("Replay.analyse: no span " ^ name)
  in
  let setup = get "ledger.setup"
  and round = get "ledger.round"
  and replay = get "ledger.replay" in
  let ms x = x /. 1000.0 in
  let rd = [ round ] and built = [ setup; round ] in
  let campaign_trials = arg_sum rd "faults.campaign" "trials" durs in
  let trial_phase_us = total_us ~cat:"campaign" rd "trials" durs in
  let trial_sum_us = List.fold_left ( +. ) 0.0 a.trial_us in
  let p50, tail_name, tail_us = tail a.trial_us in
  let predicts = matching [ replay ] "analysis.predict" durs in
  let self = self_times durs in
  let wall =
    List.fold_left (fun s w -> s +. (w.w_hi -. w.w_lo)) 0.0 [ setup; round; replay ]
  in
  let unattributed = Option.value ~default:0.0 (List.assoc_opt "unattributed" self) in
  let ran name = matching rd name durs <> [] in
  let adaptive =
    List.fold_left
      (fun n (r : Work.run) ->
        if r.r_strata <> None then n + List.length r.r_trials else n)
      0 runs
  in
  let n = a.trials in
  let metrics =
    [ ("workloads.build_ms", ms (total_us built "workloads.build" durs));
      ("profiling.value_profile_ms",
       ms (total_us built "profiling.value_profile" durs));
      ("transform.protect_ms", ms (total_us built "transform.protect" durs));
      ("interp.golden_ms",
       ms (total_us ~cat:"campaign" rd "golden_run" durs
           +. total_us rd "interp.golden" durs));
      ("interp.golden_steps",
       arg_sum rd "interp.golden" "golden_steps" durs
       +. arg_sum rd "faults.campaign" "golden_steps" durs);
      ("interp.fork_capture_ms",
       ms (total_us ~cat:"campaign" rd "fork_capture" durs));
      ("interp.fork_snapshot_words", float_of_int a.snapshot_words) ]
    @ (if ran "warehouse.file" then
         [ ("warehouse.file_ms", ms (total_us rd "warehouse.file" durs)) ]
       else [])
    @ [ ("interp.restore_us_per_trial", per (a.restore_s *. 1e6) n);
        ("interp.restore_words_per_trial", per (float_of_int a.restore_words) n);
        ("faults.classify_us_per_trial", per (a.classify_s *. 1e6) n);
        ("fidelity.score_us_per_trial", per (a.fidelity_s *. 1e6) n);
        ("faults.campaign_other_us_per_trial",
         per (trial_phase_us -. trial_sum_us) n);
        ("interp.exec_ns_per_step", per (a.exec_s *. 1e9) a.exec_steps);
        ("interp.exec_steps_per_trial", per (float_of_int a.exec_steps) n);
        ("interp.exec_share",
         if trial_sum_us > 0.0 then a.exec_s *. 1e6 /. trial_sum_us else 0.0);
        ("interp.fork_resume_ratio", per (float_of_int a.resumed) n);
        ("interp.fork_prefix_skip_share",
         per (float_of_int (a.steps - a.exec_steps)) a.steps);
        ("faults.trial_us_p50", p50);
        ("faults.trial_us_tail", tail_us);
        ("faults.fuel_exhausted_share", per (float_of_int a.fuel_out) n);
        ("faults.masked_share", per (float_of_int a.masked) n);
        ("interp.masked_tail_step_share",
         per (float_of_int a.masked_tail) a.exec_steps) ]
    @ (if List.exists (fun (r : Work.run) -> r.r_checkpoint > 0) runs then
         [ ("interp.checkpoints_per_trial", per (float_of_int a.checkpoints) n);
           ("interp.rollbacks_per_trial", per (float_of_int a.rollbacks) n);
           ("interp.replayed_steps_per_trial",
            per (float_of_int a.replayed_steps) n) ]
       else [])
    @ (if ran "faults.journal_write" then
         [ ("faults.journal_write_ms", ms (total_us rd "faults.journal_write" durs));
           ("faults.journal_bytes", arg_sum rd "faults.journal_write" "bytes" durs) ]
       else [])
    @ (if ran "core.search" then
         [ ("analysis.predict_us_per_plan",
            per (total_us [ replay ] "analysis.predict" durs) (List.length predicts));
           ("core.plans_explored", arg_sum rd "core.search" "plans" durs);
           ("core.search_ms", ms (total_us rd "core.search" durs));
           ("core.validate_ms", ms (total_us rd "core.validate" durs));
           ("faults.adaptive_trials", float_of_int adaptive) ]
       else [])
    @ [ ("gc.minor_mb_per_trial",
         if campaign_trials > 0.0 then
           arg_sum rd "faults.campaign" "minor_words" durs *. 8.0 /. 1e6
           /. campaign_trials
         else 0.0);
        ("gc.major_collections",
         arg_sum rd "faults.campaign" "major_collections" durs);
        ("trace.self_time_coverage",
         if wall > 0.0 then 1.0 -. (unattributed /. wall) else 0.0) ]
  in
  { metrics; tail_name;
    self = List.map (fun (l, us) -> (l, ms us)) self;
    replayed = n; mismatches = a.mismatches;
    traced_round_s = (round.w_hi -. round.w_lo) /. 1e6 }
