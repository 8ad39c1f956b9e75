(** Statistical fault injection campaigns (paper §IV).

    A campaign takes a *subject* — a program variant plus the recipe for
    materializing its input state and reading back its output — and runs N
    independent trials.  Each trial flips one random bit of one random live
    register at one random dynamic instruction, then classifies the run.

    The golden (fault-free) run is performed once per subject; it yields the
    reference output, the dynamic instruction count that bounds the fault
    window, the simulated runtime, and the set of value checks that fail
    without any fault (those are disabled for the trials, modelling the
    paper's recover-once-then-ignore policy, and reported as the
    false-positive rate). *)

(** Everything needed for one execution: a fresh memory image, the entry
    arguments, and how to read the output back as a flat signal for fidelity
    evaluation.  Built per run so trials never observe each other's stores. *)
type run_state = {
  mem : Interp.Memory.t;
  args : Ir.Value.t list;
  read_output : Ir.Value.t option -> float array;
}

type subject = {
  label : string;
  prog : Ir.Prog.t;
  entry : string;
  fresh_state : unit -> run_state;
  metric : Fidelity.Metric.spec;
}

type golden = {
  output : float array;
  steps : int;
  cycles : int;
  false_positives : int;          (** dynamic value-check failures, no fault *)
  failing_checks : int list;      (** static uids of those checks *)
}

exception Golden_run_failed of string * string

(* The first stride of the golden run's fork capture, after snapshot 0.
   The plan doubles it as the run grows ({!Interp.Fork.add}), so a long
   golden run ends with snapshot 0 and 32 to 63 stride snapshots. *)
let first_capture_stride = 1024

(* A golden pass's fork snapshots in ascending step order, snapshot 0
   (the input state) first, and its end state with the return value: what
   every unprofiled trial resumes from and rejoins. *)
type golden_fork =
  Interp.Fork.snap array * (Interp.Fork.snap * Ir.Value.t option)

(* The last unprofiled fault-free pass (DESIGN.md §12, "One golden pass
   per program and input").  A campaign that follows [golden_run] on the
   same subject — the evaluation matrix prices a cell's overhead, then
   runs its campaign — takes this pass and its fork snapshots instead of
   running them again.  The pass is a pure function of its key: the
   compiled program (physical identity; an in-place edit recompiles), the
   entry, the arguments, the initial memory (snapshot 0's image) and the
   checkpoint interval.  One entry only, so the snapshots of at most one
   pass stay alive between campaigns. *)
type memo = {
  mo_compiled : Interp.Compiled.t;
  mo_entry : string;
  mo_args : Ir.Value.t list;
  mo_checkpoint_interval : int;
  mo_result : Interp.Machine.result; (** a [Finished] run *)
  mo_fork : golden_fork;
}

let memo_lock = Mutex.create ()
let memo : memo option ref = ref None

let memo_hit ~compiled ~checkpoint_interval subject (state : run_state) =
  match Mutex.protect memo_lock (fun () -> !memo) with
  | Some ({ mo_fork = snaps, _; _ } as m)
    when m.mo_compiled == compiled && m.mo_entry = subject.entry
         && List.equal Ir.Value.equal m.mo_args state.args
         && m.mo_checkpoint_interval = checkpoint_interval
         && Interp.Memory.equal_image state.mem snaps.(0).fk_mem ->
    Some m
  | Some _ | None -> None

(* One fault-free pass: the golden record, the fork snapshots the pass
   captured ([None] when profiled: a profiled pass captures nothing and
   neither reads nor writes the memo), and whether the pass was the
   memo's.  Capture only reads state, so the golden record is the same
   with or without it.  A pass with the ring observer [obs] must fill its
   arrays, so it takes no memo hit; it captures and stores its result
   like any other pass. *)
let golden_pass ?profile ~obs ~checkpoint_interval subject =
  let state = subject.fresh_state () in
  let compiled = Interp.Compiled.cached subject.prog in
  let hit =
    match profile, obs with
    | None, None -> memo_hit ~compiled ~checkpoint_interval subject state
    | Some _, _ | _, Some _ -> None
  in
  let result, fork =
    match hit with
    | Some ({ mo_fork = _, (fin, _); _ } as m) ->
      (* The caller's own [read_output] reads the end memory below. *)
      Interp.Memory.restore_image state.mem fin.fk_mem;
      (m.mo_result, Some m.mo_fork)
    | None ->
      let plan =
        match profile with
        | Some _ -> None
        | None ->
          (* Evict first: the old pass's snapshots die before this pass
             captures its own. *)
          Mutex.protect memo_lock (fun () -> memo := None);
          Some (Interp.Fork.plan ~stride:first_capture_stride)
      in
      let config =
        { Interp.Machine.default_config with mode = Interp.Machine.Record;
          profile; checkpoint_interval; obs }
      in
      let result =
        Interp.Machine.run_compiled ~config ?fork_capture:plan compiled
          ~entry:subject.entry ~args:state.args ~mem:state.mem
      in
      let fork =
        match plan with
        | Some ({ fp_end = Some final; _ } as p) ->
          let fork = (Interp.Fork.finalize p, final) in
          Mutex.protect memo_lock (fun () ->
            memo :=
              Some
                { mo_compiled = compiled; mo_entry = subject.entry;
                  mo_args = state.args;
                  mo_checkpoint_interval = checkpoint_interval;
                  mo_result = result; mo_fork = fork });
          Some fork
        | Some { fp_end = None; _ } | None -> None
      in
      (result, fork)
  in
  match result.stop with
  | Interp.Machine.Finished ret ->
    ( { output = state.read_output ret;
        steps = result.steps;
        cycles = result.cycles;
        false_positives = result.valchk_failures;
        failing_checks = result.failed_check_uids },
      fork,
      Option.is_some hit )
  | stop ->
    raise
      (Golden_run_failed
         (subject.label, Format.asprintf "%a" Interp.Machine.pp_stop stop))

(** Fault-free reference execution of the subject.  [profile] attaches an
    execution profile to the run (observation-only).  [checkpoint_interval]
    runs the golden with checkpointing enabled: the output and step count
    are unchanged (checkpoints retire no instructions), but the cycle count
    then includes the checkpoint overhead — the fault-free cost a recovery
    deployment actually pays.  An unprofiled run also captures the fork
    snapshots a campaign would, which makes it slower than a plain pass
    (DESIGN.md §12), and keeps them for the next campaign on the same
    subject. *)
let golden_run ?profile ?(checkpoint_interval = 0) subject =
  let golden, _, _ =
    golden_pass ?profile ~obs:None ~checkpoint_interval subject
  in
  golden

type trial = {
  trial_seed : int;
  at_step : int;
  outcome : Classify.outcome;
  injection : Interp.Machine.injection option;
  detected_by : Interp.Machine.detection option;
      (** which software check fired, for SWDetect outcomes *)
  detect_latency : int option;
      (** dynamic instructions between the flip and its detection, for
          SWDetect/HWDetect outcomes — the window a recovery scheme must
          cover (paper §IV-D) *)
  steps : int;    (** dynamic instructions the faulted run executed *)
  cycles : int;   (** simulated cycles of the faulted run *)
  recovery : Interp.Machine.recovery option;
      (** the checkpoint rollback the trial performed, if any *)
  checkpoints : int;   (** checkpoints the trial's run took *)
  taint : Interp.Taint.summary option;
      (** fault-propagation summary, when the campaign ran with
          [taint_trace] — [None] otherwise *)
  stratum : int option;
      (** the stratum this trial sampled, for adaptive campaigns —
          [None] on the uniform path *)
}

(* Bit-exact trial comparison for the parallel-determinism contract.
   Polymorphic [=] is wrong here: an injected fault on a float register can
   produce NaN in [injection.before]/[after], and NaN <> NaN even when the
   payloads are bit-identical.  [Value.equal] compares register bits. *)
let injection_equal (a : Interp.Machine.injection)
    (b : Interp.Machine.injection) =
  a.inj_step = b.inj_step && a.inj_kind = b.inj_kind
  && a.inj_reg = b.inj_reg && a.inj_bit = b.inj_bit
  && Ir.Value.equal a.before b.before
  && Ir.Value.equal a.after b.after

let trial_equal a b =
  a.trial_seed = b.trial_seed && a.at_step = b.at_step
  && a.outcome = b.outcome
  && (match a.injection, b.injection with
      | None, None -> true
      | Some x, Some y -> injection_equal x y
      | None, Some _ | Some _, None -> false)
  && a.detected_by = b.detected_by
  && a.detect_latency = b.detect_latency
  && a.steps = b.steps && a.cycles = b.cycles
  (* [recovery] holds only ints and a detection record, so structural
     equality is exact. *)
  && a.recovery = b.recovery
  && a.checkpoints = b.checkpoints
  (* [taint] summaries hold ints, bools, int options and event records —
     no floats — so structural equality is exact here too. *)
  && a.taint = b.taint
  && a.stratum = b.stratum

let trials_equal a b =
  List.length a = List.length b && List.for_all2 trial_equal a b

type summary = {
  subject_label : string;
  trials : int;
  counts : (Classify.outcome * int) list;
  golden_info : golden;
}

let count summary outcome =
  match List.assoc_opt outcome summary.counts with
  | Some n -> n
  | None -> 0

(* An empty campaign has no outcome shares, not NaN ones: guard the 0/0. *)
let percent summary outcome =
  if summary.trials <= 0 then 0.0
  else
    100.0 *. float_of_int (count summary outcome)
    /. float_of_int summary.trials

let percent_many summary outcomes =
  List.fold_left (fun acc o -> acc +. percent summary o) 0.0 outcomes

(* Shared trial epilogue: classify the stopped run against the golden
   reference and package the trial record.  Identical for from-scratch and
   snapshot-forked executions — the [result] already carries the full
   counters either way.  A run that rejoined the golden run returned the
   golden end image and return value and never rolled back, so its output
   is the golden output: it is Masked without being read. *)
let finish_trial subject ~(golden : golden) ~hw_window ~seed ~at_step
    ~(state : run_state) (result : Interp.Machine.result) =
  let outcome =
    match result.rejoined_at with
    | Some _ -> Classify.Masked
    | None ->
      let output = lazy (
        match result.stop with
        | Interp.Machine.Finished ret -> state.read_output ret
        | Interp.Machine.Trapped _ | Interp.Machine.Sw_detected _
        | Interp.Machine.Out_of_fuel -> [||])
      in
      Classify.classify ~hw_window ~result
        ~identical:(fun () ->
          Fidelity.Metric.identical ~reference:golden.output
            (Lazy.force output))
        ~acceptable:(fun () ->
          Fidelity.Metric.acceptable subject.metric ~reference:golden.output
            (Lazy.force output))
  in
  let detect_latency =
    (* For recovered runs the latency is measured at the detection that
       triggered the rollback, not at the (later) end of the replay. *)
    match outcome, result.injection with
    | ( ( Classify.Sw_detect | Classify.Hw_detect | Classify.Recovered
        | Classify.Unrecoverable ),
        Some inj ) ->
      (match result.recovered with
       | Some r -> Some (r.Interp.Machine.rec_detect_step - inj.inj_step)
       | None -> Some (result.steps - inj.inj_step))
    | _, _ -> None
  in
  let detected_by =
    match result.stop with
    | Interp.Machine.Sw_detected d -> Some d
    | Interp.Machine.Finished _ ->
      (* A recovered run finished, but it did detect: report the check
         whose firing triggered the rollback. *)
      Option.map
        (fun r -> r.Interp.Machine.rec_detection)
        result.recovered
    | Interp.Machine.Trapped _ | Interp.Machine.Out_of_fuel -> None
  in
  { trial_seed = seed; at_step; outcome; injection = result.injection;
    detected_by; detect_latency; steps = result.steps;
    cycles = result.cycles; recovery = result.recovered;
    checkpoints = result.checkpoints; taint = result.taint;
    stratum = None }

(* Per-trial fault plan, drawn from the trial seed.  The [at_step] draw
   and the split both happen before execution, so the plan is a pure
   function of ([seed], golden window) — the determinism anchor for both
   execution strategies below. *)
let trial_plan ~fault_kind ~(golden : golden) ~seed =
  let rng = Rng.create seed in
  (* Random in time: a dynamic instruction index within the golden window.
     The fault-free prefix of the run is deterministic, so the flip always
     lands. *)
  let at_step = 1 + Rng.int rng (max 1 (golden.steps - 1)) in
  let fault =
    { Interp.Machine.at_step; fault_rng = Rng.split rng; kind = fault_kind;
      restrict = None }
  in
  (at_step, fault)

let trial_config ~fault ~disabled ~profile ~checkpoint_interval ~taint_trace
    ~(golden : golden) =
  { Interp.Machine.default_config with
    fuel = (golden.steps * 8) + 10_000;
    mode = Interp.Machine.Detect;
    fault = Some fault;
    disabled_checks = disabled;
    profile; checkpoint_interval; taint_trace }

(** Run one fault-injection trial from scratch, on the subject program's
    entry in the per-program compile cache. *)
let run_trial ?(fault_kind = Interp.Machine.Register_bit) ?profile
    ?(checkpoint_interval = 0) ?(taint_trace = false) subject
    ~(golden : golden) ~disabled ~hw_window ~seed =
  let compiled = Interp.Compiled.cached subject.prog in
  let at_step, fault = trial_plan ~fault_kind ~golden ~seed in
  let state = subject.fresh_state () in
  let config =
    trial_config ~fault ~disabled ~profile ~checkpoint_interval ~taint_trace
      ~golden
  in
  let result =
    Interp.Machine.run_compiled ~config compiled ~entry:subject.entry
      ~args:state.args ~mem:state.mem
  in
  finish_trial subject ~golden ~hw_window ~seed ~at_step ~state result

(* One worker domain's reusable trial context ({!run}'s hot path): the
   run state is materialized once per domain, and every trial overwrites
   its memory from a golden snapshot — never reallocating the region
   arrays.  The arena recycles the machine's frame and phi scratch across
   the domain's trials. *)
type worker_ctx = {
  wc_state : run_state;
  wc_arena : Interp.Machine.arena;
}

(* Rejoin tallies of one campaign ({!run_stats}), bumped from any worker
   domain.  Sums, so their final values do not depend on scheduling. *)
type rejoins = {
  rj_trials : int Atomic.t;
  rj_settled : int Atomic.t;
  rj_steps : int Atomic.t;
}

let rejoins () =
  { rj_trials = Atomic.make 0; rj_settled = Atomic.make 0;
    rj_steps = Atomic.make 0 }

(* The arena/fork trial runner: bit-identical to {!run_trial} by the
   determinism argument of DESIGN.md §12 — the snapshot restores exactly
   the state a from-scratch run holds at the fork step (every [at_step]
   is at least 1, so snapshot 0 always qualifies), the arena is
   observation-free, and a trial that rejoins the golden run returns
   exactly what its full run would have.  A profiled trial must observe
   its whole run: it starts from the entry on snapshot 0's memory, the
   input state. *)
let run_trial_in ?profile ~plan:(at_step, fault) ~compiled
    ~checkpoint_interval ~taint_trace ~(ctx : worker_ctx)
    ~golden_fork:((snaps, _) as golden_fork : golden_fork) ~rejoins subject
    ~(golden : golden) ~disabled ~seed =
  let state = ctx.wc_state in
  let resume =
    match profile with
    | None -> Interp.Fork.best snaps ~at_step
    | Some _ ->
      Interp.Memory.restore_image state.mem snaps.(0).fk_mem;
      None
  in
  let config =
    trial_config ~fault ~disabled ~profile ~checkpoint_interval ~taint_trace
      ~golden
  in
  let result =
    Interp.Machine.run_compiled ~config ~arena:ctx.wc_arena ?resume
      ~rejoin:golden_fork compiled ~entry:subject.entry ~args:state.args
      ~mem:state.mem
  in
  (match result.rejoined_at with
   | Some step ->
     Atomic.incr rejoins.rj_trials;
     if result.settled then Atomic.incr rejoins.rj_settled;
     ignore (Atomic.fetch_and_add rejoins.rj_steps (result.steps - step))
   | None -> ());
  finish_trial subject ~golden ~hw_window:Classify.default_hw_window ~seed
    ~at_step ~state result

(* Draw a trial seed from [rng] and claim it in [used]: the 30-bit draw
   plus [offset].  Draws can collide (birthday bound: a few-percent chance
   by ~10^4 trials), and two trials with the same seed are the same trial
   — a silent loss of statistical power.  Dedup deterministically: keep
   every non-colliding draw as-is (preserving the historical sequence)
   and push a collision into the next 30-bit band until unique. *)
let draw_seed used rng ~offset =
  let s = ref ((Int64.to_int (Rng.bits rng) land 0x3FFFFFFF) + offset) in
  while Hashtbl.mem used !s do
    s := !s + 0x40000000
  done;
  Hashtbl.add used !s ();
  !s

(** All trial seeds, derived from the master RNG *before* any trial runs.
    This is the campaign determinism contract: seed assignment depends only
    on ([seed], trial index), never on worker scheduling, so any [~domains]
    produces bit-identical trials.  The sequence matches what the historical
    serial loop drew from the master generator one trial at a time. *)
let derive_seeds ~seed ~trials =
  let master = Rng.create seed in
  let seeds = Array.make (max trials 0) 0 in
  let used = Hashtbl.create (max 16 (2 * max trials 0)) in
  for i = 0 to trials - 1 do
    seeds.(i) <- draw_seed used master ~offset:i
  done;
  seeds

(* Per-domain trial contexts, created lazily on first use and keyed by
   domain id (ids are unique among live domains, and the table dies with
   the campaign, so nothing leaks across campaigns).  The mutex only
   guards the table; each domain reads and writes its own key. *)
let ctx_table subject =
  let ctx_lock = Mutex.create () in
  let ctxs : (int, worker_ctx) Hashtbl.t = Hashtbl.create 8 in
  fun () ->
    let id = (Domain.self () :> int) in
    Mutex.lock ctx_lock;
    let found = Hashtbl.find_opt ctxs id in
    Mutex.unlock ctx_lock;
    match found with
    | Some c -> c
    | None ->
      let c =
        { wc_state = subject.fresh_state ();
          wc_arena = Interp.Machine.arena () }
      in
      Mutex.lock ctx_lock;
      Hashtbl.replace ctxs id c;
      Mutex.unlock ctx_lock;
      c

(** Wall-clock accounting of one {!run}: where the campaign spent its
    time, and how the trial work spread over domains.  Observation-only;
    never feeds back into results. *)
type run_stats = {
  golden_sec : float;    (** the golden run, fork capture included *)
  setup_sec : float;     (** seed derivation, check disabling and the
                             compile cache *)
  trials_sec : float;    (** the parallel trial phase *)
  wall_sec : float;      (** whole campaign, entry to exit *)
  domains : int;         (** worker domains the campaign was asked to use *)
  pool : Pool.stats option;  (** per-domain breakdown of the trial phase *)
  rejoined : int;        (** trials that rejoined the golden run *)
  settled : int;         (** those of them settled at their flip *)
  steps_skipped : int;   (** golden-suffix steps those trials did not run *)
  golden_reused : bool;  (** the golden run was the memoized pass *)
}

(* The one campaign engine behind {!run} and {!run_adaptive}: the golden
   run with its fork capture, check disabling, the per-domain trial
   contexts, the traced parallel batch runner and the epilogue (hooks,
   stats, summary, warehouse filing).  A front-end supplies only how
   trials are drawn, and [obs], the ring observer its golden pass fills.
   [draw ~golden] does its own set-up and returns the progress heartbeat
   and the trial loop; the loop runs
   batches through [batch n spec], where [spec i] is trial [i]'s (seed,
   fault plan, stratum) — evaluated on the worker — and returns every
   trial in order plus the front-end's extra result, which [warehouse]
   also receives. *)
let engine ?trace ~obs ~domains ~checkpoint_interval ~taint_trace ~profile
    ~stats_out ~warehouse subject ~draw =
  let t_start = Unix.gettimeofday () in
  (* The golden also runs with checkpointing so its cycle count carries the
     fault-free overhead of the recovery configuration; its output and step
     count (the fault window) are interval-independent.  The pass captures
     the fork snapshots, or takes the memoized ones of the same pass.  It
     is unprofiled, so it always has them. *)
  let golden, golden_fork, golden_reused =
    Obs.Trace.with_dur trace ~cat:"campaign" "golden_run" (fun () ->
      golden_pass ~obs ~checkpoint_interval subject)
  in
  let golden_fork = Option.get golden_fork in
  let t_golden = Unix.gettimeofday () in
  let disabled = Hashtbl.create 8 in
  List.iter (fun uid -> Hashtbl.replace disabled uid ()) golden.failing_checks;
  let compiled = Interp.Compiled.cached subject.prog in
  let progress, loop = draw ~golden in
  let get_ctx = ctx_table subject in
  let rejoins = rejoins () in
  let pool_stats = ref None in
  (* Each profiled trial profiles into its own instance; the merge after
     the batch runs in trial order on the calling domain, so the aggregate
     is deterministic and the hot path shares nothing across workers. *)
  let batch n spec =
    let profiles =
      match profile with
      | None -> [||]
      | Some _ -> Array.init n (fun _ -> Interp.Profile.create ())
    in
    let results =
      Obs.Trace.with_dur trace ~cat:"campaign" "trials"
        ~args:[ ("trials", Obs.Json.Int n) ]
      @@ fun () ->
      Pool.map ~domains ~gc:Pool.campaign_gc_tuning ~stats:pool_stats ?trace
        (fun i ->
          let seed, plan, stratum = spec i in
          let profile =
            if Array.length profiles = 0 then None else Some profiles.(i)
          in
          let t =
            run_trial_in ?profile ~plan ~compiled ~checkpoint_interval
              ~taint_trace ~ctx:(get_ctx ()) ~golden_fork ~rejoins subject
              ~golden ~disabled ~seed
          in
          (match progress with
           | Some pg -> Progress.note ?stratum pg t.outcome
           | None -> ());
          match stratum with None -> t | Some _ -> { t with stratum })
        n
    in
    Option.iter
      (fun dst -> Array.iter (Interp.Profile.merge_into ~dst) profiles)
      profile;
    results
  in
  let t_trials = Unix.gettimeofday () in
  let results, extra = loop batch in
  (match progress with Some pg -> Progress.finish pg | None -> ());
  let t_end = Unix.gettimeofday () in
  let stats =
    { golden_sec = t_golden -. t_start;
      setup_sec = t_trials -. t_golden;
      trials_sec = t_end -. t_trials;
      wall_sec = t_end -. t_start;
      domains = max 1 domains;
      pool = !pool_stats;
      rejoined = Atomic.get rejoins.rj_trials;
      settled = Atomic.get rejoins.rj_settled;
      steps_skipped = Atomic.get rejoins.rj_steps;
      golden_reused }
  in
  (match stats_out with Some r -> r := Some stats | None -> ());
  let counts =
    List.map
      (fun o ->
        (o, List.length (List.filter (fun t -> t.outcome = o) results)))
      Classify.all
  in
  let summary =
    { subject_label = subject.label; trials = List.length results; counts;
      golden_info = golden }
  in
  (match warehouse with
   | Some file -> file summary results (Some stats) extra
   | None -> ());
  (summary, results, extra)

(** Run a whole campaign: one golden run plus [trials] injections.
    [fault_kind] selects the paper's register bit flips (default) or
    branch-target corruptions (the §IV-C complementary fault class).
    [domains] fans the trials out over OCaml 5 domains ({!Pool}); results
    are bit-identical to the serial run for any worker count because every
    trial's seed is pre-derived by {!derive_seeds} and each trial executes
    against its own fresh state.

    The observability hooks are all optional and observation-only — any
    combination leaves the summary and trial list bit-identical:
    - [profile] accumulates the execution profiles of every trial
      (per-trial instances, merged in trial order after the parallel
      phase, so worker scheduling stays unobservable);
    - [stats_out] receives the campaign's {!run_stats};
    - [progress] receives every trial's outcome as it completes, from
      whichever worker domain ran it ({!Progress} is thread-safe) — the
      live-telemetry heartbeat; its final snapshot fires before [run]
      returns;
    - [trace] attaches a flight recorder ({!Obs.Trace.recorder}): one
      duration span per campaign phase (golden run, trial phase) on
      track 0, plus {!Pool.map}'s per-worker and per-chunk
      spans — render with {!Obs.Trace.to_chrome}.

    [taint_trace] runs every trial with the fault-propagation tracer
    attached ({!Interp.Taint}); outcomes, step and cycle counts are
    bit-identical to an untraced campaign, each trial just additionally
    carries its propagation summary.  The golden run stays untraced —
    without an injection there is nothing to seed. *)
let run ?(seed = 0xC0FFEE)
    ?(fault_kind = Interp.Machine.Register_bit) ?(domains = 1)
    ?(checkpoint_interval = 0) ?(taint_trace = false) ?profile ?stats_out
    ?warehouse ?progress ?trace subject ~trials =
  let summary, results, () =
    engine ?trace ~obs:None ~domains ~checkpoint_interval ~taint_trace
      ~profile ~stats_out
      ~warehouse:(Option.map (fun file s r st () -> file s r st) warehouse)
      subject
      ~draw:(fun ~golden ->
        let seeds = derive_seeds ~seed ~trials in
        let spec i =
          let seed = seeds.(i) in
          (seed, trial_plan ~fault_kind ~golden ~seed, None)
        in
        (progress, fun batch -> (Array.to_list (batch trials spec), ())))
  in
  (summary, results)

(* ------------------------------------------------------------------ *)
(* Adaptive stratified campaigns (DESIGN.md §14).                      *)
(* ------------------------------------------------------------------ *)

type stratum = {
  st_id : int;
  st_group : int;
  st_group_name : string;
  st_band : int;
  st_lo : int;
  st_hi : int;
  st_mass : float;
  st_prior : float;
}

type strata_plan = {
  sp_groups : int array;
  sp_cum : float array array;
  sp_window : int;
  sp_strata : stratum array;
  sp_mass_empty : float;
}

(* Partition the (step, ring-slot) injection space into strata: one per
   (protection group × residency band).  [cum.(g).(t)] is the cumulative
   probability weight a uniform fault draw puts on group [g] by step [t]
   (the golden pass's {!Interp.Machine.ring_cum}); [window] is the
   number of equally likely injection steps (golden steps - 1, steps
   [1..window]).  Band boundaries split the *occupied* weight into
   [bands] roughly equal shares, so late-program groups are not starved
   into slivers.  Masses are exact: they sum (with [sp_mass_empty], the
   weight of empty-ring steps where a draw injects nothing and the trial
   is Masked by construction) to 1, which is what makes the reweighted
   whole-program estimate unbiased. *)
let build_strata ~groups ~group_names ~priors ~bands ~window cum =
  let ngroups = Array.length cum in
  let t_max = window in
  let total t =
    let s = ref 0.0 in
    for g = 0 to ngroups - 1 do s := !s +. cum.(g).(t) done;
    !s
  in
  let occupied = if t_max >= 1 then total t_max else 0.0 in
  let bands = max 1 bands in
  let bounds = Array.make (bands + 1) 1 in
  bounds.(bands) <- t_max + 1;
  for b = 1 to bands - 1 do
    let share = float_of_int b /. float_of_int bands *. occupied in
    let t = ref 1 in
    while !t < t_max && total !t < share do incr t done;
    bounds.(b) <- min (t_max + 1) (!t + 1)
  done;
  for b = 1 to bands do
    if bounds.(b) < bounds.(b - 1) then bounds.(b) <- bounds.(b - 1)
  done;
  let strata = ref [] in
  let id = ref 0 in
  if t_max >= 1 then
    for g = 0 to ngroups - 1 do
      for b = 0 to bands - 1 do
        let lo = bounds.(b) and hi = bounds.(b + 1) in
        if hi > lo then begin
          let mass =
            Float.max 0.0
              ((cum.(g).(hi - 1) -. cum.(g).(lo - 1))
               /. float_of_int t_max)
          in
          if mass > 0.0 then begin
            let name =
              if g < Array.length group_names then group_names.(g)
              else string_of_int g
            in
            let prior =
              if g < Array.length priors then
                Float.min 1.0 (Float.max 0.0 priors.(g))
              else 0.0
            in
            strata :=
              { st_id = !id; st_group = g; st_group_name = name;
                st_band = b; st_lo = lo; st_hi = hi; st_mass = mass;
                st_prior = prior }
              :: !strata;
            incr id
          end
        end
      done
    done;
  let mass_empty =
    if t_max >= 1 then
      Float.max 0.0 ((float_of_int t_max -. occupied) /. float_of_int t_max)
    else 1.0
  in
  { sp_groups = groups; sp_cum = cum; sp_window = t_max;
    sp_strata = Array.of_list (List.rev !strata);
    sp_mass_empty = mass_empty }

(* Inverse-CDF draw of an injection step inside a stratum: [u] in [0,1)
   picks the first step whose cumulative group weight exceeds
   [c.(lo-1) + u * (c.(hi-1) - c.(lo-1))] — steps where the group has no
   ring presence carry no increment and are never chosen, so the draw is
   the uniform (step, slot) distribution conditioned on the stratum. *)
let sample_at_step plan (s : stratum) ~u =
  let c = plan.sp_cum.(s.st_group) in
  let base = c.(s.st_lo - 1) in
  let target = base +. (u *. (c.(s.st_hi - 1) -. base)) in
  let lo = ref s.st_lo and hi = ref (s.st_hi - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if c.(mid) > target then hi := mid else lo := mid + 1
  done;
  !lo

(* The stratified counterpart of {!trial_plan}: same shape (all draws
   happen before execution, a pure function of the seed and the plan),
   but the step comes from the stratum's CDF and the register draw is
   restricted to ring slots in the stratum's group. *)
let adaptive_trial_plan plan (s : stratum) ~seed =
  let rng = Rng.create seed in
  let u = Rng.float rng in
  let at_step = sample_at_step plan s ~u in
  let fault =
    Interp.Machine.register_fault
      ~restrict:(plan.sp_groups, s.st_group)
      ~at_step ~fault_rng:(Rng.split rng) ()
  in
  (at_step, fault)

type stratum_stats = {
  ss_stratum : stratum;
  ss_trials : int;
  ss_counts : (Classify.outcome * int) list;
}

type adaptive = {
  ad_ci_target : float;
  ad_strata : stratum_stats array;
  ad_mass_empty : float;
  ad_trials : int;
  ad_outcomes : (Classify.outcome * Obs.Stats.interval) list;
  ad_sdc : Obs.Stats.interval;
  ad_equiv_uniform : int;
  ad_oracle_uniform : int;
}

let outcome_indices = List.mapi (fun i o -> (o, i)) Classify.all
let n_outcomes = List.length Classify.all
let outcome_index o = List.assoc o outcome_indices

(* Shift an interval by an exactly known additive mass (the empty-ring
   share, all Masked): no sampling error, so estimate and both bounds
   move together. *)
let shift_interval (iv : Obs.Stats.interval) extra =
  { Obs.Stats.ci_estimate = Float.min 1.0 (iv.ci_estimate +. extra);
    ci_low = Float.min 1.0 (iv.ci_low +. extra);
    ci_high = Float.min 1.0 (iv.ci_high +. extra) }

(* The adaptive trial loop over the engine's [batch] runner: a 32-trial
   pilot per stratum, then Neyman rounds until the reweighted SDC
   interval reaches [ci] or the budget runs out.  Returns every trial in
   order and the {!adaptive} record. *)
let stratified_rounds plan ~seed ~ci ~max_trials batch =
  let nstrata = Array.length plan.sp_strata in
  (* Per-stratum deterministic seed streams, split from the master in
     ascending stratum order (an explicit loop: [Array.init]'s evaluation
     order is unspecified).  Seeds are deduped across *all* strata by
     {!draw_seed}, as in {!derive_seeds}, so no two trials of the
     campaign silently share a seed. *)
  let master = Rng.create seed in
  let streams =
    Array.init nstrata (fun _ -> master)
  in
  for i = 0 to nstrata - 1 do
    streams.(i) <- Rng.split master
  done;
  let used = Hashtbl.create 1024 in
  let counts = Array.make_matrix (max 1 nstrata) n_outcomes 0 in
  let ns = Array.make (max 1 nstrata) 0 in
  let total = ref 0 in
  let sdc_k i =
    let k = ref 0 in
    List.iter
      (fun o ->
        if Classify.is_sdc o then k := !k + counts.(i).(outcome_index o))
      Classify.all;
    !k
  in
  let strata_obs_for count_of =
    Array.to_list
      (Array.mapi
         (fun i (s : stratum) ->
           { Obs.Stats.so_mass = s.st_mass; so_k = count_of i;
             so_n = ns.(i) })
         plan.sp_strata)
  in
  let sdc_interval () = Obs.Stats.stratified (strata_obs_for sdc_k) in
  let half iv = Obs.Stats.width iv /. 2.0 in
  (* A stratum is active (still sampling) while its own SDC Wilson half
     width exceeds the target — the per-stratum early-stopping rule.  By
     the quadrature lemma ({!Obs.Stats.stratified}), all strata at or
     below [ci] puts the combined half width at or below [ci]. *)
  let stratum_half i =
    half (Obs.Stats.wilson ~k:(sdc_k i) ~n:ns.(i))
  in
  let rev_trials = ref [] in
  (* Allocation → batch: the batch is drawn serially (stratum ascending,
     then per-stratum draw order), so the seed sequence — and with it
     every trial — is a pure function of the allocation counts. *)
  let run_round alloc =
    let n = Array.fold_left ( + ) 0 alloc in
    if n > 0 then begin
      let draws = Array.make n (0, 0) in
      let j = ref 0 in
      Array.iteri
        (fun sid a ->
          for _ = 1 to a do
            draws.(!j) <- (sid, draw_seed used streams.(sid) ~offset:0);
            incr j
          done)
        alloc;
      let results =
        batch n (fun i ->
          let sid, seed = draws.(i) in
          ( seed,
            adaptive_trial_plan plan plan.sp_strata.(sid) ~seed,
            Some sid ))
      in
      Array.iteri
        (fun i t ->
          let sid, _ = draws.(i) in
          counts.(sid).(outcome_index t.outcome)
          <- counts.(sid).(outcome_index t.outcome) + 1;
          ns.(sid) <- ns.(sid) + 1;
          incr total;
          rev_trials := t :: !rev_trials)
        results
    end
  in
  if nstrata > 0 && max_trials > 0 then begin
    (* Round 0: a fixed pilot per stratum (ascending order, capped by the
       budget) to seed the variance estimates with real observations. *)
    let alloc0 = Array.make nstrata 0 in
    let remaining = ref max_trials in
    Array.iteri
      (fun sid _ ->
        let a = min 32 !remaining in
        alloc0.(sid) <- a;
        remaining := !remaining - a)
      plan.sp_strata;
    run_round alloc0;
    let continue = ref true in
    while !continue do
      let combined = sdc_interval () in
      let active =
        Array.to_list plan.sp_strata
        |> List.filter (fun (s : stratum) -> stratum_half s.st_id > ci)
      in
      if half combined <= ci || active = [] || !total >= max_trials then
        continue := false
      else begin
        let budget = min (max 64 !total) (max_trials - !total) in
        (* Neyman allocation: weight m_s·σ̂_s, with σ̂ from a
           Laplace-smoothed rate blended with the static prior — a
           stratum with few observations leans on the analyzer's
           sdc-proneness guess, a well-sampled one on its own counts. *)
        let weight (s : stratum) =
          let i = s.st_id in
          let c = 8.0 in
          let p =
            (float_of_int (sdc_k i) +. (c *. s.st_prior) +. 1.0)
            /. (float_of_int ns.(i) +. c +. 2.0)
          in
          s.st_mass *. sqrt (p *. (1.0 -. p))
        in
        let wsum = List.fold_left (fun a s -> a +. weight s) 0.0 active in
        let alloc = Array.make nstrata 0 in
        if wsum <= 0.0 then
          (* Degenerate weights: spread the budget evenly. *)
          List.iteri
            (fun i (s : stratum) ->
              let per = budget / List.length active in
              alloc.(s.st_id)
              <- (per + if i < budget mod List.length active then 1 else 0))
            active
        else begin
          (* Cumulative rounding: allocations are deterministic and sum
             exactly to the budget. *)
          let acc = ref 0.0 and given = ref 0 in
          List.iter
            (fun (s : stratum) ->
              acc :=
                !acc +. (float_of_int budget *. weight s /. wsum);
              let upto = int_of_float (Float.round !acc) in
              alloc.(s.st_id) <- max 0 (upto - !given);
              given := max !given upto)
            active
        end;
        if Array.fold_left ( + ) 0 alloc = 0 then continue := false
        else run_round alloc
      end
    done
  end;
  let stratum_stats =
    Array.map
      (fun (s : stratum) ->
        { ss_stratum = s;
          ss_trials = ns.(s.st_id);
          ss_counts =
            List.map
              (fun o -> (o, counts.(s.st_id).(outcome_index o)))
              Classify.all })
      plan.sp_strata
  in
  let outcome_interval o =
    let iv =
      Obs.Stats.stratified
        (strata_obs_for (fun i -> counts.(i).(outcome_index o)))
    in
    (* Empty-ring steps inject nothing: their mass is exactly Masked. *)
    if o = Classify.Masked then shift_interval iv plan.sp_mass_empty
    else iv
  in
  let sdc = sdc_interval () in
  let achieved_half = Float.max 1e-9 (half sdc) in
  let adaptive =
    { ad_ci_target = ci;
      ad_strata = stratum_stats;
      ad_mass_empty = plan.sp_mass_empty;
      ad_trials = !total;
      ad_outcomes =
        List.map (fun o -> (o, outcome_interval o)) Classify.all;
      ad_sdc = sdc;
      (* The savings headline: a fixed-size uniform campaign cannot stop
         early (stopping is this scheduler's contribution), so it must be
         planned at worst-case variance p = 0.5 — the repo's standing
         margin-of-error convention — to *guarantee* the target width. *)
      ad_equiv_uniform =
        Obs.Stats.equivalent_uniform_trials ~p:0.5 ~half_width:ci;
      (* The oracle comparison: uniform trials that would match the
         achieved width given advance knowledge of the observed rate —
         the honest lower bound reported next to the headline. *)
      ad_oracle_uniform =
        Obs.Stats.equivalent_uniform_trials ~p:sdc.ci_estimate
          ~half_width:achieved_half }
  in
  (List.rev !rev_trials, adaptive)

(** Adaptive stratified campaign (DESIGN.md §14): Neyman-style
    variance-proportional allocation over protection-group × residency-band
    strata, with per-stratum early stopping on the Wilson interval of the
    SDC rate.  Stops when the mass-reweighted whole-program SDC interval's
    half width reaches [ci] (or the [max_trials] budget runs out).
    Deterministic in ([seed], subject, groups): per-stratum seed streams
    are split from the master up front and allocation depends only on
    deterministic counts — never on worker scheduling, so any [~domains]
    produces bit-identical trials.

    [groups] maps program register codes to protection groups (from
    [Analysis.Strata], but any partition works), [group_names] labels
    them, [priors] seeds each group's variance estimate with a static
    SDC-proneness guess before any trial has run. *)
let run_adaptive ?(seed = 0xC0FFEE) ?(domains = 1) ?(checkpoint_interval = 0)
    ?(taint_trace = false) ?stats_out ?warehouse ?progress_for ?trace
    ?(bands = 3) ?(max_trials = 100_000)
    ~groups ~group_names ~priors ~ci subject =
  let ci = Float.max 1e-4 ci in
  (* The golden pass fills the observer, so the stratum masses come from
     the one fault-free pass every trial is judged against. *)
  let obs =
    Interp.Machine.ring_obs ~groups ~ngroups:(Array.length group_names)
  in
  engine ?trace ~obs:(Some obs) ~domains ~checkpoint_interval ~taint_trace
    ~profile:None ~stats_out ~warehouse subject
    ~draw:(fun ~golden ->
      let plan =
        build_strata ~groups ~group_names ~priors ~bands
          ~window:(golden.steps - 1) (Interp.Machine.ring_cum obs)
      in
      let nstrata = Array.length plan.sp_strata in
      let progress =
        match progress_for with
        | Some f when nstrata > 0 -> Some (f ~nstrata ~total:max_trials)
        | Some _ | None -> None
      in
      (progress, stratified_rounds plan ~seed ~ci ~max_trials))

(** Mean of per-subject percentages, the paper's cross-benchmark average. *)
let mean_percent summaries outcomes =
  match summaries with
  | [] -> 0.0
  | _ :: _ ->
    List.fold_left
      (fun acc s -> acc +. percent_many s outcomes)
      0.0 summaries
    /. float_of_int (List.length summaries)
