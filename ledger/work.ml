(** The ledger's workloads: each one's set-up, one timed round, and the
    output checks that run after the round's clock has stopped.

    A round runs the same code traced and untraced.  With a recorder
    attached, {!protect} and {!validate} make their public calls one layer
    at a time so that each layer gets its own span, and every campaign of
    the round is kept for the trial replay ({!Replay}).  Untraced, they
    call [Softft.protect] and [Softft.Optimize.validate] as a user would.
    The cell digests of the two paths must agree, which is what makes the
    traced numbers stand for the untraced ones. *)

let test = Workloads.Workload.Test
let find = Workloads.Registry.find

(** A campaign of a traced round, kept so {!Replay} can re-execute its
    trials one layer call at a time. *)
type run = {
  r_subject : Faults.Campaign.subject;
  r_golden : Faults.Campaign.golden;
  r_trials : Faults.Campaign.trial list;
  r_checkpoint : int;
  r_strata : (int array * Faults.Campaign.adaptive) option;
      (** adaptive campaigns: the register groups and the strata their
          trials sampled *)
  r_tainted : unit -> Faults.Campaign.trial list;
      (** the same campaign again with the propagation tracer attached *)
}

(** One output-checked unit of a round: a campaign, a search or a
    validation.  [digest] is empty when the cell raised. *)
type cell = { name : string; digest : string; error : string option }

type ctx = {
  seed : int;
  quick : bool;
  scratch : string;     (** the child's directory for journals and warehouses *)
  tracer : Obs.Trace.recorder option;
  mutable injected : int;                  (** trials injected by the round *)
  mutable pending : (unit -> cell) list;   (** cell checks, newest first *)
  mutable runs : run list;                 (** traced only, newest first *)
  mutable probes : (unit -> int) list;
      (** traced only: layer calls repeated after the round; each returns
          how many of its results disagreed with the round's *)
}

let context ~seed ~quick ~scratch ~tracer =
  { seed; quick; scratch; tracer; injected = 0; pending = []; runs = [];
    probes = [] }

(** [span ctx name f] runs [f] inside a ledger span when tracing, and is
    a bare call otherwise.  [count] turns the result into counters
    recorded on the span, so ratios are taken where the work happens. *)
let span ?(count = fun _ -> []) ctx name f =
  match ctx.tracer with
  | None -> f ()
  | Some r ->
    let od = Obs.Trace.begin_dur r ~cat:"ledger" name in
    (match f () with
     | v ->
       Obs.Trace.end_dur r od ~args:(count v);
       v
     | exception e ->
       Obs.Trace.end_dur r od;
       raise e)

let traced ctx = ctx.tracer <> None

(* ----- Cells and their output checks ----- *)

(** [cell ctx name body] runs [body] as one cell of the round.  [body]
    returns the cell's check, which runs after the round's clock stops
    and yields the cell digest plus an error when an output is wrong. *)
let cell ctx name body =
  let finish =
    match body () with
    | check ->
      fun () ->
        (match check () with
         | digest, error -> { name; digest; error }
         | exception e ->
           { name; digest = ""; error = Some (Printexc.to_string e) })
    | exception e ->
      let msg = Printexc.to_string e in
      fun () -> { name; digest = ""; error = Some msg }
  in
  ctx.pending <- finish :: ctx.pending

(** The cell digest: the golden run's steps and cycles, then per trial,
    in order, its seed, injection step, outcome, steps, cycles and the
    injected register and bit. *)
let digest_trials (golden : Faults.Campaign.golden) trials =
  let b = Buffer.create 4096 in
  Printf.bprintf b "golden %d %d\n" golden.steps golden.cycles;
  List.iter
    (fun (t : Faults.Campaign.trial) ->
      let reg, bit =
        match t.injection with
        | Some i -> (i.Interp.Machine.inj_reg, i.Interp.Machine.inj_bit)
        | None -> (-1, -1)
      in
      Printf.bprintf b "%d %d %s %d %d %d %d\n" t.trial_seed t.at_step
        (Faults.Classify.name t.outcome) t.steps t.cycles reg bit)
    trials;
  Digest.to_hex (Digest.string (Buffer.contents b))

(* Fault-free outputs of the unmodified programs, computed once per child
   by the checks (never inside a timed round unless the round computes
   them itself, see [matrix]). *)
let originals : (string, Faults.Campaign.golden) Hashtbl.t = Hashtbl.create 16

let original_golden (w : Workloads.Workload.t) =
  match Hashtbl.find_opt originals w.name with
  | Some g -> g
  | None ->
    let g = Softft.golden (Softft.protect w Softft.Original) ~role:test in
    Hashtbl.replace originals w.name g;
    g

(** Transforms never change fault-free output: a protected program's
    golden output must be bit-identical to the unmodified program's. *)
let output_error (w : Workloads.Workload.t) (g : Faults.Campaign.golden) =
  let reference = (original_golden w).output in
  if Fidelity.Metric.identical ~reference g.output then None
  else Some "fault-free output differs from the unmodified program's"

let first_error errors = List.find_map Fun.id errors

(* ----- Layer calls, decomposed when traced ----- *)

let value_profile ctx (w : Workloads.Workload.t) prog =
  let vp =
    span ctx "profiling.value_profile" (fun () ->
      Workloads.Workload.profile ~prog w)
  in
  fun uid -> Profiling.Value_profile.check_kind vp uid

(** [Softft.protect w technique]; traced, the same steps as separate
    calls: build, value profile (check-inserting techniques only),
    transform. *)
let protect ctx (w : Workloads.Workload.t) technique =
  match ctx.tracer with
  | None -> Softft.protect w technique
  | Some _ ->
    let prog = span ctx "workloads.build" w.build in
    let profile =
      match technique with
      | Softft.Dup_valchk | Softft.Dup_valchk_cfc ->
        Some (value_profile ctx w prog)
      | Softft.Original | Softft.Dup_only | Softft.Full_dup
      | Softft.Cfc_only | Softft.Planned -> None
    in
    let static_stats =
      span ctx "transform.protect" (fun () ->
        Transform.Pipeline.protect ?profile prog technique)
    in
    { Softft.workload = w; technique; prog; static_stats;
      profile_false_positive_info = None }

(** [Softft.protect_plan ~lint:true], decomposed like {!protect}; only
    the traced [validate] calls it. *)
let protect_plan ctx (w : Workloads.Workload.t) plan =
  let plan = Analysis.Plan.normalize plan in
  let prog = span ctx "workloads.build" w.build in
  let profile =
    if plan.Analysis.Plan.terminators <> [] || plan.Analysis.Plan.checks <> []
    then Some (value_profile ctx w prog)
    else None
  in
  let static_stats =
    span ctx "transform.protect" (fun () ->
      Transform.Pipeline.of_plan ?profile ~lint:true prog plan)
  in
  { Softft.workload = w; technique = Softft.Planned; prog; static_stats;
    profile_false_positive_info = None }

let golden ?profile ?checkpoint_interval ?(role = test) ctx p =
  span ctx "interp.golden"
    ~count:(fun (g : Faults.Campaign.golden) ->
      [ ("golden_steps", Obs.Json.Int g.steps) ])
    (fun () -> Softft.golden ?profile ?checkpoint_interval p ~role)

(** Builds the subject's input state once, as every campaign does. *)
let build_inputs ctx (s : Faults.Campaign.subject) =
  ignore (span ctx "workloads.build" s.fresh_state)

(** The untimed 5-trial campaign that ends every set-up. *)
let warm_up ?(checkpoint_interval = 0) ctx s =
  span ctx "ledger.warm_up" (fun () ->
    ignore
      (Faults.Campaign.run ~seed:ctx.seed ~domains:1 ~checkpoint_interval
         ?trace:ctx.tracer s ~trials:5))

(* A campaign span carries the trials the campaign injected, its golden
   run's steps, and what it allocated and collected. *)
let campaign_span ctx ~trials_of ~golden_of f =
  match ctx.tracer with
  | None -> f ()
  | Some _ ->
    let g0 = Gc.quick_stat () in
    span ctx "faults.campaign"
      ~count:(fun v ->
        let g1 = Gc.quick_stat () in
        [ ("trials", Obs.Json.Int (trials_of v));
          ("golden_steps", Obs.Json.Int (golden_of v));
          ("minor_words",
           Obs.Json.Float (g1.Gc.minor_words -. g0.Gc.minor_words));
          ("major_collections",
           Obs.Json.Int (g1.Gc.major_collections - g0.Gc.major_collections))
        ])
      f

let keep ctx run = if traced ctx then ctx.runs <- run :: ctx.runs

(** One uniform campaign of the round, at one domain. *)
let campaign ?(checkpoint_interval = 0) ?warehouse ?stats_out ctx
    (s : Faults.Campaign.subject) ~trials =
  let seed = ctx.seed in
  let ((summary, results) as out) =
    campaign_span ctx
      ~trials_of:(fun (_, ts) -> List.length ts)
      ~golden_of:(fun ((sm : Faults.Campaign.summary), _) ->
        sm.golden_info.steps)
      (fun () ->
        Faults.Campaign.run ~seed ~domains:1 ~checkpoint_interval ?warehouse
          ?stats_out ?trace:ctx.tracer s ~trials)
  in
  ctx.injected <- ctx.injected + List.length results;
  keep ctx
    { r_subject = s; r_golden = summary.golden_info; r_trials = results;
      r_checkpoint = checkpoint_interval; r_strata = None;
      r_tainted =
        (fun () ->
          snd
            (Faults.Campaign.run ~seed ~domains:1 ~checkpoint_interval
               ~taint_trace:true s ~trials)) };
  out

(* ----- Workloads ----- *)

type t = {
  name : string;
  why : string;
  prepare : ctx -> unit -> unit;
      (** set-up; returns the round, whose campaigns add to
          [ctx.injected] and whose cells land in [ctx.pending] *)
}

let cell_name workload (w : Workloads.Workload.t) what =
  Printf.sprintf "%s/%s/%s" workload w.name what

(* The technique names the [experiments] command line takes. *)
let technique_slug = function
  | Softft.Original -> "original"
  | Softft.Dup_only -> "dup"
  | Softft.Dup_valchk -> "dupval"
  | Softft.Full_dup -> "full"
  | Softft.Cfc_only -> "cfc"
  | Softft.Dup_valchk_cfc -> "dupvalcfc"
  | Softft.Planned -> "planned"

(* Files a finished campaign into the round's warehouse, as
   [experiments campaign --warehouse] does. *)
let file_into ctx ~dir (p : Softft.protected) filed
    (summary : Faults.Campaign.summary) results stats =
  span ctx "warehouse.file" (fun () ->
    let manifest =
      Faults.Journal.manifest_record ~git:"ledger"
        ~technique:(Softft.technique_name p.technique) ?stats
        ~counts:summary.counts ~label:summary.subject_label
        ~trials:summary.trials ~seed:ctx.seed ~domains:1
        ~hw_window:Faults.Classify.default_hw_window
        ~fault_kind:"register_bit" ~golden:summary.golden_info ()
    in
    filed :=
      Some
        (Warehouse.Store.file_run
           ~prog_digest:(Warehouse.Store.prog_digest p.prog) ~dir ~manifest
           ~trials:results ()))

let filed_error ~trials = function
  | Some (`Ingested (e : Warehouse.Store.entry)) ->
    if e.e_trials = trials
       && List.fold_left (fun a (_, n) -> a + n) 0 e.e_counts = trials
    then None
    else Some "warehouse entry does not match the campaign"
  | Some (`Duplicate _) -> Some "campaign filed twice into a fresh warehouse"
  | None -> Some "campaign never reached the warehouse"

let matrix =
  { name = "matrix";
    why =
      "13 kernels x 4 techniques at 10 trials: per-cell fixed costs \
       (protect, golden run, fork capture, warehouse filing) are about \
       half the work";
    prepare =
      (fun ctx ->
        let kernels =
          if ctx.quick then [ find "g721enc" ] else Workloads.Registry.all
        in
        let trials = if ctx.quick then 4 else 10 in
        let techniques =
          if ctx.quick then [ Softft.Dup_valchk ] else Softft.all_techniques
        in
        List.iter
          (fun (w : Workloads.Workload.t) ->
            ignore (span ctx "workloads.build" w.build);
            ignore (span ctx "workloads.build" (fun () -> w.fresh_state test)))
          kernels;
        warm_up ctx
          (Softft.subject (protect ctx (List.hd kernels) Softft.Original)
             ~role:test);
        fun () ->
          let dir = Filename.concat ctx.scratch "warehouse" in
          List.iter
            (fun (w : Workloads.Workload.t) ->
              List.iter
                (fun technique ->
                  cell ctx (cell_name "matrix" w (technique_slug technique))
                    (fun () ->
                      let p = protect ctx w technique in
                      (* The golden run that prices the overhead; the
                         Original one is the baseline the checks reuse. *)
                      let g = golden ctx p in
                      if technique = Softft.Original then
                        Hashtbl.replace originals w.name g;
                      let filed = ref None in
                      let summary, results =
                        campaign ctx (Softft.subject p ~role:test) ~trials
                          ~warehouse:(file_into ctx ~dir p filed)
                      in
                      fun () ->
                        ( digest_trials summary.golden_info results,
                          first_error
                            [ output_error w g;
                              filed_error ~trials !filed ] )))
                techniques)
            kernels) }

(* The subjects of a workload of uniform campaigns, protected and given
   their inputs during set-up, which ends with the warm-up campaign on the
   first of them. *)
let subjects ?checkpoint_interval ctx names techniques =
  let subs =
    List.concat_map
      (fun technique ->
        List.map
          (fun name ->
            let w = find name in
            let s = Softft.subject (protect ctx w technique) ~role:test in
            build_inputs ctx s;
            (w, technique, s))
          names)
      techniques
  in
  (match subs with
   | (_, _, s) :: _ -> warm_up ?checkpoint_interval ctx s
   | [] -> ());
  subs

let plain_round ctx workload subs ~trials () =
  List.iter
    (fun ((w : Workloads.Workload.t), t, s) ->
      cell ctx (cell_name workload w (technique_slug t)) (fun () ->
        let summary, results = campaign ctx s ~trials in
        fun () ->
          ( digest_trials summary.golden_info results,
            output_error w summary.golden_info )))
    subs

let deep_trials =
  { name = "deep-trials";
    why =
      "jpegdec, kmeans, h264enc under Dup + val chks at 120 trials: \
       interpretation is over 90% of the work and most trials end \
       Masked";
    prepare =
      (fun ctx ->
        let names =
          if ctx.quick then [ "kmeans" ] else [ "jpegdec"; "kmeans"; "h264enc" ]
        in
        let subs = subjects ctx names [ Softft.Dup_valchk ] in
        plain_round ctx "deep-trials" subs
          ~trials:(if ctx.quick then 4 else 120)) }

let short_trials =
  { name = "short-trials";
    why =
      "tiff2bw, g721enc, h264dec x 4 techniques at 120 trials: short \
       runs over big images, so per-trial restore and classification \
       weigh most";
    prepare =
      (fun ctx ->
        let subs =
          if ctx.quick then subjects ctx [ "tiff2bw" ] [ Softft.Dup_valchk ]
          else
            subjects ctx [ "tiff2bw"; "g721enc"; "h264dec" ]
              Softft.all_techniques
        in
        plain_round ctx "short-trials" subs
          ~trials:(if ctx.quick then 4 else 120)) }

let checkpoint_interval = 1000

(* Every trial a journal holds must read back as the campaign ran it. *)
let journal_error path results =
  let _, views = Faults.Journal.load path in
  if
    List.length views = List.length results
    && List.for_all2
         (fun (v : Faults.Journal.view) (t : Faults.Campaign.trial) ->
           v.v_outcome = Faults.Classify.name t.outcome
           && v.v_steps = t.steps && v.v_cycles = t.cycles
           && v.v_seed = t.trial_seed)
         views results
  then None
  else Some "journal does not read back as written"

let recovery =
  { name = "recovery";
    why =
      "kmeans, jpegdec with checkpoint/rollback every 1000 steps at 150 \
       trials, journals written: the undo-journal write path, rollback \
       and replay";
    prepare =
      (fun ctx ->
        let names = if ctx.quick then [ "kmeans" ] else [ "kmeans"; "jpegdec" ] in
        let trials = if ctx.quick then 4 else 150 in
        let subs =
          subjects ~checkpoint_interval ctx names [ Softft.Dup_valchk ]
        in
        fun () ->
          List.iter
            (fun ((w : Workloads.Workload.t), t, (s : Faults.Campaign.subject)) ->
              cell ctx (cell_name "recovery" w (technique_slug t)) (fun () ->
                let stats = ref None in
                let summary, results =
                  campaign ~checkpoint_interval ~stats_out:stats ctx s ~trials
                in
                let path = Filename.concat ctx.scratch (w.name ^ ".jsonl") in
                span ctx "faults.journal_write"
                  ~count:(fun () ->
                    [ ("bytes", Obs.Json.Int (Unix.stat path).Unix.st_size) ])
                  (fun () ->
                    let manifest =
                      Faults.Journal.manifest_record ~git:"ledger"
                        ~technique:(Softft.technique_name t) ?stats:!stats
                        ~counts:summary.counts ~checkpoint_interval
                        ~label:s.label ~trials ~seed:ctx.seed ~domains:1
                        ~hw_window:Faults.Classify.default_hw_window
                        ~fault_kind:"register_bit"
                        ~golden:summary.golden_info ()
                    in
                    Faults.Journal.write ~path ~manifest ~trials:results ());
                fun () ->
                  ( digest_trials summary.golden_info results,
                    first_error
                      [ output_error w summary.golden_info;
                        journal_error path results ] )))
            subs) }

(* ----- plan-search: the static search, then validation by injection ----- *)

let frontier_digest (fr : Softft.Optimize.frontier) =
  let b = Buffer.create 1024 in
  Printf.bprintf b "explored %d\n" fr.fr_explored;
  List.iter
    (fun (p : Softft.Optimize.point) ->
      Printf.bprintf b "%s %h %h\n" p.op_label (Softft.Optimize.sdc p)
        (Softft.Optimize.overhead p))
    (fr.fr_points @ fr.fr_fixed);
  Digest.to_hex (Digest.string (Buffer.contents b))

(** One validated knee point: the measured overhead, the campaign's
    golden run and its trials. *)
type knee = {
  k_label : string;
  k_overhead : float;
  k_golden : Faults.Campaign.golden;
  k_trials : Faults.Campaign.trial list;
}

let knees_digest knees =
  let b = Buffer.create 1024 in
  List.iter
    (fun k ->
      Printf.bprintf b "%s %h %s\n" k.k_label k.k_overhead
        (digest_trials k.k_golden k.k_trials))
    knees;
  Digest.to_hex (Digest.string (Buffer.contents b))

(** [Softft.Optimize.validate ~domains:1]; traced, the same steps as
    separate calls, with the adaptive campaigns kept for replay. *)
let validate ctx (w : Workloads.Workload.t) points ~ci ~max_trials =
  match ctx.tracer with
  | None ->
    let knees = ref [] in
    let on_run (v : Softft.Optimize.validation) _ _ results _ _ ~golden =
      knees :=
        { k_label = v.vl_point.op_label; k_overhead = v.vl_measured_overhead;
          k_golden = golden; k_trials = results }
        :: !knees
    in
    let vals =
      Softft.Optimize.validate ~seed:ctx.seed ~domains:1 ~ci ?max_trials
        ~on_run w points
    in
    List.iter
      (fun (v : Softft.Optimize.validation) ->
        ctx.injected <- ctx.injected + v.vl_trials)
      vals;
    List.rev !knees
  | Some trace ->
    span ctx "core.validate" @@ fun () ->
    let baseline = golden ctx (protect ctx w Softft.Original) in
    List.map
      (fun (pt : Softft.Optimize.point) ->
        let p = protect_plan ctx w pt.op_plan in
        let ck = pt.op_plan.Analysis.Plan.checkpoint in
        let g = golden ~checkpoint_interval:ck ctx p in
        let overhead =
          (float_of_int g.cycles /. float_of_int baseline.cycles) -. 1.0
        in
        let cov =
          span ctx "analysis.coverage" (fun () ->
            Analysis.Coverage.analyze p.prog)
        in
        let groups = Analysis.Strata.reg_groups p.prog cov in
        let priors = Analysis.Strata.priors cov in
        let s =
          Softft.subject p ~role:test
            ~label:
              (Printf.sprintf "%s/%s/%s" w.name
                 (Analysis.Plan.slug pt.op_plan)
                 (Workloads.Workload.role_name test))
        in
        let adaptive ?taint_trace ?trace () =
          Faults.Campaign.run_adaptive ~seed:ctx.seed ~domains:1
            ~checkpoint_interval:ck ?taint_trace ?trace ?max_trials ~groups
            ~group_names:Analysis.Strata.group_names ~priors ~ci s
        in
        let summary, results, ad =
          campaign_span ctx
            ~trials_of:(fun (_, ts, _) -> List.length ts)
            ~golden_of:(fun ((sm : Faults.Campaign.summary), _, _) ->
              sm.golden_info.steps)
            (adaptive ~trace)
        in
        ctx.injected <- ctx.injected + List.length results;
        keep ctx
          { r_subject = s; r_golden = summary.golden_info; r_trials = results;
            r_checkpoint = ck; r_strata = Some (groups, ad);
            r_tainted =
              (fun () ->
                let _, ts, _ = adaptive ~taint_trace:true () in
                ts) };
        { k_label = pt.op_label; k_overhead = overhead;
          k_golden = summary.golden_info; k_trials = results })
      points

let plan_search =
  { name = "plan-search";
    why =
      "Optimize.search on kmeans, then adaptive validation of 2 knee \
       points: predictor and beam search do most of the work; the only \
       run_adaptive user";
    prepare =
      (fun ctx ->
        let w = find "kmeans" in
        let beam, budget, knees_n, max_trials =
          if ctx.quick then (1, 0.005, 1, Some 4) else (2, 0.15, 2, None)
        in
        let prog = span ctx "workloads.build" w.build in
        let profile = value_profile ctx w prog in
        let original = protect ctx w Softft.Original in
        let exec_counts =
          let prof = Interp.Profile.create () in
          ignore
            (golden ~profile:prof ~role:Workloads.Workload.Train ctx original);
          Interp.Profile.func_block_counts prof
        in
        let s = Softft.subject original ~role:test in
        build_inputs ctx s;
        warm_up ctx s;
        fun () ->
          let front = ref [] in
          cell ctx "plan-search/kmeans/search" (fun () ->
            let fr =
              span ctx "core.search"
                ~count:(fun (fr : Softft.Optimize.frontier) ->
                  [ ("plans", Obs.Json.Int fr.fr_explored) ])
                (fun () ->
                  Softft.Optimize.search ~beam ~budget ~exec_counts
                    ~profile prog)
            in
            front := fr.fr_points;
            if traced ctx then
              ctx.probes <-
                (fun () ->
                  (* The predictor alone, timed per plan: re-price every
                     frontier and fixed point the search returned. *)
                  let cost = Softft.Optimize.cost_model () in
                  List.fold_left
                    (fun bad (pt : Softft.Optimize.point) ->
                      let est =
                        span ctx "analysis.predict" (fun () ->
                          Analysis.Predict.estimate ~exec_counts ~profile
                            ~cost prog pt.op_plan)
                      in
                      if est = pt.op_est then bad else bad + 1)
                    0
                    (fr.fr_points @ fr.fr_fixed))
                :: ctx.probes;
            fun () -> (frontier_digest fr, None));
          cell ctx "plan-search/kmeans/validate" (fun () ->
            let points = Softft.Optimize.knee_points ~n:knees_n !front in
            let knees = validate ctx w points ~ci:0.08 ~max_trials in
            fun () ->
              ( knees_digest knees,
                if List.length knees = List.length points && knees <> []
                then None
                else Some "validation lost knee points" ))) }

let all = [ matrix; deep_trials; short_trials; recovery; plan_search ]

let find_workload name =
  match List.find_opt (fun w -> w.name = name) all with
  | Some w -> w
  | None ->
    invalid_arg
      (Printf.sprintf "unknown workload %S (known: %s)" name
         (String.concat ", " (List.map (fun w -> w.name) all)))
