(** Protection-plan search: a Pareto frontier over the configuration
    space between the paper's fixed pipelines (DESIGN.md §16).

    The search follows the DETOx discipline: a purely static predictor
    ({!Analysis.Predict}) prices every candidate plan, pruning the space;
    fault injection only runs afterwards, on the handful of knee points
    the caller asks to validate ({!validate}).

    The searched moves are the decisions a plan encodes: duplicate one
    more producer chain (in two flavors — plain, or with the chain's
    Opt-2 terminator sites applied), then greedily place stand-alone
    value checks on the surviving frontier.  Every evaluated plan is
    archived; the frontier is the non-dominated subset within the
    overhead budget.  The fixed pipelines are plans too
    ({!Analysis.Plan.all_chains}, {!Analysis.Plan.paper}), evaluated
    through the same predictor, so the frontier can be compared against
    them point-for-point. *)

module Plan = Analysis.Plan
module Predict = Analysis.Predict

type point = {
  op_plan : Plan.t;
  op_label : string;
  op_fixed : bool;       (** one of the fixed-pipeline plan equivalents *)
  op_est : Predict.estimate;
}

let sdc p = p.op_est.Predict.pe_sdc_fraction
let overhead p = p.op_est.Predict.pe_overhead

(** [a] is at least as good on both axes and strictly better on one. *)
let strictly_dominates a b =
  sdc a <= sdc b && overhead a <= overhead b
  && (sdc a < sdc b || overhead a < overhead b)

type frontier = {
  fr_points : point list;  (** non-dominated, overhead ascending *)
  fr_fixed : point list;   (** the fixed-pipeline equivalents *)
  fr_dominated_fixed : (string * string) list;
      (** (fixed label, frontier label that strictly dominates it) *)
  fr_explored : int;       (** distinct plans priced *)
  fr_budget : float;       (** overhead cap applied to the frontier *)
}

(** {!Analysis.Predict.cost_model} wired to the interpreter's
    {!Interp.Cost} constants.  A checkpoint is priced at 256 words, an
    estimate of what it copies (live registers + undo log seal); the
    interpreter charges the exact snapshot size. *)
let cost_model () =
  {
    Predict.cm_instr = Interp.Cost.instr;
    cm_phi = Interp.Cost.phi;
    cm_jmp = Interp.Cost.jmp;
    cm_br = Interp.Cost.br;
    cm_ret = Interp.Cost.ret;
    cm_dup_check = Interp.Cost.dup_check;
    cm_value_check = Interp.Cost.check_kind;
    cm_shadow_slot = Interp.Cost.shadow_slot;
    cm_slack_gain = Interp.Cost.slack_gain;
    cm_slack_cost = Interp.Cost.slack_cost;
    cm_checkpoint_cycles = Interp.Cost.checkpoint ~words:256;
  }

(* Non-dominated subset, overhead ascending with strictly decreasing SDC;
   ties resolved toward the smaller plan then the label, so the frontier
   is deterministic. *)
let plan_size p =
  List.length p.op_plan.Plan.chains
  + List.length p.op_plan.Plan.terminators
  + List.length p.op_plan.Plan.checks

let pareto points =
  let sorted =
    List.sort
      (fun a b ->
        match Float.compare (overhead a) (overhead b) with
        | 0 -> (
          match Float.compare (sdc a) (sdc b) with
          | 0 -> compare (plan_size a, a.op_label) (plan_size b, b.op_label)
          | c -> c)
        | c -> c)
      points
  in
  let best = ref infinity in
  List.filter
    (fun p ->
      if sdc p < !best then begin
        best := sdc p;
        true
      end
      else false)
    sorted

(** Knee points of a frontier: the [n] interior points farthest from the
    chord between the frontier's endpoints, in axis-normalized space;
    frontiers with at most [n] points are returned whole. *)
let knee_points ?(n = 2) (front : point list) =
  let m = List.length front in
  if m <= n then front
  else begin
    let pts = Array.of_list front in
    let x i = overhead pts.(i) and y i = sdc pts.(i) in
    let xr = max 1e-12 (abs_float (x (m - 1) -. x 0)) in
    let yr = max 1e-12 (abs_float (y (m - 1) -. y 0)) in
    let nx i = (x i -. x 0) /. xr and ny i = (y i -. y 0) /. yr in
    (* Chord between normalized endpoints is (0,0)-(1,-1) up to signs;
       use the generic point-line distance to stay robust. *)
    let x1 = nx (m - 1) and y1 = ny (m - 1) in
    let norm = max 1e-12 (sqrt ((x1 *. x1) +. (y1 *. y1))) in
    let dist i = abs_float ((y1 *. nx i) -. (x1 *. ny i)) /. norm in
    let interior = List.init (m - 2) (fun i -> i + 1) in
    let ranked =
      List.sort
        (fun a b ->
          match Float.compare (dist b) (dist a) with
          | 0 -> compare a b
          | c -> c)
        interior
    in
    let chosen = List.filteri (fun i _ -> i < n) ranked |> List.sort compare in
    List.map (fun i -> pts.(i)) chosen
  end

(* Tables keyed by a normalized plan's content: two normalized plans are
   the same plan exactly when they are structurally equal. *)
module Plans = Hashtbl.Make (struct
  type t = Plan.t
  let equal = ( = )
  let hash = Hashtbl.hash_param 1000 1000
end)

(** Search the plan space of [prog] under an overhead [budget] (a
    fraction; [None] = unbounded).  [profile] enables check placement and
    the Opt-2 chain flavors; [exec_counts] weighs blocks by profiled
    execution counts ({!Interp.Profile.func_block_counts}).  [checkpoint]
    stamps every searched plan with a checkpoint interval.  [beam] bounds
    the states kept per beam round. *)
let search ?(beam = 4) ?budget ?exec_counts ?profile ?(checkpoint = 0)
    (prog : Ir.Prog.t) =
  let budget = match budget with Some b -> b | None -> infinity in
  (* The program stage runs once; each plan is priced by the closure. *)
  let price =
    Predict.estimate ?exec_counts ?profile ~cost:(cost_model ()) prog
  in
  let explored = ref 0 in
  let archive : point Plans.t = Plans.create 64 in
  let consider ?(fixed = false) ?label plan =
    let plan = Plan.normalize { plan with Plan.checkpoint } in
    match Plans.find_opt archive plan with
    | Some p -> p
    | None ->
      incr explored;
      let est = price plan in
      let label =
        match label with Some l -> l | None -> "plan:" ^ Plan.slug plan
      in
      let p = { op_plan = plan; op_label = label; op_fixed = fixed; op_est = est } in
      Plans.replace archive plan p;
      p
  in
  let chains = Plan.candidate_chains prog in
  let sites, opt2 =
    match profile with
    | Some profile ->
      (Plan.candidate_sites ~profile prog, Plan.chain_terminators ~profile prog)
    | None -> ([], [])
  in
  let opt2_sites c = Option.value ~default:[] (List.assoc_opt c opt2) in
  (* Fixed-pipeline equivalents, priced through the same predictor. *)
  let p_orig = consider ~fixed:true ~label:"original" Plan.empty in
  let p_dup = consider ~fixed:true ~label:"dup_only" (Plan.all_chains prog) in
  let p_dupval =
    Option.map
      (fun profile ->
        consider ~fixed:true ~label:"dup_valchk" (Plan.paper ~profile prog))
      profile
  in
  (* Beam over chain subsets: each round adds one chain to each kept
     state, in plain and Opt-2-terminated flavors, ranked by marginal
     SDC reduction per marginal cost. *)
  let beam_states = ref [ p_orig ] in
  let continue_ = ref true in
  let rounds = ref 0 in
  while !continue_ && !rounds <= List.length chains do
    incr rounds;
    let expansions =
      List.concat_map
        (fun (st : point) ->
          List.concat_map
            (fun (c : Plan.chain) ->
              if Plan.mem_chain st.op_plan ~phi_uid:c.Plan.ch_phi_uid then []
              else begin
                let base = Plan.add_chain st.op_plan c in
                let flavors =
                  match opt2_sites c with
                  | [] -> [ consider base ]
                  | ts ->
                    [ consider base;
                      consider (List.fold_left Plan.add_terminator base ts) ]
                in
                List.filter (fun p -> overhead p <= budget) flavors
                |> List.map (fun p -> (st, p))
              end)
            chains)
        !beam_states
    in
    if expansions = [] then continue_ := false
    else begin
      let score (parent, child) =
        (sdc parent -. sdc child)
        /. max 1e-9 (overhead child -. overhead parent)
      in
      let sorted =
        List.sort
          (fun a b ->
            match Float.compare (score b) (score a) with
            | 0 -> compare (snd a).op_label (snd b).op_label
            | c -> c)
          expansions
      in
      let seen = Plans.create 16 in
      let kept = ref [] in
      List.iter
        (fun (_, child) ->
          if (not (Plans.mem seen child.op_plan)) && List.length !kept < beam
          then begin
            Plans.replace seen child.op_plan ();
            kept := child :: !kept
          end)
        sorted;
      beam_states := List.rev !kept
    end
  done;
  (* Greedy stand-alone check placement on the surviving frontier. *)
  if sites <> [] then begin
    let eligible =
      Plans.fold (fun _ p acc -> p :: acc) archive []
      |> List.filter (fun p -> overhead p <= budget)
    in
    List.iter
      (fun (p0 : point) ->
        let cur = ref p0 in
        let improved = ref true in
        while !improved do
          improved := false;
          let best = ref None in
          List.iter
            (fun (s : Plan.site) ->
              if
                not
                  (Plan.mem_check !cur.op_plan s.Plan.vs_uid
                  || Plan.mem_terminator !cur.op_plan s.Plan.vs_uid)
              then begin
                let cand = consider (Plan.add_check !cur.op_plan s) in
                if overhead cand <= budget && sdc cand < sdc !cur -. 1e-12
                then begin
                  let sc =
                    (sdc !cur -. sdc cand)
                    /. max 1e-9 (overhead cand -. overhead !cur)
                  in
                  match !best with
                  | None -> best := Some (sc, cand)
                  | Some (bs, bc) ->
                    if sc > bs || (sc = bs && cand.op_label < bc.op_label)
                    then best := Some (sc, cand)
                end
              end)
            sites;
          match !best with
          | Some (_, c) ->
            cur := c;
            improved := true
          | None -> ()
        done)
      (pareto eligible)
  end;
  let all_points = Plans.fold (fun _ p acc -> p :: acc) archive [] in
  let front =
    pareto (List.filter (fun p -> overhead p <= budget) all_points)
  in
  let fixed =
    [ p_orig; p_dup ] @ (match p_dupval with Some p -> [ p ] | None -> [])
  in
  let dominated_fixed =
    List.filter_map
      (fun fp ->
        List.find_opt
          (fun q ->
            strictly_dominates q fp
            && not (Plan.equal q.op_plan fp.op_plan))
          front
        |> Option.map (fun q -> (fp.op_label, q.op_label)))
      fixed
  in
  {
    fr_points = front;
    fr_fixed = fixed;
    fr_dominated_fixed = dominated_fixed;
    fr_explored = !explored;
    fr_budget = budget;
  }

(** {2 Injection validation of knee points (DETOx step 2)} *)

type validation = {
  vl_point : point;
  vl_trials : int;                       (** adaptive trials spent *)
  vl_measured_sdc : Obs.Stats.interval;  (** stratified SDC estimate *)
  vl_measured_overhead : float;          (** golden-cycle ratio − 1 *)
  vl_adaptive : Faults.Campaign.adaptive;
}

(** Run a targeted adaptive campaign (DESIGN.md §14) against each point's
    plan, executed on a fresh build of [w] with the test input.  [on_run] fires per point with
    the protected build and the raw campaign artifacts so callers can
    journal or warehouse them. *)
let validate ?(seed = 42) ?domains ?(ci = 0.03) ?max_trials ?on_run
    (w : Workloads.Workload.t) (points : point list) =
  let role = Workloads.Workload.Test in
  let baseline =
    let orig = Api.protect w Api.Original in
    Api.golden orig ~role
  in
  List.map
    (fun (pt : point) ->
      let p = Api.protect_plan ~lint:true w pt.op_plan in
      let ck = pt.op_plan.Plan.checkpoint in
      let cov = Analysis.Coverage.analyze p.Api.prog in
      let groups = Analysis.Strata.reg_groups p.Api.prog cov in
      let priors = Analysis.Strata.priors cov in
      let stats_out = ref None in
      let subj =
        Api.subject
          ~label:(Printf.sprintf "%s/%s/%s" w.Workloads.Workload.name
                    (Plan.slug pt.op_plan)
                    (Workloads.Workload.role_name role))
          p ~role
      in
      let summary, trials, ad =
        Faults.Campaign.run_adaptive ~seed ?domains ~checkpoint_interval:ck
          ~stats_out ?max_trials ~groups
          ~group_names:Analysis.Strata.group_names ~priors ~ci subj
      in
      (* The campaign's golden run is the plan's fault-free run at its
         checkpoint interval — the cycles the overhead is measured on. *)
      let g = summary.Faults.Campaign.golden_info in
      let measured_overhead =
        (float_of_int g.Faults.Campaign.cycles
        /. float_of_int baseline.Faults.Campaign.cycles)
        -. 1.0
      in
      let v =
        { vl_point = pt;
          vl_trials = ad.Faults.Campaign.ad_trials;
          vl_measured_sdc = ad.Faults.Campaign.ad_sdc;
          vl_measured_overhead = measured_overhead;
          vl_adaptive = ad }
      in
      (match on_run with
       | Some f -> f v p summary trials !stats_out ad ~golden:g
       | None -> ());
      v)
    points

(** Do predicted and measured SDC agree in rank order?  Concordant when no
    pair is strictly inverted, i.e. no pair where one point has the
    strictly lower prediction and the strictly higher measurement.  Ties
    on either axis are compatible with any order on the other. *)
let rank_order_agrees (vals : validation list) =
  let arr = Array.of_list vals in
  let ok = ref true in
  Array.iteri
    (fun i a ->
      Array.iteri
        (fun j b ->
          if i < j then begin
            let pa = sdc a.vl_point and pb = sdc b.vl_point in
            let ma = a.vl_measured_sdc.Obs.Stats.ci_estimate
            and mb = b.vl_measured_sdc.Obs.Stats.ci_estimate in
            if (pa < pb && ma > mb) || (pa > pb && ma < mb) then ok := false
          end)
        arr)
    arr;
  !ok

(** {2 JSON renderings (plan files, bench sections)} *)

let point_json (p : point) =
  Obs.Json.Obj
    [ ("label", Obs.Json.Str p.op_label);
      ("fixed", Obs.Json.Bool p.op_fixed);
      ("predicted_sdc", Obs.Json.Float (sdc p));
      ("predicted_overhead", Obs.Json.Float (overhead p));
      ("cloned_instrs", Obs.Json.Int p.op_est.Predict.pe_cloned_instrs);
      ("dup_checks", Obs.Json.Int p.op_est.Predict.pe_dup_checks);
      ("value_checks", Obs.Json.Int p.op_est.Predict.pe_value_checks);
      ("plan", Plan.to_json p.op_plan) ]

let frontier_json (fr : frontier) =
  Obs.Json.Obj
    [ ("budget",
       if Float.is_finite fr.fr_budget then Obs.Json.Float fr.fr_budget
       else Obs.Json.Null);
      ("explored", Obs.Json.Int fr.fr_explored);
      ("frontier", Obs.Json.List (List.map point_json fr.fr_points));
      ("fixed", Obs.Json.List (List.map point_json fr.fr_fixed));
      ("dominated_fixed",
       Obs.Json.List
         (List.map
            (fun (f, by) ->
              Obs.Json.Obj
                [ ("fixed", Obs.Json.Str f); ("by", Obs.Json.Str by) ])
            fr.fr_dominated_fixed)) ]
