type cost_model = {
  cm_instr : Ir.Instr.t -> int;
  cm_phi : int;
  cm_jmp : int;
  cm_br : int;
  cm_ret : int;
  cm_dup_check : int;
  cm_value_check : Ir.Instr.check_kind -> int;
  cm_shadow_slot : int;
  cm_slack_gain : int;
  cm_slack_cost : int;
  cm_checkpoint_cycles : int;
}

type estimate = {
  pe_sdc_fraction : float;
  pe_exposure_total : float;
  pe_exposure_unprotected : float;
  pe_baseline_cycles : float;
  pe_added_cycles : float;
  pe_overhead : float;
  pe_cloned_instrs : int;
  pe_cloned_phis : int;
  pe_dup_checks : int;
  pe_value_checks : int;
}

let term_cost cost (t : Ir.Instr.terminator) =
  match t with
  | Ir.Instr.Ret _ -> cost.cm_ret
  | Ir.Instr.Jmp _ -> cost.cm_jmp
  | Ir.Instr.Br _ -> cost.cm_br

(* What no plan changes, per function: the analyses the chain walk and
   the check sites read, the state variables, the block weights and the
   exposure rows. *)
type func_ctx = {
  ud : Usedef.t;
  cfg : Cfg.t;
  chains : (Ir.Instr.phi * (string * Ir.Instr.operand) list) list;
  weights : float array;
  exposure_rows : (Ir.Instr.reg * float) list;
}

(* Program stage: one pass per function; the priced baseline, the
   dynamic step count and the exposure total are plan-independent too. *)
let func_context ?exec_counts ~cost ~baseline ~steps ~exposure_total
    (f : Ir.Func.t) =
  let cfg = Cfg.of_func f in
  let n = Cfg.n_blocks cfg in
  let weights =
    match Option.bind exec_counts (fun g -> g f.Ir.Func.name) with
    | Some c when Array.length c = n -> Array.map float_of_int c
    | Some _ | None -> Array.make n 1.0
  in
  for i = 0 to n - 1 do
    let b = Cfg.block cfg i in
    (* Priced baseline and dynamic step count of the original. *)
    let body_cost =
      Array.fold_left (fun a ins -> a + cost.cm_instr ins) 0 b.Ir.Block.body
    in
    let phi_cost = cost.cm_phi * List.length b.Ir.Block.phis in
    baseline :=
      !baseline
      +. (weights.(i) *. float_of_int (body_cost + phi_cost + term_cost cost b.Ir.Block.term));
    steps :=
      !steps
      +. (weights.(i)
          *. float_of_int (Array.length b.Ir.Block.body + List.length b.Ir.Block.phis + 1))
  done;
  (* Exposure of original registers: Coverage's model. *)
  let exposure_rows = Coverage.exposure ~weights cfg in
  List.iter (fun (_, e) -> exposure_total := !exposure_total +. e) exposure_rows;
  { ud = Usedef.compute f; cfg; chains = Plan.func_chains f; weights;
    exposure_rows }

let estimate ?exec_counts ?profile ~cost (prog : Ir.Prog.t) =
  let profile = match profile with Some f -> f | None -> fun _ -> None in
  let baseline = ref 0.0 and steps = ref 0.0 and exposure_total = ref 0.0 in
  let funcs = ref [] in
  Ir.Prog.iter_funcs
    (fun f ->
      funcs :=
        func_context ?exec_counts ~cost ~baseline ~steps ~exposure_total f
        :: !funcs)
    prog;
  let funcs = List.rev !funcs in
  let baseline = !baseline and steps = !steps
  and exposure_total = !exposure_total in
  (* Plan stage: only what the plan decides.  Every table is local to
     one call, so no plan sees another's state. *)
  fun (plan : Plan.t) ->
  let plan = Plan.normalize plan in
  let exposure_unprot = ref 0.0 and added = ref 0.0 in
  let cloned_instrs = ref 0 and cloned_phis = ref 0 in
  let dup_checks = ref 0 and value_checks = ref 0 in
  List.iter
    (fun { ud; cfg; chains; weights; exposure_rows } ->
      let n = Cfg.n_blocks cfg in
      let block_index (b : Ir.Block.t) = Cfg.index cfg b.Ir.Block.label in
      (* Shadow ops per block, for the slack approximation. *)
      let shadows_per_block = Array.make n 0 in
      let value_checked : (Ir.Instr.reg, unit) Hashtbl.t = Hashtbl.create 16 in
      let on_clone_instr b (_ : Ir.Instr.t) =
        incr cloned_instrs;
        let i = block_index b in
        shadows_per_block.(i) <- shadows_per_block.(i) + 1;
        ignore
      in
      let on_clone_phi b (_ : Ir.Instr.phi) =
        incr cloned_phis;
        added := !added +. (weights.(block_index b) *. float_of_int cost.cm_phi)
      in
      let on_opt2_check b (ins : Ir.Instr.t) =
        match (profile ins.uid, ins.dest) with
        | Some ck, Some d ->
          incr value_checks;
          added :=
            !added
            +. (weights.(block_index b) *. float_of_int (cost.cm_value_check ck));
          Hashtbl.replace value_checked d ()
        | _ -> ()
      in
      (* Plan's chain walk: a planned terminator with a check shape becomes
         a mid-chain value check and stops the walk, like the transform's
         Opt-2 hook. *)
      let covered : (Ir.Instr.reg, bool) Hashtbl.t = Hashtbl.create 64 in
      let shadowed =
        Plan.chain_walk ud ~memo:covered
          ~stop:(fun (ins : Ir.Instr.t) ->
            Plan.mem_terminator plan ins.uid
            && ins.dest <> None
            && profile ins.uid <> None)
          ~on_phi:on_clone_phi ~on_clone:on_clone_instr ~on_stop:on_opt2_check
      in
      (* Walk every planned chain from its back-edge operands, placing a
         latch dup-check whenever the shadow is non-trivial, as
         [Transform.Duplicate] does. *)
      List.iter
        (fun ((phi : Ir.Instr.phi), back_edges) ->
          if Plan.mem_chain plan ~phi_uid:phi.Ir.Instr.phi_uid then
            List.iter
              (fun (latch, op) ->
                match op with
                | Ir.Instr.Reg r ->
                  if shadowed r then (
                    incr dup_checks;
                    added :=
                      !added
                      +. (weights.(Cfg.index cfg latch)
                          *. float_of_int cost.cm_dup_check))
                | Ir.Instr.Imm _ -> ())
              back_edges)
        chains;
      (* Stand-alone planned check sites.  A site the chain walk already
         turned into an Opt-2 check has its destination in
         [value_checked] and keeps its one check, as in the transform. *)
      for i = 0 to n - 1 do
        let b = Cfg.block cfg i in
        Array.iter
          (fun (ins : Ir.Instr.t) ->
            if
              Plan.mem_check plan ins.Ir.Instr.uid
              && ins.Ir.Instr.origin = Ir.Instr.From_source
              && Ir.Instr.produces_value ins
            then
              match (profile ins.Ir.Instr.uid, ins.Ir.Instr.dest) with
              | Some ck, Some d when not (Hashtbl.mem value_checked d) ->
                incr value_checks;
                added :=
                  !added +. (weights.(i) *. float_of_int (cost.cm_value_check ck));
                Hashtbl.replace value_checked d ()
              | _ -> ())
          b.Ir.Block.body
      done;
      (* Slack-discounted shadow cost: each source instruction earns
         cm_slack_gain credits and a free shadow costs cm_slack_cost, so
         per block roughly n_src·gain/cost shadows ride for free. *)
      for i = 0 to n - 1 do
        let n_sh = float_of_int shadows_per_block.(i) in
        if n_sh > 0.0 then begin
          let n_src = float_of_int (Array.length (Cfg.block cfg i).Ir.Block.body) in
          let free =
            if cost.cm_slack_cost <= 0 then n_sh
            else
              min n_sh
                (n_src *. float_of_int cost.cm_slack_gain
                 /. float_of_int cost.cm_slack_cost)
          in
          added :=
            !added +. (weights.(i) *. (n_sh -. free) *. float_of_int cost.cm_shadow_slot)
        end
      done;
      (* Exposure of the original registers no check covers. *)
      List.iter
        (fun (r, e) ->
          let protected_ =
            (match Hashtbl.find_opt covered r with Some b -> b | None -> false)
            || Hashtbl.mem value_checked r
          in
          if not protected_ then exposure_unprot := !exposure_unprot +. e)
        exposure_rows)
    funcs;
  (* Checkpoint overhead: one lump cost every K dynamic steps. *)
  (if plan.Plan.checkpoint > 0 then
     let k = float_of_int plan.Plan.checkpoint in
     added := !added +. (steps /. k *. float_of_int cost.cm_checkpoint_cycles));
  {
    pe_sdc_fraction =
      (if exposure_total > 0.0 then !exposure_unprot /. exposure_total else 0.0);
    pe_exposure_total = exposure_total;
    pe_exposure_unprotected = !exposure_unprot;
    pe_baseline_cycles = baseline;
    pe_added_cycles = !added;
    pe_overhead = (if baseline > 0.0 then !added /. baseline else 0.0);
    pe_cloned_instrs = !cloned_instrs;
    pe_cloned_phis = !cloned_phis;
    pe_dup_checks = !dup_checks;
    pe_value_checks = !value_checks;
  }
