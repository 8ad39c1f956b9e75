(** Backward liveness analysis over the CFG.

    Computes, per block, the registers live on entry and on exit.  Phi
    semantics follow SSA convention: a phi's incoming operand is live at
    the end of the corresponding predecessor (not at the head of the phi's
    own block), and phi destinations are defined at block entry.

    Used to reason about how many live values a register-file fault can
    actually hit, and by tests that sanity-check the fault model. *)

type t = {
  cfg : Cfg.t;
  live_in : (Ir.Instr.reg, unit) Hashtbl.t array;
  live_out : (Ir.Instr.reg, unit) Hashtbl.t array;
}

let regs_of_operand acc (op : Ir.Instr.operand) =
  match op with
  | Ir.Instr.Reg r -> r :: acc
  | Ir.Instr.Imm _ -> acc

(* use/def summary of one block, phi uses excluded (they belong to the
   predecessor edge). *)
let block_use_def (b : Ir.Block.t) =
  let uses = Hashtbl.create 16 in
  let defs = Hashtbl.create 16 in
  let use r = if not (Hashtbl.mem defs r) then Hashtbl.replace uses r () in
  (* Phi destinations are defined at block entry. *)
  List.iter
    (fun (phi : Ir.Instr.phi) -> Hashtbl.replace defs phi.phi_dest ())
    b.phis;
  Array.iter
    (fun (ins : Ir.Instr.t) ->
      List.iter use (Ir.Instr.uses ins);
      match ins.dest with
      | Some r -> Hashtbl.replace defs r ()
      | None -> ())
    b.body;
  (match b.term with
   | Ir.Instr.Ret (Some op) | Ir.Instr.Br (op, _, _) ->
     List.iter use (regs_of_operand [] op)
   | Ir.Instr.Ret None | Ir.Instr.Jmp _ -> ());
  (uses, defs)

(* Registers a predecessor must keep live for [succ]'s phis on the edge
   from [pred_label].  Several phis may read the same predecessor register;
   dedupe so callers that count edge uses see each register once. *)
let phi_edge_uses (succ : Ir.Block.t) ~pred_label =
  List.filter_map
    (fun (phi : Ir.Instr.phi) ->
      match List.assoc_opt pred_label phi.incoming with
      | Some (Ir.Instr.Reg r) -> Some r
      | Some (Ir.Instr.Imm _) | None -> None)
    succ.phis
  |> List.sort_uniq compare

let compute (cfg : Cfg.t) =
  let n = Cfg.n_blocks cfg in
  let live_in = Array.init n (fun _ -> Hashtbl.create 16) in
  let live_out = Array.init n (fun _ -> Hashtbl.create 16) in
  let use_def = Array.init n (fun i -> block_use_def (Cfg.block cfg i)) in
  let changed = ref true in
  while !changed do
    changed := false;
    for i = n - 1 downto 0 do
      let b = Cfg.block cfg i in
      (* live_out = union over successors of their live_in plus the
         phi-edge uses owed to them.  A successor's live_in never holds its
         own phi destinations: [block_use_def] defines them before any use. *)
      let out = live_out.(i) in
      List.iter
        (fun s ->
          let succ_block = Cfg.block cfg s in
          Hashtbl.iter
            (fun r () ->
              if not (Hashtbl.mem out r) then begin
                Hashtbl.replace out r ();
                changed := true
              end)
            live_in.(s);
          List.iter
            (fun r ->
              if not (Hashtbl.mem out r) then begin
                Hashtbl.replace out r ();
                changed := true
              end)
            (phi_edge_uses succ_block ~pred_label:b.label))
        cfg.succ.(i);
      (* live_in = uses + (live_out - defs) *)
      let uses, defs = use_def.(i) in
      let inn = live_in.(i) in
      Hashtbl.iter
        (fun r () ->
          if not (Hashtbl.mem inn r) then begin
            Hashtbl.replace inn r ();
            changed := true
          end)
        uses;
      Hashtbl.iter
        (fun r () ->
          if (not (Hashtbl.mem defs r)) && not (Hashtbl.mem inn r) then begin
            Hashtbl.replace inn r ();
            changed := true
          end)
        out
    done
  done;
  { cfg; live_in; live_out }

let live_in t label =
  let i = Cfg.index t.cfg label in
  Hashtbl.fold (fun r () acc -> r :: acc) t.live_in.(i) [] |> List.sort compare

let live_out t label =
  let i = Cfg.index t.cfg label in
  Hashtbl.fold (fun r () acc -> r :: acc) t.live_out.(i) [] |> List.sort compare
