open Ir

(** Selective duplication of state-variable producer chains (paper §III-B).

    For every state variable (loop-header phi, {!Analysis.Plan.func_chains})
    the pass clones the producer chain feeding its back edges — over
    use-def edges by {!Analysis.Plan.chain_walk}, cloning intermediate phis
    as needed — and inserts a [Dup_check] at each back edge comparing the
    original against the shadow value.  Chains terminate at loads, calls,
    allocations and parameters (cloning loads would double memory traffic;
    a corrupted address tends to trap instead, paper Fig. 7).

    With a value profile supplied, Optimization 2 applies: when the chain
    walk reaches an instruction amenable to an expected-value check, the
    clone is replaced by a [Value_check] on the original value and the walk
    stops there (paper Fig. 9). *)

type stats = {
  mutable state_vars : int;
  mutable cloned_instrs : int;
  mutable cloned_phis : int;
  mutable dup_checks : int;
  mutable opt2_value_checks : int;
}

let empty_stats () =
  { state_vars = 0; cloned_instrs = 0; cloned_phis = 0; dup_checks = 0;
    opt2_value_checks = 0 }

let check_instr prog kind =
  { Instr.uid = Prog.fresh_uid prog; dest = None; kind;
    origin = Instr.Check_insertion }

(* What both duplicating passes (this one and [Full_dup]) build from
   [shadow], their table from original registers to clones: operand
   shadows, and clone records that mint the clone's uid. *)
let shadow_op shadow (op : Instr.operand) =
  match op with
  | Reg r -> (
    match Hashtbl.find_opt shadow r with Some s -> Instr.Reg s | None -> op)
  | Imm _ -> op

let shadow_incoming shadow (phi : Instr.phi) =
  List.map (fun (lbl, op) -> (lbl, shadow_op shadow op)) phi.incoming

let clone_phi prog (phi : Instr.phi) ~dest ~incoming =
  { Instr.phi_uid = Prog.fresh_uid prog; phi_dest = dest; incoming;
    phi_origin = Instr.Duplicated phi.phi_uid }

let clone_instr prog shadow (ins : Instr.t) ~dest =
  { (Instr.map_operands (shadow_op shadow) ins) with
    uid = Prog.fresh_uid prog; dest = Some dest;
    origin = Instr.Duplicated ins.uid }

(** Run selective duplication over the whole program.  [profile], when
    given, enables Optimization 2.  [select], when given, restricts the
    pass to the state-variable phis it accepts — protection plans use it
    to duplicate an arbitrary chain subset.  Returns statistics and the
    set of uids that received a value check during duplication.

    Registers and uids are minted in the walk's order: a phi clone's
    register and uid before its operands are walked, an instruction
    clone's register before and its uid after.  The back-edge walks clone
    the producer web on demand, so a header phi is cloned only when a
    chain reaches it; cloning it eagerly would strand an orphan shadow
    (duplication cost, no detection) whenever every back-edge chain
    terminates at once, e.g. on a load. *)
let run ?profile ?select (prog : Prog.t) =
  let stats = empty_stats () in
  let opt2_checked = Hashtbl.create 16 in
  List.iter
    (fun (func : Func.t) ->
      let chains = Analysis.Plan.func_chains func in
      let chains =
        match select with
        | None -> chains
        | Some keep -> List.filter (fun (phi, _) -> keep phi) chains
      in
      if chains <> [] then begin
        let shadow = Hashtbl.create 64 in
        let phi_clones = ref [] in
        let on_phi (b : Block.t) (phi : Instr.phi) =
          let dest = Prog.fresh_reg prog in
          Hashtbl.replace shadow phi.phi_dest dest;
          let clone = clone_phi prog phi ~dest ~incoming:[] in
          b.phis <- b.phis @ [ clone ];
          phi_clones := (phi, clone) :: !phi_clones;
          stats.cloned_phis <- stats.cloned_phis + 1
        in
        let on_clone (b : Block.t) (ins : Instr.t) =
          let dest = Prog.fresh_reg prog in
          Option.iter (fun r -> Hashtbl.replace shadow r dest) ins.dest;
          fun () ->
            Block.insert_after b ~after_uid:ins.uid
              [ clone_instr prog shadow ins ~dest ];
            stats.cloned_instrs <- stats.cloned_instrs + 1
        in
        (* Optimization 2: the walk stops at a check-shaped instruction,
           which gets a value check on its original value. *)
        let check_kind (ins : Instr.t) =
          match profile with Some p when ins.dest <> None -> p ins.uid | _ -> None
        in
        let on_stop (b : Block.t) (ins : Instr.t) =
          match (check_kind ins, ins.dest) with
          | Some ck, Some dest ->
            Block.insert_after b ~after_uid:ins.uid
              [ check_instr prog (Instr.Value_check (ck, Instr.Reg dest)) ];
            Hashtbl.replace opt2_checked ins.uid ();
            stats.opt2_value_checks <- stats.opt2_value_checks + 1
          | _ -> ()
        in
        let walk =
          Analysis.Plan.chain_walk (Analysis.Usedef.compute func)
            ~memo:(Hashtbl.create 64)
            ~stop:(fun ins -> check_kind ins <> None)
            ~on_phi ~on_clone ~on_stop
        in
        (* Compare original vs shadow where each back edge leaves the
           body. *)
        List.iter
          (fun (_, back_edges) ->
            stats.state_vars <- stats.state_vars + 1;
            List.iter
              (fun (latch, op) ->
                match op with
                | Instr.Reg r when walk r ->
                  Block.append (Func.find_block func latch)
                    [ check_instr prog (Instr.Dup_check (op, shadow_op shadow op)) ];
                  stats.dup_checks <- stats.dup_checks + 1
                | Instr.Reg _ | Instr.Imm _ -> ())
              back_edges)
          chains;
        (* Every operand's shadow is settled once the walks are done. *)
        List.iter
          (fun (phi, (clone : Instr.phi)) ->
            clone.incoming <- shadow_incoming shadow phi)
          !phi_clones
      end)
    prog.funcs;
  (stats, opt2_checked)
