open Ir

(** Full-duplication baseline (SWIFT-style, paper §V and [9]): every
    arithmetic instruction and phi is cloned into a shadow computation;
    loads, stores, calls and allocations are not duplicated.  Shadow values
    are compared against the originals at the program's observable points:
    store operands, conditional-branch operands and return values.

    This is the "maximum amount of duplication possible without duplicating
    loads/stores" against which the paper's 57 % overhead is measured. *)

type stats = {
  mutable cloned_instrs : int;
  mutable cloned_phis : int;
  mutable dup_checks : int;
}

let clonable (ins : Instr.t) =
  match ins.kind with
  | Binop _ | Unop _ | Icmp _ | Fcmp _ | Select _ | Const _ -> true
  | Load _ | Store _ | Alloc _ | Call _ | Dup_check _ | Value_check _ -> false

let run_func prog (func : Func.t) ~stats =
  let shadow = Hashtbl.create 128 in
  (* Pass 1: pre-register clone registers for every clonable def and every
     phi, so that forward references through back edges resolve. *)
  let phi_clones = ref [] in
  Func.iter_blocks
    (fun b ->
      List.iter
        (fun (phi : Instr.phi) ->
          if phi.phi_origin = Instr.From_source then begin
            let dest = Prog.fresh_reg prog in
            Hashtbl.replace shadow phi.phi_dest dest;
            phi_clones := (b, phi, dest) :: !phi_clones
          end)
        b.phis;
      Array.iter
        (fun (ins : Instr.t) ->
          if clonable ins then
            match ins.dest with
            | Some r -> Hashtbl.replace shadow r (Prog.fresh_reg prog)
            | None -> ())
        b.body)
    func;
  (* Pass 2: materialize phi clones. *)
  List.iter
    (fun (b, (phi : Instr.phi), dest) ->
      let clone =
        Duplicate.clone_phi prog phi ~dest
          ~incoming:(Duplicate.shadow_incoming shadow phi)
      in
      b.Block.phis <- b.Block.phis @ [ clone ];
      stats.cloned_phis <- stats.cloned_phis + 1)
    (List.rev !phi_clones);
  (* Pass 3: materialize instruction clones and insert checks. *)
  let mk_check a =
    match a, Duplicate.shadow_op shadow a with
    | Instr.Reg _, s when s <> a ->
      Some (Duplicate.check_instr prog (Instr.Dup_check (a, s)))
    | (Instr.Reg _ | Instr.Imm _), _ -> None
  in
  Func.iter_blocks
    (fun b ->
      (* Work over a snapshot: we mutate the block as we go. *)
      let snapshot = Array.copy b.body in
      Array.iter
        (fun (ins : Instr.t) ->
          if clonable ins then begin
            match ins.dest with
            | None -> ()
            | Some r ->
              Block.insert_after b ~after_uid:ins.uid
                [ Duplicate.clone_instr prog shadow ins
                    ~dest:(Hashtbl.find shadow r) ];
              stats.cloned_instrs <- stats.cloned_instrs + 1
          end
          else begin
            (* Synchronisation points: compare shadows before the original
               value escapes to memory. *)
            match ins.kind with
            | Instr.Store (addr, v) ->
              let checks = List.filter_map mk_check [ addr; v ] in
              if checks <> [] then begin
                Block.insert_before b ~before_uid:ins.uid checks;
                stats.dup_checks <- stats.dup_checks + List.length checks
              end
            | Instr.Call (_, args) ->
              let checks = List.filter_map mk_check args in
              if checks <> [] then begin
                Block.insert_before b ~before_uid:ins.uid checks;
                stats.dup_checks <- stats.dup_checks + List.length checks
              end
            | Instr.Binop _ | Instr.Unop _ | Instr.Icmp _ | Instr.Fcmp _
            | Instr.Select _ | Instr.Const _ | Instr.Load _ | Instr.Alloc _
            | Instr.Dup_check _ | Instr.Value_check _ -> ()
          end)
        snapshot;
      (* Checks guarding control flow and returns. *)
      let term_checks =
        match b.term with
        | Instr.Br (c, _, _) -> List.filter_map mk_check [ c ]
        | Instr.Ret (Some v) -> List.filter_map mk_check [ v ]
        | Instr.Ret None | Instr.Jmp _ -> []
      in
      if term_checks <> [] then begin
        Block.append b term_checks;
        stats.dup_checks <- stats.dup_checks + List.length term_checks
      end)
    func

(** Apply full duplication to every function. *)
let run (prog : Prog.t) =
  let stats = { cloned_instrs = 0; cloned_phis = 0; dup_checks = 0 } in
  List.iter (fun func -> run_func prog func ~stats) prog.funcs;
  stats
