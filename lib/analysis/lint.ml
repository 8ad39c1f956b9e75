(** Transform-invariant lint; see the interface for the rule catalogue. *)

type rule =
  | Reachability
  | Dominance
  | Separation
  | Chain_coverage
  | Check_shape

type expectation = Any | Selective | Full | Plan of Plan.t

type issue = {
  rule : rule;
  func : string;
  block : string;
  message : string;
}

exception Error of issue list

let rule_name = function
  | Reachability -> "reachability"
  | Dominance -> "dominance"
  | Separation -> "separation"
  | Chain_coverage -> "chain-coverage"
  | Check_shape -> "check-shape"

let pp_issue ppf i =
  Format.fprintf ppf "[%s] %s/%s: %s" (rule_name i.rule) i.func i.block
    i.message

(* Where a register is defined, in coordinates that make dominance of a use
   decidable: parameters dominate everything, phis define at block entry,
   body instructions at their index. *)
type def_pos =
  | Dparam
  | Dphi of int          (* block index *)
  | Dbody of int * int   (* block index, body index *)

let check_kind_equal (a : Ir.Instr.check_kind) (b : Ir.Instr.check_kind) =
  match a, b with
  | Ir.Instr.Single x, Ir.Instr.Single y -> Ir.Value.equal x y
  | Ir.Instr.Double (x1, x2), Ir.Instr.Double (y1, y2) ->
    Ir.Value.equal x1 y1 && Ir.Value.equal x2 y2
  | Ir.Instr.Range (x1, x2), Ir.Instr.Range (y1, y2) ->
    Ir.Value.equal x1 y1 && Ir.Value.equal x2 y2
  | (Ir.Instr.Single _ | Ir.Instr.Double _ | Ir.Instr.Range _), _ -> false

let is_duplicated = function
  | Ir.Instr.Duplicated _ -> true
  | Ir.Instr.From_source | Ir.Instr.Check_insertion -> false

let regs_of_operands ops =
  List.filter_map
    (function Ir.Instr.Reg r -> Some r | Ir.Instr.Imm _ -> None)
    ops

let check_func ~expect ~profile (f : Ir.Func.t) ~emit =
  let cfg = Cfg.of_func f in
  let dom = Dom.compute cfg in
  let reachable = Cfg.reachable cfg in
  let n = Cfg.n_blocks cfg in
  let issue ~rule ~block fmt =
    Format.kasprintf
      (fun message -> emit { rule; func = f.name; block; message })
      fmt
  in
  (* ----- Reachability ----- *)
  for i = 0 to n - 1 do
    if not reachable.(i) then
      issue ~rule:Reachability ~block:(Cfg.block cfg i).Ir.Block.label
        "block unreachable from the entry"
  done;
  (* ----- Definition sites ----- *)
  let defs : (Ir.Instr.reg, def_pos) Hashtbl.t = Hashtbl.create 64 in
  (* reg -> uid of the defining instruction or phi *)
  let def_uid : (Ir.Instr.reg, int) Hashtbl.t = Hashtbl.create 64 in
  (* uid of an original -> dest register of its [Duplicated] clone *)
  let clone_of_uid : (int, Ir.Instr.reg) Hashtbl.t = Hashtbl.create 32 in
  (* registers defined by [Duplicated] instructions or phis *)
  let shadow : (Ir.Instr.reg, unit) Hashtbl.t = Hashtbl.create 32 in
  List.iter (fun r -> Hashtbl.replace defs r Dparam) f.params;
  for i = 0 to n - 1 do
    let b = Cfg.block cfg i in
    List.iter
      (fun (phi : Ir.Instr.phi) ->
        Hashtbl.replace defs phi.phi_dest (Dphi i);
        Hashtbl.replace def_uid phi.phi_dest phi.phi_uid;
        match phi.phi_origin with
        | Ir.Instr.Duplicated u ->
          Hashtbl.replace shadow phi.phi_dest ();
          Hashtbl.replace clone_of_uid u phi.phi_dest
        | Ir.Instr.From_source | Ir.Instr.Check_insertion -> ())
      b.phis;
    Array.iteri
      (fun j (ins : Ir.Instr.t) ->
        match ins.dest with
        | None -> ()
        | Some r ->
          Hashtbl.replace defs r (Dbody (i, j));
          Hashtbl.replace def_uid r ins.uid;
          (match ins.origin with
           | Ir.Instr.Duplicated u ->
             Hashtbl.replace shadow r ();
             Hashtbl.replace clone_of_uid u r
           | Ir.Instr.From_source | Ir.Instr.Check_insertion -> ()))
      b.body
  done;
  (* The shadow of an original register, reconstructed from provenance:
     the dest of the clone of its defining instruction, if one exists. *)
  let shadow_of r =
    match Hashtbl.find_opt def_uid r with
    | None -> None
    | Some u -> Hashtbl.find_opt clone_of_uid u
  in
  (* ----- Dominance: every use dominated by its def ----- *)
  (* Uses in unreachable blocks are skipped: dominance is undefined there
     and the Reachability issue already covers the block. *)
  let dominated_in_body ~ublock ~upos r =
    match Hashtbl.find_opt defs r with
    | None -> true   (* undefined register: the structural verifier's job *)
    | Some Dparam -> true
    | Some (Dphi db) -> db = ublock || Dom.dominates dom db ublock
    | Some (Dbody (db, dj)) ->
      if db = ublock then dj < upos else Dom.dominates dom db ublock
  in
  let available_at_exit ~pblock r =
    match Hashtbl.find_opt defs r with
    | None -> true
    | Some Dparam -> true
    | Some (Dphi db) | Some (Dbody (db, _)) ->
      db = pblock || Dom.dominates dom db pblock
  in
  for i = 0 to n - 1 do
    if reachable.(i) then begin
      let b = Cfg.block cfg i in
      let block = b.Ir.Block.label in
      List.iter
        (fun (phi : Ir.Instr.phi) ->
          List.iter
            (fun (pred_lbl, op) ->
              match op with
              | Ir.Instr.Imm _ -> ()
              | Ir.Instr.Reg r ->
                (match Hashtbl.find_opt cfg.index_of pred_lbl with
                 | None -> ()   (* unknown predecessor: verifier's job *)
                 | Some p ->
                   if reachable.(p) && not (available_at_exit ~pblock:p r)
                   then
                     issue ~rule:Dominance ~block
                       "phi %%r%d incoming %%r%d from %s is not dominated \
                        by its definition"
                       phi.phi_dest r pred_lbl))
            phi.incoming)
        b.phis;
      Array.iteri
        (fun j (ins : Ir.Instr.t) ->
          List.iter
            (fun r ->
              if not (dominated_in_body ~ublock:i ~upos:j r) then
                issue ~rule:Dominance ~block
                  "use of %%r%d in #%d is not dominated by its definition" r
                  ins.uid)
            (Ir.Instr.uses ins))
        b.body;
      List.iter
        (fun r ->
          if not (dominated_in_body ~ublock:i ~upos:max_int r) then
            issue ~rule:Dominance ~block
              "terminator use of %%r%d is not dominated by its definition" r)
        (regs_of_operands
           (match b.term with
            | Ir.Instr.Ret (Some op) | Ir.Instr.Br (op, _, _) -> [ op ]
            | Ir.Instr.Ret None | Ir.Instr.Jmp _ -> []))
    end
  done;
  (* ----- Separation: shadows never flow back into the original sphere ----- *)
  for i = 0 to n - 1 do
    let b = Cfg.block cfg i in
    let block = b.Ir.Block.label in
    List.iter
      (fun (phi : Ir.Instr.phi) ->
        if not (is_duplicated phi.phi_origin) then
          List.iter
            (fun (_, op) ->
              match op with
              | Ir.Instr.Reg r when Hashtbl.mem shadow r ->
                issue ~rule:Separation ~block
                  "original phi %%r%d reads shadow register %%r%d"
                  phi.phi_dest r
              | Ir.Instr.Reg _ | Ir.Instr.Imm _ -> ())
            phi.incoming)
      b.phis;
    Array.iter
      (fun (ins : Ir.Instr.t) ->
        let shadow_ok =
          is_duplicated ins.origin
          || (match ins.kind with Ir.Instr.Dup_check _ -> true | _ -> false)
        in
        if not shadow_ok then
          List.iter
            (fun r ->
              if Hashtbl.mem shadow r then
                issue ~rule:Separation ~block
                  "%s #%d reads shadow register %%r%d"
                  (match ins.kind with
                   | Ir.Instr.Value_check _ -> "value check"
                   | _ -> "original instruction")
                  ins.uid r)
            (Ir.Instr.uses ins))
      b.body;
    List.iter
      (fun r ->
        if Hashtbl.mem shadow r then
          issue ~rule:Separation ~block
            "terminator reads shadow register %%r%d" r)
      (regs_of_operands
         (match b.term with
          | Ir.Instr.Ret (Some op) | Ir.Instr.Br (op, _, _) -> [ op ]
          | Ir.Instr.Ret None | Ir.Instr.Jmp _ -> []))
  done;
  (* ----- Chain coverage ----- *)
  (match expect with
   | Any -> ()
   | Selective | Plan _ ->
     (* Backward closure from every Dup_check over duplicate defs: a shadow
        register is covered when its value (or a value computed from it)
        is eventually compared against an original. *)
     let covered : (Ir.Instr.reg, unit) Hashtbl.t = Hashtbl.create 32 in
     Ir.Func.iter_blocks
       (fun b ->
         Array.iter
           (fun (ins : Ir.Instr.t) ->
             match ins.kind with
             | Ir.Instr.Dup_check (a, b') ->
               List.iter
                 (fun r -> Hashtbl.replace covered r ())
                 (regs_of_operands [ a; b' ])
             | _ -> ())
           b.body)
       f;
     let changed = ref true in
     while !changed do
       changed := false;
       Ir.Func.iter_blocks
         (fun b ->
           List.iter
             (fun (phi : Ir.Instr.phi) ->
               if is_duplicated phi.phi_origin
                  && Hashtbl.mem covered phi.phi_dest then
                 List.iter
                   (fun (_, op) ->
                     match op with
                     | Ir.Instr.Reg r when not (Hashtbl.mem covered r) ->
                       Hashtbl.replace covered r ();
                       changed := true
                     | Ir.Instr.Reg _ | Ir.Instr.Imm _ -> ())
                   phi.incoming)
             b.phis;
           Array.iter
             (fun (ins : Ir.Instr.t) ->
               match ins.dest with
               | Some d
                 when is_duplicated ins.origin && Hashtbl.mem covered d ->
                 List.iter
                   (fun r ->
                     if not (Hashtbl.mem covered r) then begin
                       Hashtbl.replace covered r ();
                       changed := true
                     end)
                   (Ir.Instr.uses ins)
               | Some _ | None -> ())
             b.body)
         f
     done;
     for i = 0 to n - 1 do
       let b = Cfg.block cfg i in
       let block = b.Ir.Block.label in
       List.iter
         (fun (phi : Ir.Instr.phi) ->
           if is_duplicated phi.phi_origin
              && not (Hashtbl.mem covered phi.phi_dest) then
             issue ~rule:Chain_coverage ~block
               "shadow phi %%r%d never reaches a dup_check" phi.phi_dest)
         b.phis;
       Array.iter
         (fun (ins : Ir.Instr.t) ->
           match ins.dest with
           | Some d when is_duplicated ins.origin
                         && not (Hashtbl.mem covered d) ->
             issue ~rule:Chain_coverage ~block
               "shadow register %%r%d (#%d) never reaches a dup_check" d
               ins.uid
           | Some _ | None -> ())
         b.body
     done;
     (* Every duplicated state variable is compared in the latch before the
        back edge, as [Transform.Duplicate.run] places it; derived here
        from [Loops] on its own, so the check stays independent of
        [Plan.func_chains].  Under a plan the rule inverts for chains the
        plan leaves out: a latch comparison there means the pipeline
        protected more than it was asked to. *)
     let plan = match expect with Plan p -> Some p | _ -> None in
     let loops = Loops.compute cfg in
     (* Back-edge registers of planned chains, so a shared back-edge
        register checked on behalf of a planned phi is not misread as an
        unplanned comparison for a second phi carrying the same value. *)
     let planned_latch_regs : (int * Ir.Instr.reg, unit) Hashtbl.t =
       Hashtbl.create 16
     in
     (match plan with
      | None -> ()
      | Some p ->
        List.iter
          (fun (l : Loops.loop) ->
            let header = Cfg.block cfg l.header in
            List.iter
              (fun (phi : Ir.Instr.phi) ->
                if Plan.mem_chain p ~phi_uid:phi.phi_uid then
                  List.iter
                    (fun latch ->
                      let lb = Cfg.block cfg latch in
                      match List.assoc_opt lb.Ir.Block.label phi.incoming with
                      | Some (Ir.Instr.Reg r) ->
                        Hashtbl.replace planned_latch_regs (latch, r) ()
                      | None | Some (Ir.Instr.Imm _) -> ())
                    l.latches)
              header.phis)
          loops.loops);
     List.iter
       (fun (l : Loops.loop) ->
         let header = Cfg.block cfg l.header in
         List.iter
           (fun (phi : Ir.Instr.phi) ->
             if not (is_duplicated phi.phi_origin) then begin
               let required =
                 match plan with
                 | None -> Hashtbl.mem clone_of_uid phi.phi_uid
                 | Some p -> Plan.mem_chain p ~phi_uid:phi.phi_uid
               in
               List.iter
                 (fun latch ->
                   let lb = Cfg.block cfg latch in
                   match List.assoc_opt lb.Ir.Block.label phi.incoming with
                   | None | Some (Ir.Instr.Imm _) -> ()
                   | Some (Ir.Instr.Reg r) ->
                     (match shadow_of r with
                      | None -> ()   (* chain terminated (or value-checked)
                                        before the back edge: no shadow to
                                        compare *)
                      | Some s ->
                        let has_check =
                          Array.exists
                            (fun (ins : Ir.Instr.t) ->
                              match ins.kind with
                              | Ir.Instr.Dup_check
                                  (Ir.Instr.Reg a, Ir.Instr.Reg b') ->
                                a = r && b' = s
                              | _ -> false)
                            lb.body
                        in
                        if required && not has_check then
                          issue ~rule:Chain_coverage
                            ~block:lb.Ir.Block.label
                            "back edge to %s carries state variable %%r%d \
                             (shadow %%r%d) without a dup_check in the latch"
                            header.Ir.Block.label r s;
                        if
                          (not required) && plan <> None && has_check
                          && not (Hashtbl.mem planned_latch_regs (latch, r))
                        then
                          issue ~rule:Chain_coverage
                            ~block:lb.Ir.Block.label
                            "latch dup_check compares %%r%d (shadow %%r%d) \
                             but its chain is not in the plan"
                            r s))
                 l.latches
             end)
           header.phis)
       loops.loops;
     (* Plan-only value-check placement: every check sits on a planned
        site, and every amenable planned stand-alone site has its check. *)
     (match plan with
      | None -> ()
      | Some p ->
        let dest_of_uid : (int, Ir.Instr.reg) Hashtbl.t = Hashtbl.create 64 in
        Hashtbl.iter (fun r u -> Hashtbl.replace dest_of_uid u r) def_uid;
        let value_checked : (Ir.Instr.reg, unit) Hashtbl.t =
          Hashtbl.create 16
        in
        for i = 0 to n - 1 do
          let b = Cfg.block cfg i in
          Array.iter
            (fun (ins : Ir.Instr.t) ->
              match ins.kind with
              | Ir.Instr.Value_check (_, Ir.Instr.Reg r) ->
                Hashtbl.replace value_checked r ();
                (match Hashtbl.find_opt def_uid r with
                 | None -> ()
                 | Some u ->
                   if not (Plan.mem_terminator p u || Plan.mem_check p u) then
                     issue ~rule:Chain_coverage ~block:b.Ir.Block.label
                       "value check #%d guards site #%d, which the plan does \
                        not name"
                       ins.uid u)
              | _ -> ())
            b.body
        done;
        match profile with
        | None -> ()
        | Some pf ->
          List.iter
            (fun (s : Plan.site) ->
              if s.Plan.vs_func = f.name && pf s.Plan.vs_uid <> None then
                match Hashtbl.find_opt dest_of_uid s.Plan.vs_uid with
                | None ->
                  issue ~rule:Chain_coverage ~block:f.entry
                    "plan names check site #%d but the function defines no \
                     such instruction"
                    s.Plan.vs_uid
                | Some d ->
                  if not (Hashtbl.mem value_checked d) then
                    issue ~rule:Chain_coverage ~block:f.entry
                      "plan names check site #%d but no value check guards \
                       %%r%d"
                      s.Plan.vs_uid d)
            p.Plan.checks)
   | Full ->
     (* Every escape of a value that has a shadow is guarded: stores and
        calls by a preceding in-block dup_check, branch/return operands by
        a dup_check anywhere in the block body — mirrors
        {!Transform.Full_dup}'s synchronisation points. *)
     for i = 0 to n - 1 do
       let b = Cfg.block cfg i in
       let block = b.Ir.Block.label in
       let checked_before j r =
         let found = ref false in
         Array.iteri
           (fun k (ins : Ir.Instr.t) ->
             if k < j then
               match ins.kind with
               | Ir.Instr.Dup_check (Ir.Instr.Reg a, _) when a = r ->
                 found := true
               | _ -> ())
           b.body;
         !found
       in
       Array.iteri
         (fun j (ins : Ir.Instr.t) ->
           let escape_operands =
             match ins.kind with
             | Ir.Instr.Store (a, v) -> [ a; v ]
             | Ir.Instr.Call (_, args) -> args
             | _ -> []
           in
           if ins.origin <> Ir.Instr.Check_insertion then
             List.iter
               (fun r ->
                 match shadow_of r with
                 | Some _ when not (checked_before j r) ->
                   issue ~rule:Chain_coverage ~block
                     "#%d lets %%r%d escape without a preceding dup_check"
                     ins.uid r
                 | Some _ | None -> ())
               (regs_of_operands escape_operands))
         b.body;
       List.iter
         (fun r ->
           match shadow_of r with
           | Some _ when not (checked_before (Array.length b.body) r) ->
             issue ~rule:Chain_coverage ~block
               "terminator lets %%r%d escape without a dup_check in the \
                block" r
           | Some _ | None -> ())
         (regs_of_operands
            (match b.term with
             | Ir.Instr.Ret (Some op) | Ir.Instr.Br (op, _, _) -> [ op ]
             | Ir.Instr.Ret None | Ir.Instr.Jmp _ -> []))
     done);
  (* ----- Check shape ----- *)
  for i = 0 to n - 1 do
    let b = Cfg.block cfg i in
    let block = b.Ir.Block.label in
    Array.iter
      (fun (ins : Ir.Instr.t) ->
        match ins.kind with
        | Ir.Instr.Value_check (ck, op) ->
          (match ck with
           | Ir.Instr.Single _ -> ()
           | Ir.Instr.Double (a, b') ->
             if Ir.Value.equal a b' then
               issue ~rule:Check_shape ~block
                 "value check #%d: double with two identical constants"
                 ins.uid
           | Ir.Instr.Range (lo, hi) ->
             if Ir.Value.is_int lo <> Ir.Value.is_int hi then
               issue ~rule:Check_shape ~block
                 "value check #%d: range mixes int and float bounds" ins.uid
             else if Ir.Value.compare lo hi > 0 then
               issue ~rule:Check_shape ~block
                 "value check #%d: empty range (lo > hi)" ins.uid);
          (match profile, op with
           | Some pf, Ir.Instr.Reg r ->
             (match Option.bind (Hashtbl.find_opt def_uid r) pf with
              | Some recorded when not (check_kind_equal ck recorded) ->
                issue ~rule:Check_shape ~block
                  "value check #%d disagrees with the recorded profile of \
                   its instruction"
                  ins.uid
              | Some _ | None -> ())
           | (Some _ | None), _ -> ())
        | _ -> ())
      b.body
  done

let check ?(expect = Any) ?profile (p : Ir.Prog.t) =
  let issues = ref [] in
  let emit i = issues := i :: !issues in
  Ir.Prog.iter_funcs (fun f -> check_func ~expect ~profile f ~emit) p;
  List.rev !issues

let run ?expect ?profile p =
  match check ?expect ?profile p with
  | [] -> ()
  | issues -> raise (Error issues)
