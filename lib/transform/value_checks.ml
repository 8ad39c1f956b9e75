open Ir

(** Stand-alone expected-value check insertion (paper §III-C, Figure 6).
    Which instructions receive a check — Optimization 1 (paper Figure 8)
    included — is a protection plan's decision ({!Analysis.Plan.paper});
    this pass only places them. *)

(** Insert a value check after every instruction whose uid [profile]
    maps to a check shape; returns how many were inserted. *)
let run (prog : Prog.t) ~profile =
  let inserted = ref 0 in
  List.iter
    (fun func ->
      let sites = ref [] in
      Func.iter_blocks
        (fun b ->
          Array.iter
            (fun (ins : Instr.t) ->
              match (ins.dest, profile ins.uid) with
              | Some dest, Some ck -> sites := (b, ins.uid, dest, ck) :: !sites
              | _ -> ())
            b.body)
        func;
      List.iter
        (fun (b, after_uid, dest, ck) ->
          let check =
            { Instr.uid = Prog.fresh_uid prog; dest = None;
              kind = Instr.Value_check (ck, Instr.Reg dest);
              origin = Instr.Check_insertion }
          in
          Block.insert_after b ~after_uid [ check ];
          incr inserted)
        (List.rev !sites))
    prog.funcs;
  !inserted
