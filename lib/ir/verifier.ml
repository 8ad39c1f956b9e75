(** Structural well-formedness checks for programs.

    Run after construction and after every transformation pass; catching a
    malformed program here is vastly cheaper than debugging an interpreter
    run.  Checks: branch targets exist, every block is reachable from the
    entry, phi incoming edges exactly match CFG predecessors, SSA single
    assignment, every used register has a definition somewhere in the
    function (full dominance checking is [Analysis.Lint], which this module
    cannot depend on; the transformation pipeline runs both), uid
    uniqueness across the program. *)

type error = {
  func : string;
  block : string;
  message : string;
}

exception Invalid of error

let fail ~func ~block fmt =
  Format.kasprintf (fun message -> raise (Invalid { func; block; message })) fmt

let pp_error ppf e =
  Format.fprintf ppf "%s/%s: %s" e.func e.block e.message

let verify_func (f : Func.t) ~seen_uid ~check_uid =
  let fname = f.name in
  (* Branch targets exist. *)
  Func.iter_blocks
    (fun b ->
      List.iter
        (fun target ->
          if not (Func.mem_block f target) then
            fail ~func:fname ~block:b.Block.label "branch to unknown block %S"
              target)
        (Block.successors b))
    f;
  (* Entry exists and has no phis (nothing can jump to it in our builder). *)
  if not (Func.mem_block f f.entry) then
    fail ~func:fname ~block:f.entry "missing entry block";
  (* Every block is reachable from the entry; transformation passes assume
     it, and unreachable blocks would make dominance vacuous. *)
  let reachable = Hashtbl.create 16 in
  let rec dfs label =
    if not (Hashtbl.mem reachable label) then begin
      Hashtbl.replace reachable label ();
      List.iter dfs (Block.successors (Func.find_block f label))
    end
  in
  dfs f.entry;
  Func.iter_blocks
    (fun b ->
      if not (Hashtbl.mem reachable b.Block.label) then
        fail ~func:fname ~block:b.Block.label
          "block unreachable from entry %S" f.entry)
    f;
  (* Single assignment + defs set. *)
  let defined = Hashtbl.create 64 in
  List.iter
    (fun r ->
      if Hashtbl.mem defined r then
        fail ~func:fname ~block:f.entry "parameter %%r%d defined twice" r;
      Hashtbl.replace defined r ())
    f.params;
  Func.iter_blocks
    (fun b ->
      List.iter
        (fun (phi : Instr.phi) ->
          check_uid ~func:fname ~block:b.Block.label phi.phi_uid;
          if Hashtbl.mem defined phi.phi_dest then
            fail ~func:fname ~block:b.Block.label
              "register %%r%d defined twice (phi)" phi.phi_dest;
          Hashtbl.replace defined phi.phi_dest ())
        b.phis;
      Array.iter
        (fun (ins : Instr.t) ->
          check_uid ~func:fname ~block:b.Block.label ins.uid;
          match ins.dest with
          | None -> ()
          | Some r ->
            if Hashtbl.mem defined r then
              fail ~func:fname ~block:b.Block.label
                "register %%r%d defined twice" r;
            Hashtbl.replace defined r ())
        b.body)
    f;
  (* Every use refers to some definition in this function. *)
  let check_operand ~block op =
    match op with
    | Instr.Imm _ -> ()
    | Instr.Reg r ->
      if not (Hashtbl.mem defined r) then
        fail ~func:fname ~block "use of undefined register %%r%d" r
  in
  Func.iter_blocks
    (fun b ->
      let block = b.Block.label in
      List.iter
        (fun (phi : Instr.phi) ->
          List.iter (fun (_, op) -> check_operand ~block op) phi.incoming)
        b.phis;
      Array.iter
        (fun ins -> List.iter (check_operand ~block) (Instr.operands ins))
        b.body;
      match b.term with
      | Instr.Ret None | Instr.Jmp _ -> ()
      | Instr.Ret (Some op) | Instr.Br (op, _, _) -> check_operand ~block op)
    f;
  (* Phi incoming labels exactly match CFG predecessors. *)
  let preds = Func.predecessors f in
  Func.iter_blocks
    (fun b ->
      let block = b.Block.label in
      let pred_set = List.sort_uniq String.compare (Hashtbl.find preds block) in
      List.iter
        (fun (phi : Instr.phi) ->
          let labels =
            List.sort_uniq String.compare (List.map fst phi.incoming)
          in
          if labels <> pred_set then
            fail ~func:fname ~block
              "phi %%r%d incoming {%s} does not match predecessors {%s}"
              phi.phi_dest (String.concat "," labels)
              (String.concat "," pred_set))
        b.phis)
    f;
  ignore seen_uid

(** [verify prog] raises {!Invalid} if [prog] is malformed. *)
let verify (p : Prog.t) =
  let seen_uid = Hashtbl.create 256 in
  let check_uid ~func ~block uid =
    if Hashtbl.mem seen_uid uid then
      fail ~func ~block "duplicate instruction uid #%d" uid;
    if uid >= p.next_uid then
      fail ~func ~block "uid #%d not below program counter %d" uid p.next_uid;
    Hashtbl.replace seen_uid uid ()
  in
  Prog.iter_funcs (fun f -> verify_func f ~seen_uid ~check_uid) p
