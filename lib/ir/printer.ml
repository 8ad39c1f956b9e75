(** Human-readable textual form of the IR, LLVM-flavoured. *)

open Format

let pp_operand ppf = function
  | Instr.Reg r -> fprintf ppf "%%r%d" r
  | Instr.Imm v -> Value.pp ppf v

let pp_check_kind ppf = function
  | Instr.Single v -> fprintf ppf "single %a" Value.pp v
  | Instr.Double (a, b) -> fprintf ppf "double %a, %a" Value.pp a Value.pp b
  | Instr.Range (lo, hi) -> fprintf ppf "range [%a, %a]" Value.pp lo Value.pp hi

let pp_origin ppf = function
  | Instr.From_source -> ()
  | Instr.Duplicated uid -> fprintf ppf "  ; dup of #%d" uid
  | Instr.Check_insertion -> fprintf ppf "  ; check"

let pp_kind ppf = function
  | Instr.Binop (op, a, b) ->
    fprintf ppf "%s %a, %a" (Opcode.binop_name op) pp_operand a pp_operand b
  | Instr.Unop (op, a) -> fprintf ppf "%s %a" (Opcode.unop_name op) pp_operand a
  | Instr.Icmp (op, a, b) ->
    fprintf ppf "icmp %s %a, %a" (Opcode.icmp_name op) pp_operand a pp_operand b
  | Instr.Fcmp (op, a, b) ->
    fprintf ppf "fcmp %s %a, %a" (Opcode.fcmp_name op) pp_operand a pp_operand b
  | Instr.Select (c, a, b) ->
    fprintf ppf "select %a, %a, %a" pp_operand c pp_operand a pp_operand b
  | Instr.Const v -> fprintf ppf "const %a" Value.pp v
  | Instr.Load a -> fprintf ppf "load %a" pp_operand a
  | Instr.Store (a, v) -> fprintf ppf "store %a, %a" pp_operand a pp_operand v
  | Instr.Alloc n -> fprintf ppf "alloc %a" pp_operand n
  | Instr.Call (name, args) ->
    fprintf ppf "call @%s(%a)" name
      (pp_print_list ~pp_sep:(fun ppf () -> fprintf ppf ", ") pp_operand)
      args
  | Instr.Dup_check (a, b) ->
    fprintf ppf "dup_check %a == %a" pp_operand a pp_operand b
  | Instr.Value_check (ck, a) ->
    fprintf ppf "value_check %a in %a" pp_operand a pp_check_kind ck

let pp_instr ppf (ins : Instr.t) =
  (match ins.dest with
   | Some r -> fprintf ppf "  %%r%d = %a" r pp_kind ins.kind
   | None -> fprintf ppf "  %a" pp_kind ins.kind);
  fprintf ppf "    ; #%d%a" ins.uid pp_origin ins.origin

let pp_phi ppf (phi : Instr.phi) =
  let pp_in ppf (lbl, op) = fprintf ppf "[%s: %a]" lbl pp_operand op in
  fprintf ppf "  %%r%d = phi %a    ; #%d%a" phi.phi_dest
    (pp_print_list ~pp_sep:(fun ppf () -> fprintf ppf ", ") pp_in)
    phi.incoming phi.phi_uid pp_origin phi.phi_origin

let pp_terminator ppf = function
  | Instr.Ret None -> fprintf ppf "  ret"
  | Instr.Ret (Some v) -> fprintf ppf "  ret %a" pp_operand v
  | Instr.Jmp l -> fprintf ppf "  jmp %s" l
  | Instr.Br (c, l1, l2) ->
    fprintf ppf "  br %a, %s, %s" pp_operand c l1 l2

let pp_block ppf (b : Block.t) =
  fprintf ppf "%s:@\n" b.label;
  List.iter (fun phi -> fprintf ppf "%a@\n" pp_phi phi) b.phis;
  Array.iter (fun ins -> fprintf ppf "%a@\n" pp_instr ins) b.body;
  fprintf ppf "%a@\n" pp_terminator b.term

let pp_func ppf (f : Func.t) =
  fprintf ppf "func @%s(%a) {@\n" f.name
    (pp_print_list ~pp_sep:(fun ppf () -> fprintf ppf ", ")
       (fun ppf r -> fprintf ppf "%%r%d" r))
    f.params;
  List.iter (fun b -> pp_block ppf b) f.blocks;
  fprintf ppf "}@\n"

let pp_prog ppf (p : Prog.t) =
  List.iter (fun f -> fprintf ppf "%a@\n" pp_func f) p.funcs

let prog_to_string p = asprintf "%a" pp_prog p

(** [instr_text p] renders instructions by uid: a body instruction of [p]
    as {!pp_instr} writes it, trimmed, and any other uid as ["#uid"].  The
    uid table is built once, when [instr_text p] is applied. *)
let instr_text (p : Prog.t) =
  let text = Hashtbl.create 256 in
  Prog.iter_funcs
    (fun f ->
      Func.iter_instrs
        (fun ins ->
          Hashtbl.replace text ins.Instr.uid
            (String.trim (asprintf "%a" pp_instr ins)))
        f)
    p;
  fun uid ->
    match Hashtbl.find_opt text uid with
    | Some t -> t
    | None -> Printf.sprintf "#%d" uid
