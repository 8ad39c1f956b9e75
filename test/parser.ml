(** Parser for the textual IR form emitted by {!Ir.Printer}.

    It reads back what `experiments dump` prints, which gives the test
    suite a print/parse/print fixpoint property and lets a test write its
    input program as text.

    The grammar is exactly what {!Ir.Printer} produces:
    {v
    func @name(%r0, %r1) {
    label:
      %r2 = phi [pred: %r0], [latch: %r3]    ; #4
      %r3 = add %r2, 1    ; #5
      value_check %r3 in range [0, 63]    ; #6
      br %r4, body, exit
    }
    v}
    Trailing [; #uid] comments are significant (uids key the profiles), and
    origin comments ([; check], [; dup of #N]) are restored so that a
    round-tripped program keeps its cost-model and statistics behaviour. *)

open Ir

exception Parse_error of { line : int; message : string }

let fail ~line fmt =
  Format.kasprintf (fun message -> raise (Parse_error { line; message })) fmt

(* ----- tokenizing helpers ----- *)

let strip s = String.trim s

(* "dup of #N" origin comments. *)
let starts_with_origin s =
  String.length s > 8 && String.sub s 0 8 = "dup of #"

(* Split off the trailing "; #uid [; origin]" comment; returns
   (code, uid option, origin). *)
let split_comment ~line s =
  match String.index_opt s ';' with
  | None -> (strip s, None, Instr.From_source)
  | Some i ->
    let code = strip (String.sub s 0 i) in
    let comment = strip (String.sub s (i + 1) (String.length s - i - 1)) in
    let uid_text, origin_text =
      match String.index_opt comment ';' with
      | Some j ->
        (strip (String.sub comment 0 j),
         strip (String.sub comment (j + 1) (String.length comment - j - 1)))
      | None -> (strip comment, "")
    in
    let uid =
      if String.length uid_text > 0 && uid_text.[0] = '#' then begin
        match int_of_string_opt (String.sub uid_text 1 (String.length uid_text - 1)) with
        | Some n -> Some n
        | None -> fail ~line "bad uid comment %S" comment
      end
      else None
    in
    let origin =
      if origin_text = "check" then Instr.Check_insertion
      else if starts_with_origin origin_text then begin
        let n_text =
          String.sub origin_text 8 (String.length origin_text - 8)
        in
        match int_of_string_opt n_text with
        | Some n -> Instr.Duplicated n
        | None -> fail ~line "bad origin comment %S" origin_text
      end
      else Instr.From_source
    in
    (code, uid, origin)

let parse_reg ~line s =
  let s = strip s in
  if String.length s > 2 && s.[0] = '%' && s.[1] = 'r' then
    match int_of_string_opt (String.sub s 2 (String.length s - 2)) with
    | Some r -> r
    | None -> fail ~line "bad register %S" s
  else fail ~line "expected register, found %S" s

let parse_value ~line s =
  let s = strip s in
  match Int64.of_string_opt s with
  | Some i -> Value.Int i
  | None ->
    (match float_of_string_opt s with
     | Some f -> Value.Float f
     | None -> fail ~line "bad value %S" s)

let parse_operand ~line s =
  let s = strip s in
  if String.length s > 1 && s.[0] = '%' then Instr.Reg (parse_reg ~line s)
  else Instr.Imm (parse_value ~line s)

(* Split on top-level commas (no nesting in our operand syntax). *)
let split_commas s =
  if strip s = "" then []
  else List.map strip (String.split_on_char ',' s)

let starts_with ~prefix s =
  String.length s >= String.length prefix
  && String.sub s 0 (String.length prefix) = prefix

let after ~prefix s = String.sub s (String.length prefix)
    (String.length s - String.length prefix)

(* ----- instruction parsing ----- *)

let binop_of_name = function
  | "add" -> Some Opcode.Add | "sub" -> Some Opcode.Sub
  | "mul" -> Some Opcode.Mul | "sdiv" -> Some Opcode.Sdiv
  | "srem" -> Some Opcode.Srem | "and" -> Some Opcode.And
  | "or" -> Some Opcode.Or | "xor" -> Some Opcode.Xor
  | "shl" -> Some Opcode.Shl | "lshr" -> Some Opcode.Lshr
  | "ashr" -> Some Opcode.Ashr | "fadd" -> Some Opcode.Fadd
  | "fsub" -> Some Opcode.Fsub | "fmul" -> Some Opcode.Fmul
  | "fdiv" -> Some Opcode.Fdiv | _ -> None

let unop_of_name = function
  | "neg" -> Some Opcode.Neg | "not" -> Some Opcode.Not
  | "fneg" -> Some Opcode.Fneg | "sitofp" -> Some Opcode.Float_of_int
  | "fptosi" -> Some Opcode.Int_of_float | "fsqrt" -> Some Opcode.Fsqrt
  | "fabs" -> Some Opcode.Fabs | _ -> None

let icmp_of_name = function
  | "eq" -> Some Opcode.Ieq | "ne" -> Some Opcode.Ine
  | "slt" -> Some Opcode.Islt | "sle" -> Some Opcode.Isle
  | "sgt" -> Some Opcode.Isgt | "sge" -> Some Opcode.Isge
  | _ -> None

let fcmp_of_name = function
  | "oeq" -> Some Opcode.Feq | "one" -> Some Opcode.Fne
  | "olt" -> Some Opcode.Flt | "ole" -> Some Opcode.Fle
  | "ogt" -> Some Opcode.Fgt | "oge" -> Some Opcode.Fge
  | _ -> None

(* "word rest" split. *)
let head_word ~line s =
  let s = strip s in
  match String.index_opt s ' ' with
  | Some i ->
    (String.sub s 0 i, strip (String.sub s (i + 1) (String.length s - i - 1)))
  | None ->
    if s = "" then fail ~line "empty instruction" else (s, "")

let parse_check_kind ~line s =
  let s = strip s in
  if starts_with ~prefix:"single " s then
    Instr.Single (parse_value ~line (after ~prefix:"single " s))
  else if starts_with ~prefix:"double " s then begin
    match split_commas (after ~prefix:"double " s) with
    | [ a; b ] -> Instr.Double (parse_value ~line a, parse_value ~line b)
    | _ -> fail ~line "bad double check %S" s
  end
  else if starts_with ~prefix:"range [" s then begin
    let body = after ~prefix:"range [" s in
    match String.index_opt body ']' with
    | None -> fail ~line "unterminated range %S" s
    | Some i ->
      (match split_commas (String.sub body 0 i) with
       | [ lo; hi ] -> Instr.Range (parse_value ~line lo, parse_value ~line hi)
       | _ -> fail ~line "bad range %S" s)
  end
  else fail ~line "bad check kind %S" s

let parse_kind ~line code =
  let op_name, rest = head_word ~line code in
  match binop_of_name op_name with
  | Some op ->
    (match split_commas rest with
     | [ a; b ] -> Instr.Binop (op, parse_operand ~line a, parse_operand ~line b)
     | _ -> fail ~line "binop needs two operands: %S" code)
  | None ->
    (match unop_of_name op_name with
     | Some op -> Instr.Unop (op, parse_operand ~line rest)
     | None ->
       (match op_name with
        | "icmp" | "fcmp" ->
          let pred, rest = head_word ~line rest in
          (match split_commas rest with
           | [ a; b ] ->
             let a = parse_operand ~line a and b = parse_operand ~line b in
             if op_name = "icmp" then
               (match icmp_of_name pred with
                | Some p -> Instr.Icmp (p, a, b)
                | None -> fail ~line "bad icmp predicate %S" pred)
             else
               (match fcmp_of_name pred with
                | Some p -> Instr.Fcmp (p, a, b)
                | None -> fail ~line "bad fcmp predicate %S" pred)
           | _ -> fail ~line "cmp needs two operands: %S" code)
        | "select" ->
          (match split_commas rest with
           | [ c; a; b ] ->
             Instr.Select
               (parse_operand ~line c, parse_operand ~line a,
                parse_operand ~line b)
           | _ -> fail ~line "select needs three operands: %S" code)
        | "const" -> Instr.Const (parse_value ~line rest)
        | "load" -> Instr.Load (parse_operand ~line rest)
        | "store" ->
          (match split_commas rest with
           | [ a; v ] -> Instr.Store (parse_operand ~line a, parse_operand ~line v)
           | _ -> fail ~line "store needs two operands: %S" code)
        | "alloc" -> Instr.Alloc (parse_operand ~line rest)
        | "call" ->
          (* call @name(args) *)
          if not (starts_with ~prefix:"@" rest) then
            fail ~line "bad call %S" code
          else begin
            match String.index_opt rest '(' with
            | None -> fail ~line "bad call %S" code
            | Some i ->
              let name = String.sub rest 1 (i - 1) in
              (match String.rindex_opt rest ')' with
               | None -> fail ~line "unterminated call %S" code
               | Some j ->
                 let args = String.sub rest (i + 1) (j - i - 1) in
                 Instr.Call
                   (name, List.map (parse_operand ~line) (split_commas args)))
          end
        | "dup_check" ->
          (* dup_check a == b *)
          (match Str_split.split_on_string " == " rest with
           | [ a; b ] ->
             Instr.Dup_check (parse_operand ~line a, parse_operand ~line b)
           | _ -> fail ~line "bad dup_check %S" code)
        | "value_check" ->
          (* value_check op in kind *)
          (match Str_split.split_on_string " in " rest with
           | [ op; kind ] ->
             Instr.Value_check (parse_check_kind ~line kind, parse_operand ~line op)
           | _ -> fail ~line "bad value_check %S" code)
        | _ -> fail ~line "unknown instruction %S" code))

(* phi: "%rN = phi [lbl: op], [lbl: op]" *)
let parse_phi_incoming ~line rest =
  let rec collect acc s =
    let s = strip s in
    if s = "" then List.rev acc
    else if s.[0] = ',' then collect acc (String.sub s 1 (String.length s - 1))
    else if s.[0] = '[' then begin
      match String.index_opt s ']' with
      | None -> fail ~line "unterminated phi edge %S" s
      | Some i ->
        let inner = String.sub s 1 (i - 1) in
        (match String.index_opt inner ':' with
         | None -> fail ~line "bad phi edge %S" inner
         | Some j ->
           let lbl = strip (String.sub inner 0 j) in
           let op =
             parse_operand ~line
               (String.sub inner (j + 1) (String.length inner - j - 1))
           in
           collect ((lbl, op) :: acc)
             (String.sub s (i + 1) (String.length s - i - 1)))
    end
    else fail ~line "bad phi incoming list %S" s
  in
  collect [] rest

let parse_terminator ~line code =
  let word, rest = head_word ~line code in
  match word with
  | "ret" ->
    if rest = "" then Instr.Ret None
    else Instr.Ret (Some (parse_operand ~line rest))
  | "jmp" -> Instr.Jmp rest
  | "br" ->
    (match split_commas rest with
     | [ c; t; f ] -> Instr.Br (parse_operand ~line c, t, f)
     | _ -> fail ~line "bad br %S" code)
  | _ -> fail ~line "unknown terminator %S" code

(* ----- program assembly ----- *)

type pending_func = {
  pf_name : string;
  pf_params : Instr.reg list;
  mutable pf_blocks : (string * Instr.phi list * Instr.t list * Instr.terminator option) list;
}

(** [parse text] rebuilds a program from {!Ir.Printer} output. *)
let parse text =
  let prog = Prog.create () in
  let max_reg = ref (-1) and max_uid = ref (-1) in
  let note_reg r = if r > !max_reg then max_reg := r in
  let note_uid u = if u > !max_uid then max_uid := u in
  let fresh_uid () =
    (* uids are mandatory in printed output; fall back gracefully. *)
    incr max_uid;
    !max_uid
  in
  let funcs : pending_func list ref = ref [] in
  let current_func : pending_func option ref = ref None in
  let current_label = ref None in
  let cur_phis = ref [] and cur_body = ref [] and cur_term = ref None in
  let flush_block () =
    match !current_func, !current_label with
    | Some pf, Some label ->
      pf.pf_blocks <-
        pf.pf_blocks
        @ [ (label, List.rev !cur_phis, List.rev !cur_body, !cur_term) ];
      current_label := None;
      cur_phis := [];
      cur_body := [];
      cur_term := None
    | _, _ -> ()
  in
  let lines = String.split_on_char '\n' text in
  List.iteri
    (fun idx raw ->
      let line = idx + 1 in
      let code, uid, origin = split_comment ~line raw in
      if code = "" then ()
      else if starts_with ~prefix:"func @" code then begin
        flush_block ();
        (match String.index_opt code '(' with
         | None -> fail ~line "bad func header %S" code
         | Some i ->
           let name = String.sub code 6 (i - 6) in
           (match String.rindex_opt code ')' with
            | None -> fail ~line "bad func header %S" code
            | Some j ->
              let params_text = String.sub code (i + 1) (j - i - 1) in
              let params =
                List.map (parse_reg ~line) (split_commas params_text)
              in
              List.iter note_reg params;
              let pf = { pf_name = name; pf_params = params; pf_blocks = [] } in
              funcs := pf :: !funcs;
              current_func := Some pf))
      end
      else if code = "}" then flush_block ()
      else if String.length code > 1 && code.[String.length code - 1] = ':'
              && not (String.contains code ' ') then begin
        flush_block ();
        current_label := Some (String.sub code 0 (String.length code - 1))
      end
      else begin
        (* Instruction, phi, or terminator inside the current block. *)
        let uid_value = match uid with Some u -> note_uid u; u | None -> fresh_uid () in
        match String.index_opt code '=' with
        | Some i when String.length code > 0 && code.[0] = '%' ->
          let dest = parse_reg ~line (String.sub code 0 i) in
          note_reg dest;
          let rhs = strip (String.sub code (i + 1) (String.length code - i - 1)) in
          if starts_with ~prefix:"phi " rhs then begin
            let incoming = parse_phi_incoming ~line (after ~prefix:"phi " rhs) in
            cur_phis :=
              { Instr.phi_uid = uid_value; phi_dest = dest; incoming;
                phi_origin = origin }
              :: !cur_phis
          end
          else
            cur_body :=
              { Instr.uid = uid_value; dest = Some dest;
                kind = parse_kind ~line rhs; origin }
              :: !cur_body
        | Some _ | None ->
          let word, _ = head_word ~line code in
          (match word with
           | "ret" | "jmp" | "br" ->
             cur_term := Some (parse_terminator ~line code)
           | _ ->
             cur_body :=
               { Instr.uid = uid_value; dest = None;
                 kind = parse_kind ~line code; origin }
               :: !cur_body)
      end)
    lines;
  flush_block ();
  (* Materialize functions. *)
  List.iter
    (fun pf ->
      match pf.pf_blocks with
      | [] -> fail ~line:0 "function %s has no blocks" pf.pf_name
      | (entry_label, _, _, _) :: _ ->
        let f =
          { Func.name = pf.pf_name; params = pf.pf_params;
            entry = entry_label; blocks = []; index = Hashtbl.create 16 }
        in
        List.iter
          (fun (label, phis, body, term) ->
            let b = Block.create ~label in
            b.phis <- phis;
            b.body <- Array.of_list body;
            (match term with
             | Some t -> b.term <- t
             | None -> fail ~line:0 "block %s lacks a terminator" label);
            Hashtbl.replace f.index label b;
            f.blocks <- f.blocks @ [ b ])
          pf.pf_blocks;
        Prog.register_func prog f)
    (List.rev !funcs);
  prog.next_reg <- !max_reg + 1;
  prog.next_uid <- !max_uid + 1;
  Verifier.verify prog;
  prog
