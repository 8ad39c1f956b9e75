(** Convenience layer for constructing SSA programs.

    The builder maintains a current insertion block and offers structured
    [loop] / [if_] combinators that create the phi nodes, so that workload
    kernels read like straight-line code while still producing honest SSA
    with loop-carried phis — the very thing the paper's state-variable
    analysis looks for. *)

type t = {
  prog : Prog.t;
  func : Func.t;
  mutable cur : Block.t;
  mutable pending : Instr.t list;   (* reversed body of [cur] *)
  mutable terminated : bool;
  mutable label_counter : int;
}

let create prog ~name ~n_params =
  let func = Prog.add_func prog ~name ~n_params ~entry_label:"entry" in
  { prog; func; cur = Func.entry_block func; pending = []; terminated = false;
    label_counter = 0 }

let param t i = Instr.Reg (List.nth t.func.params i)

let imm n = Instr.Imm (Value.of_int n)
let immf f = Instr.Imm (Value.of_float f)

let fresh_label t prefix =
  t.label_counter <- t.label_counter + 1;
  Printf.sprintf "%s%d" prefix t.label_counter

let flush t =
  if t.pending <> [] then begin
    t.cur.body <- Array.append t.cur.body (Array.of_list (List.rev t.pending));
    t.pending <- []
  end

let current_label t = t.cur.label

let terminate t term =
  if t.terminated then
    invalid_arg (Printf.sprintf "block %S already terminated" t.cur.label);
  flush t;
  t.cur.term <- term;
  t.terminated <- true

let start_block t label =
  if not t.terminated then
    invalid_arg
      (Printf.sprintf "starting %S while %S lacks a terminator" label t.cur.label);
  flush t;
  let b = Func.add_block t.func label in
  t.cur <- b;
  t.terminated <- false

let emit t ~dest kind =
  if t.terminated then
    invalid_arg (Printf.sprintf "emitting into terminated block %S" t.cur.label);
  let uid = Prog.fresh_uid t.prog in
  t.pending <- { Instr.uid; dest; kind; origin = Instr.From_source } :: t.pending

let value t kind =
  let r = Prog.fresh_reg t.prog in
  emit t ~dest:(Some r) kind;
  Instr.Reg r

(* Arithmetic helpers. *)
let binop t op a b = value t (Instr.Binop (op, a, b))
let add t a b = binop t Opcode.Add a b
let sub t a b = binop t Opcode.Sub a b
let mul t a b = binop t Opcode.Mul a b
let sdiv t a b = binop t Opcode.Sdiv a b
let srem t a b = binop t Opcode.Srem a b
let and_ t a b = binop t Opcode.And a b
let or_ t a b = binop t Opcode.Or a b
let ashr t a b = binop t Opcode.Ashr a b
let fadd t a b = binop t Opcode.Fadd a b
let fsub t a b = binop t Opcode.Fsub a b
let fmul t a b = binop t Opcode.Fmul a b
let fdiv t a b = binop t Opcode.Fdiv a b

let unop t op a = value t (Instr.Unop (op, a))
let neg t a = unop t Opcode.Neg a
let float_of_int t a = unop t Opcode.Float_of_int a
let int_of_float t a = unop t Opcode.Int_of_float a
let fabs t a = unop t Opcode.Fabs a

let icmp t op a b = value t (Instr.Icmp (op, a, b))
let fcmp t op a b = value t (Instr.Fcmp (op, a, b))
let eq t a b = icmp t Opcode.Ieq a b
let ne t a b = icmp t Opcode.Ine a b
let lt t a b = icmp t Opcode.Islt a b
let gt t a b = icmp t Opcode.Isgt a b
let ge t a b = icmp t Opcode.Isge a b
let flt t a b = fcmp t Opcode.Flt a b
let fgt t a b = fcmp t Opcode.Fgt a b
let fge t a b = fcmp t Opcode.Fge a b

let select t c a b = value t (Instr.Select (c, a, b))
let const t v = value t (Instr.Const v)
let load t addr = value t (Instr.Load addr)
let store t addr v = emit t ~dest:None (Instr.Store (addr, v))
let alloc t n = value t (Instr.Alloc n)

(* Array element access with word-addressed memory. *)
let geti t base i = load t (add t base i)
let seti t base i v = store t (add t base i) v

let ret t v = terminate t (Instr.Ret (Some v))
let jmp t label = terminate t (Instr.Jmp label)
let br t cond ~if_true ~if_false = terminate t (Instr.Br (cond, if_true, if_false))

let mk_phi t ~incoming =
  let r = Prog.fresh_reg t.prog in
  let phi = { Instr.phi_uid = Prog.fresh_uid t.prog; phi_dest = r; incoming;
              phi_origin = Instr.From_source } in
  r, phi

(** [loop t ~init ~cond ~body] builds a while-style loop with one loop-carried
    phi per element of [init].  [cond] and [body] receive the phi registers;
    [body] returns the next-iteration values.  Both callbacks may create
    nested control flow.  Returns the phi registers, whose values after the
    loop are those of the final iteration. *)
let loop t ~init ~cond ~body =
  let header_lbl = fresh_label t "loop_head" in
  let body_lbl = fresh_label t "loop_body" in
  let exit_lbl = fresh_label t "loop_exit" in
  let pre_lbl = current_label t in
  jmp t header_lbl;
  start_block t header_lbl;
  let header = t.cur in
  let phis =
    List.map (fun init_op -> mk_phi t ~incoming:[ (pre_lbl, init_op) ]) init
  in
  header.phis <- List.map snd phis;
  let phi_regs = List.map fst phis in
  let c = cond phi_regs in
  br t c ~if_true:body_lbl ~if_false:exit_lbl;
  start_block t body_lbl;
  let next = body phi_regs in
  if List.length next <> List.length init then
    invalid_arg "loop: body must return as many values as init";
  let latch_lbl = current_label t in
  jmp t header_lbl;
  List.iter2
    (fun (_, phi) next_op ->
      phi.Instr.incoming <- phi.Instr.incoming @ [ (latch_lbl, next_op) ])
    phis next;
  start_block t exit_lbl;
  phi_regs

(** Counted ascending loop: index runs over [from, until) by [step].
    Returns the final values of the carried variables. *)
let for_up t ?(step = imm 1) ~from ~until ~carried ~body () =
  let results =
    loop t
      ~init:(from :: carried)
      ~cond:(fun regs ->
        match regs with
        | i :: _ -> icmp t Opcode.Islt (Reg i) until
        | [] -> assert false)
      ~body:(fun regs ->
        match regs with
        | i :: rest ->
          let next_carried = body ~i:(Instr.Reg i) rest in
          add t (Reg i) step :: next_carried
        | [] -> assert false)
  in
  match results with
  | _ :: carried_out -> carried_out
  | [] -> assert false

(** Simple counted loop with no carried values. *)
let for_each t ~from ~until ~body =
  let (_ : Instr.reg list) =
    for_up t ~from ~until ~carried:[] ~body:(fun ~i regs ->
      match regs with
      | [] -> body ~i; []
      | _ :: _ -> assert false) ()
  in
  ()

(** Structured conditional producing merged values via phis. *)
let if_ t cond ~then_ ~else_ =
  let then_lbl = fresh_label t "if_then" in
  let else_lbl = fresh_label t "if_else" in
  let merge_lbl = fresh_label t "if_merge" in
  br t cond ~if_true:then_lbl ~if_false:else_lbl;
  start_block t then_lbl;
  let then_vals = then_ () in
  let then_end = current_label t in
  jmp t merge_lbl;
  start_block t else_lbl;
  let else_vals = else_ () in
  let else_end = current_label t in
  if List.length then_vals <> List.length else_vals then
    invalid_arg "if_: branches must return the same number of values";
  jmp t merge_lbl;
  start_block t merge_lbl;
  let merge = t.cur in
  let phis =
    List.map2
      (fun tv ev -> mk_phi t ~incoming:[ (then_end, tv); (else_end, ev) ])
      then_vals else_vals
  in
  merge.phis <- List.map snd phis;
  List.map fst phis

(** Finish construction of the current function. *)
let finish t =
  if not t.terminated then
    invalid_arg
      (Printf.sprintf "function %S: block %S lacks a terminator" t.func.name
         t.cur.label);
  flush t
