open Ir

(** One-time lowering of a program to an interpreter-friendly form.

    The tree-walking machine resolves a string label through a [Hashtbl] on
    every branch, scans the function list on every call and walks
    label-keyed association lists for every phi batch.  Fault-injection
    campaigns re-run the same program thousands of times, so we lower it
    once: blocks and functions become integer indices into arrays, phi
    incoming edges become predecessor-index arrays, and the block list of
    every function is materialized as the array the branch-fault path needs.

    The lowered instructions ({!cinstr}) are flat records with int-coded
    operands; only call argument lists, phi incomings and terminator
    operands still reference the source operand type.  A compiled program
    is a snapshot of the source: compile after all transforms (campaigns
    do), and recompile after editing. *)

(** A phi batch entry: destination register plus parallel arrays of
    (predecessor block index, incoming operand).  An incoming edge whose
    label is not a block of the function gets index [-2], which matches no
    runtime predecessor (the entry pseudo-predecessor is [-1]). *)
type cphi = {
  cp_dest : Instr.reg;
  cp_preds : int array;
  cp_ops : Instr.operand array;
}

(** Terminator with block labels resolved to indices.  A target label
    missing from the function compiles to [-1]; taking that edge at run
    time reproduces the uncompiled interpreter's [Invalid_argument]. *)
type cterm =
  | Cret of Instr.operand option
  | Cjmp of int * string
  | Cbr of Instr.operand * int * string * int * string

(** Operand code: a register index ([>= 0]) or [lnot i] for the [i]-th
    entry of the program's immediate pool ({!t.imms}).  Decoding is a sign
    test instead of a constructor match, and the flat int avoids chasing an
    operand block per read. *)
type code = int

(** Fully lowered instruction: destinations are plain ints ([-1] = none),
    operands are {!code}s, call targets are resolved function indices.  One
    flat block per instruction, no nested AST nodes on the hot path. *)
type cinstr =
  | CAdd of { uid : int; dest : int; a : code; b : code }
  | CSub of { uid : int; dest : int; a : code; b : code }
  | CBinop of { op : Opcode.binop; uid : int; dest : int; a : code; b : code }
  | CUnop of { op : Opcode.unop; uid : int; dest : int; a : code }
  | CIcmp of { op : Opcode.icmp; dest : int; a : code; b : code }
  | CFcmp of { op : Opcode.fcmp; dest : int; a : code; b : code }
  | CSelect of { uid : int; dest : int; c : code; a : code; b : code }
  | CConst of { dest : int; v : Value.t }
  | CLoad of { uid : int; dest : int; a : code }
  | CStore of { uid : int; a : code; v : code }
  | CAlloc of { dest : int; n : code }
  | CCall of { name : string; callee : int;  (** -1: not in the program *)
               args : Instr.operand list; dest : Instr.reg option }
  | CDup_check of { uid : int; a : code; b : code }
  | CValue_check of { uid : int; ck : Instr.check_kind; a : code }

type cblock = {
  cb_index : int;
  cb_label : string;
  cb_phis : cphi array;
  cb_code : cinstr array;      (** the lowered body *)
  cb_meta : int array;         (** per body slot: base cycle cost in the low
                                   byte, instruction origin (see
                                   {!meta_origin}) in the next — precomputed
                                   so the hot loop does no cost-model
                                   matching *)
  cb_has_call : bool;          (** whether any body instruction is a call *)
  cb_term : cterm;
  cb_instrs : Instr.t array;   (** the source body, copied at lowering so
                                   later edits of the program do not reach
                                   it; what {!Machine}'s dead-flip test scans *)
  cb_live_out : int array option;
      (** registers live on exit from the block, sorted, from
          {!Analysis.Liveness}; [None] when the function's control flow
          cannot be modelled (see {!live_outs}) and every register counts
          as live *)
}

(** Origin codes packed into {!cblock.cb_meta}. *)
let origin_source = 0
let origin_duplicated = 1
let origin_check = 2

let meta_of_instr (ins : Instr.t) =
  let origin =
    match ins.origin with
    | Instr.From_source -> origin_source
    | Instr.Duplicated _ -> origin_duplicated
    | Instr.Check_insertion -> origin_check
  in
  Cost.instr ins lor (origin lsl 8)

let meta_cost meta = meta land 0xFF
let meta_origin meta = meta lsr 8

type cfunc = {
  cf_name : string;
  cf_params : Instr.reg list;
  cf_blocks : cblock array;    (** in layout order, entry first *)
  cf_entry : int;
}

type t = {
  source : Prog.t;
  funcs : cfunc array;
  func_index : (string, int) Hashtbl.t;
  imms : Value.t array;        (** immediate-operand pool; see {!code} *)
  next_reg : int;
  max_phis : int;              (** widest phi batch; sizes machine scratch *)
}

(* Immediate pool under construction: operands are appended during
   lowering and the pool is frozen into {!t.imms} at the end. *)
type imm_pool = { mutable rev : Value.t list; mutable n : int }

let code_of_operand pool (op : Instr.operand) =
  match op with
  | Instr.Reg r -> r
  | Instr.Imm v ->
    let i = pool.n in
    pool.rev <- v :: pool.rev;
    pool.n <- i + 1;
    lnot i

let compile_instr ~func_index ~pool (ins : Instr.t) =
  let imm op = code_of_operand pool op in
  let dest = match ins.dest with Some r -> r | None -> -1 in
  match ins.kind with
  | Instr.Binop (Opcode.Add, a, b) ->
    CAdd { uid = ins.uid; dest; a = imm a; b = imm b }
  | Instr.Binop (Opcode.Sub, a, b) ->
    CSub { uid = ins.uid; dest; a = imm a; b = imm b }
  | Instr.Binop (op, a, b) ->
    CBinop { op; uid = ins.uid; dest; a = imm a; b = imm b }
  | Instr.Unop (op, a) -> CUnop { op; uid = ins.uid; dest; a = imm a }
  | Instr.Icmp (op, a, b) -> CIcmp { op; dest; a = imm a; b = imm b }
  | Instr.Fcmp (op, a, b) -> CFcmp { op; dest; a = imm a; b = imm b }
  | Instr.Select (c, a, b) ->
    CSelect { uid = ins.uid; dest; c = imm c; a = imm a; b = imm b }
  | Instr.Const v -> CConst { dest; v }
  | Instr.Load a -> CLoad { uid = ins.uid; dest; a = imm a }
  | Instr.Store (a, v) -> CStore { uid = ins.uid; a = imm a; v = imm v }
  | Instr.Alloc n -> CAlloc { dest; n = imm n }
  | Instr.Call (name, args) ->
    CCall { name;
            callee =
              (match Hashtbl.find_opt func_index name with
               | Some fi -> fi
               | None -> -1);
            args; dest = ins.dest }
  | Instr.Dup_check (a, b) ->
    CDup_check { uid = ins.uid; a = imm a; b = imm b }
  | Instr.Value_check (ck, a) ->
    CValue_check { uid = ins.uid; ck; a = imm a }

(* Per block of [f], in layout order: the registers live on exit, sorted.
   {!Analysis.Cfg} resolves labels strictly while lowering tolerates a
   label that names no block (and resolves a duplicated one to its first
   block), so a function with either gets [None]: no liveness claim. *)
let live_outs (f : Func.t) =
  let labels = List.map (fun (b : Block.t) -> b.label) f.blocks in
  if List.length (List.sort_uniq String.compare labels) <> List.length labels
  then None
  else
    match Analysis.Cfg.of_func f with
    | exception Not_found -> None
    | cfg ->
      let live = Analysis.Liveness.compute cfg in
      Some
        (Array.map
           (fun tbl ->
             Hashtbl.fold (fun r () acc -> r :: acc) tbl []
             |> List.sort Int.compare |> Array.of_list)
           live.Analysis.Liveness.live_out)

let compile_func ~func_index ~pool (f : Func.t) =
  let blocks = Array.of_list f.blocks in
  let live_out = live_outs f in
  let block_index = Hashtbl.create (Array.length blocks * 2) in
  Array.iteri
    (fun i (b : Block.t) ->
      if not (Hashtbl.mem block_index b.label) then
        Hashtbl.replace block_index b.label i)
    blocks;
  let resolve_block label =
    match Hashtbl.find_opt block_index label with
    | Some i -> i
    | None -> -1
  in
  let compile_phi (phi : Instr.phi) =
    let n = List.length phi.incoming in
    let preds = Array.make n (-2) in
    let ops = Array.make n (Instr.Imm Value.zero) in
    List.iteri
      (fun i (label, op) ->
        (match Hashtbl.find_opt block_index label with
         | Some b -> preds.(i) <- b
         | None -> preds.(i) <- -2);
        ops.(i) <- op)
      phi.incoming;
    { cp_dest = phi.phi_dest; cp_preds = preds; cp_ops = ops }
  in
  let compile_block i (b : Block.t) =
    { cb_index = i;
      cb_label = b.label;
      cb_phis = Array.of_list (List.map compile_phi b.phis);
      cb_code = Array.map (compile_instr ~func_index ~pool) b.body;
      cb_meta = Array.map meta_of_instr b.body;
      cb_has_call =
        Array.exists
          (fun (ins : Instr.t) ->
            match ins.kind with Instr.Call _ -> true | _ -> false)
          b.body;
      cb_term =
        (match b.term with
         | Instr.Ret op -> Cret op
         | Instr.Jmp l -> Cjmp (resolve_block l, l)
         | Instr.Br (c, l1, l2) ->
           Cbr (c, resolve_block l1, l1, resolve_block l2, l2));
      cb_instrs = Array.copy b.body;
      cb_live_out = Option.map (fun outs -> outs.(i)) live_out }
  in
  { cf_name = f.name;
    cf_params = f.params;
    cf_blocks = Array.mapi compile_block blocks;
    cf_entry = (match resolve_block f.entry with -1 -> 0 | i -> i) }

let of_prog (prog : Prog.t) =
  let funcs = Array.of_list prog.funcs in
  let func_index = Hashtbl.create (Array.length funcs * 2) in
  Array.iteri
    (fun i (f : Func.t) ->
      if not (Hashtbl.mem func_index f.name) then
        Hashtbl.replace func_index f.name i)
    funcs;
  let pool = { rev = []; n = 0 } in
  let cfuncs = Array.map (compile_func ~func_index ~pool) funcs in
  let max_phis =
    Array.fold_left
      (fun acc cf ->
        Array.fold_left
          (fun acc cb -> max acc (Array.length cb.cb_phis))
          acc cf.cf_blocks)
      0 cfuncs
  in
  { source = prog; funcs = cfuncs; func_index;
    imms = Array.of_list (List.rev pool.rev);
    next_reg = prog.next_reg; max_phis }

(** [find_func t name] mirrors {!Ir.Prog.find_func}, including its error. *)
let find_func t name =
  match Hashtbl.find_opt t.func_index name with
  | Some i -> t.funcs.(i)
  | None -> invalid_arg (Printf.sprintf "no function %S" name)

(* ----- per-program memoization ----- *)

(* Campaigns compile once and run thousands of trials against the result,
   possibly from several domains at once.  The cache is keyed by physical
   program identity and validated against a cheap structural stamp, so a
   program that was transformed in place since it was last compiled (the
   passes mint fresh uids and grow the instruction count) is recompiled
   rather than served stale. *)

type stamp = { s_funcs : int; s_instrs : int; s_next_reg : int; s_next_uid : int }

let stamp_of (prog : Prog.t) =
  { s_funcs = List.length prog.funcs;
    s_instrs = Prog.instr_count prog;
    s_next_reg = prog.next_reg;
    s_next_uid = prog.next_uid }

let cache : (Prog.t * stamp * t) list ref = ref []
let cache_mutex = Mutex.create ()
let cache_limit = 8

let cached prog =
  let stamp = stamp_of prog in
  Mutex.lock cache_mutex;
  let hit =
    List.find_opt (fun (p, s, _) -> p == prog && s = stamp) !cache
  in
  match hit with
  | Some (_, _, compiled) ->
    Mutex.unlock cache_mutex;
    compiled
  | None ->
    Mutex.unlock cache_mutex;
    let compiled = of_prog prog in
    Mutex.lock cache_mutex;
    let others = List.filter (fun (p, _, _) -> p != prog) !cache in
    cache :=
      (prog, stamp, compiled)
      :: (if List.length others >= cache_limit
          then List.filteri (fun i _ -> i < cache_limit - 1) others
          else others);
    Mutex.unlock cache_mutex;
    compiled
