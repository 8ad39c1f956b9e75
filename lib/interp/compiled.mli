(** One-time lowering of a program to an interpreter-friendly form.

    String block labels become integer indices into per-function block
    arrays, call targets become function indices, and phi incoming lists
    become predecessor-index arrays — so the interpreter's hot path (branch,
    call, phi) does integer compares instead of hashing strings and
    scanning association lists.

    Instructions are lowered to flat records with int-coded operands
    ({!cinstr}); the compiled form is a snapshot of the source program.
    Compile after all transforms; recompile after editing. *)

(** A phi batch entry: destination register plus parallel arrays of
    (predecessor block index, incoming operand).  Unknown labels compile to
    predecessor [-2], which matches no runtime predecessor (the entry
    pseudo-predecessor is [-1]). *)
type cphi = {
  cp_dest : Ir.Instr.reg;
  cp_preds : int array;
  cp_ops : Ir.Instr.operand array;
}

(** Terminator with targets resolved to block indices; the original labels
    ride along for error reporting.  A missing label compiles to [-1] and
    traps only if the edge is taken, as the uncompiled interpreter did. *)
type cterm =
  | Cret of Ir.Instr.operand option
  | Cjmp of int * string
  | Cbr of Ir.Instr.operand * int * string * int * string

(** Operand code: a register index ([>= 0]) or [lnot i] for the [i]-th
    entry of the program's immediate pool ({!t.imms}). *)
type code = int

(** Fully lowered instruction: destinations are plain ints ([-1] = none),
    operands are {!code}s, call targets are resolved function indices. *)
type cinstr =
  | CAdd of { uid : int; dest : int; a : code; b : code }
  | CSub of { uid : int; dest : int; a : code; b : code }
  | CBinop of { op : Ir.Opcode.binop; uid : int; dest : int; a : code; b : code }
  | CUnop of { op : Ir.Opcode.unop; uid : int; dest : int; a : code }
  | CIcmp of { op : Ir.Opcode.icmp; dest : int; a : code; b : code }
  | CFcmp of { op : Ir.Opcode.fcmp; dest : int; a : code; b : code }
  | CSelect of { uid : int; dest : int; c : code; a : code; b : code }
  | CConst of { dest : int; v : Ir.Value.t }
  | CLoad of { uid : int; dest : int; a : code }
  | CStore of { uid : int; a : code; v : code }
  | CAlloc of { dest : int; n : code }
  | CCall of { name : string; callee : int;  (** -1: not in the program *)
               args : Ir.Instr.operand list; dest : Ir.Instr.reg option }
  | CDup_check of { uid : int; a : code; b : code }
  | CValue_check of { uid : int; ck : Ir.Instr.check_kind; a : code }

type cblock = {
  cb_index : int;
  cb_label : string;
  cb_phis : cphi array;
  cb_code : cinstr array;      (** the lowered body *)
  cb_meta : int array;         (** per body slot: base cycle cost (low byte)
                                   and origin code (next byte), decoded with
                                   {!meta_cost} / {!meta_origin} *)
  cb_has_call : bool;          (** whether any body instruction is a call *)
  cb_term : cterm;
  cb_instrs : Ir.Instr.t array;  (** the source body, copied at lowering *)
  cb_live_out : int array option;
      (** registers live on exit from the block, sorted
          ({!Analysis.Liveness}); [None] for every block of a function
          whose labels do not all resolve to distinct blocks — no
          liveness claim, every register counts as live *)
}

(** Origin codes stored in {!cblock.cb_meta}. *)
val origin_source : int
val origin_duplicated : int
val origin_check : int

val meta_cost : int -> int
val meta_origin : int -> int

type cfunc = {
  cf_name : string;
  cf_params : Ir.Instr.reg list;
  cf_blocks : cblock array;    (** in layout order, entry first *)
  cf_entry : int;
}

type t = {
  source : Ir.Prog.t;
  funcs : cfunc array;
  func_index : (string, int) Hashtbl.t;
  imms : Ir.Value.t array;     (** immediate-operand pool; see {!code} *)
  next_reg : int;
  max_phis : int;              (** widest phi batch; sizes machine scratch *)
}

(** Lower a program.  O(static program size). *)
val of_prog : Ir.Prog.t -> t

(** Memoized {!of_prog}, keyed by physical program identity and validated
    against a structural stamp (function count, instruction count, counter
    values) so in-place transformations force recompilation.  Safe to call
    from multiple domains. *)
val cached : Ir.Prog.t -> t

(** [find_func t name] mirrors {!Ir.Prog.find_func}, including the
    [Invalid_argument] it raises for unknown names. *)
val find_func : t -> string -> cfunc
