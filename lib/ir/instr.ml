(** IR instructions.

    The IR is in SSA form: each value-producing instruction defines exactly
    one virtual register.  Phi nodes are kept separately at block heads (see
    {!Block}), everything else appears in the block body, and each block ends
    with exactly one terminator.

    [uid]s identify the static instruction across program transformations and
    are the keys of value-profiling histograms; transformation passes mint
    fresh uids for inserted instructions so profiles never alias. *)

type reg = int

type operand =
  | Reg of reg
  | Imm of Value.t

(** Shape of an expected-value check, per Figure 6 of the paper. *)
type check_kind =
  | Single of Value.t                (** one frequently generated value *)
  | Double of Value.t * Value.t      (** two frequently generated values *)
  | Range of Value.t * Value.t       (** compact range [lo, hi], inclusive *)

(** Provenance tag carried for static statistics (Figure 10) and for the
    SWDetect attribution in fault-injection reports. *)
type origin =
  | From_source            (** present in the original program *)
  | Duplicated of int      (** clone of instruction [uid] *)
  | Check_insertion        (** a check added by a protection pass *)

type kind =
  | Binop of Opcode.binop * operand * operand
  | Unop of Opcode.unop * operand
  | Icmp of Opcode.icmp * operand * operand
  | Fcmp of Opcode.fcmp * operand * operand
  | Select of operand * operand * operand  (** cond, if-true, if-false *)
  | Const of Value.t
  | Load of operand                        (** word address *)
  | Store of operand * operand             (** word address, value *)
  | Alloc of operand                       (** size in words; defines base *)
  | Call of string * operand list
  | Dup_check of operand * operand         (** original, duplicate *)
  | Value_check of check_kind * operand

type t = {
  uid : int;
  dest : reg option;
  kind : kind;
  origin : origin;
}

type terminator =
  | Ret of operand option
  | Jmp of string
  | Br of operand * string * string        (** cond, if-true, if-false *)

(** A phi node: [dest = phi (label_i, operand_i)].  Incoming edges are keyed
    by predecessor block label. *)
type phi = {
  phi_uid : int;
  phi_dest : reg;
  mutable incoming : (string * operand) list;
  phi_origin : origin;
}

(** Operands read by an instruction, in syntactic order. *)
let operands t =
  match t.kind with
  | Binop (_, a, b) | Icmp (_, a, b) | Fcmp (_, a, b) | Store (a, b)
  | Dup_check (a, b) -> [ a; b ]
  | Unop (_, a) | Load a | Alloc a | Value_check (_, a) -> [ a ]
  | Select (c, a, b) -> [ c; a; b ]
  | Const _ -> []
  | Call (_, args) -> args

(** Registers read by an instruction. *)
let uses t =
  List.filter_map (function Reg r -> Some r | Imm _ -> None) (operands t)

(** Rebuild an instruction with operands rewritten by [f]. *)
let map_operands f t =
  let kind =
    match t.kind with
    | Binop (op, a, b) -> Binop (op, f a, f b)
    | Unop (op, a) -> Unop (op, f a)
    | Icmp (op, a, b) -> Icmp (op, f a, f b)
    | Fcmp (op, a, b) -> Fcmp (op, f a, f b)
    | Select (c, a, b) -> Select (f c, f a, f b)
    | Const v -> Const v
    | Load a -> Load (f a)
    | Store (a, v) -> Store (f a, f v)
    | Alloc n -> Alloc (f n)
    | Call (name, args) -> Call (name, List.map f args)
    | Dup_check (a, b) -> Dup_check (f a, f b)
    | Value_check (ck, a) -> Value_check (ck, f a)
  in
  { t with kind }

(** Does this instruction produce a data value eligible for value profiling?
    Loads are included: the paper's motivating example range-checks a value
    loaded from a lookup table. *)
let produces_value t =
  match t.kind, t.dest with
  | (Binop _ | Unop _ | Load _ | Select _), Some _ -> true
  | (Icmp _ | Fcmp _ | Const _ | Alloc _ | Call _), _ -> false
  | (Store _ | Dup_check _ | Value_check _), _ -> false
  | (Binop _ | Unop _ | Load _ | Select _), None -> false

let terminator_targets = function
  | Ret _ -> []
  | Jmp l -> [ l ]
  | Br (_, t, f) -> [ t; f ]

let check_passes kind v =
  match kind with
  | Single c -> Value.equal v c
  | Double (c1, c2) -> Value.equal v c1 || Value.equal v c2
  | Range (lo, hi) -> Value.compare lo v <= 0 && Value.compare v hi <= 0
