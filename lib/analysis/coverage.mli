(** Static protection-coverage and vulnerability analysis of transformed IR.

    Classifies every instruction, phi and register of a (possibly
    protected) program by how a fault striking it would be handled, using
    only the provenance metadata the transformation passes leave behind —
    no fault campaign required:

    - [Dup_checked]: the value is recomputed by a [Duplicated] chain whose
      result is compared by a [Dup_check] (or the register is itself an
      operand of one), so an error is detected before it can escape.
    - [Value_checked]: the value is guarded by an expected-value
      [Value_check] learned from profiling; detection is probabilistic but
      the slot is covered.
    - [Dup_unchecked]: a shadow chain exists but never reaches a
      comparison — duplication cost paid with no detection benefit.
    - [Shadow] / [Check]: protection machinery itself.  A fault in a
      shadow register or a check input makes the comparison disagree and
      is flagged (a false positive, never a silent corruption).
    - [Unprotected]: a fault here can propagate silently.

    Combining each register's protection status with its live range
    ({!Liveness}) and per-block dynamic execution counts (from
    [Interp.Profile], passed abstractly as [exec_counts]) yields an
    AVF-style exposure estimate per register slot: the share of
    register-file residency occupied by unprotected live values predicts
    the SDC-prone fraction a fault campaign should measure. *)

type status =
  | Dup_checked
  | Value_checked
  | Dup_unchecked
  | Shadow
  | Check
  | Unprotected

val status_name : status -> string

(** One classified instruction or phi ([i_uid] is the phi uid for phis,
    [i_pos] its index among the block's phis then body). *)
type instr_row = {
  i_func : string;
  i_block : string;
  i_uid : int;
  i_desc : string;       (** short opcode description, e.g. "binop", "phi" *)
  i_status : status;
}

(** One register slot with its exposure: the sum over blocks where the
    register is live-in of that block's execution weight (dynamic count
    when [exec_counts] knows the function, otherwise 1 per block). *)
type reg_row = {
  r_func : string;
  r_reg : Ir.Instr.reg;
  r_status : status;
  r_exposure : float;
}

type t = {
  instrs : instr_row list;
  regs : reg_row list;
  by_status : (status * int) list;   (** instruction counts, every status *)
  total_instrs : int;
  exposure_total : float;
  exposure_unprotected : float;      (** [Unprotected] + [Dup_unchecked] *)
  sdc_prone_fraction : float;        (** exposure-weighted; 0 when empty *)
  dynamic_weights : bool;            (** true if any function had counts *)
}

(** [exposure ~weights cfg] is the register-exposure model, shared with
    {!Predict}: every parameter and defined register of [cfg]'s function,
    in register order, with the sum of [weights] (indexed by block) over
    the blocks it is live into ({!Liveness}).  Block weights are
    integer-valued, so every sum, and every sum of rows, is exact in any
    order. *)
val exposure : weights:float array -> Cfg.t -> (Ir.Instr.reg * float) list

(** [analyze ?exec_counts prog] classifies the whole program.
    [exec_counts f] returns per-block dynamic execution counts for
    function [f] in block layout order (e.g. [Interp.Profile.func_block_counts]);
    functions without counts fall back to uniform weight 1 per block. *)
val analyze : ?exec_counts:(string -> int array option) -> Ir.Prog.t -> t

(** Register slots ranked most-vulnerable first: unprotected exposure
    before protected, higher exposure first.  The order is total —
    exposure ties break by (function, register) ascending — so the
    ranking is deterministic run-to-run. *)
val ranked_regs : ?limit:int -> t -> reg_row list

(** [reg_status t] is a lookup from program-wide register code to its
    classified status (first classification wins, matching the journal
    join convention); [None] for slots the analysis never saw. *)
val reg_status : t -> Ir.Instr.reg -> status option
