(** Static predictor for protection plans (DESIGN.md §16).

    Prices a {!Plan.t} without transforming, interpreting or injecting:

    - {b SDC-prone fraction} — runs {!Plan.chain_walk}, the walk the
      duplication pass builds its clones from, over each planned chain
      of {!Plan.func_chains}, stopping at the plan's terminators, to
      decide which original registers would end up covered by a latch
      dup-check or an expected-value check, then weights what remains
      unprotected by the §11 AVF residency model, {!Coverage.exposure}
      (liveness live-in residency × profiled block weights).  The
      denominator is fixed by the original program, so adding chains to
      a plan can only shrink the estimate.
    - {b runtime overhead} — prices the would-be-inserted shadow
      instructions, checks and checkpoints with an injected cost model
      against the same block weights, including a steady-state
      approximation of the interpreter's slack credit (a fraction of
      shadow slots ride for free in unused issue slots).

    The cost model is a record of callbacks so this module stays below
    [lib/interp]; [Softft.Optimize.cost_model] wires in [Interp.Cost]. *)

type cost_model = {
  cm_instr : Ir.Instr.t -> int;        (** body instruction cycles *)
  cm_phi : int;
  cm_jmp : int;
  cm_br : int;
  cm_ret : int;
  cm_dup_check : int;
  cm_value_check : Ir.Instr.check_kind -> int;
  cm_shadow_slot : int;                (** cycles per unslacked shadow op *)
  cm_slack_gain : int;                 (** slack credits per source instr *)
  cm_slack_cost : int;                 (** credits one free shadow consumes *)
  cm_checkpoint_cycles : int;          (** lump cycles per checkpoint *)
}

type estimate = {
  pe_sdc_fraction : float;        (** predicted SDC-prone exposure share *)
  pe_exposure_total : float;
  pe_exposure_unprotected : float;
  pe_baseline_cycles : float;     (** priced original program *)
  pe_added_cycles : float;        (** priced protection additions *)
  pe_overhead : float;            (** added / baseline *)
  pe_cloned_instrs : int;
  pe_cloned_phis : int;
  pe_dup_checks : int;
  pe_value_checks : int;          (** mid-chain (Opt 2) + stand-alone *)
}

(** [estimate ?exec_counts ?profile ~cost prog plan] prices [plan]
    against the {e original} [prog].  [exec_counts] supplies per-function
    block execution counts in layout order (same convention as
    [Coverage.analyze]; uniform weights otherwise).  [profile] decides
    which sites are check-amenable; without it, planned terminators and
    checks are inert, exactly as the transform would treat them.

    The function is staged.  [estimate ?exec_counts ?profile ~cost prog]
    builds the program context once — use-def, CFG and state variables
    per function, block weights, the priced baseline, the step count and
    the exposure rows — and returns the pricing closure.  Each call of
    that closure is independent: it allocates its own tables and reads
    the context only, so plans may be priced in any order and every
    estimate is bit-identical to a full application.  Price many plans
    of one program by applying [estimate] once and reusing the closure,
    as [Softft.Optimize.search] does. *)
val estimate :
  ?exec_counts:(string -> int array option) ->
  ?profile:(int -> Ir.Instr.check_kind option) ->
  cost:cost_model ->
  Ir.Prog.t ->
  Plan.t ->
  estimate
