(** First-class protection plans (DESIGN.md §16).

    A {e plan} is one protection configuration as a value: which
    state-variable producer chains to duplicate, where a chain should
    terminate early in an expected-value check (the paper's Optimization 2
    as an explicit per-site decision), which stand-alone expected-value
    checks to place (Optimization 1's outcome as an explicit site list),
    and the checkpoint interval.  [Transform.Pipeline.of_plan] executes a
    plan; {!Predict} prices one without running anything.  The paper's
    fixed duplicating pipelines are plans too ({!all_chains}, {!paper}),
    so Optimizations 1 and 2 are decided here and nowhere else.

    Plans reference the {e original} program: chains by the uid of their
    loop-header phi, check sites by instruction uid.  Uids are minted per
    program and stable across the deterministic workload builds, so a plan
    computed against one build applies to any other build of the same
    workload. *)

(** One state-variable producer chain, named by its loop-header phi. *)
type chain = {
  ch_func : string;
  ch_phi_uid : int;
}

(** One instruction site receiving an expected-value check. *)
type site = {
  vs_func : string;
  vs_uid : int;
}

type t = {
  chains : chain list;       (** producer chains to duplicate *)
  terminators : site list;   (** chain-walk stops: clone replaced by a
                                 value check at this site (Opt. 2) *)
  checks : site list;        (** stand-alone value-check sites *)
  checkpoint : int;          (** checkpoint interval K; 0 = off *)
}

val empty : t

(** Normalize: sort and dedupe each component (by (func, uid)).  All
    constructors below return normalized plans; [equal] compares
    normalized forms. *)
val normalize : t -> t

val equal : t -> t -> bool

(** Membership; sites and chains are keyed by uid (uids are unique
    program-wide). *)
val mem_chain : t -> phi_uid:int -> bool

val mem_terminator : t -> int -> bool
val mem_check : t -> int -> bool

(** Functional extension; result is normalized. *)
val add_chain : t -> chain -> t

val add_terminator : t -> site -> t
val add_check : t -> site -> t

(** The state variables of one function (paper §III-B): loop-header
    phis with at least one operand arriving over a back edge, each with
    those back-edge operands and their latch labels, in loop-header then
    phi order.  The one statement of the state-variable rule, shared by
    {!candidate_chains}, [Transform.Duplicate], [Transform.Pipeline]'s
    [state_vars] statistic and {!Predict}. *)
val func_chains :
  Ir.Func.t -> (Ir.Instr.phi * (string * Ir.Instr.operand) list) list

(** Every state-variable chain of the program, by {!func_chains}, in
    (function, phi uid) order. *)
val candidate_chains : Ir.Prog.t -> chain list

(** Every stand-alone check candidate: original value-producing
    instructions whose [profile] knows a check shape, in (function, uid)
    order.  The one statement of the candidate rule. *)
val candidate_sites :
  profile:(int -> Ir.Instr.check_kind option) -> Ir.Prog.t -> site list

(** [chain_walk ud ~memo ~stop ~on_phi ~on_clone ~on_stop r] walks the
    producer web of [r] over use-def edges and returns whether [r] gets a
    non-trivial shadow.  It ends at chain terminators (loads, calls,
    allocations, constants, parameters) and at instructions [stop]
    accepts, which go to [on_stop].  Every other phi it reaches goes to
    [on_phi] before its operands are walked, first to last; every other
    instruction goes to [on_clone] before its operands are walked, last to
    first, and the function [on_clone] returns is called after them.
    Callbacks get the definition's block.  [memo] holds each reached
    register's answer, set before its operands are walked, so each
    register is visited once and a loop-carried cycle ends.

    The one statement of the Optimization-2 walk: [Transform.Duplicate]
    builds its clones from these callbacks, and {!chain_terminators},
    {!paper} and {!Predict} run it building nothing.  The visiting order
    is the order in which the transform mints registers and uids, so it
    fixes the protected programs bit for bit. *)
val chain_walk :
  Usedef.t ->
  memo:(Ir.Instr.reg, bool) Hashtbl.t ->
  stop:(Ir.Instr.t -> bool) ->
  on_phi:(Ir.Block.t -> Ir.Instr.phi -> unit) ->
  on_clone:(Ir.Block.t -> Ir.Instr.t -> unit -> unit) ->
  on_stop:(Ir.Block.t -> Ir.Instr.t -> unit) ->
  Ir.Instr.reg ->
  bool

(** Optimization 2 per candidate chain: the sites the duplication walk
    reaches first that have a check shape — {!chain_walk} from the chain's
    back edges, stopping at every site with a check shape — in
    {!candidate_chains} order.
    Adding a chain's sites as terminators gives its Opt-2 flavor. *)
val chain_terminators :
  profile:(int -> Ir.Instr.check_kind option) ->
  Ir.Prog.t ->
  (chain * site list) list

(** The [Dup_only] pipeline as a plan: every candidate chain, nothing
    else. *)
val all_chains : Ir.Prog.t -> t

(** The paper's [Dup_valchk] pipeline as a plan: every candidate chain;
    with [opt2] (default on) each chain's {!chain_terminators}; and every
    candidate site not taken by a terminator as a stand-alone check — with
    [opt1] (default on) only those not inside another such candidate's
    producer chain, so the deepest check of a chain survives. *)
val paper :
  ?opt1:bool ->
  ?opt2:bool ->
  profile:(int -> Ir.Instr.check_kind option) ->
  Ir.Prog.t ->
  t

(** Short human label, e.g. ["plan[c3 t1 v4 K0]"]. *)
val describe : t -> string

(** Compact stable identity for campaign labels and warehouse filing:
    component counts plus a digest prefix of the canonical JSON. *)
val slug : t -> string

(** {2 JSON rendering} *)

val schema : string

val to_json : t -> Obs.Json.t

(** Inverse of {!to_json} on normalized plans; [None] for a document of
    another schema or with a malformed field. *)
val of_json : Obs.Json.t -> t option

val to_string : t -> string
