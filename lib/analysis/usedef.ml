(** Use-def information for one function.

    The producer chain of a register — the recursive closure of its use-def
    edges — is what the duplication pass clones.  Chains terminate at loads,
    calls, allocs, parameters and constants (the paper stops at loads to
    avoid doubling memory traffic; a fault on a load address tends to produce
    a detectable symptom instead). *)

type def_site =
  | Param
  | Phi_def of Ir.Block.t * Ir.Instr.phi
  | Instr_def of Ir.Block.t * Ir.Instr.t

type t = { defs : (Ir.Instr.reg, def_site) Hashtbl.t }

let compute (f : Ir.Func.t) =
  let defs = Hashtbl.create 64 in
  List.iter (fun r -> Hashtbl.replace defs r Param) f.params;
  Ir.Func.iter_blocks
    (fun b ->
      List.iter
        (fun (phi : Ir.Instr.phi) ->
          Hashtbl.replace defs phi.phi_dest (Phi_def (b, phi)))
        b.phis;
      Array.iter
        (fun (ins : Ir.Instr.t) ->
          match ins.dest with
          | Some r -> Hashtbl.replace defs r (Instr_def (b, ins))
          | None -> ())
        b.body)
    f;
  { defs }

let def_of t r = Hashtbl.find_opt t.defs r

(** Whether the producer chain stops at this definition instead of recursing:
    loads (memory traffic), calls, allocs (side effects) and constants. *)
let chain_terminator (ins : Ir.Instr.t) =
  match ins.kind with
  | Load _ | Call _ | Alloc _ | Const _ -> true
  | Binop _ | Unop _ | Icmp _ | Fcmp _ | Select _ -> false
  | Store _ | Dup_check _ | Value_check _ -> true

(** [producer_chain t r] walks the use-def closure of [r] and returns the
    value-producing instructions encountered, innermost last.  The walk stops
    at chain terminators, phi definitions and parameters (their registers are
    reported through [stops]). *)
let producer_chain t r =
  let visited = Hashtbl.create 16 in
  let chain = ref [] in
  let stops = ref [] in
  let rec walk r =
    if not (Hashtbl.mem visited r) then begin
      Hashtbl.replace visited r ();
      match def_of t r with
      | None | Some Param -> stops := r :: !stops
      | Some (Phi_def _) -> stops := r :: !stops
      | Some (Instr_def (_, ins)) ->
        if chain_terminator ins then stops := r :: !stops
        else begin
          chain := ins :: !chain;
          List.iter walk (Ir.Instr.uses ins)
        end
    end
  in
  walk r;
  (!chain, !stops)
