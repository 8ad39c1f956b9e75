(** Static protection coverage; see the interface for the model. *)

type status =
  | Dup_checked
  | Value_checked
  | Dup_unchecked
  | Shadow
  | Check
  | Unprotected

let status_name = function
  | Dup_checked -> "dup-checked"
  | Value_checked -> "value-checked"
  | Dup_unchecked -> "dup-unchecked"
  | Shadow -> "shadow"
  | Check -> "check"
  | Unprotected -> "unprotected"

let all_statuses =
  [ Dup_checked; Value_checked; Dup_unchecked; Shadow; Check; Unprotected ]

type instr_row = {
  i_func : string;
  i_block : string;
  i_uid : int;
  i_desc : string;
  i_status : status;
}

type reg_row = {
  r_func : string;
  r_reg : Ir.Instr.reg;
  r_status : status;
  r_exposure : float;
}

type t = {
  instrs : instr_row list;
  regs : reg_row list;
  by_status : (status * int) list;
  total_instrs : int;
  exposure_total : float;
  exposure_unprotected : float;
  sdc_prone_fraction : float;
  dynamic_weights : bool;
}

let kind_desc (k : Ir.Instr.kind) =
  match k with
  | Ir.Instr.Binop _ -> "binop"
  | Ir.Instr.Unop _ -> "unop"
  | Ir.Instr.Icmp _ -> "icmp"
  | Ir.Instr.Fcmp _ -> "fcmp"
  | Ir.Instr.Select _ -> "select"
  | Ir.Instr.Const _ -> "const"
  | Ir.Instr.Load _ -> "load"
  | Ir.Instr.Store _ -> "store"
  | Ir.Instr.Alloc _ -> "alloc"
  | Ir.Instr.Call _ -> "call"
  | Ir.Instr.Dup_check _ -> "dup_check"
  | Ir.Instr.Value_check _ -> "value_check"

(* Ordering used when a no-dest instruction inherits the weakest protection
   among its operand registers. *)
let strength = function
  | Unprotected -> 0
  | Dup_unchecked -> 1
  | Value_checked -> 2
  | Dup_checked -> 3
  | Shadow -> 4
  | Check -> 5

let weaker a b = if strength a <= strength b then a else b

let is_duplicated = function
  | Ir.Instr.Duplicated _ -> true
  | Ir.Instr.From_source | Ir.Instr.Check_insertion -> false

(* Per-function classification state, built in one sweep over the IR. *)
type fstate = {
  def_uid : (Ir.Instr.reg, int) Hashtbl.t;
  def_origin : (Ir.Instr.reg, Ir.Instr.origin) Hashtbl.t;
  clone_of_uid : (int, Ir.Instr.reg) Hashtbl.t;
  covered : (Ir.Instr.reg, unit) Hashtbl.t;      (* shadow regs reaching a check *)
  dup_check_operand : (Ir.Instr.reg, unit) Hashtbl.t;
  value_checked : (Ir.Instr.reg, unit) Hashtbl.t;
}

let build_fstate (f : Ir.Func.t) =
  let st =
    { def_uid = Hashtbl.create 64;
      def_origin = Hashtbl.create 64;
      clone_of_uid = Hashtbl.create 32;
      covered = Hashtbl.create 32;
      dup_check_operand = Hashtbl.create 32;
      value_checked = Hashtbl.create 32 }
  in
  Ir.Func.iter_blocks
    (fun b ->
      List.iter
        (fun (phi : Ir.Instr.phi) ->
          Hashtbl.replace st.def_uid phi.phi_dest phi.phi_uid;
          Hashtbl.replace st.def_origin phi.phi_dest phi.phi_origin;
          match phi.phi_origin with
          | Ir.Instr.Duplicated u ->
            Hashtbl.replace st.clone_of_uid u phi.phi_dest
          | Ir.Instr.From_source | Ir.Instr.Check_insertion -> ())
        b.phis;
      Array.iter
        (fun (ins : Ir.Instr.t) ->
          (match ins.dest with
           | Some r ->
             Hashtbl.replace st.def_uid r ins.uid;
             Hashtbl.replace st.def_origin r ins.origin;
             (match ins.origin with
              | Ir.Instr.Duplicated u -> Hashtbl.replace st.clone_of_uid u r
              | Ir.Instr.From_source | Ir.Instr.Check_insertion -> ())
           | None -> ());
          match ins.kind with
          | Ir.Instr.Dup_check (a, b') ->
            List.iter
              (function
                | Ir.Instr.Reg r ->
                  Hashtbl.replace st.dup_check_operand r ()
                | Ir.Instr.Imm _ -> ())
              [ a; b' ]
          | Ir.Instr.Value_check (_, Ir.Instr.Reg r) ->
            Hashtbl.replace st.value_checked r ()
          | _ -> ())
        b.body)
    f;
  (* Backward closure over duplicate dataflow from every dup_check operand:
     the shadow chains that actually end in a comparison. *)
  Hashtbl.iter (fun r () -> Hashtbl.replace st.covered r ())
    st.dup_check_operand;
  let changed = ref true in
  while !changed do
    changed := false;
    Ir.Func.iter_blocks
      (fun b ->
        List.iter
          (fun (phi : Ir.Instr.phi) ->
            if is_duplicated phi.phi_origin
               && Hashtbl.mem st.covered phi.phi_dest then
              List.iter
                (fun (_, op) ->
                  match op with
                  | Ir.Instr.Reg r when not (Hashtbl.mem st.covered r) ->
                    Hashtbl.replace st.covered r ();
                    changed := true
                  | Ir.Instr.Reg _ | Ir.Instr.Imm _ -> ())
                phi.incoming)
          b.phis;
        Array.iter
          (fun (ins : Ir.Instr.t) ->
            match ins.dest with
            | Some d when is_duplicated ins.origin
                          && Hashtbl.mem st.covered d ->
              List.iter
                (fun r ->
                  if not (Hashtbl.mem st.covered r) then begin
                    Hashtbl.replace st.covered r ();
                    changed := true
                  end)
                (Ir.Instr.uses ins)
            | Some _ | None -> ())
          b.body)
      f
  done;
  st

(* Protection status of the value held in register [r]. *)
let reg_status st r =
  match Hashtbl.find_opt st.def_origin r with
  | Some (Ir.Instr.Duplicated _) ->
    if Hashtbl.mem st.covered r then Shadow else Dup_unchecked
  | Some Ir.Instr.Check_insertion -> Check
  | Some Ir.Instr.From_source | None ->
    (* [None] is a parameter (or an undefined reg, the verifier's
       province): same rules, it just cannot have a clone. *)
    let cloned =
      match Hashtbl.find_opt st.def_uid r with
      | None -> None
      | Some u -> Hashtbl.find_opt st.clone_of_uid u
    in
    if Hashtbl.mem st.dup_check_operand r then Dup_checked
    else
      (match cloned with
       | Some c when Hashtbl.mem st.covered c -> Dup_checked
       | Some _ -> Dup_unchecked
       | None ->
         if Hashtbl.mem st.value_checked r then Value_checked
         else Unprotected)

let instr_status st (ins : Ir.Instr.t) =
  match ins.origin with
  | Ir.Instr.Check_insertion -> Check
  | Ir.Instr.Duplicated _ ->
    (match ins.dest with
     | Some d when Hashtbl.mem st.covered d -> Shadow
     | Some _ -> Dup_unchecked
     | None -> Shadow)
  | Ir.Instr.From_source ->
    (match ins.dest with
     | Some d -> reg_status st d
     | None ->
       (* Stores, void calls: a register fault reaches them only through
          their operands, so they inherit the weakest operand protection;
          with no register operands there is nothing in the register file
          to strike. *)
       (match Ir.Instr.uses ins with
        | [] -> Dup_checked
        | rs ->
          List.fold_left
            (fun acc r -> weaker acc (reg_status st r))
            Check rs))

let phi_status st (phi : Ir.Instr.phi) =
  match phi.phi_origin with
  | Ir.Instr.Check_insertion -> Check
  | Ir.Instr.Duplicated _ ->
    if Hashtbl.mem st.covered phi.phi_dest then Shadow else Dup_unchecked
  | Ir.Instr.From_source -> reg_status st phi.phi_dest

(* Every defined register gets a row: a value live only inside one block
   has zero block-boundary residency but can still be hit, and the
   journal join needs a status for it.  Registers are unique keys, so
   sorting by id alone is a total order; never let hashtable iteration
   order leak into the rows. *)
let exposure ~weights (cfg : Cfg.t) =
  let live = Liveness.compute cfg in
  let exposure = Hashtbl.create 64 in
  List.iter (fun r -> Hashtbl.replace exposure r 0.0) cfg.Cfg.func.Ir.Func.params;
  Array.iter
    (fun (b : Ir.Block.t) ->
      List.iter
        (fun (phi : Ir.Instr.phi) -> Hashtbl.replace exposure phi.phi_dest 0.0)
        b.phis;
      Array.iter
        (fun (ins : Ir.Instr.t) ->
          Option.iter (fun r -> Hashtbl.replace exposure r 0.0) ins.dest)
        b.body)
    cfg.Cfg.blocks;
  Array.iteri
    (fun i live_in ->
      Hashtbl.iter
        (fun r () ->
          let prev = Option.value (Hashtbl.find_opt exposure r) ~default:0.0 in
          Hashtbl.replace exposure r (prev +. weights.(i)))
        live_in)
    live.Liveness.live_in;
  Hashtbl.fold (fun r e acc -> (r, e) :: acc) exposure []
  |> List.sort (fun (a, _) (b, _) -> Int.compare a b)

let analyze ?exec_counts (p : Ir.Prog.t) =
  let instrs = ref [] and regs = ref [] in
  let counts = Hashtbl.create 8 in
  List.iter (fun s -> Hashtbl.replace counts s 0) all_statuses;
  let bump s = Hashtbl.replace counts s (Hashtbl.find counts s + 1) in
  let exposure_total = ref 0.0 and exposure_unprot = ref 0.0 in
  let dynamic = ref false in
  Ir.Prog.iter_funcs
    (fun f ->
      let st = build_fstate f in
      let cfg = Cfg.of_func f in
      let n = Cfg.n_blocks cfg in
      let weights =
        match Option.bind exec_counts (fun g -> g f.name) with
        | Some c when Array.length c = n ->
          dynamic := true;
          Array.map float_of_int c
        | Some _ | None -> Array.make n 1.0
      in
      (* Instruction table, in layout order. *)
      for i = 0 to n - 1 do
        let b = Cfg.block cfg i in
        List.iter
          (fun (phi : Ir.Instr.phi) ->
            let s = phi_status st phi in
            bump s;
            instrs :=
              { i_func = f.name; i_block = b.label; i_uid = phi.phi_uid;
                i_desc = "phi"; i_status = s }
              :: !instrs)
          b.phis;
        Array.iter
          (fun (ins : Ir.Instr.t) ->
            let s = instr_status st ins in
            bump s;
            instrs :=
              { i_func = f.name; i_block = b.label; i_uid = ins.uid;
                i_desc = kind_desc ins.kind; i_status = s }
              :: !instrs)
          b.body
      done;
      exposure ~weights cfg
      |> List.iter (fun (r, e) ->
             let s = reg_status st r in
             exposure_total := !exposure_total +. e;
             (match s with
              | Unprotected | Dup_unchecked ->
                exposure_unprot := !exposure_unprot +. e
              | Dup_checked | Value_checked | Shadow | Check -> ());
             regs :=
               { r_func = f.name; r_reg = r; r_status = s; r_exposure = e }
               :: !regs))
    p;
  let by_status =
    List.map (fun s -> (s, Hashtbl.find counts s)) all_statuses
  in
  let total_instrs = List.fold_left (fun a (_, n) -> a + n) 0 by_status in
  { instrs = List.rev !instrs;
    regs = List.rev !regs;
    by_status;
    total_instrs;
    exposure_total = !exposure_total;
    exposure_unprotected = !exposure_unprot;
    sdc_prone_fraction =
      (if !exposure_total > 0.0 then !exposure_unprot /. !exposure_total
       else 0.0);
    dynamic_weights = !dynamic }

(* Total order: unprotected classes first, exposure descending, then
   (function, register) ascending — every tie is broken explicitly, so
   the ranking (and the CSV built from it) is bit-stable across runs. *)
let ranked_regs ?limit t =
  let unprot = function Unprotected | Dup_unchecked -> 0 | _ -> 1 in
  let ranked =
    List.sort
      (fun a b ->
        match Int.compare (unprot a.r_status) (unprot b.r_status) with
        | 0 ->
          (match Float.compare b.r_exposure a.r_exposure with
           | 0 ->
             (match String.compare a.r_func b.r_func with
              | 0 -> Int.compare a.r_reg b.r_reg
              | c -> c)
           | c -> c)
        | c -> c)
      t.regs
  in
  match limit with
  | None -> ranked
  | Some k -> List.filteri (fun i _ -> i < k) ranked

(* First classification wins: [regs] lists a slot once per function it is
   live in, and the program-wide numbering means later duplicates are the
   same physical slot seen from another frame. *)
let reg_status t =
  let tbl = Hashtbl.create 64 in
  List.iter
    (fun r ->
      if not (Hashtbl.mem tbl r.r_reg) then
        Hashtbl.replace tbl r.r_reg r.r_status)
    t.regs;
  fun reg -> Hashtbl.find_opt tbl reg
