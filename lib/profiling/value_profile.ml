(** Value profiling: one histogram per static value-producing instruction,
    collected from an interpreter run on the *training* input, then turned
    into expected-value check shapes (Figure 6 of the paper).

    Profiling is the paper's one-time offline step; its cost never enters
    the reported performance overheads. *)

type kind_seen = Ints | Floats | Mixed

type entry = {
  hist : Histogram.t;
  mutable execs : int;
  mutable seen : kind_seen option;
}

type t = {
  table : (int, entry) Hashtbl.t;   (** uid -> profile entry *)
  mutable run_steps : int;
}

(** Tunables of the check-derivation heuristics. *)
type params = {
  min_execs : int;           (** ignore instructions executed fewer times *)
  r_thr_abs : float;         (** absolute width threshold of Algorithm 2 *)
  slack : float;             (** widen accepted ranges by this fraction per
                                 side, to damp train-vs-test false positives *)
}

let default_params = {
  min_execs = 64;
  r_thr_abs = 4096.0;
  slack = 1.0;   (* the check-tuning ablation (examples/check_tuning.ml)
                     shows this cuts train-vs-test false positives by two
                     orders of magnitude at unchanged cost and coverage *)
}

let create () = { table = Hashtbl.create 256; run_steps = 0 }

(* Histograms keep the paper's B = 5 bins of Algorithm 1. *)
let record t uid (v : Ir.Value.t) =
  let e =
    match Hashtbl.find_opt t.table uid with
    | Some e -> e
    | None ->
      let e = { hist = Histogram.create (); execs = 0; seen = None } in
      Hashtbl.replace t.table uid e;
      e
  in
  e.execs <- e.execs + 1;
  let k = if Ir.Value.is_int v then Ints else Floats in
  (match e.seen with
   | None -> e.seen <- Some k
   | Some s when s = k -> ()
   | Some Mixed -> ()
   | Some _ -> e.seen <- Some Mixed);
  Histogram.insert e.hist (Ir.Value.to_real v)

(** Profile [prog] by interpreting it; returns the profile and run result. *)
let collect prog ~entry ~args ~mem =
  let t = create () in
  let config =
    { Interp.Machine.default_config with
      mode = Interp.Machine.Record;
      on_def = Some (record t) }
  in
  let result = Interp.Machine.run ~config prog ~entry ~args ~mem in
  t.run_steps <- result.steps;
  (t, result)

let entry_of t uid = Hashtbl.find_opt t.table uid

let execs t uid =
  match entry_of t uid with
  | Some e -> e.execs
  | None -> 0

(* Reconstruct a check constant on the instruction's value domain. *)
let value_of kind_seen x =
  match kind_seen with
  | Ints -> Ir.Value.Int (Int64.of_float x)
  | Floats | Mixed -> Ir.Value.Float x

let widen_range ~params ~seen lo hi =
  let w = hi -. lo in
  let pad = (params.slack *. w) +. (match seen with Ints -> 1.0 | Floats | Mixed -> 1e-9) in
  let lo = lo -. pad and hi = hi +. pad in
  match seen with
  | Ints -> (Float.of_int (int_of_float (Float.floor lo)),
             Float.of_int (int_of_float (Float.ceil hi)))
  | Floats | Mixed -> (lo, hi)

(** Derive the expected-value check for instruction [uid], if its profile
    makes it amenable (Figure 6): a single value, two values, or a compact
    range that every profiled value passes. *)
let check_kind ?(params = default_params) t uid : Ir.Instr.check_kind option =
  match entry_of t uid with
  | None -> None
  | Some e ->
    if e.execs < params.min_execs then None
    else begin
      match e.seen with
      | None | Some Mixed -> None
      | Some seen ->
        let total = Histogram.total e.hist in
        match Histogram.point_bins e.hist with
        | [ p ] when p.Histogram.m = total ->
          Some (Ir.Instr.Single (value_of seen p.Histogram.lb))
        | p1 :: p2 :: _ when p1.Histogram.m + p2.Histogram.m = total ->
          Some
            (Ir.Instr.Double
               (value_of seen p1.Histogram.lb, value_of seen p2.Histogram.lb))
        | _ ->
          let r_thr = params.r_thr_abs in
          (match Range.extract e.hist ~r_thr with
           | Some r when r.mass = total && Range.width r <= r_thr ->
             let lo, hi = widen_range ~params ~seen r.lo r.hi in
             Some (Ir.Instr.Range (value_of seen lo, value_of seen hi))
           | Some _ | None -> None)
    end
