type chain = {
  ch_func : string;
  ch_phi_uid : int;
}

type site = {
  vs_func : string;
  vs_uid : int;
}

type t = {
  chains : chain list;
  terminators : site list;
  checks : site list;
  checkpoint : int;
}

let empty = { chains = []; terminators = []; checks = []; checkpoint = 0 }

let chain_key c = (c.ch_func, c.ch_phi_uid)
let site_key s = (s.vs_func, s.vs_uid)

let dedup_sorted key l =
  let sorted = List.sort (fun a b -> compare (key a) (key b)) l in
  let rec go = function
    | a :: b :: rest when key a = key b -> go (a :: rest)
    | a :: rest -> a :: go rest
    | [] -> []
  in
  go sorted

let normalize p =
  {
    chains = dedup_sorted chain_key p.chains;
    terminators = dedup_sorted site_key p.terminators;
    checks = dedup_sorted site_key p.checks;
    checkpoint = max 0 p.checkpoint;
  }

let equal a b = normalize a = normalize b

(* Uids are unique program-wide, so membership ignores the function
   component: a plan can only ever be applied to the program whose uids
   it names. *)
let mem_chain p ~phi_uid =
  List.exists (fun c -> c.ch_phi_uid = phi_uid) p.chains

let mem_terminator p uid = List.exists (fun s -> s.vs_uid = uid) p.terminators
let mem_check p uid = List.exists (fun s -> s.vs_uid = uid) p.checks

let add_chain p c = normalize { p with chains = c :: p.chains }
let add_terminator p s = normalize { p with terminators = s :: p.terminators }
let add_check p s = normalize { p with checks = s :: p.checks }

(* The paper's state-variable rule (§III-B): a loop-header phi with at
   least one operand arriving over a back edge.  Returns each such phi
   with its back-edge operands, building the function's CFG and loops
   once. *)
let func_chains (f : Ir.Func.t) =
  let cfg = Cfg.of_func f in
  let loops = Loops.compute cfg in
  Loops.header_phis loops
  |> List.filter_map (fun ((loop : Loops.loop), _header, (phi : Ir.Instr.phi)) ->
         let latch_labels = List.map (Cfg.label cfg) loop.Loops.latches in
         match
           List.filter
             (fun (lbl, _) -> List.mem lbl latch_labels)
             phi.Ir.Instr.incoming
         with
         | [] -> None
         | back_edges -> Some (phi, back_edges))

let chain_of (f : Ir.Func.t) (phi : Ir.Instr.phi) =
  { ch_func = f.Ir.Func.name; ch_phi_uid = phi.Ir.Instr.phi_uid }

let site_of (f : Ir.Func.t) (ins : Ir.Instr.t) =
  { vs_func = f.Ir.Func.name; vs_uid = ins.Ir.Instr.uid }

let candidate_chains prog =
  List.concat_map
    (fun f -> List.map (fun (phi, _) -> chain_of f phi) (func_chains f))
    prog.Ir.Prog.funcs
  |> dedup_sorted chain_key

(* The stand-alone check candidate rule: an original value-producing
   instruction whose profile knows a check shape. *)
let func_candidates ~profile (f : Ir.Func.t) =
  List.concat_map
    (fun (b : Ir.Block.t) ->
      Array.to_list b.Ir.Block.body
      |> List.filter (fun (ins : Ir.Instr.t) ->
             Ir.Instr.produces_value ins
             && ins.Ir.Instr.origin = Ir.Instr.From_source
             && profile ins.Ir.Instr.uid <> None))
    f.Ir.Func.blocks

let candidate_sites ~profile prog =
  List.concat_map
    (fun f -> List.map (site_of f) (func_candidates ~profile f))
    prog.Ir.Prog.funcs
  |> dedup_sorted site_key

(* A phi's operands are walked first to last and an instruction's last
   to first, the order the pinned protected programs were minted in, so
   they keep their registers and uids.  A phi or clone is memoized before
   its operands are walked, so a loop-carried cycle ends. *)
let chain_walk ud ~memo ~stop ~on_phi ~on_clone ~on_stop =
  let rec walk r =
    match Hashtbl.find_opt memo r with
    | Some shadowed -> shadowed
    | None -> (
      match Usedef.def_of ud r with
      | None | Some Usedef.Param ->
        Hashtbl.replace memo r false;
        false
      | Some (Usedef.Phi_def (b, phi)) ->
        Hashtbl.replace memo r true;
        on_phi b phi;
        List.iter
          (fun (_, op) ->
            match op with
            | Ir.Instr.Reg r' -> ignore (walk r')
            | Ir.Instr.Imm _ -> ())
          phi.Ir.Instr.incoming;
        true
      | Some (Usedef.Instr_def (b, ins)) ->
        if Usedef.chain_terminator ins then (
          Hashtbl.replace memo r false;
          false)
        else if stop ins then (
          Hashtbl.replace memo r false;
          on_stop b ins;
          false)
        else (
          Hashtbl.replace memo r true;
          let finish = on_clone b ins in
          List.iter (fun r' -> ignore (walk r')) (List.rev (Ir.Instr.uses ins));
          finish ();
          true))
  in
  walk

(* Optimization 2 as the duplication pass applies it: walk the producer
   web from a chain's back edges, stopping at the first instruction with
   a check shape, which becomes a terminator site. *)
let opt2_sites ~profile ud f back_edges =
  let sites = ref [] in
  let walk =
    chain_walk ud ~memo:(Hashtbl.create 32)
      ~stop:(fun (ins : Ir.Instr.t) ->
        ins.Ir.Instr.dest <> None && profile ins.Ir.Instr.uid <> None)
      ~on_phi:(fun _ _ -> ())
      ~on_clone:(fun _ _ () -> ())
      ~on_stop:(fun _ ins -> sites := site_of f ins :: !sites)
  in
  List.iter
    (fun (_, op) ->
      match op with
      | Ir.Instr.Reg r -> ignore (walk r)
      | Ir.Instr.Imm _ -> ())
    back_edges;
  !sites

(* Optimization 1: drop every candidate that sits inside another
   candidate's producer chain, so only the deepest check of a chain
   survives. *)
let opt1_survivors ud candidates =
  let covered : (int, unit) Hashtbl.t = Hashtbl.create 16 in
  List.iter
    (fun (ins : Ir.Instr.t) ->
      List.iter
        (fun r ->
          let chain, (_ : Ir.Instr.reg list) = Usedef.producer_chain ud r in
          List.iter
            (fun (producer : Ir.Instr.t) ->
              Hashtbl.replace covered producer.Ir.Instr.uid ())
            chain)
        (Ir.Instr.uses ins))
    candidates;
  List.filter
    (fun (ins : Ir.Instr.t) -> not (Hashtbl.mem covered ins.Ir.Instr.uid))
    candidates

let chain_terminators ~profile prog =
  List.concat_map
    (fun (f : Ir.Func.t) ->
      match func_chains f with
      | [] -> []
      | chains ->
        let ud = Usedef.compute f in
        List.map
          (fun (phi, back_edges) ->
            ( chain_of f phi,
              dedup_sorted site_key (opt2_sites ~profile ud f back_edges) ))
          chains)
    prog.Ir.Prog.funcs
  |> List.sort (fun (a, _) (b, _) -> compare (chain_key a) (chain_key b))

let all_chains prog = normalize { empty with chains = candidate_chains prog }

let paper ?(opt1 = true) ?(opt2 = true) ~profile prog =
  let per_func (f : Ir.Func.t) =
    let chains = func_chains f in
    let ud = lazy (Usedef.compute f) in
    let terminators =
      if opt2 then
        List.concat_map
          (fun (_, back_edges) ->
            opt2_sites ~profile (Lazy.force ud) f back_edges)
          chains
      else []
    in
    let taken = List.map (fun s -> s.vs_uid) terminators in
    let candidates =
      List.filter
        (fun (ins : Ir.Instr.t) -> not (List.mem ins.Ir.Instr.uid taken))
        (func_candidates ~profile f)
    in
    let checks =
      if opt1 && candidates <> [] then
        opt1_survivors (Lazy.force ud) candidates
      else candidates
    in
    ( List.map (fun (phi, _) -> chain_of f phi) chains,
      terminators,
      List.map (site_of f) checks )
  in
  let parts = List.map per_func prog.Ir.Prog.funcs in
  normalize
    { chains = List.concat_map (fun (c, _, _) -> c) parts;
      terminators = List.concat_map (fun (_, t, _) -> t) parts;
      checks = List.concat_map (fun (_, _, v) -> v) parts;
      checkpoint = 0 }

let describe p =
  let p = normalize p in
  Printf.sprintf "plan[c%d t%d v%d K%d]" (List.length p.chains)
    (List.length p.terminators) (List.length p.checks) p.checkpoint

let schema = "softft.plan.v1"

let to_json p =
  let p = normalize p in
  let chain_json c =
    Obs.Json.Obj
      [ ("func", Obs.Json.Str c.ch_func); ("phi_uid", Obs.Json.Int c.ch_phi_uid) ]
  in
  let site_json s =
    Obs.Json.Obj
      [ ("func", Obs.Json.Str s.vs_func); ("uid", Obs.Json.Int s.vs_uid) ]
  in
  Obs.Json.Obj
    [ ("schema", Obs.Json.Str schema);
      ("checkpoint", Obs.Json.Int p.checkpoint);
      ("chains", Obs.Json.List (List.map chain_json p.chains));
      ("terminators", Obs.Json.List (List.map site_json p.terminators));
      ("checks", Obs.Json.List (List.map site_json p.checks)) ]

let of_json j =
  let open Obs.Json in
  let str key o = Option.bind (member key o) to_str in
  let int key o = Option.bind (member key o) to_int in
  (* Every element must read back, or the whole plan is rejected. *)
  let list key f =
    Option.bind (Option.bind (member key j) to_list) (fun l ->
      let items = List.filter_map f l in
      if List.length items = List.length l then Some items else None)
  in
  let chain o =
    match str "func" o, int "phi_uid" o with
    | Some ch_func, Some ch_phi_uid -> Some { ch_func; ch_phi_uid }
    | _, _ -> None
  in
  let site o =
    match str "func" o, int "uid" o with
    | Some vs_func, Some vs_uid -> Some { vs_func; vs_uid }
    | _, _ -> None
  in
  match
    ( str "schema" j, int "checkpoint" j, list "chains" chain,
      list "terminators" site, list "checks" site )
  with
  | Some s, Some checkpoint, Some chains, Some terminators, Some checks
    when s = schema ->
    Some { chains; terminators; checks; checkpoint }
  | _ -> None

let to_string p = Obs.Json.to_string (to_json p)

let slug p =
  let p = normalize p in
  let digest = Digest.to_hex (Digest.string (to_string p)) in
  Printf.sprintf "c%dt%dv%dk%d-%s" (List.length p.chains)
    (List.length p.terminators) (List.length p.checks) p.checkpoint
    (String.sub digest 0 6)
