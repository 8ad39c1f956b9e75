(** Tests for the analysis library: CFG, dominators, loops, use-def. *)

open Ir

(* A diamond with a loop on one side:
   entry -> a -> (b | c); b -> latch -> a (back edge); c -> exit *)
let diamond_loop_prog () =
  let prog = Prog.create () in
  let b = Builder.create prog ~name:"main" ~n_params:1 in
  let n = Builder.param b 0 in
  let total =
    Builder.for_up b ~from:(Builder.imm 0) ~until:n ~carried:[ Builder.imm 0 ]
      ~body:(fun ~i regs ->
        match regs with
        | [ acc ] ->
          let odd = Builder.and_ b i (Builder.imm 1) in
          let vals =
            Builder.if_ b odd
              ~then_:(fun () -> [ Builder.add b (Reg acc) i ])
              ~else_:(fun () -> [ Builder.sub b (Reg acc) i ])
          in
          (match vals with [ v ] -> [ Instr.Reg v ] | _ -> assert false)
        | _ -> assert false)
      ()
  in
  (match total with [ s ] -> Builder.ret b (Reg s) | _ -> assert false);
  Builder.finish b;
  Verifier.verify prog;
  prog

let cfg_of prog = Analysis.Cfg.of_func (Prog.find_func prog "main")

let test_cfg_structure () =
  let cfg = cfg_of (diamond_loop_prog ()) in
  Alcotest.(check bool) "has blocks" true (Analysis.Cfg.n_blocks cfg >= 5);
  (* Entry has no predecessors. *)
  Alcotest.(check (list int)) "entry preds" [] cfg.pred.(cfg.entry);
  (* Successor/predecessor consistency. *)
  for node = 0 to Analysis.Cfg.n_blocks cfg - 1 do
    List.iter
      (fun s ->
        Alcotest.(check bool) "succ/pred consistent" true
          (List.mem node cfg.pred.(s)))
      cfg.succ.(node)
  done

let test_rpo_starts_at_entry () =
  let cfg = cfg_of (diamond_loop_prog ()) in
  let rpo = Analysis.Cfg.reverse_postorder cfg in
  Alcotest.(check int) "first is entry" cfg.entry rpo.(0)

let test_dominators () =
  let cfg = cfg_of (diamond_loop_prog ()) in
  let dom = Analysis.Dom.compute cfg in
  (* Entry dominates everything reachable. *)
  let reachable = Analysis.Cfg.reachable cfg in
  for node = 0 to Analysis.Cfg.n_blocks cfg - 1 do
    if reachable.(node) then
      Alcotest.(check bool) "entry dominates" true
        (Analysis.Dom.dominates dom cfg.entry node)
  done;
  (* Dominance is reflexive and antisymmetric on distinct nodes. *)
  for node = 0 to Analysis.Cfg.n_blocks cfg - 1 do
    if reachable.(node) then begin
      Alcotest.(check bool) "reflexive" true (Analysis.Dom.dominates dom node node)
    end
  done

let test_idom_is_dominator () =
  let cfg = cfg_of (diamond_loop_prog ()) in
  let dom = Analysis.Dom.compute cfg in
  for node = 0 to Analysis.Cfg.n_blocks cfg - 1 do
    match Analysis.Dom.idom dom node with
    | None -> ()
    | Some parent ->
      Alcotest.(check bool) "idom dominates child" true
        (Analysis.Dom.dominates dom parent node)
  done

let test_loop_detection () =
  let cfg = cfg_of (diamond_loop_prog ()) in
  let loops = Analysis.Loops.compute cfg in
  Alcotest.(check int) "one loop" 1 (List.length loops.loops);
  let l = List.hd loops.loops in
  Alcotest.(check int) "depth 1" 1 l.depth;
  Alcotest.(check bool) "header in body" true (List.mem l.header l.body);
  List.iter
    (fun latch ->
      Alcotest.(check bool) "latch in body" true (List.mem latch l.body))
    l.latches

let test_nested_loop_depth () =
  let prog = Prog.create () in
  let b = Builder.create prog ~name:"main" ~n_params:0 in
  Builder.for_each b ~from:(Builder.imm 0) ~until:(Builder.imm 3)
    ~body:(fun ~i:_ ->
      Builder.for_each b ~from:(Builder.imm 0) ~until:(Builder.imm 3)
        ~body:(fun ~i:_ -> ()));
  Builder.ret b (Builder.imm 0);
  Builder.finish b;
  let cfg = cfg_of prog in
  let loops = Analysis.Loops.compute cfg in
  Alcotest.(check int) "two loops" 2 (List.length loops.loops);
  let depths = List.sort compare (List.map (fun l -> l.Analysis.Loops.depth) loops.loops) in
  Alcotest.(check (list int)) "depths 1 and 2" [ 1; 2 ] depths

let test_header_phis_are_state_vars () =
  let cfg = cfg_of (diamond_loop_prog ()) in
  let loops = Analysis.Loops.compute cfg in
  let phis = Analysis.Loops.header_phis loops in
  (* Index + accumulator. *)
  Alcotest.(check int) "two header phis" 2 (List.length phis)

let test_usedef_defs () =
  let prog = diamond_loop_prog () in
  let f = Prog.find_func prog "main" in
  let ud = Analysis.Usedef.compute f in
  (* Every used register has a def site. *)
  Func.iter_instrs
    (fun ins ->
      List.iter
        (fun r ->
          Alcotest.(check bool) "use has def" true
            (Analysis.Usedef.def_of ud r <> None))
        (Instr.uses ins))
    f;
  (* Parameters are Param defs. *)
  List.iter
    (fun p ->
      match Analysis.Usedef.def_of ud p with
      | Some Analysis.Usedef.Param -> ()
      | _ -> Alcotest.fail "param not recognized")
    f.params

let test_producer_chain_stops_at_loads () =
  let prog = Prog.create () in
  let b = Builder.create prog ~name:"main" ~n_params:1 in
  let base = Builder.param b 0 in
  let x = Builder.load b base in
  let y = Builder.add b x (Builder.imm 1) in
  let z = Builder.mul b y y in
  Builder.ret b z;
  Builder.finish b;
  let f = Prog.find_func prog "main" in
  let ud = Analysis.Usedef.compute f in
  match z with
  | Instr.Reg r ->
    let chain, stops = Analysis.Usedef.producer_chain ud r in
    (* mul and add are in the chain; the load terminates it. *)
    Alcotest.(check int) "chain length" 2 (List.length chain);
    Alcotest.(check bool) "load is a stop" true
      (List.exists
         (fun s ->
           match Analysis.Usedef.def_of ud s with
           | Some (Analysis.Usedef.Instr_def (_, ins)) ->
             (match ins.kind with Instr.Load _ -> true | _ -> false)
           | _ -> false)
         stops)
  | Instr.Imm _ -> Alcotest.fail "expected a register"

let test_producer_chain_handles_cycles () =
  (* The loop accumulator's chain must terminate despite the phi cycle. *)
  let prog = diamond_loop_prog () in
  let f = Prog.find_func prog "main" in
  let ud = Analysis.Usedef.compute f in
  List.iter
    (fun (_, back_edges) ->
      List.iter
        (fun (_, op) ->
          match op with
          | Instr.Reg r ->
            let chain, _ = Analysis.Usedef.producer_chain ud r in
            Alcotest.(check bool) "chain finite" true (List.length chain < 100)
          | Instr.Imm _ -> ())
        back_edges)
    (Analysis.Plan.func_chains f)

(* An irreducible CFG: the cycle a <-> b has two entry points, so neither
   node dominates the other and no back edge targets a dominator.  Natural
   loop detection must find nothing while dominators stay well-defined. *)
let irreducible_prog () =
  Parser.parse
    "func @main(%r0) {\n\
     entry:\n\
    \  br %r0, a, b\n\
     a:\n\
    \  jmp b\n\
     b:\n\
    \  br %r0, a, exit\n\
     exit:\n\
    \  ret %r0\n\
     }\n"

let test_irreducible_no_natural_loops () =
  let cfg = cfg_of (irreducible_prog ()) in
  let loops = Analysis.Loops.compute cfg in
  Alcotest.(check int) "no natural loops" 0 (List.length loops.loops)

let test_irreducible_dominators () =
  let cfg = cfg_of (irreducible_prog ()) in
  let dom = Analysis.Dom.compute cfg in
  let a = Analysis.Cfg.index cfg "a" and b = Analysis.Cfg.index cfg "b" in
  let exit = Analysis.Cfg.index cfg "exit" in
  List.iter
    (fun n ->
      Alcotest.(check bool) "entry dominates" true
        (Analysis.Dom.dominates dom cfg.entry n))
    [ a; b; exit ];
  (* Both cycle nodes are reachable around the other: no mutual dominance,
     and each one's immediate dominator collapses to the entry. *)
  Alcotest.(check bool) "a !dom b" false (Analysis.Dom.dominates dom a b);
  Alcotest.(check bool) "b !dom a" false (Analysis.Dom.dominates dom b a);
  Alcotest.(check (option int)) "idom a = entry" (Some cfg.entry)
    (Analysis.Dom.idom dom a);
  Alcotest.(check (option int)) "idom b = entry" (Some cfg.entry)
    (Analysis.Dom.idom dom b);
  Alcotest.(check (option int)) "idom exit = b" (Some b)
    (Analysis.Dom.idom dom exit)

(* A self-loop: the header is its own latch. *)
let self_loop_prog () =
  Parser.parse
    "func @main(%r0) {\n\
     entry:\n\
    \  jmp loop\n\
     loop:\n\
    \  %r1 = phi [entry: 0], [loop: %r2]    ; #0\n\
    \  %r2 = add %r1, 1    ; #1\n\
    \  %r3 = icmp slt %r2, %r0    ; #2\n\
    \  br %r3, loop, exit\n\
     exit:\n\
    \  ret %r2\n\
     }\n"

let test_self_loop () =
  let cfg = cfg_of (self_loop_prog ()) in
  let loops = Analysis.Loops.compute cfg in
  Alcotest.(check int) "one loop" 1 (List.length loops.loops);
  let l = List.hd loops.loops in
  let node = Analysis.Cfg.index cfg "loop" in
  Alcotest.(check int) "header is the self-loop block" node l.header;
  Alcotest.(check (list int)) "header is its own latch" [ node ] l.latches;
  Alcotest.(check (list int)) "body is just the header" [ node ] l.body;
  Alcotest.(check int) "depth 1" 1 l.depth;
  Alcotest.(check int) "one header phi (the accumulator)" 1
    (List.length (Analysis.Loops.header_phis loops))

(* ----- liveness phi-edge exactness ----- *)

let test_liveness_phi_edge_dedupe () =
  (* Two phis in c both read %r1 on the edge from a: the predecessor's
     live-out must list the register exactly once. *)
  let prog =
    Parser.parse
      "func @main(%r0) {\n\
       entry:\n\
      \  %r1 = add %r0, 1    ; #0\n\
      \  br %r0, a, b\n\
       a:\n\
      \  jmp c\n\
       b:\n\
      \  jmp c\n\
       c:\n\
      \  %r2 = phi [a: %r1], [b: 0]    ; #1\n\
      \  %r3 = phi [a: %r1], [b: 1]    ; #2\n\
      \  %r4 = add %r2, %r3    ; #3\n\
      \  ret %r4\n\
       }\n"
  in
  let f = Prog.find_func prog "main" in
  let r1 =
    match (Func.find_block f "entry").body.(0).dest with
    | Some r -> r
    | None -> Alcotest.fail "entry add has a dest"
  in
  Alcotest.(check int) "edge uses deduped" 1
    (List.length
       (Analysis.Liveness.phi_edge_uses (Func.find_block f "c")
          ~pred_label:"a"));
  let live = Analysis.Liveness.compute (cfg_of prog) in
  Alcotest.(check (list int)) "live out of a = exactly [r1]" [ r1 ]
    (Analysis.Liveness.live_out live "a");
  Alcotest.(check (list int)) "live out of b = [] (imm incomings)" []
    (Analysis.Liveness.live_out live "b");
  Alcotest.(check (list int)) "nothing live into c (phi defs at entry)" []
    (Analysis.Liveness.live_in live "c")

(* ----- liveness ----- *)

let test_liveness_loop () =
  let prog = Prog.create () in
  let b = Builder.create prog ~name:"main" ~n_params:1 in
  let n = Builder.param b 0 in
  let s =
    Workloads.Kutil.for1 b ~from:(Builder.imm 0) ~until:n
      ~init:(Builder.imm 0)
      ~body:(fun ~i acc -> Builder.add b acc i)
  in
  Builder.ret b s;
  Builder.finish b;
  let f = Prog.find_func prog "main" in
  let cfg = Analysis.Cfg.of_func f in
  let live = Analysis.Liveness.compute cfg in
  (* The loop bound (parameter) is live into the loop header. *)
  let header =
    List.find
      (fun (bl : Block.t) -> bl.phis <> [])
      f.blocks
  in
  let n_reg = List.hd f.params in
  Alcotest.(check bool) "bound live at header" true
    (List.mem n_reg (Analysis.Liveness.live_in live header.label))

let test_liveness_dead_value () =
  let prog = Prog.create () in
  let b = Builder.create prog ~name:"main" ~n_params:1 in
  let x = Builder.param b 0 in
  let (_dead : Instr.operand) = Builder.mul b x x in
  Builder.ret b x;
  Builder.finish b;
  let f = Prog.find_func prog "main" in
  let live = Analysis.Liveness.compute (Analysis.Cfg.of_func f) in
  (* The dead product is not live anywhere (single block: live_in = uses). *)
  let entry_live = Analysis.Liveness.live_in live f.entry in
  Alcotest.(check (list int)) "only the param is live-in" f.params entry_live

let tests =
  [ Alcotest.test_case "cfg: structure" `Quick test_cfg_structure;
    Alcotest.test_case "cfg: rpo entry first" `Quick test_rpo_starts_at_entry;
    Alcotest.test_case "dom: entry dominates all" `Quick test_dominators;
    Alcotest.test_case "dom: idom is dominator" `Quick test_idom_is_dominator;
    Alcotest.test_case "loops: single loop" `Quick test_loop_detection;
    Alcotest.test_case "loops: nesting depth" `Quick test_nested_loop_depth;
    Alcotest.test_case "loops: header phis" `Quick test_header_phis_are_state_vars;
    Alcotest.test_case "usedef: defs resolve" `Quick test_usedef_defs;
    Alcotest.test_case "usedef: chain stops at loads" `Quick
      test_producer_chain_stops_at_loads;
    Alcotest.test_case "usedef: chain handles phi cycles" `Quick
      test_producer_chain_handles_cycles;
    Alcotest.test_case "loops: irreducible cycle has none" `Quick
      test_irreducible_no_natural_loops;
    Alcotest.test_case "dom: irreducible cycle" `Quick
      test_irreducible_dominators;
    Alcotest.test_case "loops: self-loop header is latch" `Quick
      test_self_loop;
    Alcotest.test_case "liveness: phi edge dedupe" `Quick
      test_liveness_phi_edge_dedupe;
    Alcotest.test_case "liveness: loop bound" `Quick test_liveness_loop;
    Alcotest.test_case "liveness: dead value" `Quick test_liveness_dead_value;
  ]
