(** Unit tests for the IR editing primitives used by the transformation
    passes (block insertion, program queries) and the builder's error
    detection. *)

open Ir

let mk_instr prog ?dest kind =
  { Instr.uid = Prog.fresh_uid prog; dest; kind; origin = Instr.From_source }

let mk_instr prog ~dest kind = mk_instr prog ?dest:(Some dest) kind

let const_instr prog n =
  let r = Prog.fresh_reg prog in
  (r, mk_instr prog ~dest:r (Instr.Const (Value.of_int n)))

let block_with prog ns =
  let b = Block.create ~label:"b" in
  let instrs = List.map (fun n -> snd (const_instr prog n)) ns in
  Block.append b instrs;
  b

let consts_of b =
  Array.to_list b.Block.body
  |> List.map (fun (ins : Instr.t) ->
       match ins.kind with
       | Instr.Const (Value.Int i) -> Int64.to_int i
       | _ -> -1)

(* ----- Block editing ----- *)

let test_insert_after_middle () =
  let prog = Prog.create () in
  let b = block_with prog [ 1; 2; 3 ] in
  let target = b.Block.body.(1) in
  Block.insert_after b ~after_uid:target.uid [ snd (const_instr prog 99) ];
  Alcotest.(check (list int)) "after middle" [ 1; 2; 99; 3 ] (consts_of b)

let test_insert_after_last () =
  let prog = Prog.create () in
  let b = block_with prog [ 1; 2 ] in
  let target = b.Block.body.(1) in
  Block.insert_after b ~after_uid:target.uid [ snd (const_instr prog 99) ];
  Alcotest.(check (list int)) "after last" [ 1; 2; 99 ] (consts_of b)

let test_insert_before_first () =
  let prog = Prog.create () in
  let b = block_with prog [ 1; 2 ] in
  let target = b.Block.body.(0) in
  Block.insert_before b ~before_uid:target.uid [ snd (const_instr prog 99) ];
  Alcotest.(check (list int)) "before first" [ 99; 1; 2 ] (consts_of b)

let test_insert_multiple () =
  let prog = Prog.create () in
  let b = block_with prog [ 1 ] in
  let target = b.Block.body.(0) in
  Block.insert_after b ~after_uid:target.uid
    [ snd (const_instr prog 7); snd (const_instr prog 8) ];
  Alcotest.(check (list int)) "order kept" [ 1; 7; 8 ] (consts_of b)

let test_insert_unknown_uid () =
  let prog = Prog.create () in
  let b = block_with prog [ 1 ] in
  Alcotest.check_raises "missing uid" Not_found (fun () ->
    Block.insert_after b ~after_uid:123456 [ snd (const_instr prog 9) ])

(* ----- Prog queries ----- *)

let test_prog_find_instr () =
  let prog = Prog.create () in
  let b = Builder.create prog ~name:"main" ~n_params:0 in
  let x = Builder.add b (Builder.imm 1) (Builder.imm 2) in
  Builder.ret b x;
  Builder.finish b;
  let f = Prog.find_func prog "main" in
  let ins = (Func.entry_block f).Block.body.(0) in
  let instr_text = Printer.instr_text prog in
  Alcotest.(check string) "found by uid"
    (String.trim (Format.asprintf "%a" Printer.pp_instr ins))
    (instr_text ins.uid);
  Alcotest.(check string) "unknown uid" "#10000" (instr_text 10_000)

let test_prog_duplicate_function_rejected () =
  let prog = Prog.create () in
  let (_ : Func.t) = Prog.add_func prog ~name:"f" ~n_params:0 ~entry_label:"e" in
  Alcotest.(check bool) "duplicate rejected" true
    (try
       ignore (Prog.add_func prog ~name:"f" ~n_params:0 ~entry_label:"e");
       false
     with Invalid_argument _ -> true)

let test_fresh_counters_monotone () =
  let prog = Prog.create () in
  let a = Prog.fresh_reg prog and b = Prog.fresh_reg prog in
  let u = Prog.fresh_uid prog and v = Prog.fresh_uid prog in
  Alcotest.(check bool) "regs distinct" true (a <> b);
  Alcotest.(check bool) "uids distinct" true (u <> v)

(* ----- Builder error paths ----- *)

let test_builder_rejects_emit_after_terminator () =
  let prog = Prog.create () in
  let b = Builder.create prog ~name:"main" ~n_params:0 in
  Builder.ret b (Builder.imm 0);
  Alcotest.(check bool) "emit after ret" true
    (try
       ignore (Builder.add b (Builder.imm 1) (Builder.imm 2));
       false
     with Invalid_argument _ -> true)

let test_builder_rejects_double_terminator () =
  let prog = Prog.create () in
  let b = Builder.create prog ~name:"main" ~n_params:0 in
  Builder.ret b (Builder.imm 0);
  Alcotest.(check bool) "double terminator" true
    (try Builder.ret b (Builder.imm 1); false
     with Invalid_argument _ -> true)

let test_builder_rejects_unterminated_finish () =
  let prog = Prog.create () in
  let b = Builder.create prog ~name:"main" ~n_params:0 in
  let (_ : Instr.operand) = Builder.add b (Builder.imm 1) (Builder.imm 2) in
  Alcotest.(check bool) "finish without terminator" true
    (try Builder.finish b; false with Invalid_argument _ -> true)

let test_builder_rejects_mismatched_loop_arity () =
  let prog = Prog.create () in
  let b = Builder.create prog ~name:"main" ~n_params:0 in
  Alcotest.(check bool) "loop arity" true
    (try
       ignore
         (Builder.loop b
            ~init:[ Builder.imm 0; Builder.imm 1 ]
            ~cond:(fun _ -> Builder.imm 0)
            ~body:(fun _ -> [ Builder.imm 0 ]));
       false
     with Invalid_argument _ -> true)

let test_builder_rejects_mismatched_if_arity () =
  let prog = Prog.create () in
  let b = Builder.create prog ~name:"main" ~n_params:0 in
  Alcotest.(check bool) "if arity" true
    (try
       ignore
         (Builder.if_ b (Builder.imm 1)
            ~then_:(fun () -> [ Builder.imm 1 ])
            ~else_:(fun () -> []));
       false
     with Invalid_argument _ -> true)

(* ----- Instr helpers ----- *)

let test_instr_operand_views () =
  let prog = Prog.create () in
  let r1 = Prog.fresh_reg prog and r2 = Prog.fresh_reg prog in
  let ins =
    mk_instr prog ~dest:(Prog.fresh_reg prog)
      (Instr.Binop (Opcode.Add, Instr.Reg r1, Instr.Reg r2))
  in
  Alcotest.(check (list int)) "uses" [ r1; r2 ] (Instr.uses ins);
  let mapped =
    Instr.map_operands
      (fun op -> match op with Instr.Reg _ -> Instr.Imm Value.one | x -> x)
      ins
  in
  Alcotest.(check (list int)) "rewritten" [] (Instr.uses mapped)

let test_check_passes_semantics () =
  let open Instr in
  let i n = Value.of_int n in
  Alcotest.(check bool) "single hit" true (check_passes (Single (i 5)) (i 5));
  Alcotest.(check bool) "single miss" false (check_passes (Single (i 5)) (i 6));
  Alcotest.(check bool) "double hit" true
    (check_passes (Double (i 1, i 9)) (i 9));
  Alcotest.(check bool) "range inclusive" true
    (check_passes (Range (i 0, i 10)) (i 10));
  Alcotest.(check bool) "range miss" false
    (check_passes (Range (i 0, i 10)) (i 11));
  (* Kind mismatch fails closed: an int range rejects a float value. *)
  Alcotest.(check bool) "kind mismatch rejected" false
    (check_passes (Range (i 0, i 10)) (Value.of_float 5.0))

let tests =
  [ Alcotest.test_case "block: insert after middle" `Quick test_insert_after_middle;
    Alcotest.test_case "block: insert after last" `Quick test_insert_after_last;
    Alcotest.test_case "block: insert before first" `Quick test_insert_before_first;
    Alcotest.test_case "block: insert multiple" `Quick test_insert_multiple;
    Alcotest.test_case "block: unknown uid" `Quick test_insert_unknown_uid;
    Alcotest.test_case "prog: find instr" `Quick test_prog_find_instr;
    Alcotest.test_case "prog: duplicate function" `Quick
      test_prog_duplicate_function_rejected;
    Alcotest.test_case "prog: fresh counters" `Quick test_fresh_counters_monotone;
    Alcotest.test_case "builder: emit after terminator" `Quick
      test_builder_rejects_emit_after_terminator;
    Alcotest.test_case "builder: double terminator" `Quick
      test_builder_rejects_double_terminator;
    Alcotest.test_case "builder: unterminated finish" `Quick
      test_builder_rejects_unterminated_finish;
    Alcotest.test_case "builder: loop arity" `Quick
      test_builder_rejects_mismatched_loop_arity;
    Alcotest.test_case "builder: if arity" `Quick
      test_builder_rejects_mismatched_if_arity;
    Alcotest.test_case "instr: operand views" `Quick test_instr_operand_views;
    Alcotest.test_case "instr: check semantics" `Quick test_check_passes_semantics;
  ]
