(** Unit tests for the IR: values, opcodes, builder, printer, verifier. *)

open Ir

let check = Alcotest.check
let int64 = Alcotest.int64

(* Whether [p] passes the verifier. *)
let is_valid p =
  match Verifier.verify p with
  | () -> true
  | exception Verifier.Invalid _ -> false

(* ----- Value ----- *)

let test_bits_roundtrip () =
  check int64 "int bits" 42L (Value.bits (Value.Int 42L));
  let f = 3.25 in
  check int64 "float bits" (Int64.bits_of_float f) (Value.bits (Value.Float f))

let test_flip_bit_int () =
  let v = Value.Int 0L in
  check int64 "flip bit 0" 1L (Value.to_int64 (Value.flip_bit v 0));
  check int64 "flip bit 5" 32L (Value.to_int64 (Value.flip_bit v 5));
  check int64 "flip bit 63" Int64.min_int (Value.to_int64 (Value.flip_bit v 63))

let test_flip_bit_involution () =
  let v = Value.Int 123456789L in
  for b = 0 to 63 do
    let twice = Value.flip_bit (Value.flip_bit v b) b in
    check int64 (Printf.sprintf "bit %d" b) 123456789L (Value.to_int64 twice)
  done

let test_flip_preserves_kind () =
  Alcotest.(check bool) "float stays float" true
    (Value.is_float (Value.flip_bit (Value.Float 1.5) 13));
  Alcotest.(check bool) "int stays int" true
    (Value.is_int (Value.flip_bit (Value.Int 7L) 13))

let test_value_equal () =
  Alcotest.(check bool) "nan = nan (bitwise)" true
    (Value.equal (Value.Float Float.nan) (Value.Float Float.nan));
  Alcotest.(check bool) "kind mismatch" false
    (Value.equal (Value.Int 0L) (Value.Float 0.0))

let test_disturbance () =
  Alcotest.(check (float 1e-9)) "int disturbance" 65536.0
    (Value.disturbance ~before:(Value.Int 0L) ~after:(Value.Int 65536L));
  Alcotest.(check bool) "kind change is infinite" true
    (Value.disturbance ~before:(Value.Int 0L) ~after:(Value.Float 0.0)
     = Float.infinity)

(* ----- Opcode evaluation ----- *)

let test_binops () =
  let i n = Value.Int (Int64.of_int n) in
  check int64 "add" 7L (Value.to_int64 (Opcode.eval_binop Opcode.Add (i 3) (i 4)));
  check int64 "sub" (-1L) (Value.to_int64 (Opcode.eval_binop Opcode.Sub (i 3) (i 4)));
  check int64 "mul" 12L (Value.to_int64 (Opcode.eval_binop Opcode.Mul (i 3) (i 4)));
  check int64 "sdiv" 2L (Value.to_int64 (Opcode.eval_binop Opcode.Sdiv (i 9) (i 4)));
  check int64 "srem" 1L (Value.to_int64 (Opcode.eval_binop Opcode.Srem (i 9) (i 4)));
  check int64 "shl" 40L (Value.to_int64 (Opcode.eval_binop Opcode.Shl (i 5) (i 3)));
  check int64 "ashr neg" (-2L)
    (Value.to_int64 (Opcode.eval_binop Opcode.Ashr (i (-8)) (i 2)));
  Alcotest.(check (float 1e-9)) "fadd" 5.5
    (Value.to_float (Opcode.eval_binop Opcode.Fadd (Value.Float 2.0) (Value.Float 3.5)))

let test_div_by_zero () =
  Alcotest.check_raises "sdiv 0" Opcode.Division_by_zero (fun () ->
    ignore (Opcode.eval_binop Opcode.Sdiv (Value.Int 1L) (Value.Int 0L)));
  Alcotest.check_raises "srem 0" Opcode.Division_by_zero (fun () ->
    ignore (Opcode.eval_binop Opcode.Srem (Value.Int 1L) (Value.Int 0L)))

let test_icmp () =
  let i n = Value.Int (Int64.of_int n) in
  let t op a b = Value.truthy (Opcode.eval_icmp op a b) in
  Alcotest.(check bool) "slt" true (t Opcode.Islt (i 1) (i 2));
  Alcotest.(check bool) "sge" true (t Opcode.Isge (i 2) (i 2));
  Alcotest.(check bool) "eq" false (t Opcode.Ieq (i 1) (i 2))

let test_kind_error () =
  Alcotest.(check bool) "int op on float raises" true
    (try
       ignore (Opcode.eval_binop Opcode.Add (Value.Float 1.0) (Value.Int 1L));
       false
     with Value.Kind_error _ -> true)

(* ----- Builder + a small interpreted program ----- *)

(* sum of 0..n-1 via a loop: exercises phis, icmp, br. *)
let build_sum_prog () =
  let prog = Prog.create () in
  let b = Builder.create prog ~name:"main" ~n_params:1 in
  let n = Builder.param b 0 in
  let sum =
    Builder.for_up b ~from:(Builder.imm 0) ~until:n
      ~carried:[ Builder.imm 0 ]
      ~body:(fun ~i regs ->
        match regs with
        | [ acc ] -> [ Builder.add b (Reg acc) i ]
        | _ -> assert false)
      ()
  in
  (match sum with
   | [ s ] -> Builder.ret b (Reg s)
   | _ -> assert false);
  Builder.finish b;
  prog

let run_main ?config prog args =
  let mem = Interp.Memory.create () in
  Interp.Machine.run ?config prog ~entry:"main" ~args ~mem

let test_builder_sum () =
  let prog = build_sum_prog () in
  Verifier.verify prog;
  let result = run_main prog [ Value.of_int 10 ] in
  match result.stop with
  | Interp.Machine.Finished (Some v) ->
    check int64 "sum 0..9" 45L (Value.to_int64 v)
  | _ -> Alcotest.failf "unexpected stop: %a" Interp.Machine.pp_stop result.stop

let test_builder_if () =
  let prog = Prog.create () in
  let b = Builder.create prog ~name:"main" ~n_params:1 in
  let x = Builder.param b 0 in
  let cond = Builder.gt b x (Builder.imm 5) in
  let vals =
    Builder.if_ b cond
      ~then_:(fun () -> [ Builder.mul b x (Builder.imm 2) ])
      ~else_:(fun () -> [ Builder.add b x (Builder.imm 100) ])
  in
  (match vals with
   | [ v ] -> Builder.ret b (Reg v)
   | _ -> assert false);
  Builder.finish b;
  Verifier.verify prog;
  let r1 = run_main prog [ Value.of_int 10 ] in
  let r2 = run_main prog [ Value.of_int 3 ] in
  (match r1.stop, r2.stop with
   | Interp.Machine.Finished (Some a), Interp.Machine.Finished (Some b) ->
     check int64 "then branch" 20L (Value.to_int64 a);
     check int64 "else branch" 103L (Value.to_int64 b)
   | _ -> Alcotest.fail "runs did not finish")

let test_nested_loops () =
  (* sum_{i<4} sum_{j<3} (i*j) = (0+1+2+3)*(0+1+2) = 18 *)
  let prog = Prog.create () in
  let b = Builder.create prog ~name:"main" ~n_params:0 in
  let total =
    Builder.for_up b ~from:(Builder.imm 0) ~until:(Builder.imm 4)
      ~carried:[ Builder.imm 0 ]
      ~body:(fun ~i regs ->
        match regs with
        | [ acc ] ->
          let inner =
            Builder.for_up b ~from:(Builder.imm 0) ~until:(Builder.imm 3)
              ~carried:[ Instr.Reg acc ]
              ~body:(fun ~i:j inner_regs ->
                match inner_regs with
                | [ acc2 ] ->
                  let prod = Builder.mul b i j in
                  [ Builder.add b (Reg acc2) prod ]
                | _ -> assert false)
              ()
          in
          (match inner with [ x ] -> [ Instr.Reg x ] | _ -> assert false)
        | _ -> assert false)
      ()
  in
  (match total with
   | [ s ] -> Builder.ret b (Reg s)
   | _ -> assert false);
  Builder.finish b;
  Verifier.verify prog;
  match (run_main prog []).stop with
  | Interp.Machine.Finished (Some v) -> check int64 "nested" 18L (Value.to_int64 v)
  | stop -> Alcotest.failf "unexpected stop: %a" Interp.Machine.pp_stop stop

let test_calls () =
  let prog = Prog.create () in
  let sq = Builder.create prog ~name:"square" ~n_params:1 in
  let x = Builder.param sq 0 in
  Builder.ret sq (Builder.mul sq x x);
  Builder.finish sq;
  let b = Builder.create prog ~name:"main" ~n_params:1 in
  let v = Builder.value b (Instr.Call ("square", [ Builder.param b 0 ])) in
  let v2 = Builder.add b v (Builder.imm 1) in
  Builder.ret b v2;
  Builder.finish b;
  Verifier.verify prog;
  match (run_main prog [ Value.of_int 6 ]).stop with
  | Interp.Machine.Finished (Some v) -> check int64 "6^2+1" 37L (Value.to_int64 v)
  | stop -> Alcotest.failf "unexpected stop: %a" Interp.Machine.pp_stop stop

let test_memory_ops () =
  let prog = Prog.create () in
  let b = Builder.create prog ~name:"main" ~n_params:0 in
  let base = Builder.alloc b (Builder.imm 8) in
  Builder.for_each b ~from:(Builder.imm 0) ~until:(Builder.imm 8)
    ~body:(fun ~i -> Builder.seti b base i (Builder.mul b i i));
  let sums =
    Builder.for_up b ~from:(Builder.imm 0) ~until:(Builder.imm 8)
      ~carried:[ Builder.imm 0 ]
      ~body:(fun ~i regs ->
        match regs with
        | [ acc ] -> [ Builder.add b (Reg acc) (Builder.geti b base i) ]
        | _ -> assert false)
      ()
  in
  (match sums with [ s ] -> Builder.ret b (Reg s) | _ -> assert false);
  Builder.finish b;
  Verifier.verify prog;
  match (run_main prog []).stop with
  | Interp.Machine.Finished (Some v) ->
    (* sum of squares 0..7 = 140 *)
    check int64 "sum squares" 140L (Value.to_int64 v)
  | stop -> Alcotest.failf "unexpected stop: %a" Interp.Machine.pp_stop stop

(* ----- Verifier ----- *)

let test_verifier_rejects_bad_branch () =
  let prog = Prog.create () in
  let b = Builder.create prog ~name:"main" ~n_params:0 in
  Builder.jmp b "nowhere";
  Builder.finish b;
  Alcotest.(check bool) "invalid" false (is_valid prog)

let test_verifier_rejects_double_def () =
  let prog = Prog.create () in
  let b = Builder.create prog ~name:"main" ~n_params:0 in
  let v = Builder.add b (Builder.imm 1) (Builder.imm 2) in
  Builder.ret b v;
  Builder.finish b;
  (* Forge a second definition of the same register. *)
  let f = Prog.find_func prog "main" in
  let entry = Func.entry_block f in
  let bad =
    { Instr.uid = Prog.fresh_uid prog;
      dest = (match v with Instr.Reg r -> Some r | Instr.Imm _ -> None);
      kind = Instr.Const Value.zero; origin = Instr.From_source }
  in
  Block.append entry [ bad ];
  Alcotest.(check bool) "invalid" false (is_valid prog)

let test_verifier_accepts_sum () =
  Alcotest.(check bool) "valid" true (is_valid (build_sum_prog ()))

let contains_substring ~affix s =
  let n = String.length affix and m = String.length s in
  let rec at i = i + n <= m && (String.sub s i n = affix || at (i + 1)) in
  at 0

let test_printer_output () =
  let prog = build_sum_prog () in
  let s = Printer.prog_to_string prog in
  Alcotest.(check bool) "mentions func" true (contains_substring ~affix:"func @main" s);
  Alcotest.(check bool) "mentions phi" true (contains_substring ~affix:"phi" s)

let tests =
  [ Alcotest.test_case "value: bits roundtrip" `Quick test_bits_roundtrip;
    Alcotest.test_case "value: flip bit" `Quick test_flip_bit_int;
    Alcotest.test_case "value: flip involution" `Quick test_flip_bit_involution;
    Alcotest.test_case "value: flip preserves kind" `Quick test_flip_preserves_kind;
    Alcotest.test_case "value: equality" `Quick test_value_equal;
    Alcotest.test_case "value: disturbance" `Quick test_disturbance;
    Alcotest.test_case "opcode: binops" `Quick test_binops;
    Alcotest.test_case "opcode: division by zero" `Quick test_div_by_zero;
    Alcotest.test_case "opcode: icmp" `Quick test_icmp;
    Alcotest.test_case "opcode: kind error" `Quick test_kind_error;
    Alcotest.test_case "builder: loop sum" `Quick test_builder_sum;
    Alcotest.test_case "builder: if/else" `Quick test_builder_if;
    Alcotest.test_case "builder: nested loops" `Quick test_nested_loops;
    Alcotest.test_case "builder: calls" `Quick test_calls;
    Alcotest.test_case "builder: memory" `Quick test_memory_ops;
    Alcotest.test_case "verifier: bad branch" `Quick test_verifier_rejects_bad_branch;
    Alcotest.test_case "verifier: double def" `Quick test_verifier_rejects_double_def;
    Alcotest.test_case "verifier: accepts sum" `Quick test_verifier_accepts_sum;
    Alcotest.test_case "printer: textual form" `Quick test_printer_output;
  ]
