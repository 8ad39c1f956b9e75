(** Round-trip tests for the IR text parser: print → parse → print must be
    a fixpoint, and parsed programs must behave identically. *)

open Ir

let roundtrip prog =
  let text = Printer.prog_to_string prog in
  let reparsed = Parser.parse text in
  let text2 = Printer.prog_to_string reparsed in
  (reparsed, text, text2)

let run_result prog args =
  let mem = Interp.Memory.create () in
  match (Interp.Machine.run prog ~entry:"main" ~args ~mem).stop with
  | Interp.Machine.Finished (Some v) -> Value.to_int64 v
  | stop ->
    Alcotest.failf "run did not finish: %a" Interp.Machine.pp_stop stop

let test_roundtrip_sum_loop () =
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
  let reparsed, text, text2 = roundtrip prog in
  Alcotest.(check string) "print/parse/print fixpoint" text text2;
  Alcotest.(check int64) "same behaviour"
    (run_result prog [ Value.of_int 20 ])
    (run_result reparsed [ Value.of_int 20 ])

let test_roundtrip_all_instruction_forms () =
  (* One program touching every instruction form the printer can emit. *)
  let prog = Prog.create () in
  let b = Builder.create prog ~name:"helper" ~n_params:1 in
  Builder.ret b (Builder.fmul b (Builder.param b 0) (Builder.immf 2.5));
  Builder.finish b;
  let b = Builder.create prog ~name:"main" ~n_params:2 in
  let x = Builder.param b 0 in
  let base = Builder.alloc b (Builder.imm 4) in
  Builder.store b base x;
  let loaded = Builder.load b base in
  let f = Builder.float_of_int b loaded in
  let called = Builder.value b (Instr.Call ("helper", [ f ])) in
  let trunc = Builder.int_of_float b called in
  let c = Builder.fge b f (Builder.immf 0.0) in
  let sel = Builder.select b c trunc (Builder.neg b trunc) in
  let cmp = Builder.lt b sel (Builder.imm 100) in
  let merged =
    Builder.if_ b cmp
      ~then_:(fun () -> [ Builder.binop b Opcode.Xor sel (Builder.imm 5) ])
      ~else_:(fun () -> [ Builder.srem b sel (Builder.imm 97) ])
  in
  (match merged with
   | [ m ] -> Builder.ret b (Builder.ashr b (Reg m) (Builder.imm 1))
   | _ -> assert false);
  Builder.finish b;
  let reparsed, text, text2 = roundtrip prog in
  Alcotest.(check string) "fixpoint" text text2;
  Alcotest.(check int64) "same behaviour"
    (run_result prog [ Value.of_int 7; Value.of_int 0 ])
    (run_result reparsed [ Value.of_int 7; Value.of_int 0 ])

let test_roundtrip_protected_program () =
  (* A protected workload (dup checks + value checks) must round-trip. *)
  let p = Softft.protect (Workloads.Registry.find "g721enc") Softft.Dup_valchk in
  let reparsed, text, text2 = roundtrip p.prog in
  Alcotest.(check string) "fixpoint" text text2;
  Verifier.verify reparsed;
  (* Instruction counts agree. *)
  Alcotest.(check int) "instr count" (Prog.instr_count p.prog)
    (Prog.instr_count reparsed)

let test_roundtrip_all_workloads () =
  List.iter
    (fun (w : Workloads.Workload.t) ->
      let prog = w.build () in
      let reparsed, text, text2 = roundtrip prog in
      Alcotest.(check string) (w.name ^ " fixpoint") text text2;
      Verifier.verify reparsed)
    Workloads.Registry.all

let test_uids_preserved () =
  let prog = Prog.create () in
  let b = Builder.create prog ~name:"main" ~n_params:0 in
  let x = Builder.add b (Builder.imm 1) (Builder.imm 2) in
  Builder.ret b x;
  Builder.finish b;
  let reparsed, _, _ = roundtrip prog in
  let uids p =
    let acc = ref [] in
    Prog.iter_funcs
      (fun f -> Func.iter_instrs (fun ins -> acc := ins.Instr.uid :: !acc) f)
      p;
    List.sort compare !acc
  in
  Alcotest.(check (list int)) "uids preserved" (uids prog) (uids reparsed)

let test_parse_errors () =
  let bad text =
    match Parser.parse text with
    | (_ : Prog.t) -> false
    | exception Parser.Parse_error _ -> true
    | exception Verifier.Invalid _ -> true
  in
  Alcotest.(check bool) "garbage instruction" true
    (bad "func @main() {\nentry:\n  %r0 = frobnicate 1, 2\n  ret %r0\n}\n");
  Alcotest.(check bool) "bad register" true
    (bad "func @main() {\nentry:\n  %rX = add 1, 2\n  ret 0\n}\n");
  Alcotest.(check bool) "missing terminator" true
    (bad "func @main() {\nentry:\n  %r0 = add 1, 2\n}\n")

let test_split_on_string () =
  Alcotest.(check (list string)) "basic" [ "a"; "b"; "c" ]
    (Str_split.split_on_string " == " "a == b == c");
  Alcotest.(check (list string)) "no sep" [ "abc" ]
    (Str_split.split_on_string "|" "abc");
  Alcotest.(check (list string)) "empty tail" [ "a"; "" ]
    (Str_split.split_on_string "," "a,")

let tests =
  [ Alcotest.test_case "roundtrip: sum loop" `Quick test_roundtrip_sum_loop;
    Alcotest.test_case "roundtrip: all instruction forms" `Quick
      test_roundtrip_all_instruction_forms;
    Alcotest.test_case "roundtrip: protected program" `Quick
      test_roundtrip_protected_program;
    Alcotest.test_case "roundtrip: all 13 workloads" `Slow
      test_roundtrip_all_workloads;
    Alcotest.test_case "roundtrip: uids preserved" `Quick test_uids_preserved;
    Alcotest.test_case "errors rejected" `Quick test_parse_errors;
    Alcotest.test_case "split_on_string" `Quick test_split_on_string;
  ]
