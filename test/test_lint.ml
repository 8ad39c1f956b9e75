(** Tests for the transform-invariant lint ({!Analysis.Lint}): each rule
    catches a hand-built violation, and every pipeline configuration of
    every workload is lint-clean. *)

open Ir

let rules_of issues =
  List.sort_uniq compare
    (List.map (fun (i : Analysis.Lint.issue) -> i.rule) issues)

let check ?expect ?profile text =
  Analysis.Lint.check ?expect ?profile (Parser.parse text)

(* ----- rule: dominance ----- *)

let test_dominance_violation () =
  (* %r1 is defined only on the a-path but used unconditionally in c; the
     structural verifier accepts this (a def exists), the lint must not. *)
  let issues =
    check
      "func @main(%r0) {\n\
       entry:\n\
      \  br %r0, a, b\n\
       a:\n\
      \  %r1 = add %r0, 1    ; #0\n\
      \  jmp c\n\
       b:\n\
      \  jmp c\n\
       c:\n\
      \  %r2 = add %r1, 1    ; #1\n\
      \  ret %r2\n\
       }\n"
  in
  Alcotest.(check bool) "flagged" true
    (List.mem Analysis.Lint.Dominance (rules_of issues))

let test_dominance_clean_diamond () =
  let issues =
    check
      "func @main(%r0) {\n\
       entry:\n\
      \  %r1 = add %r0, 1    ; #0\n\
      \  br %r0, a, b\n\
       a:\n\
      \  %r2 = add %r1, 2    ; #1\n\
      \  jmp c\n\
       b:\n\
      \  jmp c\n\
       c:\n\
      \  %r3 = phi [a: %r2], [b: %r1]    ; #2\n\
      \  ret %r3\n\
       }\n"
  in
  Alcotest.(check (list string)) "clean" []
    (List.map (fun (i : Analysis.Lint.issue) -> i.message) issues)

let test_dominance_phi_edge_violation () =
  (* The phi in c reads %r1 on the edge from b, where it is unavailable. *)
  let issues =
    check
      "func @main(%r0) {\n\
       entry:\n\
      \  br %r0, a, b\n\
       a:\n\
      \  %r1 = add %r0, 1    ; #0\n\
      \  jmp c\n\
       b:\n\
      \  jmp c\n\
       c:\n\
      \  %r3 = phi [a: %r1], [b: %r1]    ; #2\n\
      \  ret %r3\n\
       }\n"
  in
  Alcotest.(check bool) "flagged" true
    (List.mem Analysis.Lint.Dominance (rules_of issues))

(* ----- rule: separation ----- *)

let test_separation_violation () =
  (* %r3 is original computation reading the shadow %r2. *)
  let issues =
    check
      "func @main(%r0) {\n\
       entry:\n\
      \  %r1 = add %r0, 1    ; #0\n\
      \  %r2 = add %r0, 1    ; #1  ; dup of #0\n\
      \  %r3 = add %r2, 2    ; #2\n\
      \  dup_check %r1 == %r2    ; #3  ; check\n\
      \  ret %r3\n\
       }\n"
  in
  Alcotest.(check bool) "flagged" true
    (List.mem Analysis.Lint.Separation (rules_of issues))

let test_separation_terminator_violation () =
  let issues =
    check
      "func @main(%r0) {\n\
       entry:\n\
      \  %r1 = add %r0, 1    ; #0\n\
      \  %r2 = add %r0, 1    ; #1  ; dup of #0\n\
      \  dup_check %r1 == %r2    ; #3  ; check\n\
      \  ret %r2\n\
       }\n"
  in
  Alcotest.(check bool) "flagged" true
    (List.mem Analysis.Lint.Separation (rules_of issues))

(* ----- rule: chain coverage ----- *)

let test_chain_coverage_orphan_shadow () =
  (* A clone that never reaches any dup_check: an invariant violation under
     Selective, legitimate under Any. *)
  let text =
    "func @main(%r0) {\n\
     entry:\n\
    \  %r1 = add %r0, 1    ; #0\n\
    \  %r2 = add %r0, 1    ; #1  ; dup of #0\n\
    \  ret %r1\n\
     }\n"
  in
  Alcotest.(check bool) "flagged under Selective" true
    (List.mem Analysis.Lint.Chain_coverage
       (rules_of (check ~expect:Analysis.Lint.Selective text)));
  Alcotest.(check int) "ignored under Any" 0
    (List.length (check text))

let test_chain_coverage_unguarded_escape () =
  (* Under Full, a return of a value that has a shadow must be preceded by
     a dup_check in the block. *)
  let text =
    "func @main(%r0) {\n\
     entry:\n\
    \  %r1 = add %r0, 1    ; #0\n\
    \  %r2 = add %r0, 1    ; #1  ; dup of #0\n\
    \  dup_check %r1 == %r2    ; #2  ; check\n\
    \  %r3 = mul %r1, 3    ; #3\n\
    \  %r4 = mul %r2, 3    ; #4  ; dup of #3\n\
    \  ret %r3\n\
     }\n"
  in
  Alcotest.(check bool) "flagged under Full" true
    (List.mem Analysis.Lint.Chain_coverage
       (rules_of (check ~expect:Analysis.Lint.Full text)))

let test_chain_coverage_missing_latch_check () =
  (* Strip the latch dup_checks from a selectively protected workload: the
     lint must notice the now-unchecked shadow chains. *)
  let p = Softft.protect (Workloads.Registry.find "kmeans") Softft.Dup_only in
  let removed = ref 0 in
  Prog.iter_funcs
    (fun f ->
      Func.iter_blocks
        (fun b ->
          let keep (ins : Instr.t) =
            match ins.kind with
            | Instr.Dup_check _ ->
              incr removed;
              false
            | _ -> true
          in
          b.body <- Array.of_list (List.filter keep (Array.to_list b.body)))
        f)
    p.prog;
  Alcotest.(check bool) "some checks removed" true (!removed > 0);
  let issues =
    Analysis.Lint.check ~expect:Analysis.Lint.Selective p.prog
  in
  Alcotest.(check bool) "flagged" true
    (List.mem Analysis.Lint.Chain_coverage (rules_of issues))

(* ----- rule: check shape ----- *)

let test_check_shape_violations () =
  let empty_range =
    check
      "func @main(%r0) {\n\
       entry:\n\
      \  %r1 = add %r0, 1    ; #0\n\
      \  value_check %r1 in range [5, 2]    ; #1  ; check\n\
      \  ret %r1\n\
       }\n"
  in
  Alcotest.(check bool) "empty range flagged" true
    (List.mem Analysis.Lint.Check_shape (rules_of empty_range));
  let same_double =
    check
      "func @main(%r0) {\n\
       entry:\n\
      \  %r1 = add %r0, 1    ; #0\n\
      \  value_check %r1 in double 7, 7    ; #1  ; check\n\
      \  ret %r1\n\
       }\n"
  in
  Alcotest.(check bool) "identical double flagged" true
    (List.mem Analysis.Lint.Check_shape (rules_of same_double))

let test_check_shape_profile_consistency () =
  let text =
    "func @main(%r0) {\n\
     entry:\n\
    \  %r1 = add %r0, 1    ; #0\n\
    \  value_check %r1 in range [0, 5]    ; #1  ; check\n\
    \  ret %r1\n\
     }\n"
  in
  let matching _uid =
    Some (Instr.Range (Value.of_int 0, Value.of_int 5))
  in
  let disagreeing _uid =
    Some (Instr.Range (Value.of_int 0, Value.of_int 10))
  in
  Alcotest.(check int) "matching profile clean" 0
    (List.length (check ~profile:matching text));
  Alcotest.(check bool) "disagreeing profile flagged" true
    (List.mem Analysis.Lint.Check_shape
       (rules_of (check ~profile:disagreeing text)));
  (* Checks the profile does not know (e.g. CFC signatures) are skipped. *)
  Alcotest.(check int) "unknown uid skipped" 0
    (List.length (check ~profile:(fun _ -> None) text))

(* ----- rule: reachability ----- *)

let test_reachability_violation () =
  (* The verifier rejects unreachable blocks at parse time, so build the
     program by mutation. *)
  let prog = Parser.parse "func @main(%r0) {\nentry:\n  ret %r0\n}\n" in
  let f = Prog.find_func prog "main" in
  let dead = Func.add_block f "dead" in
  dead.term <- Instr.Jmp "dead";
  let issues = Analysis.Lint.check prog in
  Alcotest.(check bool) "flagged" true
    (List.mem Analysis.Lint.Reachability (rules_of issues));
  Alcotest.(check bool) "verifier agrees" false (Test_ir.is_valid prog)

(* ----- the raising form and the pipeline flag ----- *)

let test_run_raises () =
  let prog =
    Parser.parse
      "func @main(%r0) {\n\
       entry:\n\
      \  %r1 = add %r0, 1    ; #0\n\
      \  %r2 = add %r2, 1    ; #1\n\
      \  ret %r1\n\
       }\n"
  in
  (* Self-referential %r2 passes the structural verifier (a def exists)
     but cannot be dominated by itself. *)
  match Analysis.Lint.run prog with
  | () -> Alcotest.fail "expected Lint.Error"
  | exception Analysis.Lint.Error issues ->
    Alcotest.(check bool) "nonempty" true (issues <> [])

(* ----- property: every pipeline configuration is lint-clean ----- *)

let lint_configurations =
  [ ("baseline", fun w -> Softft.protect ~lint:true w Softft.Original);
    ("full-dup", fun w -> Softft.protect ~lint:true w Softft.Full_dup);
    ("selective", fun w -> Softft.protect ~lint:true w Softft.Dup_only);
    ("selective+opt1+opt2",
     fun w -> Softft.protect ~lint:true w Softft.Dup_valchk);
    ("selective-no-opt1",
     fun w -> Softft.protect ~lint:true ~opt1:false w Softft.Dup_valchk);
    ("selective-no-opt2",
     fun w -> Softft.protect ~lint:true ~opt2:false w Softft.Dup_valchk);
    ("cfc", fun w -> Softft.protect ~lint:true w Softft.Cfc_only);
    ("selective+cfc",
     fun w -> Softft.protect ~lint:true w Softft.Dup_valchk_cfc) ]

let test_all_workloads_lint_clean () =
  List.iter
    (fun (w : Workloads.Workload.t) ->
      List.iter
        (fun (config, protect) ->
          match protect w with
          | (_ : Softft.protected) -> ()
          | exception Analysis.Lint.Error issues ->
            Alcotest.failf "%s under %s: %a" w.name config
              (Format.pp_print_list Analysis.Lint.pp_issue)
              issues)
        lint_configurations)
    Workloads.Registry.all

let tests =
  [ Alcotest.test_case "dominance: cross-branch use" `Quick
      test_dominance_violation;
    Alcotest.test_case "dominance: clean diamond" `Quick
      test_dominance_clean_diamond;
    Alcotest.test_case "dominance: phi edge" `Quick
      test_dominance_phi_edge_violation;
    Alcotest.test_case "separation: shadow into original" `Quick
      test_separation_violation;
    Alcotest.test_case "separation: shadow into terminator" `Quick
      test_separation_terminator_violation;
    Alcotest.test_case "chain: orphan shadow" `Quick
      test_chain_coverage_orphan_shadow;
    Alcotest.test_case "chain: unguarded escape" `Quick
      test_chain_coverage_unguarded_escape;
    Alcotest.test_case "chain: missing latch check" `Quick
      test_chain_coverage_missing_latch_check;
    Alcotest.test_case "check shape: malformed constants" `Quick
      test_check_shape_violations;
    Alcotest.test_case "check shape: profile consistency" `Quick
      test_check_shape_profile_consistency;
    Alcotest.test_case "reachability: stranded block" `Quick
      test_reachability_violation;
    Alcotest.test_case "run: raises on issues" `Quick test_run_raises;
    Alcotest.test_case "all workloads x configs lint-clean" `Slow
      test_all_workloads_lint_clean;
  ]
