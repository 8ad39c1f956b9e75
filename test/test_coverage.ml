(** Tests for the static protection-coverage analyzer
    ({!Analysis.Coverage}). *)

module C = Analysis.Coverage

(* Fraction of instructions whose status is in [statuses]. *)
let instr_fraction (t : C.t) statuses =
  let n =
    List.fold_left
      (fun acc (s, c) -> if List.mem s statuses then acc + c else acc)
      0 t.by_status
  in
  float_of_int n /. float_of_int t.total_instrs

let analyze ?exec_counts technique name =
  let p = Softft.protect (Workloads.Registry.find name) technique in
  (p, C.analyze ?exec_counts p.prog)

(* ----- totality: every instruction of every workload is classified ----- *)

let test_classifies_every_instruction () =
  List.iter
    (fun (w : Workloads.Workload.t) ->
      List.iter
        (fun technique ->
          let p = Softft.protect w technique in
          let cov = C.analyze p.prog in
          Alcotest.(check int)
            (Printf.sprintf "%s/%s: rows = instrs" w.name
               (Softft.technique_name technique))
            (Ir.Prog.instr_count p.prog)
            (List.length cov.C.instrs);
          Alcotest.(check int)
            (Printf.sprintf "%s/%s: status counts sum" w.name
               (Softft.technique_name technique))
            cov.C.total_instrs
            (List.fold_left (fun a (_, n) -> a + n) 0 cov.C.by_status);
          Alcotest.(check (float 1e-9))
            (Printf.sprintf "%s/%s: fractions total 1" w.name
               (Softft.technique_name technique))
            1.0
            (instr_fraction cov
               [ C.Dup_checked; C.Value_checked; C.Dup_unchecked; C.Shadow;
                 C.Check; C.Unprotected ]))
        Softft.extended_techniques)
    Workloads.Registry.all

(* ----- the unprotected baseline ----- *)

let test_original_is_unprotected () =
  let _, cov = analyze Softft.Original "kmeans" in
  Alcotest.(check (float 1e-9)) "no machinery" 0.0
    (instr_fraction cov [ C.Shadow; C.Check; C.Dup_checked; C.Value_checked ]);
  Alcotest.(check (float 1e-9)) "all exposure unprotected" 1.0
    cov.C.sdc_prone_fraction

(* ----- protection lowers the predicted SDC-prone fraction ----- *)

let test_protection_reduces_sdc_fraction () =
  List.iter
    (fun name ->
      let _, orig = analyze Softft.Original name in
      let _, full = analyze Softft.Full_dup name in
      let _, sel = analyze Softft.Dup_valchk name in
      Alcotest.(check bool)
        (Printf.sprintf "%s: full-dup below original (%.3f < %.3f)" name
           full.C.sdc_prone_fraction orig.C.sdc_prone_fraction)
        true
        (full.C.sdc_prone_fraction < orig.C.sdc_prone_fraction);
      Alcotest.(check bool)
        (Printf.sprintf "%s: selective below original (%.3f < %.3f)" name
           sel.C.sdc_prone_fraction orig.C.sdc_prone_fraction)
        true
        (sel.C.sdc_prone_fraction < orig.C.sdc_prone_fraction);
      Alcotest.(check bool)
        (Printf.sprintf "%s: full-dup at or below selective (%.3f <= %.3f)"
           name full.C.sdc_prone_fraction sel.C.sdc_prone_fraction)
        true
        (full.C.sdc_prone_fraction <= sel.C.sdc_prone_fraction))
    [ "kmeans"; "jpegdec"; "g721enc" ]

(* ----- protected techniques actually mark instructions as covered ----- *)

let test_selective_marks_chains () =
  let p, cov = analyze Softft.Dup_only "kmeans" in
  Alcotest.(check bool) "has shadows" true
    (instr_fraction cov [ C.Shadow ] > 0.0);
  Alcotest.(check bool) "has dup-checked originals" true
    (instr_fraction cov [ C.Dup_checked ] > 0.0);
  (* Selective duplication never leaves an unchecked chain. *)
  Alcotest.(check (float 1e-9)) "no dup-unchecked" 0.0
    (instr_fraction cov [ C.Dup_unchecked ]);
  ignore p

let test_value_checks_mark_instrs () =
  let _, cov = analyze Softft.Dup_valchk "jpegdec" in
  Alcotest.(check bool) "has value-checked instrs" true
    (instr_fraction cov [ C.Value_checked ] > 0.0)

(* ----- dynamic exposure weighting ----- *)

let test_dynamic_weights_from_profile () =
  let p = Softft.protect (Workloads.Registry.find "kmeans") Softft.Dup_valchk in
  let prof = Interp.Profile.create () in
  let (_ : Faults.Campaign.golden) =
    Softft.golden ~profile:prof p ~role:Workloads.Workload.Test
  in
  let static = C.analyze p.prog in
  let dynamic =
    C.analyze ~exec_counts:(Interp.Profile.func_block_counts prof) p.prog
  in
  Alcotest.(check bool) "static has uniform weights" false
    static.C.dynamic_weights;
  Alcotest.(check bool) "profile supplies dynamic weights" true
    dynamic.C.dynamic_weights;
  Alcotest.(check bool) "dynamic exposure dominates static" true
    (dynamic.C.exposure_total > static.C.exposure_total)

(* ----- ranking ----- *)

let test_ranked_regs_unprotected_first () =
  let _, cov = analyze Softft.Dup_valchk "kmeans" in
  let ranked = C.ranked_regs cov in
  let is_unprot (r : C.reg_row) =
    match r.C.r_status with
    | C.Unprotected | C.Dup_unchecked -> true
    | _ -> false
  in
  (* Once a protected row appears, no unprotected row may follow. *)
  let (_ : bool) =
    List.fold_left
      (fun seen_protected row ->
        if seen_protected && is_unprot row then
          Alcotest.fail "unprotected row after protected row"
        else seen_protected || not (is_unprot row))
      false ranked
  in
  (* Within the unprotected prefix, exposure is non-increasing. *)
  let rec check_desc = function
    | (a : C.reg_row) :: (b :: _ as rest) when is_unprot a && is_unprot b ->
      Alcotest.(check bool) "exposure non-increasing" true
        (a.C.r_exposure >= b.C.r_exposure);
      check_desc rest
    | _ :: rest -> check_desc rest
    | [] -> ()
  in
  check_desc ranked;
  Alcotest.(check int) "limit respected" 5
    (List.length (C.ranked_regs ~limit:5 cov))

(* ----- the exposure model ----- *)

(* One row per parameter and defined register, in register order, each
   summing the weights of the blocks it is live into: an unused
   parameter keeps a zero row. *)
let test_exposure_rows () =
  let prog =
    Parser.parse
      "func @main(%r0, %r1) {\n\
       entry:\n\
      \  %r2 = add %r0, 1\n\
      \  jmp exit\n\
       exit:\n\
      \  ret %r2\n\
       }\n"
  in
  let cfg = Analysis.Cfg.of_func (Ir.Prog.find_func prog "main") in
  Alcotest.(check (list (pair int (float 0.0))))
    "rows" [ (0, 3.0); (1, 0.0); (2, 5.0) ]
    (C.exposure ~weights:[| 3.0; 5.0 |] cfg)

(* ----- pinned output ----- *)

(* Status counts, every register row with its exposure (bit-exact, %h)
   and the SDC-prone fraction of one analysis. *)
let coverage_digest (cov : C.t) =
  let b = Buffer.create 4096 in
  List.iter
    (fun (s, n) -> Printf.bprintf b "%s %d\n" (C.status_name s) n)
    cov.C.by_status;
  List.iter
    (fun (r : C.reg_row) ->
      Printf.bprintf b "%s %d %s %h\n" r.C.r_func r.C.r_reg
        (C.status_name r.C.r_status) r.C.r_exposure)
    cov.C.regs;
  Printf.bprintf b "%h\n" cov.C.sdc_prone_fraction;
  Digest.to_hex (Digest.string (Buffer.contents b))

(* Every workload under three techniques, with uniform block weights and
   with the block counts of a profiled golden run; recorded before the
   exposure model was shared with the predictor. *)
let test_coverage_digests_pinned () =
  let pinned =
    In_channel.with_open_text "fixtures/coverage_digests.txt"
      In_channel.input_lines
  in
  let actual =
    List.concat_map
      (fun (w : Workloads.Workload.t) ->
        List.concat_map
          (fun (config, technique) ->
            let p = Softft.protect w technique in
            let prof = Interp.Profile.create () in
            let (_ : Faults.Campaign.golden) =
              Softft.golden ~profile:prof p ~role:Workloads.Workload.Test
            in
            let exec_counts = Interp.Profile.func_block_counts prof in
            [ Printf.sprintf "%s %s static %s" w.Workloads.Workload.name
                config (coverage_digest (C.analyze p.Softft.prog));
              Printf.sprintf "%s %s dynamic %s" w.Workloads.Workload.name
                config (coverage_digest (C.analyze ~exec_counts p.Softft.prog)) ])
          [ ("orig", Softft.Original); ("dupval", Softft.Dup_valchk);
            ("full", Softft.Full_dup) ])
      Workloads.Registry.all
  in
  Alcotest.(check int) "78 analyses" 78 (List.length actual);
  Alcotest.(check (list string)) "coverage output unchanged" pinned actual

let tests =
  [ Alcotest.test_case "classifies 100% of instructions" `Slow
      test_classifies_every_instruction;
    Alcotest.test_case "original fully unprotected" `Quick
      test_original_is_unprotected;
    Alcotest.test_case "protection lowers SDC-prone fraction" `Quick
      test_protection_reduces_sdc_fraction;
    Alcotest.test_case "selective chains covered" `Quick
      test_selective_marks_chains;
    Alcotest.test_case "value checks counted" `Quick
      test_value_checks_mark_instrs;
    Alcotest.test_case "profile drives exposure weights" `Quick
      test_dynamic_weights_from_profile;
    Alcotest.test_case "ranking: vulnerable first" `Quick
      test_ranked_regs_unprotected_first;
    Alcotest.test_case "exposure: a row per parameter and definition" `Quick
      test_exposure_rows;
    Alcotest.test_case "coverage output: digests pinned" `Quick
      test_coverage_digests_pinned;
  ]
