(** Tests for the protection passes: state-variable identification,
    producer-chain duplication, value checks, full duplication and
    signature-based control-flow checking. *)

open Ir

let finished_value (r : Interp.Machine.result) =
  match r.stop with
  | Interp.Machine.Finished (Some v) -> v
  | stop ->
    Alcotest.failf "run did not finish: %a" Interp.Machine.pp_stop stop

let run_main ?config prog args =
  let mem = Interp.Memory.create () in
  Interp.Machine.run ?config prog ~entry:"main" ~args ~mem

(* The paper's Figure 3 pattern: a crc-style loop where the accumulator is a
   state variable feeding itself. *)
let build_crc_prog () =
  let prog = Prog.create () in
  let b = Builder.create prog ~name:"main" ~n_params:2 in
  let init = Builder.param b 0 in
  let n = Builder.param b 1 in
  let table = Builder.alloc b (Builder.imm 16) in
  Builder.for_each b ~from:(Builder.imm 0) ~until:(Builder.imm 16)
    ~body:(fun ~i ->
      Builder.seti b table i (Builder.mul b i (Builder.imm 7)));
  let final =
    Builder.for_up b ~from:(Builder.imm 0) ~until:n ~carried:[ init ]
      ~body:(fun ~i regs ->
        match regs with
        | [ crc ] ->
          let idx = Builder.and_ b i (Builder.imm 15) in
          let tv = Builder.geti b table idx in
          let shifted = Builder.binop b Opcode.Shl (Reg crc) (Builder.imm 1) in
          let masked = Builder.and_ b shifted (Builder.imm 0xFFFF) in
          [ Builder.binop b Opcode.Xor masked tv ]
        | _ -> assert false)
      ()
  in
  (match final with [ c ] -> Builder.ret b (Reg c) | _ -> assert false);
  Builder.finish b;
  prog

let crc_args = [ Value.of_int 0xBEEF; Value.of_int 100 ]

(* ----- state variables ----- *)

let test_state_vars_found () =
  let prog = build_crc_prog () in
  let svs = List.concat_map Analysis.Plan.func_chains prog.Prog.funcs in
  (* Two loops (table init, crc), each with at least the index phi;
     the crc loop also carries the crc accumulator. *)
  Alcotest.(check int) "state variables" 3 (List.length svs);
  List.iter
    (fun (_, back_edges) ->
      Alcotest.(check bool) "has a back edge" true (back_edges <> []))
    svs

let test_state_vars_none_in_straightline () =
  let prog = Prog.create () in
  let b = Builder.create prog ~name:"main" ~n_params:1 in
  Builder.ret b (Builder.add b (Builder.param b 0) (Builder.imm 1));
  Builder.finish b;
  Alcotest.(check int) "no loops, no state vars" 0
    (List.length (Analysis.Plan.candidate_chains prog))

(* ----- semantic preservation ----- *)

let check_semantics_preserved technique =
  let original = build_crc_prog () in
  let expected = finished_value (run_main original crc_args) in
  let transformed = build_crc_prog () in
  let profile =
    if technique = Transform.Pipeline.Dup_valchk then begin
      let mem = Interp.Memory.create () in
      let p, (_ : Interp.Machine.result) =
        Profiling.Value_profile.collect transformed ~entry:"main"
          ~args:crc_args ~mem
      in
      Some (fun uid -> Profiling.Value_profile.check_kind p uid)
    end
    else None
  in
  (* Rebuild: profiling ran on the untransformed program; that is fine, the
     uids are stable because collect does not mutate the program. *)
  let (_ : Transform.Pipeline.stats) =
    Transform.Pipeline.protect ?profile transformed technique
  in
  Verifier.verify transformed;
  let got = finished_value (run_main transformed crc_args) in
  Alcotest.(check int64) "same result" (Value.to_int64 expected)
    (Value.to_int64 got)

let test_dup_only_preserves () =
  check_semantics_preserved Transform.Pipeline.Dup_only

let test_dup_valchk_preserves () =
  check_semantics_preserved Transform.Pipeline.Dup_valchk

let test_full_dup_preserves () =
  check_semantics_preserved Transform.Pipeline.Full_dup

(* ----- duplication structure ----- *)

let test_dup_stats () =
  let prog = build_crc_prog () in
  let stats, (_ : (int, unit) Hashtbl.t) = Transform.Duplicate.run prog in
  Alcotest.(check int) "state vars" 3 stats.state_vars;
  Alcotest.(check bool) "cloned instructions" true (stats.cloned_instrs > 0);
  Alcotest.(check bool) "cloned phis" true (stats.cloned_phis > 0);
  Alcotest.(check bool) "dup checks inserted" true (stats.dup_checks > 0);
  Verifier.verify prog

let test_dup_terminates_at_loads () =
  let prog = build_crc_prog () in
  let (_ : Transform.Duplicate.stats), (_ : (int, unit) Hashtbl.t) =
    Transform.Duplicate.run prog
  in
  (* No load instruction may carry a Duplicated origin. *)
  Prog.iter_funcs
    (fun f ->
      Func.iter_instrs
        (fun (ins : Instr.t) ->
          match ins.kind, ins.origin with
          | Instr.Load _, Instr.Duplicated _ ->
            Alcotest.fail "a load was duplicated"
          | _ -> ())
        f)
    prog

let test_dup_detects_state_corruption () =
  (* Corrupt the state accumulator mid-run in a Dup_only program: the
     duplication check at the back edge must fire.  We find the crc phi's
     register and flip a high bit via the machine's fault hook over many
     seeds; at least some runs must end in Sw_detected with a dup check. *)
  let prog = build_crc_prog () in
  let (_ : Transform.Duplicate.stats), (_ : (int, unit) Hashtbl.t) =
    Transform.Duplicate.run prog
  in
  Verifier.verify prog;
  let detections = ref 0 in
  for seed = 1 to 60 do
    let rng = Rng.create seed in
    let at_step = 50 + Rng.int rng 1000 in
    let config =
      { Interp.Machine.default_config with
        fuel = 1_000_000;
        fault = Some (Interp.Machine.register_fault ~at_step ~fault_rng:rng ()) }
    in
    let r = run_main ~config prog crc_args in
    match r.stop with
    | Interp.Machine.Sw_detected d when d.dup_check -> incr detections
    | _ -> ()
  done;
  Alcotest.(check bool)
    (Printf.sprintf "dup checks detect some faults (%d/60)" !detections)
    true (!detections > 0)

(* ----- value checks ----- *)

let test_value_checks_inserted () =
  let prog = build_crc_prog () in
  let mem = Interp.Memory.create () in
  let p, (_ : Interp.Machine.result) =
    Profiling.Value_profile.collect prog ~entry:"main" ~args:crc_args ~mem
  in
  let profile uid = Profiling.Value_profile.check_kind p uid in
  let stats = Transform.Pipeline.protect ~profile prog Transform.Pipeline.Dup_valchk in
  Alcotest.(check bool) "value checks inserted" true (stats.value_checks > 0);
  Verifier.verify prog;
  (* Fault-free run must not be stopped by any check. *)
  let r = run_main prog crc_args in
  match r.stop with
  | Interp.Machine.Finished _ -> ()
  | stop -> Alcotest.failf "fault-free run stopped: %a" Interp.Machine.pp_stop stop

let test_opt1_suppression () =
  (* A chain of arithmetic where many instructions are amenable: the
     paper's plan checks only the deepest. *)
  let prog = Prog.create () in
  let b = Builder.create prog ~name:"main" ~n_params:0 in
  let shallowest = ref None and deepest = ref None in
  let total =
    Builder.for_up b ~from:(Builder.imm 0) ~until:(Builder.imm 100)
      ~carried:[ Builder.imm 0 ]
      ~body:(fun ~i regs ->
        match regs with
        | [ acc ] ->
          let a = Builder.and_ b i (Builder.imm 7) in
          let c = Builder.add b a (Builder.imm 1) in
          let d = Builder.mul b c (Builder.imm 3) in
          let e = Builder.and_ b d (Builder.imm 31) in
          ignore (Builder.add b (Reg acc) e);
          let next = Builder.add b (Reg acc) e in
          shallowest := Some a;
          deepest := Some next;
          [ next ]
        | _ -> assert false)
      ()
  in
  (match total with [ s ] -> Builder.ret b (Reg s) | _ -> assert false);
  Builder.finish b;
  let mem = Interp.Memory.create () in
  let p, (_ : Interp.Machine.result) =
    Profiling.Value_profile.collect prog ~entry:"main" ~args:[] ~mem
  in
  let profile uid = Profiling.Value_profile.check_kind p uid in
  let uid_of = function
    | Some (Instr.Reg r) ->
      let found = ref None in
      Prog.iter_funcs
        (Func.iter_instrs (fun (ins : Instr.t) ->
           if ins.dest = Some r then found := Some ins.uid))
        prog;
      Option.get !found
    | _ -> Alcotest.fail "expected a register"
  in
  let module Plan = Analysis.Plan in
  let candidates = Plan.candidate_sites ~profile prog in
  let checked (plan : Plan.t) uid = Plan.mem_check plan uid in
  let plan = Plan.paper ~opt2:false ~profile prog in
  let without = Plan.paper ~opt1:false ~opt2:false ~profile prog in
  Alcotest.(check bool) "optimization 1 drops some candidates" true
    (List.length plan.Plan.checks < List.length candidates);
  Alcotest.(check bool) "still checks something" true (plan.Plan.checks <> []);
  Alcotest.(check int) "without opt 1 every candidate is checked"
    (List.length candidates) (List.length without.Plan.checks);
  Alcotest.(check bool) "the shallowest candidate is dropped" true
    (checked without (uid_of !shallowest)
     && not (checked plan (uid_of !shallowest)));
  Alcotest.(check bool) "the deepest candidate is kept" true
    (checked plan (uid_of !deepest))

(* ----- full duplication ----- *)

let test_full_dup_structure () =
  let prog = build_crc_prog () in
  let before = Prog.instr_count prog in
  let stats = Transform.Full_dup.run prog in
  Verifier.verify prog;
  Alcotest.(check bool) "clones added" true (stats.cloned_instrs > 0);
  Alcotest.(check bool) "checks added" true (stats.dup_checks > 0);
  Alcotest.(check bool) "program grew" true (Prog.instr_count prog > before);
  (* No load/store/call clones. *)
  Prog.iter_funcs
    (fun f ->
      Func.iter_instrs
        (fun (ins : Instr.t) ->
          match ins.kind, ins.origin with
          | (Instr.Load _ | Instr.Store _ | Instr.Call _), Instr.Duplicated _ ->
            Alcotest.fail "memory instruction was duplicated"
          | _ -> ())
        f)
    prog

let test_overhead_ordering () =
  (* Simulated-cycle overhead must order: original < dup_only <= dup+valchk
     < full_dup for this loop-heavy program. *)
  let cycles technique =
    let prog = build_crc_prog () in
    let profile =
      if technique = Transform.Pipeline.Dup_valchk then begin
        let mem = Interp.Memory.create () in
        let p, (_ : Interp.Machine.result) =
          Profiling.Value_profile.collect prog ~entry:"main" ~args:crc_args ~mem
        in
        Some (fun uid -> Profiling.Value_profile.check_kind p uid)
      end
      else None
    in
    let (_ : Transform.Pipeline.stats) =
      Transform.Pipeline.protect ?profile prog technique
    in
    (run_main prog crc_args).cycles
  in
  let original = cycles Transform.Pipeline.Original in
  let dup_only = cycles Transform.Pipeline.Dup_only in
  let full_dup = cycles Transform.Pipeline.Full_dup in
  Alcotest.(check bool) "dup_only > original" true (dup_only > original);
  Alcotest.(check bool) "full_dup > dup_only" true (full_dup > dup_only)

(* ----- control-flow checking ----- *)

let test_cfc_preserves_semantics () =
  List.iter
    (fun name ->
      let w = Workloads.Registry.find name in
      let reference = Workloads.Workload.golden w ~role:Workloads.Workload.Test in
      let p = Softft.protect w Softft.Cfc_only in
      let protected_run = Softft.golden p ~role:Workloads.Workload.Test in
      Alcotest.(check bool)
        (Printf.sprintf "%s output preserved under CFC" name)
        true
        (Fidelity.Metric.identical ~reference:reference.output
           protected_run.output))
    [ "g721enc"; "tiff2bw"; "kmeans" ]

let test_cfc_inserts_checks () =
  let p = Softft.protect (Workloads.Registry.find "jpegdec") Softft.Cfc_only in
  Alcotest.(check bool) "signature checks inserted" true
    (p.static_stats.value_checks > 5)

let test_cfc_detects_branch_faults () =
  let w = Workloads.Registry.find "g721enc" in
  let detections technique =
    let p = Softft.protect w technique in
    let subject = Softft.subject p ~role:Workloads.Workload.Test in
    let summary, (_ : Faults.Campaign.trial list) =
      Faults.Campaign.run ~seed:5 ~fault_kind:Interp.Machine.Branch_target
        subject ~trials:80
    in
    Faults.Campaign.count summary Faults.Classify.Sw_detect
  in
  let without = detections Softft.Dup_valchk in
  let with_cfc = detections Softft.Dup_valchk_cfc in
  Alcotest.(check bool)
    (Printf.sprintf "CFC detects branch faults (%d -> %d)" without with_cfc)
    true
    (with_cfc > without)

(* Every technique reports the state variables of the source program: a
   pass's own shadow phis are not state variables of the workload. *)
let test_state_vars_of_source () =
  List.iter
    (fun (w : Workloads.Workload.t) ->
      let count technique =
        (Softft.protect w technique).static_stats.state_vars
      in
      let expected = count Softft.Dup_only in
      List.iter
        (fun technique ->
          Alcotest.(check int)
            (Printf.sprintf "%s: %s" w.name (Softft.technique_name technique))
            expected (count technique))
        [ Softft.Original; Softft.Full_dup; Softft.Cfc_only ])
    Workloads.Registry.all

let tests =
  [ Alcotest.test_case "state vars: crc loop" `Quick test_state_vars_found;
    Alcotest.test_case "state vars: every technique counts the source" `Quick
      test_state_vars_of_source;
    Alcotest.test_case "state vars: straight line" `Quick
      test_state_vars_none_in_straightline;
    Alcotest.test_case "dup only: preserves semantics" `Quick test_dup_only_preserves;
    Alcotest.test_case "dup+valchk: preserves semantics" `Quick
      test_dup_valchk_preserves;
    Alcotest.test_case "full dup: preserves semantics" `Quick test_full_dup_preserves;
    Alcotest.test_case "dup: statistics" `Quick test_dup_stats;
    Alcotest.test_case "dup: terminates at loads" `Quick test_dup_terminates_at_loads;
    Alcotest.test_case "dup: detects state corruption" `Quick
      test_dup_detects_state_corruption;
    Alcotest.test_case "value checks: inserted and silent" `Quick
      test_value_checks_inserted;
    Alcotest.test_case "value checks: optimization 1" `Quick test_opt1_suppression;
    Alcotest.test_case "full dup: structure" `Quick test_full_dup_structure;
    Alcotest.test_case "overhead ordering" `Quick test_overhead_ordering;
    Alcotest.test_case "cfc: preserves semantics" `Quick test_cfc_preserves_semantics;
    Alcotest.test_case "cfc: inserts checks" `Quick test_cfc_inserts_checks;
    Alcotest.test_case "cfc: detects branch faults" `Quick
      test_cfc_detects_branch_faults;
  ]
