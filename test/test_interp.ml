(** Tests for the interpreter substrate: memory, cost model, machine
    semantics, fault injection. *)

open Ir

let run_main ?config prog args =
  let mem = Interp.Memory.create () in
  Interp.Machine.run ?config prog ~entry:"main" ~args ~mem

(* ----- Memory ----- *)

let test_memory_roundtrip () =
  let mem = Interp.Memory.create () in
  let base = Interp.Memory.alloc mem 16 in
  Interp.Memory.store mem (base + 3) (Value.of_int 99);
  Alcotest.(check int) "load back" 99
    (Value.to_int (Interp.Memory.load mem (base + 3)));
  Alcotest.(check int) "unwritten cell is zero" 0
    (Value.to_int (Interp.Memory.load mem base))

let test_memory_bounds () =
  let mem = Interp.Memory.create () in
  let base = Interp.Memory.alloc mem 8 in
  Alcotest.check_raises "below" (Interp.Memory.Segfault (base - 1)) (fun () ->
    ignore (Interp.Memory.load mem (base - 1)));
  Alcotest.check_raises "above" (Interp.Memory.Segfault (base + 8)) (fun () ->
    ignore (Interp.Memory.load mem (base + 8)))

let test_memory_guard_gaps () =
  let mem = Interp.Memory.create () in
  let a = Interp.Memory.alloc mem 100 in
  let b = Interp.Memory.alloc mem 100 in
  Alcotest.(check bool) "regions widely separated" true (b - a >= 0x10000)

let test_memory_bulk_helpers () =
  let mem = Interp.Memory.create () in
  let data = [| 5; -3; 0; 42 |] in
  let base = Interp.Memory.alloc_ints mem data in
  Alcotest.(check (array int)) "ints roundtrip" data
    (Interp.Memory.read_ints_tolerant mem base 4);
  let fdata = [| 1.5; -2.25 |] in
  let fbase = Interp.Memory.alloc_floats mem fdata in
  Alcotest.(check (array (float 0.0))) "floats roundtrip" fdata
    (Array.init 2 (fun i -> Value.to_float (Interp.Memory.load mem (fbase + i))))

let test_memory_tolerant_read () =
  let mem = Interp.Memory.create () in
  let base = Interp.Memory.alloc mem 3 in
  Interp.Memory.store mem base (Value.of_float 2.9);
  Interp.Memory.store mem (base + 1) (Value.of_float Float.nan);
  Interp.Memory.store mem (base + 2) (Value.of_int 7);
  Alcotest.(check (array int)) "tolerant" [| 2; 0; 7 |]
    (Interp.Memory.read_ints_tolerant mem base 3)

let test_float_address_traps () =
  Alcotest.(check bool) "float address raises Segfault" true
    (try
       ignore (Interp.Memory.addr_of_value (Value.of_float 3.0));
       false
     with Interp.Memory.Segfault _ -> true)

(* ----- Machine semantics ----- *)

let build_storeload () =
  let prog = Prog.create () in
  let b = Builder.create prog ~name:"main" ~n_params:1 in
  let base = Builder.alloc b (Builder.imm 4) in
  Builder.seti b base (Builder.imm 2) (Builder.param b 0);
  Builder.ret b (Builder.geti b base (Builder.imm 2));
  Builder.finish b;
  prog

let test_machine_store_load () =
  match (run_main (build_storeload ()) [ Value.of_int 77 ]).stop with
  | Interp.Machine.Finished (Some v) ->
    Alcotest.(check int) "store/load" 77 (Value.to_int v)
  | stop -> Alcotest.failf "unexpected: %a" Interp.Machine.pp_stop stop

let test_machine_div_by_zero_trap () =
  let prog = Prog.create () in
  let b = Builder.create prog ~name:"main" ~n_params:1 in
  Builder.ret b (Builder.sdiv b (Builder.imm 10) (Builder.param b 0));
  Builder.finish b;
  match (run_main prog [ Value.of_int 0 ]).stop with
  | Interp.Machine.Trapped Interp.Machine.Division_by_zero -> ()
  | stop -> Alcotest.failf "unexpected: %a" Interp.Machine.pp_stop stop

let test_machine_fuel () =
  (* An infinite loop ends as Out_of_fuel. *)
  let prog = Prog.create () in
  let b = Builder.create prog ~name:"main" ~n_params:0 in
  let (_ : Instr.reg list) =
    Builder.loop b ~init:[ Builder.imm 0 ]
      ~cond:(fun _ -> Builder.imm 1)
      ~body:(fun regs ->
        match regs with
        | [ r ] -> [ Builder.add b (Reg r) (Builder.imm 1) ]
        | _ -> assert false)
  in
  Builder.ret b (Builder.imm 0);
  Builder.finish b;
  let config = { Interp.Machine.default_config with fuel = 1000 } in
  match (run_main ~config prog []).stop with
  | Interp.Machine.Out_of_fuel -> ()
  | stop -> Alcotest.failf "unexpected: %a" Interp.Machine.pp_stop stop

let test_machine_oob_trap () =
  let prog = Prog.create () in
  let b = Builder.create prog ~name:"main" ~n_params:1 in
  Builder.ret b (Builder.load b (Builder.param b 0));
  Builder.finish b;
  match (run_main prog [ Value.of_int 5 ]).stop with
  | Interp.Machine.Trapped (Interp.Machine.Segfault 5) -> ()
  | stop -> Alcotest.failf "unexpected: %a" Interp.Machine.pp_stop stop

let test_machine_deterministic () =
  let prog = build_storeload () in
  let r1 = run_main prog [ Value.of_int 1 ] in
  let r2 = run_main prog [ Value.of_int 1 ] in
  Alcotest.(check int) "steps equal" r1.steps r2.steps;
  Alcotest.(check int) "cycles equal" r1.cycles r2.cycles

let test_machine_counts_steps_and_cycles () =
  let r = run_main (build_storeload ()) [ Value.of_int 1 ] in
  Alcotest.(check bool) "steps positive" true (r.steps > 0);
  Alcotest.(check bool) "cycles >= steps" true (r.cycles >= r.steps - 2)

(* ----- Fault injection ----- *)

let sum_prog () =
  let prog = Prog.create () in
  let b = Builder.create prog ~name:"main" ~n_params:1 in
  let n = Builder.param b 0 in
  let s =
    Workloads.Kutil.for1 b ~from:(Builder.imm 0) ~until:n ~init:(Builder.imm 0)
      ~body:(fun ~i acc -> Builder.add b acc i)
  in
  Builder.ret b s;
  Builder.finish b;
  prog

let test_injection_records_flip () =
  let prog = sum_prog () in
  let config =
    { Interp.Machine.default_config with
      fault = Some (Interp.Machine.register_fault ~at_step:50 ~fault_rng:(Rng.create 7) ()) }
  in
  let r = run_main ~config prog [ Value.of_int 100 ] in
  match r.injection with
  | Some inj ->
    Alcotest.(check bool) "flip changed payload" false
      (Value.equal inj.before inj.after);
    Alcotest.(check bool) "flip near requested step" true (inj.inj_step >= 50)
  | None -> Alcotest.fail "no injection recorded"

let test_injection_deterministic_per_seed () =
  let outcome seed =
    let prog = sum_prog () in
    let config =
      { Interp.Machine.default_config with
        fault = Some (Interp.Machine.register_fault ~at_step:40 ~fault_rng:(Rng.create seed) ()) }
    in
    let r = run_main ~config prog [ Value.of_int 200 ] in
    Format.asprintf "%a/%d" Interp.Machine.pp_stop r.stop r.steps
  in
  Alcotest.(check string) "same seed, same outcome" (outcome 3) (outcome 3);
  Alcotest.(check bool) "fault-free differs from nothing" true
    (String.length (outcome 3) > 0)

let test_injection_can_corrupt_result () =
  (* Across many seeds, at least one flip must change the returned sum
     without being masked — proof the flip lands in live state. *)
  let golden =
    match (run_main (sum_prog ()) [ Value.of_int 100 ]).stop with
    | Interp.Machine.Finished (Some v) -> Value.to_int64 v
    | _ -> Alcotest.fail "golden failed"
  in
  let corrupted = ref 0 in
  for seed = 1 to 40 do
    let config =
      { Interp.Machine.default_config with
        fuel = 100_000;
        fault = Some (Interp.Machine.register_fault ~at_step:100 ~fault_rng:(Rng.create seed) ()) }
    in
    match (run_main ~config (sum_prog ()) [ Value.of_int 100 ]).stop with
    | Interp.Machine.Finished (Some v) ->
      if Value.to_int64 v <> golden then incr corrupted
    | _ -> ()
  done;
  Alcotest.(check bool)
    (Printf.sprintf "some corruptions (%d/40)" !corrupted)
    true (!corrupted > 0)

let test_no_fault_no_injection () =
  let r = run_main (sum_prog ()) [ Value.of_int 10 ] in
  Alcotest.(check bool) "no injection" true (r.injection = None)

(* ----- Cost model ----- *)

let test_cost_model_sanity () =
  Alcotest.(check bool) "div slower than add" true
    (Interp.Cost.binop Opcode.Sdiv > Interp.Cost.binop Opcode.Add);
  Alcotest.(check bool) "load slower than add" true
    (Interp.Cost.instr
       { Instr.uid = 0; dest = Some 0; kind = Instr.Load (Instr.Imm Value.zero);
         origin = Instr.From_source }
     > Interp.Cost.binop Opcode.Add);
  Alcotest.(check int) "phi is free" 0 Interp.Cost.phi;
  Alcotest.(check bool) "table II is non-empty" true
    (List.length (Interp.Cost.describe ()) > 5)

(* ----- Golden-prefix fork capture (DESIGN.md §12) ----- *)

(* A counting loop of [n] iterations. *)
let build_counter n =
  let prog = Prog.create () in
  let b = Builder.create prog ~name:"main" ~n_params:0 in
  let regs =
    Builder.loop b ~init:[ Builder.imm 0 ]
      ~cond:(fun regs ->
        match regs with
        | [ r ] -> Builder.lt b (Reg r) (Builder.imm n)
        | _ -> assert false)
      ~body:(fun regs ->
        match regs with
        | [ r ] -> [ Builder.add b (Reg r) (Builder.imm 1) ]
        | _ -> assert false)
  in
  Builder.ret b (Reg (List.hd regs));
  Builder.finish b;
  prog

let fork_steps snaps =
  Array.to_list (Array.map (fun s -> s.Interp.Fork.fk_step) snaps)

let test_fork_plan_thins () =
  (* After snapshot 0, sixty-four snapshots thin to every other one, the
     newest included, and the stride doubles; snapshot 0 stays. *)
  let image = Interp.Memory.capture (Interp.Memory.create ()) in
  let snap step =
    { Interp.Fork.fk_step = step; fk_cycles = step; fk_frames = [];
      fk_mem = image; fk_valchk_failures = 0; fk_failed_uids = [];
      fk_slack_credit = 0; fk_checkpoints = 0; fk_ckpt_words = None }
  in
  let plan = Interp.Fork.plan ~stride:1 in
  for step = 0 to 64 do Interp.Fork.add plan (snap step) done;
  Alcotest.(check (list int)) "snapshot 0, then every other one, newest kept"
    (0 :: List.init 32 (fun i -> 2 * (i + 1)))
    (fork_steps (Interp.Fork.finalize plan));
  Alcotest.(check int) "stride doubled" 2 plan.Interp.Fork.fp_stride;
  (* A capturing run long enough to thin several times ends with snapshot
     0 and 32 to 63 stride snapshots in strictly ascending step order, the
     newest within one final stride of the end, and its end state
     recorded. *)
  let plan = Interp.Fork.plan ~stride:16 in
  let r =
    Interp.Machine.run_compiled
      ~config:{ Interp.Machine.default_config with mode = Interp.Machine.Record }
      ~fork_capture:plan
      (Interp.Compiled.cached (build_counter 5000))
      ~entry:"main" ~args:[] ~mem:(Interp.Memory.create ())
  in
  let snaps = Interp.Fork.finalize plan in
  let n = Array.length snaps in
  Alcotest.(check bool) (Printf.sprintf "32 to 63 stride snapshots (%d)" (n - 1))
    true (n - 1 >= 32 && n - 1 <= 63);
  Alcotest.(check bool) "stride grew" true (plan.Interp.Fork.fp_stride >= 16 * 4);
  for i = 1 to n - 1 do
    Alcotest.(check bool) "steps strictly ascend" true
      (snaps.(i - 1).Interp.Fork.fk_step < snaps.(i).Interp.Fork.fk_step)
  done;
  Alcotest.(check bool) "newest snapshot kept" true
    (r.steps - snaps.(n - 1).Interp.Fork.fk_step <= plan.Interp.Fork.fp_stride);
  match plan.Interp.Fork.fp_end with
  | Some (fin, _) ->
    Alcotest.(check int) "end state recorded" r.steps fin.fk_step;
    Alcotest.(check int) "end state has no frames" 0
      (List.length fin.fk_frames)
  | None -> Alcotest.fail "fp_end not set"

let test_fork_snapshot_zero () =
  (* Every capture run's plan starts with the input state at step 0,
     with and without checkpointing.  Snapshot 0 survives a run that thins
     its plan several times, and the stride snapshots land exactly where
     they land in a plan without it. *)
  let input () =
    let mem = Interp.Memory.create () in
    ignore (Interp.Memory.alloc_ints mem [| 3; 1; 4; 1; 5 |]);
    mem
  in
  let capture ~n ~stride ~checkpoint_interval =
    let plan = Interp.Fork.plan ~stride in
    let mem = input () in
    ignore
      (Interp.Machine.run_compiled
         ~config:
           { Interp.Machine.default_config with
             mode = Interp.Machine.Record; checkpoint_interval }
         ~fork_capture:plan
         (Interp.Compiled.cached (build_counter n))
         ~entry:"main" ~args:[] ~mem);
    (plan, Interp.Fork.finalize plan)
  in
  let check_zero what (plan : Interp.Fork.plan) snaps ~stride =
    let s0 = snaps.(0) in
    Alcotest.(check int) (what ^ ": snapshot 0 first") 0 s0.Interp.Fork.fk_step;
    Alcotest.(check bool) (what ^ ": it holds the input memory") true
      (Interp.Memory.equal_image (input ()) s0.fk_mem);
    Alcotest.(check bool) (what ^ ": the plan thinned at least twice") true
      (plan.fp_stride >= 4 * stride);
    Alcotest.(check bool) (what ^ ": the next snapshot shares its memory")
      true
      (snaps.(1).fk_mem.Interp.Memory.im_regions.(0).cells
       == s0.fk_mem.Interp.Memory.im_regions.(0).cells)
  in
  (* Without checkpointing, captures land at loop heads. *)
  let plan, snaps = capture ~n:5000 ~stride:16 ~checkpoint_interval:0 in
  check_zero "interval 0" plan snaps ~stride:16;
  Alcotest.(check int) "interval 0: no checkpoint" 0 snaps.(0).fk_checkpoints;
  Alcotest.(check (list int)) "interval 0: stride schedule"
    [ 520; 1040; 1559; 2079; 2597; 3117; 3637; 4157; 4670; 5183; 5697;
      6210; 6723; 7237; 7750; 8263; 8775; 9288; 9800; 10313; 10825; 11338;
      11850; 12363; 12875; 13388; 13900; 14413; 14925; 15438; 15950; 16463;
      16975; 17487; 17999; 18512; 19024; 19537; 20049; 20562; 21074; 21587;
      22099; 22612; 23124; 23637; 24149; 24662 ]
    (List.tl (fork_steps snaps));
  (* With checkpointing, snapshot 0 holds the checkpoint taken at step 0,
     and the stride snapshots land on checkpoint events. *)
  let plan, snaps =
    capture ~n:40_000 ~stride:16 ~checkpoint_interval:1000
  in
  check_zero "interval 1000" plan snaps ~stride:16;
  let s0 = snaps.(0) in
  Alcotest.(check int) "interval 1000: one checkpoint so far" 1
    s0.fk_checkpoints;
  (* No store precedes step 0, so the step-0 checkpoint's footprint is
     its frames': each register file, its defined bits packed one word per
     64, its recent ring and four words of control state. *)
  let frame_words (fs : Interp.Fork.frame) =
    Array.length fs.fs_values
    + (Array.length fs.fs_defined + 63) / 64
    + Array.length fs.fs_recent + 4
  in
  Alcotest.(check (option int)) "interval 1000: the step-0 checkpoint's words"
    (Some (List.fold_left (fun acc fs -> acc + frame_words fs) 0
             s0.fk_frames))
    s0.fk_ckpt_words;
  Alcotest.(check (list int)) "interval 1000: stride schedule"
    (List.map (( * ) 1000)
       [ 32; 64; 80; 96; 104; 112; 120; 128; 132; 136; 140; 144; 148; 152;
         156; 160; 162; 164; 166; 168; 170; 172; 174; 176; 178; 180; 182;
         184; 186; 188; 190; 192; 193; 194; 195; 196; 197; 198; 199; 200 ])
    (List.tl (fork_steps snaps))

let test_ring_observer_refuses_fault () =
  (* The observer reads every step's ring, a fault would pin the tick to
     its own step: the two together are a caller error, not a run that
     silently never injects. *)
  let config =
    { Interp.Machine.default_config with
      obs = Some (Interp.Machine.ring_obs ~groups:[| 0; 0; 0; 0 |] ~ngroups:1);
      fault =
        Some
          (Interp.Machine.register_fault ~at_step:5 ~fault_rng:(Rng.create 1)
             ()) }
  in
  Alcotest.check_raises "obs with a fault"
    (Invalid_argument "Machine.run_compiled: a ring observer with a fault")
    (fun () ->
      ignore
        (Interp.Machine.run_compiled ~config
           (Interp.Compiled.cached (build_counter 50))
           ~entry:"main" ~args:[] ~mem:(Interp.Memory.create ())))

(* ----- Rejoining the golden run (DESIGN.md §12) ----- *)

(* The golden run of a subject and a capture run from the campaign's first
   stride: the snapshots and end state a campaign hands every trial. *)
let golden_fork (subject : Faults.Campaign.subject) ~checkpoint_interval =
  let golden = Faults.Campaign.golden_run ~checkpoint_interval subject in
  let plan = Interp.Fork.plan ~stride:1024 in
  let st = subject.fresh_state () in
  let config =
    { Interp.Machine.default_config with
      mode = Interp.Machine.Record; checkpoint_interval }
  in
  ignore
    (Interp.Machine.run_compiled ~config ~fork_capture:plan
       (Interp.Compiled.cached subject.prog)
       ~entry:subject.entry ~args:st.args ~mem:st.mem);
  match plan.Interp.Fork.fp_end with
  | Some final -> (golden, Interp.Fork.finalize plan, final)
  | None -> Alcotest.fail (subject.label ^ ": capture run did not finish")

(* One faulted run resumed from its fork snapshot, with or without the
   rejoin argument.  The fault is drawn from [seed] as a campaign trial's
   is, afresh for every run (its generator is consumed by the flip). *)
let faulted_run ?(taint_trace = false) ?profile (subject : Faults.Campaign.subject)
    (golden : Faults.Campaign.golden) ~snaps ~rejoin ~checkpoint_interval
    ~kind ~seed =
  let rng = Rng.create seed in
  let at_step = 1 + Rng.int rng (max 1 (golden.steps - 1)) in
  let disabled = Hashtbl.create 8 in
  List.iter (fun uid -> Hashtbl.replace disabled uid ()) golden.failing_checks;
  let config =
    { Interp.Machine.default_config with
      fuel = (golden.steps * 8) + 10_000;
      mode = Interp.Machine.Detect;
      fault =
        Some { Interp.Machine.at_step; fault_rng = Rng.split rng; kind;
               restrict = None };
      disabled_checks = disabled; checkpoint_interval; taint_trace; profile }
  in
  let st = subject.fresh_state () in
  let r =
    Interp.Machine.run_compiled ~config ~arena:(Interp.Machine.arena ())
      ?resume:(Interp.Fork.best snaps ~at_step) ?rejoin
      (Interp.Compiled.cached subject.prog)
      ~entry:subject.entry ~args:st.args ~mem:st.mem
  in
  (r, st)

(* Every result field but [rejoined_at], bit-exact: values by their
   register bits (a flipped float may be NaN). *)
let results_equal (a : Interp.Machine.result) (b : Interp.Machine.result) =
  let inj_equal (x : Interp.Machine.injection) (y : Interp.Machine.injection) =
    x.inj_step = y.inj_step && x.inj_kind = y.inj_kind && x.inj_reg = y.inj_reg
    && x.inj_bit = y.inj_bit && Value.equal x.before y.before
    && Value.equal x.after y.after
  in
  (match a.stop, b.stop with
   | Interp.Machine.Finished x, Interp.Machine.Finished y ->
     Option.equal Value.equal x y
   | x, y -> x = y)
  && a.steps = b.steps && a.cycles = b.cycles
  && a.valchk_failures = b.valchk_failures
  && a.failed_check_uids = b.failed_check_uids
  && Option.equal inj_equal a.injection b.injection
  && a.recovered = b.recovered && a.rollback_denied = b.rollback_denied
  && a.checkpoints = b.checkpoints && a.taint = b.taint

let rejoin_workloads = [ "kmeans"; "jpegdec"; "tiff2bw"; "g721enc" ]

let test_rejoin_identical () =
  (* A rejoined run must leave exactly what the full run leaves: every
     result field and the final memory, bit for bit.  Trials run through
     the worker pool at 1 and 2 domains (snapshots and end state are
     shared read-only); every check happens on the main domain. *)
  let rejoined = ref 0 in
  List.iter
    (fun name ->
      let w = Workloads.Registry.find name in
      List.iter
        (fun technique ->
          let subject =
            Softft.subject (Softft.protect w technique)
              ~role:Workloads.Workload.Test
          in
          List.iter
            (fun checkpoint_interval ->
              let golden, snaps, final =
                golden_fork subject ~checkpoint_interval
              in
              List.iter
                (fun (kind, kind_name) ->
                  List.iter
                    (fun domains ->
                      let pairs =
                        Faults.Pool.map ~domains
                          (fun i ->
                            let run rejoin =
                              faulted_run subject golden ~snaps ~rejoin
                                ~checkpoint_interval ~kind ~seed:(500 + i)
                            in
                            (run (Some (snaps, final)), run None))
                          6
                      in
                      Array.iteri
                        (fun i ((a, (sa : Faults.Campaign.run_state)),
                                (b, (sb : Faults.Campaign.run_state))) ->
                          let tag =
                            Printf.sprintf "%s/%s/k=%d/%s/d=%d/#%d" name
                              (Softft.technique_name technique)
                              checkpoint_interval kind_name domains i
                          in
                          Alcotest.(check bool) (tag ^ ": result") true
                            (results_equal a b);
                          Alcotest.(check bool) (tag ^ ": final memory") true
                            (Interp.Memory.equal_image sa.mem
                               (Interp.Memory.capture sb.mem));
                          Alcotest.(check bool) (tag ^ ": full run rejoins nothing")
                            true (b.rejoined_at = None);
                          match a.rejoined_at with
                          | None -> ()
                          | Some _ ->
                            incr rejoined;
                            (* A rejoined trial returned the golden
                               output and never rolled back: Masked. *)
                            let output =
                              match a.stop with
                              | Interp.Machine.Finished ret -> sa.read_output ret
                              | _ -> [||]
                            in
                            Alcotest.(check bool) (tag ^ ": no recovery") true
                              (a.recovered = None);
                            Alcotest.(check string) (tag ^ ": Masked") "Masked"
                              (Faults.Classify.name
                                 (Faults.Classify.classify
                                    ~hw_window:Faults.Classify.default_hw_window
                                    ~result:a
                                    ~identical:(fun () ->
                                      Fidelity.Metric.identical
                                        ~reference:golden.output output)
                                    ~acceptable:(fun () ->
                                      Fidelity.Metric.acceptable subject.metric
                                        ~reference:golden.output output))))
                        pairs)
                    [ 1; 2 ])
                [ (Interp.Machine.Register_bit, "reg");
                  (Interp.Machine.Branch_target, "branch") ])
            [ 0; 1000 ])
        Softft.all_techniques)
    rejoin_workloads;
  Alcotest.(check bool)
    (Printf.sprintf "some runs rejoined (%d)" !rejoined)
    true (!rejoined > 0)

let test_rejoin_needs_equal_state () =
  (* Each compared part of the state on its own blocks a rejoin: the same
     trials that rejoin against the true snapshots never rejoin against
     snapshots altered in just that part. *)
  let subject =
    Softft.subject
      (Softft.protect (Workloads.Registry.find "kmeans") Softft.Dup_valchk)
      ~role:Workloads.Workload.Test
  in
  let checkpoint_interval = 1000 in
  let golden, snaps, final = golden_fork subject ~checkpoint_interval in
  (* Runs resume from the true snapshots and compare with [targets]. *)
  let rejoins targets =
    let n = ref 0 in
    for seed = 1 to 20 do
      let r, _ =
        faulted_run subject golden ~snaps ~rejoin:(Some (targets, final))
          ~checkpoint_interval ~kind:Interp.Machine.Register_bit ~seed
      in
      if r.rejoined_at <> None then incr n
    done;
    !n
  in
  Alcotest.(check bool) "true snapshots are rejoined" true (rejoins snaps > 0);
  let alter name f =
    Alcotest.(check int) (name ^ " blocks every rejoin") 0
      (rejoins (Array.map f snaps))
  in
  alter "cycles" (fun s -> { s with Interp.Fork.fk_cycles = s.fk_cycles + 1 });
  alter "slack credit" (fun s ->
    { s with Interp.Fork.fk_slack_credit = s.fk_slack_credit + 1 });
  alter "check failure count" (fun s ->
    { s with Interp.Fork.fk_valchk_failures = s.fk_valchk_failures + 1 });
  alter "failed check uids" (fun s ->
    { s with Interp.Fork.fk_failed_uids = -1 :: s.fk_failed_uids });
  alter "checkpoint count" (fun s ->
    { s with Interp.Fork.fk_checkpoints = s.fk_checkpoints + 1 });
  alter "a register" (fun s ->
    match s.Interp.Fork.fk_frames with
    | [] -> s
    | fs :: rest ->
      let values = Array.copy fs.Interp.Fork.fs_values in
      Array.iteri
        (fun r d ->
          if d then values.(r) <- Value.flip_bit values.(r) 0)
        fs.fs_defined;
      { s with fk_frames = { fs with fs_values = values } :: rest });
  alter "a memory cell" (fun s ->
    let im = s.Interp.Fork.fk_mem in
    let regions =
      Array.map
        (fun (r : Interp.Memory.region) -> { r with cells = Array.copy r.cells })
        im.Interp.Memory.im_regions
    in
    let r = regions.(Array.length regions - 1) in
    r.cells.(0) <- Value.flip_bit r.cells.(0) 0;
    { s with fk_mem = { im with im_regions = regions } })

let test_rejoin_never_when_observing () =
  (* Taint-traced and profiled runs observe their whole execution, so
     they must run it: the same trials rejoin without the observer. *)
  let subject =
    Softft.subject
      (Softft.protect (Workloads.Registry.find "kmeans") Softft.Dup_valchk)
      ~role:Workloads.Workload.Test
  in
  let golden, snaps, final = golden_fork subject ~checkpoint_interval:0 in
  let count ?taint_trace ?profile () =
    let n = ref 0 in
    for seed = 1 to 20 do
      let r, _ =
        faulted_run ?taint_trace ?profile subject golden ~snaps
          ~rejoin:(Some (snaps, final)) ~checkpoint_interval:0
          ~kind:Interp.Machine.Register_bit ~seed
      in
      if r.rejoined_at <> None then incr n
    done;
    !n
  in
  Alcotest.(check bool) "plain runs rejoin" true (count () > 0);
  Alcotest.(check int) "taint-traced runs never rejoin" 0
    (count ~taint_trace:true ());
  Alcotest.(check int) "profiled runs never rejoin" 0
    (count ~profile:(Interp.Profile.create ()) ())

(* Two functions, a call in a loop: the three-iteration loop calls
   [callee] with %r12 and sums the results.  Steps, counted from 1: the
   entry jump is step 1, the loop's phis steps 2-3; each iteration then
   runs %r12 (4), the call (5), the callee's three adds and its return
   (6-9), %r14, %r21, the compare and the branch (10-13) and the next
   phis (14-15), so iteration k starts 12 steps after iteration k-1. *)
let call_loop_prog () =
  Parser.parse
    {|func @callee(%r0) {
entry:
  %r1 = add %r0, 1
  %r2 = mul %r1, 3
  %r3 = add %r2, 0
  ret %r3
}
func @main(%r10, %r11) {
entry:
  jmp loop
loop:
  %r20 = phi [entry: 0], [loop: %r21]
  %r22 = phi [entry: 0], [loop: %r14]
  %r12 = add %r11, %r20
  %r13 = call @callee(%r12)
  %r14 = add %r13, %r22
  %r21 = add %r20, 1
  %r23 = icmp slt %r21, 3
  br %r23, loop, exit
exit:
  store %r10, %r14
  ret %r14
}
|}

let test_settle_calls_and_returns () =
  (* Each flip targets one register at one step ([restrict] puts only
     that register in the target group).  A settled run must leave
     exactly what the same run without [rejoin] leaves. *)
  let prog = call_loop_prog () in
  let compiled = Interp.Compiled.of_prog prog in
  let fresh () =
    let mem = Interp.Memory.create () in
    let out = Interp.Memory.alloc mem 1 in
    (mem, [ Value.of_int out; Value.of_int 5 ])
  in
  let plan = Interp.Fork.plan ~stride:4 in
  let mem, args = fresh () in
  ignore
    (Interp.Machine.run_compiled
       ~config:{ Interp.Machine.default_config with mode = Interp.Machine.Record }
       ~fork_capture:plan compiled ~entry:"main" ~args ~mem);
  let final = Option.get plan.Interp.Fork.fp_end in
  let rejoin = (Interp.Fork.finalize plan, final) in
  let run ~reg ~at_step rejoin =
    let groups = Array.make compiled.Interp.Compiled.next_reg 0 in
    groups.(reg) <- 1;
    let config =
      { Interp.Machine.default_config with
        fault =
          Some
            (Interp.Machine.register_fault ~restrict:(groups, 1) ~at_step
               ~fault_rng:(Rng.create 11) ()) }
    in
    let mem, args = fresh () in
    let r =
      Interp.Machine.run_compiled ~config ?rejoin compiled ~entry:"main" ~args
        ~mem
    in
    (r, mem)
  in
  List.iter
    (fun (what, reg, at_step, settles) ->
      let a, mem_a = run ~reg ~at_step (Some rejoin) in
      let b, mem_b = run ~reg ~at_step None in
      (match a.injection with
       | Some inj ->
         Alcotest.(check (pair int int)) (what ^ ": flip lands")
           (reg, at_step) (inj.inj_reg, inj.inj_step)
       | None -> Alcotest.fail (what ^ ": no flip"));
      Alcotest.(check bool) (what ^ ": settled") settles a.settled;
      Alcotest.(check bool) (what ^ ": result") true (results_equal a b);
      Alcotest.(check bool) (what ^ ": final memory") true
        (Interp.Memory.equal_image mem_a (Interp.Memory.capture mem_b)))
    [ ("callee register unread before ret", 1, 8, true);
      ("call destination", 13, 17, true);
      ("call argument", 12, 17, false);
      ("phi tick, overwritten in the body", 14, 15, true);
      ("branch tick, not live out", 12, 13, true);
      ("branch tick, read by a phi", 21, 13, false) ]

(* ----- tracer ----- *)

let test_trace_captures_values () =
  let prog = Prog.create () in
  let b = Builder.create prog ~name:"main" ~n_params:0 in
  let x = Builder.add b (Builder.imm 2) (Builder.imm 3) in
  let y = Builder.mul b x (Builder.imm 10) in
  Builder.ret b y;
  Builder.finish b;
  let mem = Interp.Memory.create () in
  let events, result =
    Interp.Trace.first_values ~limit:10 prog ~entry:"main" ~args:[] ~mem
  in
  (match result.stop with
   | Interp.Machine.Finished _ -> ()
   | _ -> Alcotest.fail "run failed");
  Alcotest.(check int) "two events" 2 (List.length events);
  (match events with
   | [ e1; e2 ] ->
     Alcotest.(check int64) "first value" 5L (Value.to_int64 e1.value);
     Alcotest.(check int64) "second value" 50L (Value.to_int64 e2.value)
   | _ -> Alcotest.fail "unexpected events");
  let rendered = Interp.Trace.render prog events in
  Alcotest.(check int) "rendered lines" 2 (List.length rendered)

let test_trace_respects_limit () =
  let prog = Prog.create () in
  let b = Builder.create prog ~name:"main" ~n_params:0 in
  let s =
    Workloads.Kutil.for1 b ~from:(Builder.imm 0) ~until:(Builder.imm 1000)
      ~init:(Builder.imm 0)
      ~body:(fun ~i acc -> Builder.add b acc i)
  in
  Builder.ret b s;
  Builder.finish b;
  let mem = Interp.Memory.create () in
  let events, (_ : Interp.Machine.result) =
    Interp.Trace.first_values ~limit:25 prog ~entry:"main" ~args:[] ~mem
  in
  Alcotest.(check int) "limited" 25 (List.length events)

(* ----- branch-target faults ----- *)

let test_branch_fault_changes_flow () =
  (* A branch-target fault on an unprotected program must produce at least
     some non-masked outcome over many trials. *)
  let w = Workloads.Registry.find "g721enc" in
  let p = Softft.protect w Softft.Original in
  let subject = Softft.subject p ~role:Workloads.Workload.Test in
  let summary, (_ : Faults.Campaign.trial list) =
    Faults.Campaign.run ~seed:6 ~fault_kind:Interp.Machine.Branch_target
      subject ~trials:80
  in
  Alcotest.(check bool) "not everything masked" true
    (Faults.Campaign.count summary Faults.Classify.Masked < 80)

let tests =
  [ Alcotest.test_case "memory: roundtrip" `Quick test_memory_roundtrip;
    Alcotest.test_case "memory: bounds" `Quick test_memory_bounds;
    Alcotest.test_case "memory: guard gaps" `Quick test_memory_guard_gaps;
    Alcotest.test_case "memory: bulk helpers" `Quick test_memory_bulk_helpers;
    Alcotest.test_case "memory: tolerant reads" `Quick test_memory_tolerant_read;
    Alcotest.test_case "memory: float address traps" `Quick test_float_address_traps;
    Alcotest.test_case "machine: store/load" `Quick test_machine_store_load;
    Alcotest.test_case "machine: div-by-zero trap" `Quick
      test_machine_div_by_zero_trap;
    Alcotest.test_case "machine: fuel exhaustion" `Quick test_machine_fuel;
    Alcotest.test_case "machine: out-of-bounds trap" `Quick test_machine_oob_trap;
    Alcotest.test_case "machine: deterministic" `Quick test_machine_deterministic;
    Alcotest.test_case "machine: step/cycle accounting" `Quick
      test_machine_counts_steps_and_cycles;
    Alcotest.test_case "inject: records flip" `Quick test_injection_records_flip;
    Alcotest.test_case "inject: deterministic per seed" `Quick
      test_injection_deterministic_per_seed;
    Alcotest.test_case "inject: can corrupt live state" `Quick
      test_injection_can_corrupt_result;
    Alcotest.test_case "inject: absent without plan" `Quick test_no_fault_no_injection;
    Alcotest.test_case "cost: model sanity" `Quick test_cost_model_sanity;
    Alcotest.test_case "fork: plan thins to 32-63 snapshots" `Quick
      test_fork_plan_thins;
    Alcotest.test_case "fork: snapshot 0 starts every plan" `Quick
      test_fork_snapshot_zero;
    Alcotest.test_case "obs: a ring observer with a fault is refused" `Quick
      test_ring_observer_refuses_fault;
    Alcotest.test_case "rejoin: identical result and memory" `Quick
      test_rejoin_identical;
    Alcotest.test_case "rejoin: needs every compared part equal" `Quick
      test_rejoin_needs_equal_state;
    Alcotest.test_case "rejoin: never when observing" `Quick
      test_rejoin_never_when_observing;
    Alcotest.test_case "rejoin: dead flips settle across calls and returns"
      `Quick test_settle_calls_and_returns;
    Alcotest.test_case "trace: captures values" `Quick test_trace_captures_values;
    Alcotest.test_case "trace: respects limit" `Quick test_trace_respects_limit;
    Alcotest.test_case "branch fault: perturbs flow" `Quick
      test_branch_fault_changes_flow;
  ]
