(** Property-based tests over randomly generated IR programs: the
    protection passes must keep any well-formed program verified and
    fault-free-semantics-identical. *)

open Ir

(* Generate a random loop program: a counted loop carrying [n_carried]
   integer accumulators updated by random side-effect-free expressions over
   the carried values, the index and a memory table. *)
let random_program rng =
  let n_carried = 1 + Rng.int rng 3 in
  let iters = 10 + Rng.int rng 60 in
  let prog = Prog.create () in
  let b = Builder.create prog ~name:"main" ~n_params:0 in
  let table = Builder.alloc b (Builder.imm 16) in
  Builder.for_each b ~from:(Builder.imm 0) ~until:(Builder.imm 16)
    ~body:(fun ~i ->
      Builder.seti b table i (Builder.mul b i (Builder.imm (1 + Rng.int rng 9))));
  let init = List.init n_carried (fun k -> Builder.imm (Rng.int rng 100 - 50 + k)) in
  let rec random_expr b rng depth ~i ~carried =
    if depth = 0 || Rng.int rng 3 = 0 then begin
      match Rng.int rng 4 with
      | 0 -> i
      | 1 -> Builder.imm (Rng.int rng 64)
      | 2 -> List.nth carried (Rng.int rng (List.length carried))
      | _ ->
        let idx = Builder.and_ b i (Builder.imm 15) in
        Builder.geti b table idx
    end
    else begin
      let x = random_expr b rng (depth - 1) ~i ~carried in
      let y = random_expr b rng (depth - 1) ~i ~carried in
      let op =
        match Rng.int rng 6 with
        | 0 -> Opcode.Add
        | 1 -> Opcode.Sub
        | 2 -> Opcode.Mul
        | 3 -> Opcode.And
        | 4 -> Opcode.Or
        | _ -> Opcode.Xor
      in
      Builder.binop b op x y
    end
  in
  let finals =
    Builder.for_up b ~from:(Builder.imm 0) ~until:(Builder.imm iters)
      ~carried:init
      ~body:(fun ~i regs ->
        let carried = List.map (fun r -> Instr.Reg r) regs in
        List.map
          (fun _ -> random_expr b rng (1 + Rng.int rng 3) ~i ~carried)
          regs)
      ()
  in
  let result =
    List.fold_left
      (fun acc r -> Builder.binop b Opcode.Xor acc (Instr.Reg r))
      (Builder.imm 0) finals
  in
  Builder.ret b result;
  Builder.finish b;
  prog

let run_result prog =
  let mem = Interp.Memory.create () in
  match (Interp.Machine.run prog ~entry:"main" ~args:[] ~mem).stop with
  | Interp.Machine.Finished (Some v) -> Value.to_int64 v
  | stop ->
    Alcotest.failf "random program did not finish: %a" Interp.Machine.pp_stop
      stop

(* Two structurally identical builds from the same seed: transforms mutate
   in place, so each check builds its own copies. *)
let with_pair seed f =
  let rng1 = Rng.create seed and rng2 = Rng.create seed in
  f (random_program rng1) (random_program rng2)

let prop_generated_programs_verify =
  QCheck.Test.make ~name:"random programs verify" ~count:60
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let prog = random_program (Rng.create seed) in
      Test_ir.is_valid prog)

let prop_dup_preserves =
  QCheck.Test.make ~name:"duplication preserves random-program semantics"
    ~count:60
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      with_pair seed (fun original transformed ->
        let expected = run_result original in
        let (_ : Transform.Duplicate.stats), (_ : (int, unit) Hashtbl.t) =
          Transform.Duplicate.run transformed
        in
        Test_ir.is_valid transformed && run_result transformed = expected))

let prop_full_dup_preserves =
  QCheck.Test.make
    ~name:"full duplication preserves random-program semantics" ~count:60
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      with_pair seed (fun original transformed ->
        let expected = run_result original in
        let (_ : Transform.Full_dup.stats) = Transform.Full_dup.run transformed in
        Test_ir.is_valid transformed && run_result transformed = expected))

let prop_dup_valchk_preserves =
  QCheck.Test.make
    ~name:"dup+value checks preserve random-program semantics" ~count:40
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      with_pair seed (fun original transformed ->
        let expected = run_result original in
        let mem = Interp.Memory.create () in
        let profile_data, (_ : Interp.Machine.result) =
          Profiling.Value_profile.collect transformed ~entry:"main" ~args:[]
            ~mem
        in
        let profile uid = Profiling.Value_profile.check_kind profile_data uid in
        let (_ : Transform.Pipeline.stats) =
          Transform.Pipeline.protect ~profile transformed
            Transform.Pipeline.Dup_valchk
        in
        Test_ir.is_valid transformed && run_result transformed = expected))

let prop_transform_only_grows =
  QCheck.Test.make ~name:"transforms never remove instructions" ~count:40
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      with_pair seed (fun original transformed ->
        let before = Prog.instr_count original in
        let (_ : Transform.Duplicate.stats), (_ : (int, unit) Hashtbl.t) =
          Transform.Duplicate.run transformed
        in
        Prog.instr_count transformed >= before))

let prop_parser_roundtrip =
  QCheck.Test.make ~name:"print/parse round-trip preserves behaviour"
    ~count:40
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let prog = random_program (Rng.create seed) in
      let expected = run_result prog in
      let text = Printer.prog_to_string prog in
      let reparsed = Parser.parse text in
      Printer.prog_to_string reparsed = text && run_result reparsed = expected)

let prop_flip_bit_changes_exactly_one_bit =
  QCheck.Test.make ~name:"bit flip changes exactly one payload bit" ~count:200
    QCheck.(pair int64 (int_range 0 63))
    (fun (payload, bit) ->
      let v = Value.Int payload in
      let flipped = Value.flip_bit v bit in
      let diff = Int64.logxor (Value.bits v) (Value.bits flipped) in
      diff = Int64.shift_left 1L bit)

(* Snapshot forking must be unobservable on arbitrary programs, not just
   the curated workloads: faulted runs of random loop programs that resume
   from {!Interp.Fork.best} of a capture run, and may rejoin it, equal
   their from-scratch runs — result and final memory — across random
   checkpoint/taint configurations and capture strides from 1 to past the
   end of the run (which leaves snapshot 0 alone). *)
let prop_fork_preserves_runs =
  QCheck.Test.make ~name:"snapshot forking preserves faulted runs" ~count:25
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let compiled = Interp.Compiled.of_prog (random_program (Rng.create seed)) in
      let checkpoint_interval = if seed mod 2 = 0 then 0 else 50 + (seed mod 200) in
      let taint_trace = seed mod 3 = 0 in
      (* Small strides capture, and thin, many snapshots even in short
         programs; large ones may pass the end of the run. *)
      let stride =
        if seed mod 5 = 0 then 1 + (seed mod 4000) else 1 + (seed mod 16)
      in
      let run ?fork_capture ?resume ?rejoin config =
        let mem = Interp.Memory.create () in
        let r =
          Interp.Machine.run_compiled ~config ?fork_capture ?resume ?rejoin
            compiled ~entry:"main" ~args:[] ~mem
        in
        (r, mem)
      in
      let plan = Interp.Fork.plan ~stride in
      let golden, _ =
        run ~fork_capture:plan
          { Interp.Machine.default_config with
            mode = Interp.Machine.Record; checkpoint_interval }
      in
      match golden.stop, plan.fp_end with
      | Interp.Machine.Finished _, Some final ->
        let snaps = Interp.Fork.finalize plan in
        let disabled = Hashtbl.create 8 in
        List.iter (fun uid -> Hashtbl.replace disabled uid ())
          golden.failed_check_uids;
        List.for_all
          (fun trial ->
            (* A campaign trial's fault, drawn afresh for each run (the
               flip consumes its generator). *)
            let config () =
              let rng = Rng.create ((seed land 0xFFFF) + trial) in
              let at_step = 1 + Rng.int rng (max 1 (golden.steps - 1)) in
              ( at_step,
                { Interp.Machine.default_config with
                  fuel = (golden.steps * 8) + 10_000;
                  mode = Interp.Machine.Detect;
                  fault =
                    Some
                      { Interp.Machine.at_step; fault_rng = Rng.split rng;
                        kind = Interp.Machine.Register_bit; restrict = None };
                  disabled_checks = disabled; checkpoint_interval;
                  taint_trace } )
            in
            let at_step, c = config () in
            let forked, mem_f =
              run ?resume:(Interp.Fork.best snaps ~at_step)
                ~rejoin:(snaps, final) c
            in
            let scratch, mem_s = run (snd (config ())) in
            Test_interp.results_equal forked scratch
            && Interp.Memory.equal_image mem_f (Interp.Memory.capture mem_s))
          (List.init 8 Fun.id)
      | _ -> false)

(* ----- Adaptive stratified estimation (DESIGN.md §14) ----- *)

(* Census identity: stratify a synthetic finite population by anything at
   all, observe each stratum exhaustively, and the mass-reweighted rate
   must equal the plain pooled rate a uniform census would report — the
   unbiasedness that makes per-stratum sampling legitimate. *)
let prop_stratified_census_matches_uniform =
  QCheck.Test.make
    ~name:"stratified reweighting reproduces the uniform rate" ~count:200
    QCheck.(
      list_of_size (Gen.int_range 1 8)
        (pair (int_range 1 50) (int_range 0 50)))
    (fun strata ->
      let strata = List.map (fun (n, k) -> (n, min k n)) strata in
      let total = List.fold_left (fun acc (n, _) -> acc + n) 0 strata in
      let sdc = List.fold_left (fun acc (_, k) -> acc + k) 0 strata in
      let obs =
        List.map
          (fun (n, k) ->
            { Obs.Stats.so_mass = float_of_int n /. float_of_int total;
              so_k = k; so_n = n })
          strata
      in
      let combined = Obs.Stats.stratified obs in
      let uniform = float_of_int sdc /. float_of_int total in
      Float.abs (combined.Obs.Stats.ci_estimate -. uniform) < 1e-9)

(* The early-stopping lemma: masses summing to <= 1 and every per-stratum
   Wilson half width at or under tau bound the combined (quadrature) half
   width by tau — so stopping each stratum at the target can never leave
   the whole-program interval wider than the target. *)
let prop_early_stop_never_widens =
  QCheck.Test.make
    ~name:"per-stratum convergence bounds the combined width" ~count:300
    QCheck.(
      list_of_size (Gen.int_range 1 8)
        (triple (int_range 1 20) (int_range 1 400) (int_range 0 400)))
    (fun raw ->
      let weight_total =
        float_of_int
          (max 1 (List.fold_left (fun acc (w, _, _) -> acc + w) 0 raw))
      in
      let obs =
        List.map
          (fun (w, n, k) ->
            { Obs.Stats.so_mass = float_of_int w /. weight_total;
              so_k = min k n; so_n = n })
          raw
      in
      let tau =
        List.fold_left
          (fun acc (o : Obs.Stats.stratum_obs) ->
            let iv = Obs.Stats.wilson ~k:o.so_k ~n:o.so_n in
            Float.max acc (Obs.Stats.width iv /. 2.0))
          0.0 obs
      in
      let combined = Obs.Stats.stratified obs in
      Obs.Stats.width combined /. 2.0 <= tau +. 1e-9)

(* Random ring-occupancy curves: [cum.(g).(t)] non-decreasing from 0,
   per-step increments across groups summing to at most 1. *)
let random_cum rng ~ngroups ~t_max =
  let cum = Array.make_matrix ngroups (t_max + 1) 0.0 in
  for t = 1 to t_max do
    for g = 0 to ngroups - 1 do
      (* Raw increment in [0, 1/ngroups]: group shares of one step's ring
         can never exceed the step's whole weight.  Zeroes are common, so
         empty bands and wholly absent groups get exercised. *)
      let inc =
        float_of_int (Rng.int rng 10) /. (9.0 *. float_of_int ngroups)
      in
      cum.(g).(t) <- cum.(g).(t - 1) +. inc
    done
  done;
  cum

let prop_build_strata_masses_partition =
  QCheck.Test.make
    ~name:"strata masses and the empty share partition the space"
    ~count:300
    QCheck.(pair (int_range 0 1_000_000) (int_range 1 5))
    (fun (seed, bands) ->
      let rng = Rng.create seed in
      let ngroups = 1 + Rng.int rng 3 in
      let t_max = 1 + Rng.int rng 40 in
      let cum = random_cum rng ~ngroups ~t_max in
      let plan =
        Faults.Campaign.build_strata ~groups:(Array.make 8 0)
          ~group_names:(Array.init ngroups string_of_int)
          ~priors:(Array.make ngroups 0.5) ~bands ~window:t_max cum
      in
      let mass_sum =
        Array.fold_left
          (fun acc (s : Faults.Campaign.stratum) -> acc +. s.st_mass)
          plan.Faults.Campaign.sp_mass_empty plan.sp_strata
      in
      Float.abs (mass_sum -. 1.0) < 1e-9
      && Array.for_all
           (fun (s : Faults.Campaign.stratum) ->
             s.st_mass > 0.0 && s.st_lo >= 1 && s.st_lo < s.st_hi
             && s.st_hi <= t_max + 1)
           plan.sp_strata)

let prop_sample_at_step_stays_in_stratum =
  QCheck.Test.make
    ~name:"stratified step draws land inside the stratum, on occupied steps"
    ~count:300
    QCheck.(pair (int_range 0 1_000_000) (float_range 0.0 0.9999))
    (fun (seed, u) ->
      let rng = Rng.create seed in
      let ngroups = 1 + Rng.int rng 3 in
      let t_max = 1 + Rng.int rng 40 in
      let cum = random_cum rng ~ngroups ~t_max in
      let plan =
        Faults.Campaign.build_strata ~groups:(Array.make 8 0)
          ~group_names:(Array.init ngroups string_of_int)
          ~priors:(Array.make ngroups 0.5) ~bands:(1 + Rng.int rng 4)
          ~window:t_max cum
      in
      Array.for_all
        (fun (s : Faults.Campaign.stratum) ->
          let t = Faults.Campaign.sample_at_step plan s ~u in
          t >= s.st_lo && t < s.st_hi
          (* The chosen step carries ring weight for the group: a stratum
             never injects into a step where its group is absent. *)
          && cum.(s.st_group).(t) > cum.(s.st_group).(t - 1))
        plan.Faults.Campaign.sp_strata)

let tests =
  List.map QCheck_alcotest.to_alcotest
    [ prop_generated_programs_verify;
      prop_dup_preserves;
      prop_full_dup_preserves;
      prop_dup_valchk_preserves;
      prop_transform_only_grows;
      prop_parser_roundtrip;
      prop_flip_bit_changes_exactly_one_bit;
      prop_fork_preserves_runs;
      prop_stratified_census_matches_uniform;
      prop_early_stop_never_widens;
      prop_build_strata_masses_partition;
      prop_sample_at_step_stays_in_stratum;
    ]
