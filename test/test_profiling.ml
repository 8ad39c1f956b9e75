(** Tests for the value-profiling library: the on-line histogram
    (Algorithm 1), compact-range extraction (Algorithm 2) and check-shape
    derivation (Figure 6). *)

open Profiling

(* ----- Histogram (Algorithm 1) ----- *)

(* Smallest interval containing every bin (bins are sorted and disjoint). *)
let hull h =
  match Histogram.bins h with
  | [] -> None
  | first :: _ as bins ->
    Some (first.Histogram.lb, (List.nth bins (List.length bins - 1)).Histogram.rb)

let test_histogram_bin_bound () =
  let h = Histogram.create ~max_bins:5 () in
  for i = 0 to 999 do
    Histogram.insert h (float_of_int (i * 37 mod 101))
  done;
  Alcotest.(check bool) "<= 5 bins" true (List.length (Histogram.bins h) <= 5)

let test_histogram_mass_conserved () =
  let h = Histogram.create ~max_bins:5 () in
  for i = 0 to 499 do
    Histogram.insert h (float_of_int (i mod 23))
  done;
  let mass = List.fold_left (fun a b -> a + b.Histogram.m) 0 (Histogram.bins h) in
  Alcotest.(check int) "mass = inserts" 500 mass;
  Alcotest.(check int) "total tracked" 500 (Histogram.total h)

let test_histogram_bins_sorted_disjoint () =
  let h = Histogram.create ~max_bins:4 () in
  let rng = Rng.create 5 in
  for _ = 1 to 300 do
    Histogram.insert h (Rng.float_range rng (-50.0) 50.0)
  done;
  let bins = Histogram.bins h in
  let rec check = function
    | a :: (b :: _ as rest) ->
      Alcotest.(check bool) "ordered" true (a.Histogram.rb <= b.Histogram.lb);
      check rest
    | [ _ ] | [] -> ()
  in
  check bins;
  List.iter
    (fun b -> Alcotest.(check bool) "lb<=rb" true (b.Histogram.lb <= b.Histogram.rb))
    bins

let test_histogram_hull_covers_all () =
  let h = Histogram.create () in
  let values = [ 3.0; -7.0; 22.0; 5.0; 5.0; 14.0; -2.0; 9.0; 1.0 ] in
  List.iter (Histogram.insert h) values;
  match hull h with
  | None -> Alcotest.fail "empty hull"
  | Some (lo, hi) ->
    List.iter
      (fun v -> Alcotest.(check bool) "in hull" true (v >= lo && v <= hi))
      values

let test_histogram_single_value () =
  let h = Histogram.create () in
  for _ = 1 to 100 do Histogram.insert h 42.0 done;
  Alcotest.(check int) "one bin" 1 (List.length (Histogram.bins h));
  match Histogram.point_bins h with
  | [ p ] ->
    Alcotest.(check (float 0.0)) "point at 42" 42.0 p.Histogram.lb;
    Alcotest.(check int) "full mass" 100 p.Histogram.m
  | _ -> Alcotest.fail "expected one point bin"

(* ----- Range extraction (Algorithm 2) ----- *)

let test_range_within_hull () =
  let h = Histogram.create () in
  let rng = Rng.create 11 in
  for _ = 1 to 400 do
    Histogram.insert h (Rng.float_range rng 0.0 100.0)
  done;
  match Range.extract h ~r_thr:1000.0, hull h with
  | Some r, Some (lo, hi) ->
    Alcotest.(check bool) "lo in hull" true (r.lo >= lo);
    Alcotest.(check bool) "hi in hull" true (r.hi <= hi);
    Alcotest.(check bool) "mass within total" true
      (r.mass >= 0 && r.mass <= Histogram.total h)
  | _ -> Alcotest.fail "extraction failed"

let test_range_respects_threshold () =
  let h = Histogram.create ~max_bins:5 () in
  (* Two clusters far apart; a small threshold must keep one cluster. *)
  for _ = 1 to 100 do Histogram.insert h 10.0 done;
  for _ = 1 to 30 do Histogram.insert h 10000.0 done;
  match Range.extract h ~r_thr:100.0 with
  | Some r ->
    Alcotest.(check bool) "range is compact" true (Range.width r <= 100.0);
    Alcotest.(check (float 0.0)) "picked heavy cluster" 10.0 r.lo
  | None -> Alcotest.fail "extraction failed"

let test_range_full_coverage_when_wide () =
  let h = Histogram.create () in
  for i = 0 to 99 do Histogram.insert h (float_of_int i) done;
  match Range.extract h ~r_thr:1e9 with
  | Some r -> Alcotest.(check int) "covers everything" (Histogram.total h) r.mass
  | None -> Alcotest.fail "extraction failed"

(* ----- Check-shape derivation (Figure 6) ----- *)

let profile_of_values values =
  let t = Value_profile.create () in
  List.iter (fun v -> Value_profile.record t 1 v) values;
  t

let relaxed = { Value_profile.default_params with min_execs = 4 }

let test_single_value_check () =
  let t = profile_of_values (List.init 100 (fun _ -> Ir.Value.of_int 7)) in
  match Value_profile.check_kind ~params:relaxed t 1 with
  | Some (Ir.Instr.Single v) ->
    Alcotest.(check int64) "single 7" 7L (Ir.Value.to_int64 v)
  | _ -> Alcotest.fail "expected Single"

let test_double_value_check () =
  let vals =
    List.init 100 (fun i -> Ir.Value.of_int (if i mod 3 = 0 then 0 else 1))
  in
  match Value_profile.check_kind ~params:relaxed (profile_of_values vals) 1 with
  | Some (Ir.Instr.Double (a, b)) ->
    let pair =
      List.sort compare [ Ir.Value.to_int64 a; Ir.Value.to_int64 b ]
    in
    Alcotest.(check (list int64)) "0 and 1" [ 0L; 1L ] pair
  | _ -> Alcotest.fail "expected Double"

let test_range_check () =
  let vals = List.init 200 (fun i -> Ir.Value.of_int (i mod 50)) in
  match Value_profile.check_kind ~params:relaxed (profile_of_values vals) 1 with
  | Some (Ir.Instr.Range (lo, hi)) ->
    (* The widened range must contain every profiled value. *)
    List.iter
      (fun v ->
        Alcotest.(check bool) "value passes own check" true
          (Ir.Instr.check_passes (Ir.Instr.Range (lo, hi)) v))
      vals
  | _ -> Alcotest.fail "expected Range"

let test_no_check_for_wild_values () =
  (* Exponentially exploding values: no compact range exists. *)
  let vals = List.init 60 (fun i -> Ir.Value.of_float (2.0 ** float_of_int i)) in
  match Value_profile.check_kind ~params:relaxed (profile_of_values vals) 1 with
  | None -> ()
  | Some _ -> Alcotest.fail "wild values must not be amenable"

let test_min_execs_filter () =
  let t = profile_of_values [ Ir.Value.of_int 1; Ir.Value.of_int 1 ] in
  Alcotest.(check bool) "too few executions" true
    (Value_profile.check_kind t 1 = None)

let test_mixed_kinds_not_amenable () =
  let t = profile_of_values [] in
  for _ = 1 to 50 do
    Value_profile.record t 1 (Ir.Value.of_int 1);
    Value_profile.record t 1 (Ir.Value.of_float 1.0)
  done;
  Alcotest.(check bool) "mixed kinds rejected" true
    (Value_profile.check_kind ~params:relaxed t 1 = None)

let test_collect_on_program () =
  (* End-to-end: profile a real loop and find amenable instructions. *)
  let prog = Ir.Prog.create () in
  let b = Ir.Builder.create prog ~name:"main" ~n_params:0 in
  let s =
    Workloads.Kutil.for1 b ~from:(Ir.Builder.imm 0) ~until:(Ir.Builder.imm 500)
      ~init:(Ir.Builder.imm 0)
      ~body:(fun ~i acc ->
        let masked = Ir.Builder.and_ b i (Ir.Builder.imm 15) in
        Ir.Builder.add b acc masked)
  in
  Ir.Builder.ret b s;
  Ir.Builder.finish b;
  let mem = Interp.Memory.create () in
  let t, result = Value_profile.collect prog ~entry:"main" ~args:[] ~mem in
  (match result.stop with
   | Interp.Machine.Finished _ -> ()
   | _ -> Alcotest.fail "profiling run failed");
  let amenable = ref 0 in
  Ir.Prog.iter_funcs
    (Ir.Func.iter_instrs (fun (ins : Ir.Instr.t) ->
       if Value_profile.check_kind t ins.uid <> None then incr amenable))
    prog;
  Alcotest.(check bool) "found amenable instructions" true (!amenable > 0)

(* Property tests (qcheck). *)

let prop_histogram_bounds =
  QCheck.Test.make ~name:"histogram: bins bounded and mass conserved"
    ~count:100
    QCheck.(pair (int_range 2 8) (list_of_size (Gen.int_range 1 300) (float_range (-1e6) 1e6)))
    (fun (max_bins, values) ->
      QCheck.assume (values <> []);
      let h = Histogram.create ~max_bins () in
      List.iter (Histogram.insert h) values;
      let mass =
        List.fold_left (fun a b -> a + b.Histogram.m) 0 (Histogram.bins h)
      in
      List.length (Histogram.bins h) <= max_bins && mass = List.length values)

let prop_range_subset =
  QCheck.Test.make ~name:"range: extraction stays within hull" ~count:100
    QCheck.(list_of_size (Gen.int_range 1 200) (float_range (-1e4) 1e4))
    (fun values ->
      QCheck.assume (values <> []);
      let h = Histogram.create () in
      List.iter (Histogram.insert h) values;
      match Range.extract h ~r_thr:500.0, hull h with
      | Some r, Some (lo, hi) ->
        r.lo >= lo && r.hi <= hi && r.mass <= Histogram.total h
      | None, _ | _, None -> false)

let prop_derived_check_accepts_profiled_values =
  QCheck.Test.make
    ~name:"checks: every profiled value passes its own derived check"
    ~count:100
    QCheck.(list_of_size (Gen.int_range 64 300) (int_range (-500) 500))
    (fun ints ->
      let t = Value_profile.create () in
      List.iter (fun n -> Value_profile.record t 9 (Ir.Value.of_int n)) ints;
      match Value_profile.check_kind t 9 with
      | None -> true
      | Some ck ->
        List.for_all (fun n -> Ir.Instr.check_passes ck (Ir.Value.of_int n)) ints)

let tests =
  [ Alcotest.test_case "histogram: bin bound" `Quick test_histogram_bin_bound;
    Alcotest.test_case "histogram: mass conserved" `Quick
      test_histogram_mass_conserved;
    Alcotest.test_case "histogram: sorted disjoint" `Quick
      test_histogram_bins_sorted_disjoint;
    Alcotest.test_case "histogram: hull" `Quick test_histogram_hull_covers_all;
    Alcotest.test_case "histogram: single value" `Quick test_histogram_single_value;
    Alcotest.test_case "range: within hull" `Quick test_range_within_hull;
    Alcotest.test_case "range: threshold" `Quick test_range_respects_threshold;
    Alcotest.test_case "range: full coverage" `Quick test_range_full_coverage_when_wide;
    Alcotest.test_case "checks: single" `Quick test_single_value_check;
    Alcotest.test_case "checks: double" `Quick test_double_value_check;
    Alcotest.test_case "checks: range" `Quick test_range_check;
    Alcotest.test_case "checks: wild values" `Quick test_no_check_for_wild_values;
    Alcotest.test_case "checks: min execs" `Quick test_min_execs_filter;
    Alcotest.test_case "checks: mixed kinds" `Quick test_mixed_kinds_not_amenable;
    Alcotest.test_case "collect: end to end" `Quick test_collect_on_program;
    QCheck_alcotest.to_alcotest prop_histogram_bounds;
    QCheck_alcotest.to_alcotest prop_range_subset;
    QCheck_alcotest.to_alcotest prop_derived_check_accepts_profiled_values;
  ]
