(** Tests for the deterministic PRNG. *)

let test_determinism () =
  let a = Rng.create 42 and b = Rng.create 42 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.bits a) (Rng.bits b)
  done

let test_seed_sensitivity () =
  let a = Rng.create 1 and b = Rng.create 2 in
  Alcotest.(check bool) "different streams" false (Rng.bits a = Rng.bits b)

let test_int_bounds () =
  let rng = Rng.create 7 in
  for _ = 1 to 1000 do
    let v = Rng.int rng 17 in
    Alcotest.(check bool) "in [0,17)" true (v >= 0 && v < 17)
  done

let test_int_covers_range () =
  let rng = Rng.create 8 in
  let seen = Array.make 8 false in
  for _ = 1 to 500 do
    seen.(Rng.int rng 8) <- true
  done;
  Alcotest.(check bool) "all buckets hit" true (Array.for_all Fun.id seen)

let test_float_bounds () =
  let rng = Rng.create 9 in
  for _ = 1 to 1000 do
    let v = Rng.float rng in
    Alcotest.(check bool) "in [0,1)" true (v >= 0.0 && v < 1.0)
  done

let test_split_independence () =
  let parent = Rng.create 10 in
  let child = Rng.split parent in
  let c1 = Rng.bits child in
  let p1 = Rng.bits parent in
  Alcotest.(check bool) "streams diverge" false (c1 = p1)

let test_gaussian_moments () =
  let rng = Rng.create 11 in
  let n = 20_000 in
  let sum = ref 0.0 and sq = ref 0.0 in
  for _ = 1 to n do
    let g = Rng.gaussian rng in
    sum := !sum +. g;
    sq := !sq +. (g *. g)
  done;
  let mean = !sum /. float_of_int n in
  let var = (!sq /. float_of_int n) -. (mean *. mean) in
  Alcotest.(check bool) "mean ~ 0" true (Float.abs mean < 0.05);
  Alcotest.(check bool) "var ~ 1" true (Float.abs (var -. 1.0) < 0.1)

let tests =
  [ Alcotest.test_case "determinism" `Quick test_determinism;
    Alcotest.test_case "seed sensitivity" `Quick test_seed_sensitivity;
    Alcotest.test_case "int bounds" `Quick test_int_bounds;
    Alcotest.test_case "int coverage" `Quick test_int_covers_range;
    Alcotest.test_case "float bounds" `Quick test_float_bounds;
    Alcotest.test_case "split independence" `Quick test_split_independence;
    Alcotest.test_case "gaussian moments" `Quick test_gaussian_moments;
  ]
