(** Deterministic splittable pseudo-random number generator.

    All randomness in the repository (synthetic workload inputs, statistical
    fault injection, property-test data) flows through this module so that
    every experiment is exactly reproducible from a seed.  The core is a
    SplitMix64 stream, which has good statistical quality for simulation
    purposes and a trivial, allocation-free implementation. *)

type t = { mutable state : int64 }

let golden_gamma = 0x9E3779B97F4A7C15L

let create seed = { state = Int64.of_int seed }

let of_int64 seed = { state = seed }

(* SplitMix64 output function (Steele, Lea, Flood 2014). *)
let next_int64 t =
  t.state <- Int64.add t.state golden_gamma;
  let z = t.state in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

(** [split t] returns an independent generator; [t] advances. *)
let split t =
  let s = next_int64 t in
  { state = Int64.mul s 0xDA942042E4DD58B5L }

let bits t = next_int64 t

(** [int t n] is uniform in [0, n). Requires [n > 0]. *)
let int t n =
  assert (n > 0);
  (* Keep 62 bits so the value fits OCaml's native int without wrapping. *)
  let v = Int64.to_int (Int64.shift_right_logical (next_int64 t) 2) in
  v mod n

(** Uniform float in [0, 1). *)
let float t =
  let v = Int64.shift_right_logical (next_int64 t) 11 in
  Int64.to_float v /. 9007199254740992.0

(** Uniform float in [lo, hi). *)
let float_range t lo hi = lo +. ((hi -. lo) *. float t)

let bool t = Int64.logand (next_int64 t) 1L = 1L

(** Standard normal via Box-Muller. *)
let gaussian t =
  let u1 = max 1e-12 (float t) in
  let u2 = float t in
  sqrt (-2.0 *. log u1) *. cos (2.0 *. Float.pi *. u2)
