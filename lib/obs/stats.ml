(** Streaming proportion statistics; see the interface for the contract. *)

(* 97.5th percentile of the standard normal — the two-sided 95% z. *)
let z = 1.959963984540054

type interval = {
  ci_estimate : float;
  ci_low : float;
  ci_high : float;
}

(* Wilson score interval.  Unlike the Wald interval (p ± z·sqrt(pq/n)) it
   never escapes [0,1], stays informative at p=0 or p=1, and is accurate
   at the small counts an early campaign heartbeat reports — which is why
   it is the convergence criterion adaptive sampling can stop on. *)
let wilson ~k ~n =
  if n <= 0 then { ci_estimate = 0.0; ci_low = 0.0; ci_high = 1.0 }
  else begin
    let k = max 0 (min k n) in
    let nf = float_of_int n in
    let p = float_of_int k /. nf in
    let z2 = z *. z in
    let denom = 1.0 +. (z2 /. nf) in
    let center = (p +. (z2 /. (2.0 *. nf))) /. denom in
    let half =
      z /. denom
      *. sqrt ((p *. (1.0 -. p) /. nf) +. (z2 /. (4.0 *. nf *. nf)))
    in
    (* At k = 0 (and symmetrically k = n) [center] and [half] are equal
       in exact arithmetic, but the sqrt can round [center -. half] a ulp
       above zero, leaving a "lower bound" strictly above the estimate —
       clamp both bounds to bracket [p], which the Wilson interval always
       does mathematically. *)
    { ci_estimate = p;
      ci_low = Float.max 0.0 (Float.min p (center -. half));
      ci_high = Float.min 1.0 (Float.max p (center +. half)) }
  end

let width iv = iv.ci_high -. iv.ci_low

(* Two intervals are "significantly different" for warehouse diffing only
   when they share no point at all — the most conservative pairwise test
   expressible on the marginals, immune to the correlated-seed structure
   of repo campaigns (same seed stream => same injection sites). *)
let disjoint a b = a.ci_high < b.ci_low || b.ci_high < a.ci_low

(* ----- Stratified estimation (adaptive campaigns, DESIGN.md §14) ----- *)

type stratum_obs = { so_mass : float; so_k : int; so_n : int }

(* Mass-weighted recombination.  The estimate is the unbiasedness identity
   p = Σ_s m_s·p_s; the half width combines the per-stratum Wilson half
   widths in quadrature (strata are sampled independently), so if every
   sampled stratum satisfies h_s ≤ τ then the combined half width is at
   most τ·sqrt(Σ m_s²) ≤ τ·Σ m_s ≤ τ — per-stratum early stopping can
   never widen the whole-program interval past the requested target.
   Unsampled strata (n = 0) contribute their vacuous [0,1] interval, i.e.
   a half width of m_s/2. *)
let stratified strata =
  let est, var =
    List.fold_left
      (fun (est, var) s ->
        let m = Float.max 0.0 s.so_mass in
        if m = 0.0 then (est, var)
        else begin
          let w = wilson ~k:s.so_k ~n:s.so_n in
          let h = width w /. 2.0 in
          (est +. (m *. w.ci_estimate), var +. ((m *. h) *. (m *. h)))
        end)
      (0.0, 0.0) strata
  in
  let half = sqrt var in
  { ci_estimate = est;
    ci_low = Float.max 0.0 (est -. half);
    ci_high = Float.min 1.0 (est +. half) }

(* Wilson half width at a continuous proportion [p] over [n] trials. *)
let wilson_half ~p n =
  let nf = float_of_int n in
  let z2 = z *. z in
  let denom = 1.0 +. (z2 /. nf) in
  z /. denom *. sqrt ((p *. (1.0 -. p) /. nf) +. (z2 /. (4.0 *. nf *. nf)))

(* Smallest uniform-sampling trial count whose Wilson interval at rate [p]
   is as tight as [half_width] — monotone in n, so plain doubling plus
   bisection.  This prices an adaptive campaign in the only currency a
   uniform campaign understands. *)
let equivalent_uniform_trials ~p ~half_width =
  let p = Float.max 0.0 (Float.min 1.0 p) in
  let h = Float.max 1e-9 half_width in
  if wilson_half ~p 1 <= h then 1
  else begin
    let hi = ref 1 in
    while wilson_half ~p !hi > h && !hi < max_int / 4 do
      hi := !hi * 2
    done;
    let lo = ref (!hi / 2) in
    while !hi - !lo > 1 do
      let mid = !lo + ((!hi - !lo) / 2) in
      if wilson_half ~p mid <= h then hi := mid else lo := mid
    done;
    !hi
  end

let to_json iv =
  Json.Obj
    [ ("est", Json.Float iv.ci_estimate);
      ("lo", Json.Float iv.ci_low);
      ("hi", Json.Float iv.ci_high) ]

let pp_pct iv =
  Printf.sprintf "%.1f%%±%.1f" (100.0 *. iv.ci_estimate)
    (100.0 *. width iv /. 2.0)
