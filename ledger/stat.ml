(** Order statistics of a handful of round measurements. *)

(** [quartiles xs] is [(q1, median, q3)], by the same "exclusive" method
    as Python's [statistics.quantiles(xs, n=4)], so the ledger's spreads
    match a check made with that function.  A single value is its own
    quartiles. *)
let quartiles xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n = 0 then (nan, nan, nan)
  else if n = 1 then (a.(0), a.(0), a.(0))
  else begin
    let m = n + 1 in
    let q i =
      let j = max 1 (min (n - 1) (i * m / 4)) in
      let delta = float_of_int ((i * m) - (j * 4)) in
      ((a.(j - 1) *. (4.0 -. delta)) +. (a.(j) *. delta)) /. 4.0
    in
    let median =
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0
    in
    (q 1, median, q 3)
  end

let median xs =
  let _, m, _ = quartiles xs in
  m
