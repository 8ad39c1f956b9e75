(** Compact frequent-range extraction — Algorithm 2 of the paper.

    Starting from the bin with the highest count, the range greedily absorbs
    the heavier neighbouring bin while the extended range still fits within
    the width threshold [r_thr].  (The paper's pseudocode loops while the
    range *exceeds* the threshold, which never extends anything; we implement
    the stated intent: "extends this bin towards left or right while the
    range size lies within a threshold".) *)

type t = {
  lo : float;
  hi : float;
  mass : int;           (** values covered by [lo, hi] *)
}

let width r = r.hi -. r.lo

(** [extract hist ~r_thr] returns the compact frequent range, or [None] for
    an empty histogram. *)
let extract (hist : Histogram.t) ~r_thr =
  let bins = Array.of_list (Histogram.bins hist) in
  let n = Array.length bins in
  if n = 0 then None
  else begin
    (* Step 1: seed with the highest-frequency bin. *)
    let seed = ref 0 in
    for i = 1 to n - 1 do
      if bins.(i).Histogram.m > bins.(!seed).Histogram.m then seed := i
    done;
    let left = ref (!seed - 1) in
    let right = ref (!seed + 1) in
    let lo = ref bins.(!seed).Histogram.lb in
    let hi = ref bins.(!seed).Histogram.rb in
    let mass = ref bins.(!seed).Histogram.m in
    let progress = ref true in
    while !progress && (!left >= 0 || !right < n) do
      progress := false;
      let left_mass = if !left >= 0 then bins.(!left).Histogram.m else -1 in
      let right_mass = if !right < n then bins.(!right).Histogram.m else -1 in
      (* Prefer the heavier side, as in steps 6-13 of Algorithm 2. *)
      let try_left () =
        if !left >= 0 && !hi -. bins.(!left).Histogram.lb <= r_thr then begin
          lo := bins.(!left).Histogram.lb;
          mass := !mass + left_mass;
          decr left;
          progress := true;
          true
        end
        else false
      in
      let try_right () =
        if !right < n && bins.(!right).Histogram.rb -. !lo <= r_thr then begin
          hi := bins.(!right).Histogram.rb;
          mass := !mass + right_mass;
          incr right;
          progress := true;
          true
        end
        else false
      in
      if left_mass >= right_mass then begin
        if not (try_left ()) then ignore (try_right ())
      end
      else if not (try_right ()) then ignore (try_left ())
    done;
    Some { lo = !lo; hi = !hi; mass = !mass }
  end
