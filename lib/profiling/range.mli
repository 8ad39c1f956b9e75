(** Compact frequent-range extraction — Algorithm 2 of the paper.

    Starting from the histogram bin with the highest count, the range
    greedily absorbs the heavier neighbouring bin while the extended range
    still fits within the width threshold. *)

type t = {
  lo : float;
  hi : float;
  mass : int;        (** inserted values covered by [lo, hi] *)
}

val width : t -> float

(** [extract hist ~r_thr] returns the compact frequent range of [hist]
    under the absolute width threshold [r_thr], or [None] for an empty
    histogram.  The result always lies within the histogram hull. *)
val extract : Histogram.t -> r_thr:float -> t option
