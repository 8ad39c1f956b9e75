(** On-line histogram of the values produced by one static instruction —
    Algorithm 1 of the paper (an adaptation of the Ben-Haim/Tom-Tov
    streaming histogram with interval bins).

    Invariants: at most [max_bins] bins, sorted by lower bound, pairwise
    disjoint, total mass equal to the number of inserted values. *)

type bin = {
  lb : float;   (** inclusive lower bound *)
  rb : float;   (** inclusive upper bound *)
  m : int;      (** number of inserted values inside [lb, rb] *)
}

type t

(** [create ~max_bins ()] — [max_bins] is the B of Algorithm 1 (default and
    paper: 5); must be at least 2. *)
val create : ?max_bins:int -> unit -> t

(** Insert one observed value, merging the closest pair of bins when the
    bin budget overflows. *)
val insert : t -> float -> unit

(** Bins, sorted by lower bound. *)
val bins : t -> bin list

(** Total number of inserted values. *)
val total : t -> int

(** Bins that are single points (lb = rb), heaviest first. *)
val point_bins : t -> bin list

val pp : Format.formatter -> t -> unit
