(** On-line histogram of the values produced by one static instruction —
    Algorithm 1 of the paper (an adaptation of the Ben-Haim/Tom-Tov
    streaming histogram with interval bins).

    The histogram keeps at most [max_bins] bins, each an inclusive interval
    [lb, rb] with a count [m].  Inserting a value either bumps an existing
    bin or adds a point bin and merges the two bins with the smallest gap
    between them. *)

type bin = {
  lb : float;
  rb : float;
  m : int;
}

type t = {
  max_bins : int;
  mutable bins : bin list;   (** sorted by [lb]; invariant: length <= max_bins *)
  mutable total : int;       (** total number of inserted values *)
}

let default_bins = 5

let create ?(max_bins = default_bins) () =
  if max_bins < 2 then invalid_arg "Histogram.create: need at least 2 bins";
  { max_bins; bins = []; total = 0 }

let bins t = t.bins
let total t = t.total

(* Merge the adjacent pair with the smallest gap (rb_i .. lb_{i+1}),
   per step 7-8 of Algorithm 1. *)
let merge_closest bins =
  let arr = Array.of_list bins in
  let n = Array.length arr in
  let best = ref 0 and best_gap = ref infinity in
  for i = 0 to n - 2 do
    let gap = arr.(i + 1).lb -. arr.(i).rb in
    if gap < !best_gap then begin
      best_gap := gap;
      best := i
    end
  done;
  let merged =
    { lb = arr.(!best).lb; rb = arr.(!best + 1).rb;
      m = arr.(!best).m + arr.(!best + 1).m }
  in
  let out = ref [] in
  for i = n - 1 downto 0 do
    if i = !best then out := merged :: !out
    else if i <> !best + 1 then out := arr.(i) :: !out
  done;
  !out

let insert t v =
  t.total <- t.total + 1;
  let rec bump = function
    | [] -> None
    | b :: rest ->
      if v >= b.lb && v <= b.rb then Some ({ b with m = b.m + 1 } :: rest)
      else if v < b.lb then None
      else Option.map (fun rest' -> b :: rest') (bump rest)
  in
  match bump t.bins with
  | Some bins -> t.bins <- bins
  | None ->
    let point = { lb = v; rb = v; m = 1 } in
    let bins =
      List.sort (fun a b -> Float.compare a.lb b.lb) (point :: t.bins)
    in
    t.bins <-
      (if List.length bins > t.max_bins then merge_closest bins else bins)

(** Bins that are single points (lb = rb), sorted by decreasing mass. *)
let point_bins t =
  List.filter (fun b -> b.lb = b.rb) t.bins
  |> List.sort (fun a b -> compare b.m a.m)

let pp ppf t =
  Format.fprintf ppf "{total=%d;" t.total;
  List.iter
    (fun b -> Format.fprintf ppf " [%g,%g]:%d" b.lb b.rb b.m)
    t.bins;
  Format.fprintf ppf "}"
