(** Substring splitting helper used by the test suite's IR parser (the
    stdlib only splits on single characters). *)

(** [split_on_string sep s] splits [s] on every non-overlapping occurrence
    of [sep]. *)
let split_on_string sep s =
  let sep_len = String.length sep in
  if sep_len = 0 then invalid_arg "split_on_string: empty separator";
  let rec go start acc =
    let rec find i =
      if i + sep_len > String.length s then None
      else if String.sub s i sep_len = sep then Some i
      else find (i + 1)
    in
    match find start with
    | Some i ->
      go (i + sep_len) (String.sub s start (i - start) :: acc)
    | None -> List.rev (String.sub s start (String.length s - start) :: acc)
  in
  go 0 []
