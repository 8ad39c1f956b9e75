(** Dominator tree via the Cooper-Harvey-Kennedy iterative algorithm
    ("A Simple, Fast Dominance Algorithm"). *)

type t = {
  cfg : Cfg.t;
  idom : int array;       (** immediate dominator; entry maps to itself;
                              unreachable blocks map to -1 *)
  rpo_number : int array;
}

let compute (cfg : Cfg.t) =
  let n = Cfg.n_blocks cfg in
  let rpo = Cfg.reverse_postorder cfg in
  let rpo_number = Array.make n (-1) in
  Array.iteri (fun order node -> rpo_number.(node) <- order) rpo;
  let idom = Array.make n (-1) in
  idom.(cfg.entry) <- cfg.entry;
  let intersect a b =
    let a = ref a and b = ref b in
    while !a <> !b do
      while rpo_number.(!a) > rpo_number.(!b) do a := idom.(!a) done;
      while rpo_number.(!b) > rpo_number.(!a) do b := idom.(!b) done
    done;
    !a
  in
  let changed = ref true in
  while !changed do
    changed := false;
    Array.iter
      (fun node ->
        if node <> cfg.entry then begin
          let processed_preds =
            List.filter (fun p -> idom.(p) >= 0) cfg.pred.(node)
          in
          match processed_preds with
          | [] -> ()
          | first :: rest ->
            let new_idom = List.fold_left intersect first rest in
            if idom.(node) <> new_idom then begin
              idom.(node) <- new_idom;
              changed := true
            end
        end)
      rpo
  done;
  { cfg; idom; rpo_number }

(** [dominates t a b]: does block [a] dominate block [b]?  Reflexive. *)
let dominates t a b =
  if t.idom.(b) < 0 || t.idom.(a) < 0 then false
  else begin
    let rec up b = if b = a then true else if b = t.cfg.entry then false else up t.idom.(b) in
    up b
  end

let idom t node = if node = t.cfg.entry then None else
    (if t.idom.(node) < 0 then None else Some t.idom.(node))
