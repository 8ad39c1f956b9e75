(** A program: a set of functions plus the counters that mint fresh
    registers and instruction uids.

    The counters live on the program so that transformation passes
    (duplication, check insertion) can create instructions whose uids never
    collide with existing ones — profiling data is keyed by uid. *)

type t = {
  mutable funcs : Func.t list;
  mutable next_reg : int;
  mutable next_uid : int;
  by_name : (string, Func.t) Hashtbl.t;
      (** name -> function, kept in sync by {!add_func}/{!register_func} so
          every [call] resolves in O(1) instead of scanning [funcs] *)
}

let create () =
  { funcs = []; next_reg = 0; next_uid = 0; by_name = Hashtbl.create 8 }

let fresh_reg t =
  let r = t.next_reg in
  t.next_reg <- r + 1;
  r

let fresh_uid t =
  let u = t.next_uid in
  t.next_uid <- u + 1;
  u

(** Append an already-built function, indexing it by name.  Every code path
    that grows [funcs] must go through here (or {!add_func}) so the name
    index never goes stale. *)
let register_func t (f : Func.t) =
  if Hashtbl.mem t.by_name f.name then
    invalid_arg (Printf.sprintf "duplicate function %S" f.name);
  t.funcs <- t.funcs @ [ f ];
  Hashtbl.replace t.by_name f.name f

let add_func t ~name ~n_params ~entry_label =
  let params = List.init n_params (fun _ -> fresh_reg t) in
  let f = Func.create ~name ~params ~entry_label in
  register_func t f;
  f

let find_func t name =
  match Hashtbl.find_opt t.by_name name with
  | Some f -> f
  | None -> invalid_arg (Printf.sprintf "no function %S" name)

let iter_funcs f t = List.iter f t.funcs

let instr_count t =
  List.fold_left (fun acc f -> acc + Func.instr_count f) 0 t.funcs
