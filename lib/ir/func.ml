(** Functions: named parameters, a set of labelled blocks, one entry block. *)

type t = {
  name : string;
  params : Instr.reg list;
  entry : string;
  mutable blocks : Block.t list;       (** in layout order; entry first *)
  index : (string, Block.t) Hashtbl.t;
}

let create ~name ~params ~entry_label =
  let entry = Block.create ~label:entry_label in
  let index = Hashtbl.create 16 in
  Hashtbl.replace index entry_label entry;
  { name; params; entry = entry_label; blocks = [ entry ]; index }

let find_block t label =
  match Hashtbl.find_opt t.index label with
  | Some b -> b
  | None -> invalid_arg (Printf.sprintf "%s: no block %S" t.name label)

let mem_block t label = Hashtbl.mem t.index label

let add_block t label =
  if Hashtbl.mem t.index label then
    invalid_arg (Printf.sprintf "%s: duplicate block %S" t.name label);
  let b = Block.create ~label in
  Hashtbl.replace t.index label b;
  t.blocks <- t.blocks @ [ b ];
  b

let entry_block t = find_block t t.entry

let iter_blocks f t = List.iter f t.blocks

(** All instructions (phis excluded) in layout order. *)
let iter_instrs f t =
  List.iter (fun (b : Block.t) -> Array.iter f b.body) t.blocks

(** Static instruction count: phis + body instructions of every block. *)
let instr_count t =
  List.fold_left (fun acc b -> acc + Block.instr_count b) 0 t.blocks

(** Predecessor map: label -> labels of blocks that branch to it. *)
let predecessors t =
  let preds = Hashtbl.create 16 in
  List.iter (fun (b : Block.t) -> Hashtbl.replace preds b.label []) t.blocks;
  List.iter
    (fun (b : Block.t) ->
      List.iter
        (fun succ ->
          let old = try Hashtbl.find preds succ with Not_found -> [] in
          Hashtbl.replace preds succ (b.label :: old))
        (Block.successors b))
    t.blocks;
  preds
