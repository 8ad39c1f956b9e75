(** Interpreter execution profiling; see the interface for the contract. *)

(* Opcode classes mirror the {!Compiled.cinstr} constructors: the dynamic
   mix of micro-ops is the quantity that explains where trial time goes. *)
let class_names =
  [| "add"; "sub"; "binop"; "unop"; "icmp"; "fcmp"; "select"; "const";
     "load"; "store"; "alloc"; "call"; "dup_check"; "value_check" |]

let n_classes = Array.length class_names

let class_of = function
  | Compiled.CAdd _ -> 0
  | Compiled.CSub _ -> 1
  | Compiled.CBinop _ -> 2
  | Compiled.CUnop _ -> 3
  | Compiled.CIcmp _ -> 4
  | Compiled.CFcmp _ -> 5
  | Compiled.CSelect _ -> 6
  | Compiled.CConst _ -> 7
  | Compiled.CLoad _ -> 8
  | Compiled.CStore _ -> 9
  | Compiled.CAlloc _ -> 10
  | Compiled.CCall _ -> 11
  | Compiled.CDup_check _ -> 12
  | Compiled.CValue_check _ -> 13

type t = {
  opcode_counts : int array;
  block_counts : (string, int array) Hashtbl.t;
  check_exec : (int, int ref) Hashtbl.t;
  check_fired : (int, int ref) Hashtbl.t;
}

let create () =
  { opcode_counts = Array.make n_classes 0;
    block_counts = Hashtbl.create 8;
    check_exec = Hashtbl.create 8;
    check_fired = Hashtbl.create 8 }

let reset t =
  Array.fill t.opcode_counts 0 n_classes 0;
  Hashtbl.reset t.block_counts;
  Hashtbl.reset t.check_exec;
  Hashtbl.reset t.check_fired

let note_instr t ci =
  let c = class_of ci in
  t.opcode_counts.(c) <- t.opcode_counts.(c) + 1
  [@@inline]

let note_block t func_name n_blocks block_idx =
  let counts =
    match Hashtbl.find_opt t.block_counts func_name with
    | Some a -> a
    | None ->
      let a = Array.make n_blocks 0 in
      Hashtbl.replace t.block_counts func_name a;
      a
  in
  counts.(block_idx) <- counts.(block_idx) + 1

let bump table uid =
  match Hashtbl.find_opt table uid with
  | Some r -> r := !r + 1
  | None -> Hashtbl.replace table uid (ref 1)

let note_check_exec t uid = bump t.check_exec uid
let note_check_fire t uid = bump t.check_fired uid

let bump_by table uid n =
  match Hashtbl.find_opt table uid with
  | Some r -> r := !r + n
  | None -> Hashtbl.replace table uid (ref n)

let merge_into ~dst src =
  for i = 0 to n_classes - 1 do
    dst.opcode_counts.(i) <- dst.opcode_counts.(i) + src.opcode_counts.(i)
  done;
  Hashtbl.iter
    (fun name counts ->
      match Hashtbl.find_opt dst.block_counts name with
      | Some existing when Array.length existing = Array.length counts ->
        Array.iteri (fun i n -> existing.(i) <- existing.(i) + n) counts
      | Some _ | None ->
        (* First sight of the function (or a shape mismatch from profiles
           of different programs — callers should not mix those; keep the
           longer array to stay total). *)
        Hashtbl.replace dst.block_counts name (Array.copy counts))
    src.block_counts;
  Hashtbl.iter (fun uid r -> bump_by dst.check_exec uid !r) src.check_exec;
  Hashtbl.iter (fun uid r -> bump_by dst.check_fired uid !r) src.check_fired

let total_instrs t = Array.fold_left ( + ) 0 t.opcode_counts

let opcode_rows t =
  let rows = ref [] in
  for i = n_classes - 1 downto 0 do
    if t.opcode_counts.(i) > 0 then
      rows := (class_names.(i), t.opcode_counts.(i)) :: !rows
  done;
  List.stable_sort (fun (_, a) (_, b) -> compare b a) !rows

let hot_blocks t =
  let rows = ref [] in
  Hashtbl.iter
    (fun name counts ->
      Array.iteri
        (fun i n -> if n > 0 then rows := (name, i, n) :: !rows)
        counts)
    t.block_counts;
  let sorted =
    List.sort
      (fun (fa, ia, na) (fb, ib, nb) ->
        match compare nb na with 0 -> compare (fa, ia) (fb, ib) | c -> c)
      !rows
  in
  List.filteri (fun i _ -> i < 12) sorted

let func_block_counts t func =
  Option.map Array.copy (Hashtbl.find_opt t.block_counts func)

let check_rows t =
  let uids = Hashtbl.create 8 in
  Hashtbl.iter (fun uid _ -> Hashtbl.replace uids uid ()) t.check_exec;
  Hashtbl.iter (fun uid _ -> Hashtbl.replace uids uid ()) t.check_fired;
  Hashtbl.fold (fun uid () acc -> uid :: acc) uids []
  |> List.sort compare
  |> List.map (fun uid ->
         let get table =
           match Hashtbl.find_opt table uid with Some r -> !r | None -> 0
         in
         (uid, get t.check_exec, get t.check_fired))
