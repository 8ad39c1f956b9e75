(** Natural-loop detection.

    A back edge is an edge [latch -> header] where [header] dominates
    [latch]; the natural loop of that edge is [header] plus every block that
    reaches [latch] without passing through [header].  Loops sharing a header
    are merged, as in LLVM's LoopInfo.  The paper's state variables are
    exactly the phi nodes sitting in these headers. *)

type loop = {
  header : int;
  latches : int list;          (** sources of back edges into [header] *)
  body : int list;             (** all member nodes, including the header *)
  depth : int;                 (** 1 = outermost *)
}

type t = {
  cfg : Cfg.t;
  loops : loop list;           (** outermost first, then by header id *)
}

let natural_loop (cfg : Cfg.t) ~header ~latches =
  let in_loop = Hashtbl.create 16 in
  Hashtbl.replace in_loop header ();
  let rec pull node =
    if not (Hashtbl.mem in_loop node) then begin
      Hashtbl.replace in_loop node ();
      List.iter pull cfg.pred.(node)
    end
  in
  List.iter pull latches;
  Hashtbl.fold (fun node () acc -> node :: acc) in_loop []
  |> List.sort compare

let compute (cfg : Cfg.t) =
  let dom = Dom.compute cfg in
  let n = Cfg.n_blocks cfg in
  let reachable = Cfg.reachable cfg in
  (* Group back edges by header. *)
  let latches_of = Hashtbl.create 8 in
  for node = 0 to n - 1 do
    if reachable.(node) then
      List.iter
        (fun succ ->
          if Dom.dominates dom succ node then begin
            let old = try Hashtbl.find latches_of succ with Not_found -> [] in
            Hashtbl.replace latches_of succ (node :: old)
          end)
        cfg.succ.(node)
  done;
  let headers =
    Hashtbl.fold (fun h _ acc -> h :: acc) latches_of [] |> List.sort compare
  in
  let raw_loops =
    List.map
      (fun header ->
        let latches = List.sort compare (Hashtbl.find latches_of header) in
        let body = natural_loop cfg ~header ~latches in
        { header; latches; body; depth = 0 })
      headers
  in
  (* Nesting depth: loop A contains loop B if A's body contains B's header
     and the loops differ. *)
  let depth_of l =
    1
    + List.length
        (List.filter
           (fun outer ->
             outer.header <> l.header && List.mem l.header outer.body)
           raw_loops)
  in
  { cfg; loops = List.map (fun l -> { l with depth = depth_of l }) raw_loops }

(** Header phi nodes of every loop: the paper's state variables. *)
let header_phis t =
  List.concat_map
    (fun l ->
      let b = Cfg.block t.cfg l.header in
      List.map (fun phi -> (l, b, phi)) b.Ir.Block.phis)
    t.loops
