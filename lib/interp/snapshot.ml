(** Checkpoint state for rollback recovery; see the interface. *)

type frame_snap = {
  fs_cfunc : Compiled.cfunc;
  fs_values : Ir.Value.t array;
  fs_defined : bool array;
  fs_recent : int array;
  fs_recent_n : int;
  fs_recent_pos : int;
  fs_block : int;
  fs_idx : int;
  fs_prev_block : int;
  fs_ret_dest : Ir.Instr.reg option;
}

type t = {
  sn_step : int;
  sn_cycles : int;
  sn_frames : frame_snap list;
  sn_mem : Memory.mark;
  sn_words : int;
}

(* One frame's live-state footprint: the register file (values + defined
   bits, the latter packed one word per 64) plus the 16-entry recent ring
   and a constant of control state. *)
let frame_words (fs : frame_snap) =
  Array.length fs.fs_values
  + (Array.length fs.fs_defined + 63) / 64
  + Array.length fs.fs_recent + 4

let create ~step ~cycles ~frames ~mem ~dirty_words =
  let words =
    List.fold_left (fun acc fs -> acc + frame_words fs) dirty_words frames
  in
  { sn_step = step; sn_cycles = cycles; sn_frames = frames;
    sn_mem = Memory.mark mem; sn_words = words }
