(** Machine checkpoints for rollback recovery (DESIGN.md §9).

    A snapshot captures everything a run needs to resume from an earlier
    step: the call stack's register files and control positions
    ({!frame_snap}, captured by {!Machine} which owns the live frame
    representation) and a {!Memory.mark} into the memory undo journal.
    Cost is O(live state): registers are copied eagerly (a frame is a few
    hundred words), memory is *not* copied — the journal records
    overwritten cells as stores happen, and {!Memory.rollback} replays it
    backwards on restore.

    Snapshots are taken every [checkpoint_interval] dynamic instructions
    by {!Machine} when recovery is enabled; the machine keeps the two most
    recent so that a detection whose latency is below the interval always
    finds a checkpoint that predates the fault: one taken at a step
    before the injection step, since the injection lands while executing
    the instruction that advances the counter to its step and snapshots
    are taken between instructions. *)

(** One frame of the captured call stack.  [fs_block]/[fs_idx] are the
    resume position (block index, next body-instruction index); the
    arrays are private copies, never aliased with live machine state. *)
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
  sn_step : int;              (** step counter at capture *)
  sn_cycles : int;            (** cycle counter at capture *)
  sn_frames : frame_snap list;(** call stack, innermost first *)
  sn_mem : Memory.mark;       (** undo-journal position at capture *)
  sn_words : int;             (** live-state words, for cost accounting *)
}

(** Build a snapshot; takes the {!Memory.mark} itself.  [frames] is the
    captured stack (innermost first); [dirty_words] is the store count
    since the previous checkpoint ({!Memory.undo_since}), charged as the
    copy-on-checkpoint cost of the memory state. *)
val create :
  step:int ->
  cycles:int ->
  frames:frame_snap list ->
  mem:Memory.t ->
  dirty_words:int ->
  t
