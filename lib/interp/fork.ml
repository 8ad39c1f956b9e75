(** Golden-prefix snapshot forking (DESIGN.md §12).

    Every fault-injection trial executes a fault-free prefix that is
    bit-identical to the golden run up to its injection step: the seeds,
    inputs and code are the same, and every value check that fails without
    a fault is disabled for trials, so the two executions cannot diverge
    before the flip.  A campaign therefore captures resumable machine
    snapshots *during its golden run* — the initial state at step 0, then
    one at a step stride that doubles as the run grows ({!add}) — and each
    trial starts from the newest snapshot strictly before its [at_step]
    instead of re-executing the prefix.  Every injection step is at least
    1, so every trial has one.

    A fork snapshot is a deep, immutable copy of everything a resumed run
    needs: the frame stack (register files, rings, control positions), the
    full memory image, and the counters a from-scratch run would carry at
    that step (steps, cycles, slack credit, recorded check failures,
    checkpoints taken).  When the run checkpoints, snapshots are only
    taken at checkpoint events, right after the checkpoint's cost is
    charged, so a snapshot already holds its checkpoint's step and frames;
    with the checkpoint's footprint ([fk_ckpt_words]) a resumed trial
    rebuilds the checkpoint a from-scratch run would hold, keeping
    rollback targets and costs bit-identical.  The run's end state is one
    more snapshot, without frames.

    Snapshots are read-only after capture and safe to share across
    domains: resuming copies out of them, never into them. *)

(** One frame of a captured call stack, in a fork snapshot or a
    {!Machine} checkpoint.  [fs_block]/[fs_idx] are the resume position
    (block index, next body-instruction index); the arrays are private
    copies, never aliased with live machine state. *)
type frame = {
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

type snap = {
  fk_step : int;            (** step counter at capture (between instructions) *)
  fk_cycles : int;          (** cycle counter to resume with (after any
                                checkpoint cost charged at this step) *)
  fk_frames : frame list;   (** call stack, innermost first; [[]] for
                                the end state *)
  fk_mem : Memory.image;    (** deep copy of the whole memory *)
  fk_valchk_failures : int; (** ignored-check failures so far *)
  fk_failed_uids : int list;(** distinct uids of those checks, sorted *)
  fk_slack_credit : int;    (** spare-issue-slot account (see Cost) *)
  fk_checkpoints : int;     (** checkpoints taken so far, inclusive *)
  fk_ckpt_words : int option;
      (** [Some w] iff the capture run checkpointed at this very step
          (never on the end state), [w] being that checkpoint's footprint
          in words.  The rest of the checkpoint is already here: its step
          is [fk_step], its frames are [fk_frames], and its cycles are
          [fk_cycles] less the checkpoint cost of [w] words. *)
}

(** A capture in progress: {!Machine.run_compiled} records the state at
    its first loop head as snapshot 0, adds a snapshot whenever the step
    counter crosses the next stride boundary (at a loop head — or, when
    checkpointing, exactly at a checkpoint event, so the capture point is
    a consistent resume position either way), and records the end state
    when the run finishes.  The run's length is unknown while it runs, so
    the plan bounds itself: see {!add}. *)
type plan = {
  mutable fp_stride : int;        (** steps between captures; {!add}
                                      doubles it *)
  mutable fp_start : snap option; (** snapshot 0, once captured *)
  mutable fp_snaps : snap list;   (** the stride snapshots, newest first *)
  mutable fp_end : (snap * Ir.Value.t option) option;
      (** once the run has finished: its end state, without frames, and
          the entry function's return value *)
}

let plan ~stride =
  if stride <= 0 then invalid_arg "Fork.plan: stride must be positive";
  { fp_stride = stride; fp_start = None; fp_snaps = []; fp_end = None }

(** A plan never holds this many stride snapshots once {!add} returns. *)
let max_snaps = 64

(** Add the newest snapshot.  The first one is snapshot 0, which is kept
    apart: it never counts toward {!max_snaps} and is never dropped.
    Reaching {!max_snaps} stride snapshots keeps every other one, the
    newest included, and doubles the stride, so the kept ones stay evenly
    spaced at the new stride.  A run that reaches the bound therefore ends
    with snapshot 0 and 32 to 63 stride snapshots, whatever its length. *)
let add plan snap =
  match plan.fp_start with
  | None -> plan.fp_start <- Some snap
  | Some _ ->
    plan.fp_snaps <- snap :: plan.fp_snaps;
    if List.length plan.fp_snaps >= max_snaps then begin
      plan.fp_snaps <- List.filteri (fun i _ -> i mod 2 = 0) plan.fp_snaps;
      plan.fp_stride <- 2 * plan.fp_stride
    end

(** Captured snapshots in ascending step order, snapshot 0 first. *)
let finalize plan =
  Array.of_list (Option.to_list plan.fp_start @ List.rev plan.fp_snaps)

(** Newest snapshot strictly before [at_step], or [None] when there is
    none: a step of 0 or below, or an array without snapshot 0.
    Strictly: the injection lands while executing the instruction that
    advances the counter *to* [at_step], so a snapshot taken at [at_step]
    would already be past the from-scratch injection point. *)
let best snaps ~at_step =
  let n = Array.length snaps in
  let lo = ref 0 and hi = ref (n - 1) and found = ref (-1) in
  while !lo <= !hi do
    let mid = (!lo + !hi) / 2 in
    if snaps.(mid).fk_step < at_step then begin
      found := mid;
      lo := mid + 1
    end
    else hi := mid - 1
  done;
  if !found < 0 then None else Some snaps.(!found)

(** Memory words the snapshot array pins, for capture budgeting. *)
let words snaps =
  Array.fold_left (fun acc s -> acc + Memory.image_words s.fk_mem) 0 snaps
