(** The simulated machine: an IR interpreter with a virtual register file
    per call frame, a cycle cost model, software-check semantics and
    single-event fault injection.

    This stands in for the paper's GEM5 ARMv7-a model: the fault target
    (the architectural register file, modelled as the 16 most recently
    accessed registers), the outcome signals (software check hits,
    memory-access symptoms, infinite loops) and the relative runtime
    (slack-aware cycle model) are the quantities the evaluation needs. *)

type trap =
  | Segfault of int
  | Division_by_zero
  | Kind_confusion of string
  | Undefined_register of Ir.Instr.reg
  | Unknown_function of string

type detection = {
  check_uid : int;
  dup_check : bool;   (** true: duplication compare; false: value check *)
}

type fault_kind =
  | Register_bit    (** flip one bit of one live register (the paper's model) *)
  | Branch_target   (** corrupt the target of the next taken branch — the
                        fault class the paper defers to signature-based
                        control-flow checking (§IV-C) *)

(** A single injected fault, recorded for outcome analysis. *)
type injection = {
  inj_step : int;
  inj_kind : fault_kind;
  inj_reg : Ir.Instr.reg;   (** -1 for branch-target faults *)
  inj_bit : int;            (** -1 for branch-target faults *)
  before : Ir.Value.t;
  after : Ir.Value.t;
}

type stop =
  | Finished of Ir.Value.t option
  | Trapped of trap
  | Sw_detected of detection
  | Out_of_fuel

(** One rollback-and-replay recovery event (DESIGN.md §9): a software check
    fired, a retained checkpoint predating the injection was restored and
    execution replayed from there.  Step/cycle counters are *not* rewound
    by a rollback, so the trial's totals honestly charge the wasted
    segment, the restore itself and the replay. *)
type recovery = {
  rec_detection : detection;    (** the check whose firing triggered rollback *)
  rec_detect_step : int;        (** step count when the check fired *)
  rec_checkpoint_step : int;    (** step of the restored checkpoint *)
  rec_replayed_steps : int;     (** detect - checkpoint: work re-executed *)
  rec_wasted_cycles : int;      (** cycles between checkpoint and detection,
                                    thrown away by the rollback *)
  rec_rollback_cycles : int;    (** cost of the state restore itself *)
}

type result = {
  stop : stop;
  steps : int;
  cycles : int;
  valchk_failures : int;        (** dynamic count of ignored check failures *)
  failed_check_uids : int list; (** distinct uids of value checks that failed
                                    without stopping the run *)
  injection : injection option; (** what was actually injected, if anything *)
  recovered : recovery option;  (** the rollback this run performed, if any *)
  rollback_denied : bool;       (** a check fired with recovery enabled, but
                                    no retained checkpoint predated the fault
                                    (detection latency exceeded the
                                    checkpoint window) *)
  checkpoints : int;            (** checkpoints taken during the run *)
  taint : Taint.summary option; (** propagation summary; [Some] iff the run
                                    was configured with [taint_trace] *)
  rejoined_at : int option;     (** [Some s]: at step [s] the run's state
                                    equalled a golden snapshot's, or was
                                    settled, and the run returned the
                                    golden end state instead of executing
                                    the rest (see [rejoin] in
                                    {!run_compiled}) *)
  settled : bool;               (** the run rejoined at the first loop head
                                    after its flip, because the flipped
                                    register was provably dead (see
                                    [rejoin]); implies [rejoined_at] *)
}

type valchk_mode =
  | Detect   (** a failing value check stops the run (fault detected) *)
  | Record   (** failures are counted and execution continues; used to
                 measure the false-positive rate on fault-free runs *)

type fault_plan = {
  at_step : int;
  fault_rng : Rng.t;
  kind : fault_kind;
  restrict : (int array * int) option;
      (** stratified campaigns: (register→group map, target group).  The
          register draw becomes uniform over the ring slots whose register
          maps to the target group — the historical uniform draw
          conditioned on the stratum.  [None] keeps the uniform draw
          bit-identical to previous releases. *)
}

val register_fault :
  ?restrict:int array * int ->
  at_step:int -> fault_rng:Rng.t -> unit -> fault_plan

(** Ring-occupancy observation for adaptive campaigns (DESIGN.md §14):
    attach to the golden pass via [config.obs], and when the run stops
    {!ring_cum} holds one array per group whose entry [t] is
    [Σ_{t'≤t} L_{t'}^g / L_{t'}], where [L_t^g] counts architectural-ring
    slots whose register maps to group [g] at step [t]'s fault point (and
    [L_t] is the occupied ring size) — the exact probability weight a
    uniform (step, slot) fault draw puts on group [g] at step [t].
    Stratum masses and per-stratum step CDFs read straight off the
    cumulative arrays. *)
type ring_obs

(** A fresh observer for one run of any length; [groups] maps program
    register codes to group ids below [ngroups], else [Invalid_argument]. *)
val ring_obs : groups:int array -> ngroups:int -> ring_obs

(** The cumulative arrays, of length [steps + 1] and indexed by step, of
    the run the observer watched; [[||]] until that run stops. *)
val ring_cum : ring_obs -> float array array

type config = {
  fuel : int;
  mode : valchk_mode;
  on_def : (int -> Ir.Value.t -> unit) option;
      (** profiling hook: called with (uid, value) for each dynamically
          executed value-producing instruction *)
  fault : fault_plan option;
  disabled_checks : (int, unit) Hashtbl.t;
      (** value checks that fire on the fault-free run: a check whose
          recovery fails to make it pass is executed once and then ignored,
          so campaigns disable such checks instead of counting their
          failures as detections *)
  profile : Profile.t option;
      (** execution profile to fill (opcode mix, block heat, check
          exec/fire counts); observation-only, the run is bit-identical
          with or without it *)
  checkpoint_interval : int;
      (** take a rollback checkpoint every this many dynamic instructions
          (and once at step 0); 0 disables recovery — the default.  When
          enabled, a run whose software check fires rolls back to the newest
          checkpoint predating the injected fault and replays; the machine
          retains the two most recent checkpoints, so recovery succeeds
          whenever the detection latency is below the interval. *)
  taint_trace : bool;
      (** carry shadow taint state ({!Taint}) seeded at the injection site
          and propagated through every value-producing instruction, load and
          store (DESIGN.md §10); observation-only — execution, costs and
          outcomes are bit-identical with tracing on or off *)
  obs : ring_obs option;
      (** fill the given {!ring_obs} arrays during the run (an adaptive
          campaign's golden pass); a run with both [obs] and [fault]
          raises [Invalid_argument].  Observation-only: execution, costs
          and outcomes are bit-identical with or without it. *)
}

val default_config : config

(** Size of the modelled architectural register file (16, as in ARMv7). *)
val arch_registers : int

(** [run prog ~entry ~args ~mem] interprets [entry] to completion (or trap,
    detection, fault, fuel exhaustion).  The program is lowered with
    {!Compiled.of_prog} on every call; repeated runs of the same program
    (fault-injection trials) should lower once and use {!run_compiled}. *)
val run :
  ?config:config ->
  Ir.Prog.t ->
  entry:string ->
  args:Ir.Value.t list ->
  mem:Memory.t ->
  result

(** Reusable per-worker scratch (DESIGN.md §12): recycled call frames
    (register files, defined bits, recent rings) and the phi scratch
    arrays, reset between runs instead of reallocated.  One arena serves
    one worker domain at a time — attach the same arena to every
    {!run_compiled} call of that worker's trials.  Strictly
    observation-free: results are bit-identical with or without one. *)
type arena

val arena : unit -> arena

(** Like {!run}, against an already-lowered program.  Bit-identical to
    {!run} on the program it was compiled from; safe to call concurrently
    from several domains (the compiled form is read-only, all run state is
    per-call).

    [arena] recycles frame and scratch allocations across runs (one arena
    per worker domain; observation-free).  Without one, the run allocates
    through a private arena.

    [fork_capture] (golden runs only) adds a resumable {!Fork.snap} to
    the plan ({!Fork.add}): snapshot 0 at the first loop head, then one
    every time the step counter crosses a stride boundary (the plan thins
    and doubles its stride at 64 stride snapshots) — at a loop head, or
    exactly at a checkpoint event when [checkpoint_interval] is on, and
    then holding that checkpoint (snapshot 0 holds the step-0 one).  When
    the run finishes it records its end state in [fp_end]: one more
    snapshot, without frames, and the return value.  Capture is
    observation-free for the capturing run itself, so a campaign captures
    during its golden run, observer or not.

    [resume] starts the run from a previously captured fork snapshot
    instead of the program entry: memory, frames, and the step/cycle/check
    counters are restored so the run is bit-identical to a from-scratch
    run — provided the configuration matches the capture run's (same
    program, same [checkpoint_interval], and a fault landing strictly
    after the snapshot's step; violations raise [Invalid_argument]).
    [args] and [entry] are ignored on resume.  Runs that profile or hook
    [on_def] observe only the post-fork suffix (resuming from snapshot 0
    skips the entry frame's profile note), so profiled campaign trials
    run from the entry on snapshot 0's memory.

    Resume and rejoin install a snapshot the same way: frames, memory
    image, counters and checkpoint count, and on resume in a
    checkpointing run the snapshot's checkpoint, its memory mark rebased
    onto this run's own undo journal.

    [rejoin] (faulted runs only) takes the snapshots and the end state
    of a capture run's {!Fork.plan} ([finalize] and [fp_end]) with the
    same program and [checkpoint_interval].  At a loop head on a snapshot's step, once
    the fault has landed and if no rollback happened, the run compares
    its whole state with the snapshot: counters, check bookkeeping,
    checkpoint schedule, frames and memory.  On a match the remaining
    run would replay the golden suffix, so it stops there: it installs the
    golden end state, and the stop is [Finished] with the golden return
    value; [rejoined_at] records the step.  Every other field of the
    result, and the final memory, are exactly those of the full run.
    Runs with [taint_trace], [profile] or [on_def], capture runs, and
    runs whose fuel or disabled checks would make the golden suffix
    behave differently never rejoin.
    Without checkpointing, a register flip whose register static liveness
    proves dead (the first access after the flip is a write, or the frame
    returns first) settles: the run rejoins at the next loop head without
    a snapshot compare, and [settled] is set. *)
val run_compiled :
  ?config:config ->
  ?arena:arena ->
  ?fork_capture:Fork.plan ->
  ?resume:Fork.snap ->
  ?rejoin:Fork.snap array * (Fork.snap * Ir.Value.t option) ->
  Compiled.t ->
  entry:string ->
  args:Ir.Value.t list ->
  mem:Memory.t ->
  result

val pp_trap : Format.formatter -> trap -> unit
val pp_stop : Format.formatter -> stop -> unit
