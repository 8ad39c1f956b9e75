open Ir

(** The simulated machine: an IR interpreter with a virtual register file per
    call frame, a cycle cost model, software-check semantics and single-bit
    fault injection into live registers.

    This stands in for the paper's GEM5 ARMv7-a model: the fault target (the
    architectural register file), the outcome signals (software check hits,
    memory-access symptoms, infinite loops) and the relative runtime (cycle
    model) are the quantities the evaluation needs.

    The interpreter runs the precompiled representation ({!Compiled}):
    branches, calls and phi edges are integer-indexed, so the hot loop never
    hashes a label or scans the function list.  {!run} lowers the program on
    entry; campaigns lower once and call {!run_compiled} for every trial. *)

type trap =
  | Segfault of int
  | Division_by_zero
  | Kind_confusion of string
  | Undefined_register of Instr.reg
  | Unknown_function of string

type detection = {
  check_uid : int;
  dup_check : bool;       (** true: duplication compare; false: value check *)
}

type fault_kind =
  | Register_bit     (** flip one bit of one live register (the paper's model) *)
  | Branch_target    (** corrupt the target of the next taken branch — the
                         fault class the paper defers to signature-based
                         control-flow checking (§IV-C) *)

(** A single injected fault, recorded for outcome analysis. *)
type injection = {
  inj_step : int;
  inj_kind : fault_kind;
  inj_reg : Instr.reg;    (** -1 for branch-target faults *)
  inj_bit : int;          (** -1 for branch-target faults *)
  before : Value.t;
  after : Value.t;
}

type stop =
  | Finished of Value.t option
  | Trapped of trap
  | Sw_detected of detection
  | Out_of_fuel

(** One rollback-and-replay recovery event (DESIGN.md §9): a software check
    fired, a retained checkpoint predating the injection was restored, and
    execution replayed from there.  The step/cycle counters are *not*
    rewound by the rollback, so the trial's totals honestly charge the
    wasted segment, the restore itself and the replay. *)
type recovery = {
  rec_detection : detection;    (** the check whose firing triggered rollback *)
  rec_detect_step : int;        (** step count when the check fired *)
  rec_checkpoint_step : int;    (** step of the restored checkpoint *)
  rec_replayed_steps : int;     (** detect - checkpoint: work to re-execute *)
  rec_wasted_cycles : int;      (** cycles spent between checkpoint and
                                    detection, thrown away by the rollback *)
  rec_rollback_cycles : int;    (** cost of the state restore itself *)
}

type result = {
  stop : stop;
  steps : int;
  cycles : int;
  valchk_failures : int;          (** dynamic count of ignored check failures *)
  failed_check_uids : int list;   (** distinct uids of value checks that failed
                                      without stopping the run *)
  injection : injection option;   (** what was actually flipped, if anything *)
  recovered : recovery option;    (** the rollback this run performed, if any *)
  rollback_denied : bool;         (** a check fired with recovery enabled, but
                                      no retained checkpoint predated the
                                      fault (detection latency exceeded the
                                      checkpoint window) *)
  checkpoints : int;              (** checkpoints taken during the run *)
  taint : Taint.summary option;   (** propagation summary; [Some] iff the
                                      run was configured with [taint_trace] *)
  rejoined_at : int option;       (** the step at which the run's state
                                      matched a golden snapshot, or was
                                      settled, and the run returned the
                                      golden end state *)
  settled : bool;                 (** the run rejoined because its flipped
                                      register was dead, without a snapshot
                                      compare; implies [rejoined_at] *)
}

type valchk_mode =
  | Detect     (** a failing value check stops the run (fault detected) *)
  | Record     (** failures are counted and execution continues; used to
                   measure the false-positive rate on fault-free runs *)

type fault_plan = {
  at_step : int;
  fault_rng : Rng.t;
  kind : fault_kind;
  restrict : (int array * int) option;
      (** stratified campaigns: (register→group map, target group); the
          register draw is uniform over the ring slots whose register maps
          to the target group, i.e. the uniform model conditioned on the
          stratum.  [None] (uniform campaigns) keeps the historical draw
          bit-identical. *)
}

let register_fault ?restrict ~at_step ~fault_rng () =
  { at_step; fault_rng; kind = Register_bit; restrict }

(** Ring-occupancy observation (adaptive campaigns, DESIGN.md §14): the
    golden pass records, at every step's fault point, what share of the
    architectural ring each stratum group holds.  [ro_cum.(g).(t)]
    accumulates [Σ_{t'≤t} L_{t'}^g / L_{t'}] where [L_t^g] counts ring
    slots whose register maps to group [g] — exactly the probability
    weight a uniform (step, slot) draw puts on group [g] at step [t], so
    stratum masses and per-stratum step CDFs read straight off these
    arrays.  The run's length is unknown while it runs, so it records
    [L_t^g] for every step, one byte each, and builds the arrays, of
    length [steps + 1], when it stops. *)
type ring_obs = {
  ro_groups : int array;            (** program register code → group id *)
  ro_ngroups : int;
  mutable ro_slots : Bytes.t;       (** [L_t^g] at [t * ro_ngroups + g];
                                        dropped once [ro_cum] is built *)
  mutable ro_cum : float array array;  (** one cumulative array per group;
                                           [[||]] until the run stops *)
}

let ring_obs ~groups ~ngroups =
  let ngroups = max 1 ngroups in
  if Array.exists (fun g -> g < 0 || g >= ngroups) groups then
    invalid_arg "Machine.ring_obs: a group id out of range";
  { ro_groups = groups; ro_ngroups = ngroups;
    ro_slots = Bytes.make (4096 * ngroups) '\000'; ro_cum = [||] }

(* The cumulative arrays of a run of [steps] steps.  Step [t] adds
   [1 / L_t] to group [g]'s running sum once per slot of [g], one addition
   at a time, so rounding is the same as if the sums ran with the run. *)
let cumulate o ~steps =
  let ng = o.ro_ngroups in
  let cum = Array.init ng (fun _ -> Array.make (steps + 1) 0.0) in
  for t = 1 to steps do
    let base = t * ng in
    let n = ref 0 in
    for g = 0 to ng - 1 do
      n := !n + Char.code (Bytes.get o.ro_slots (base + g))
    done;
    let inv = 1.0 /. float_of_int (max 1 !n) in
    for g = 0 to ng - 1 do
      let sum = ref cum.(g).(t - 1) in
      for _ = 1 to Char.code (Bytes.get o.ro_slots (base + g)) do
        sum := !sum +. inv
      done;
      cum.(g).(t) <- !sum
    done
  done;
  cum

let ring_cum o = o.ro_cum

type config = {
  fuel : int;
  mode : valchk_mode;
  on_def : (int -> Value.t -> unit) option;
      (** profiling hook: called with (uid, value) for each dynamically
          executed value-producing instruction *)
  fault : fault_plan option;
  disabled_checks : (int, unit) Hashtbl.t;
      (** value checks that fire on the fault-free run: per the paper, a
          check whose recovery fails to make it pass is executed once and
          then ignored, so campaigns disable such checks instead of counting
          their failures as detections *)
  profile : Profile.t option;
      (** execution profile to fill (opcode mix, block heat, check
          exec/fire counts).  Observation-only: the run is bit-identical
          with or without it; [None] costs one pointer test per event. *)
  checkpoint_interval : int;
      (** take a rollback checkpoint every this many dynamic instructions
          (and once at step 0); 0 disables recovery — the default, and the
          paper's baseline configuration *)
  taint_trace : bool;
      (** carry shadow taint state ({!Taint}) seeded at the injection site
          and propagated through every value-producing instruction, load
          and store; observation-only — execution, costs and outcomes are
          bit-identical with tracing on or off (DESIGN.md §10) *)
  obs : ring_obs option;
      (** record per-step ring occupancy by stratum group into the given
          arrays (an adaptive campaign's golden pass); incompatible with
          [fault].  Execution, costs and outcomes are bit-identical with
          or without it — only the arrays are filled. *)
}

let default_config =
  { fuel = 200_000_000; mode = Detect; on_def = None; fault = None;
    disabled_checks = Hashtbl.create 1; profile = None;
    checkpoint_interval = 0; taint_trace = false; obs = None }

(* Internal signalling exceptions. *)
exception Stop_detected of detection
exception Stop_trap of trap

(* Every field an arena reset touches is mutable: pooled frames are reused
   across calls and trials instead of reallocated (the register-file
   arrays are the dominant per-call allocation). *)
type frame = {
  mutable cfunc : Compiled.cfunc;
  values : Value.t array;
  defined : bool array;
  (** ring of the most recent register writes — the modelled architectural
      register file contents (see [arch_registers]) *)
  recent : int array;
  mutable recent_n : int;
  mutable recent_pos : int;
  mutable cblock : Compiled.cblock;
  mutable idx : int;              (** next body-instruction index *)
  mutable prev_block : int;       (** index of the block we came from;
                                      -1 on function entry *)
  mutable ret_dest : Instr.reg option; (** caller register receiving the result *)
  mutable taint : Taint.regs;     (** shadow register taint; the shared
                                      {!Taint.no_regs} when tracing is off *)
}

(** Reusable per-worker scratch (DESIGN.md §12): recycled frames (register
    files, defined bits, rings) and the phi scratch arrays, reset between
    runs instead of reallocated.  One arena serves one worker domain at a
    time; attach it to every {!run_compiled} call of that worker's trials.
    Observation-free: results are bit-identical with or without one. *)
type arena = {
  mutable ar_frames : frame list;  (** free pool, all [ar_width] registers wide *)
  mutable ar_width : int;          (** register-file width of the pooled frames;
                                       a different program drops the pool *)
  mutable ar_phi_vals : Value.t array;
  mutable ar_phi_set : bool array;
}

let arena () =
  { ar_frames = []; ar_width = -1; ar_phi_vals = [||]; ar_phi_set = [||] }

(* A rollback checkpoint (DESIGN.md §9).  Its cost is O(live state): the
   frames are copied eagerly (a frame is a few hundred words), memory is
   not copied — the undo journal records overwritten cells as stores
   happen, and {!Memory.rollback} replays it backwards to [ck_mem]. *)
type checkpoint = {
  ck_step : int;                (** step counter at capture *)
  ck_cycles : int;              (** cycle counter at capture, before the
                                    checkpoint's own cost *)
  ck_frames : Fork.frame list;  (** call stack, innermost first *)
  ck_mem : Memory.mark;         (** this run's undo-journal position *)
  ck_words : int;               (** live-state footprint, for cost
                                    accounting *)
}

type state = {
  compiled : Compiled.t;
  imms : Value.t array;             (** the compiled immediate pool *)
  on_def : (int -> Value.t -> unit) option;  (** hoisted from [config] *)
  profile : Profile.t option;       (** hoisted from [config] *)
  trace : Taint.t option;           (** taint tracer; [Some] iff
                                        [config.taint_trace] *)
  mem : Memory.t;
  config : config;
  mutable stack : frame list;
  mutable steps : int;
  mutable cycles : int;
  mutable valchk_failures : int;
  mutable failed_uids : (int, unit) Hashtbl.t;
  mutable injection : injection option;
  mutable fault_pending : fault_plan option;
  mutable fault_at : int;         (** step of the pending fault; [max_int]
                                      when none, so the per-step check is a
                                      single integer compare *)
  mutable fast_fuel : int;        (** the call-free fast path runs a block
                                      only if it ends before this step: the
                                      fuel, and until the fault lands also
                                      its step, so the injecting block runs
                                      in the slow path where [fr.idx] is
                                      exact *)
  mutable branch_fault_armed : Rng.t option;
      (** a pending branch-target corruption waiting for the next branch *)
  mutable slack_credit : int;     (** spare-issue-slot account, see Cost *)
  (* Checkpoint/rollback recovery state (DESIGN.md §9).  Two checkpoints
     rotate: one may have been taken between injection and detection (and
     so captured corrupted state), but with detection latency below the
     interval the one before it is guaranteed clean. *)
  mutable next_checkpoint : int;  (** step of the next scheduled checkpoint;
                                      [max_int] when recovery is disabled, so
                                      the loop-head check is one compare *)
  mutable ckpt_cur : checkpoint option;   (** most recent checkpoint *)
  mutable ckpt_prev : checkpoint option;  (** the one before it *)
  mutable ckpt_count : int;
  mutable recovered : recovery option;
  mutable rollback_denied : bool;
  phi_vals : Value.t array;       (** scratch for parallel phi copies *)
  phi_set : bool array;
  obs : ring_obs option;          (** ring-occupancy recording, if any *)
  arena : arena;                  (** frame pool and phi scratch *)
  fork : Fork.plan option;        (** golden-prefix capture plan, if any *)
  mutable next_fork : int;        (** step of the next fork capture;
                                      [max_int] when not capturing *)
  rejoin_snaps : Fork.snap array; (** golden snapshots a faulted run may
                                      rejoin at; [[||]] when rejoining is off *)
  rejoin_final : (Fork.snap * Value.t option) option;
                                  (** the golden end state and return value *)
  mutable rejoin_idx : int;       (** no candidate before it is left *)
  mutable next_rejoin : int;      (** step of the next rejoin check;
                                      [max_int] when none is left *)
  mutable rejoined_at : int option;
  mutable settled : bool;         (** the flipped register was provably
                                      dead: the run is on the golden path *)
}

(** The modelled architectural register file holds the 16 most recently
    written values: a bit flip in ARMv7's 16 architectural registers hits
    recently produced (mostly live) values, not arbitrary stale SSA
    temporaries.  The ring may contain a register more than once; that
    biases faults toward frequently rewritten registers, as a rotating
    physical file would. *)
let arch_registers = 16

(* Reads refresh the ring too: a register consulted every iteration (a loop
   bound, a base address) stays resident in a real register file and keeps
   absorbing faults, even though it was written long ago.  The ring size is
   hardwired ([arch_registers] = 16) so the updates need no length loads. *)
let read _st (fr : frame) op =
  match op with
  | Instr.Imm v -> v
  | Instr.Reg r ->
    (* [r] comes from static code, so it is < [next_reg] (the array size),
       and [recent_pos] is masked to 0-15: the checks the compiler cannot
       see are established by construction. *)
    if Array.unsafe_get fr.defined r then begin
      Array.unsafe_set fr.recent fr.recent_pos r;
      fr.recent_pos <- (fr.recent_pos + 1) land 15;
      if fr.recent_n < 16 then fr.recent_n <- fr.recent_n + 1;
      Array.unsafe_get fr.values r
    end
    else raise (Stop_trap (Undefined_register r));
  [@@inline]

(* Same as {!read} for an integer-coded operand (register index, or [lnot]
   of an immediate-pool slot — immediates touch no ring, as before). *)
let read_code st (fr : frame) code =
  if code >= 0 then begin
    if Array.unsafe_get fr.defined code then begin
      Array.unsafe_set fr.recent fr.recent_pos code;
      fr.recent_pos <- (fr.recent_pos + 1) land 15;
      if fr.recent_n < 16 then fr.recent_n <- fr.recent_n + 1;
      Array.unsafe_get fr.values code
    end
    else raise (Stop_trap (Undefined_register code))
  end
  else Array.unsafe_get st.imms (lnot code)
  [@@inline]

let write (fr : frame) r v =
  if not (Array.unsafe_get fr.defined r) then Array.unsafe_set fr.defined r true;
  Array.unsafe_set fr.recent fr.recent_pos r;
  fr.recent_pos <- (fr.recent_pos + 1) land 15;
  if fr.recent_n < 16 then fr.recent_n <- fr.recent_n + 1;
  Array.unsafe_set fr.values r v
  [@@inline]

let fresh_frame (st : state) (cfunc : Compiled.cfunc) ~ret_dest =
  { cfunc;
    values = Array.make st.compiled.next_reg Value.zero;
    defined = Array.make st.compiled.next_reg false;
    recent = Array.make arch_registers 0; recent_n = 0; recent_pos = 0;
    cblock = cfunc.cf_blocks.(cfunc.cf_entry); idx = 0;
    prev_block = -1; ret_dest;
    taint =
      (match st.trace with
       | Some _ -> Taint.fresh_regs st.compiled.Compiled.next_reg
       | None -> Taint.no_regs) }

(* Frames come from the arena's pool, which holds only frames of the
   running program's width ({!run_compiled} drops it on a change): a
   recycled frame is reset in place — clear the defined bits, rewind the
   ring — instead of reallocating the register file, which is the dominant
   per-call allocation.  The reset leaves [values] dirty; that is safe
   because every read is gated on [defined] and the fault targeting ring
   only ever holds registers that were written or read. *)
let alloc_frame (st : state) (cfunc : Compiled.cfunc) ~ret_dest =
  let a = st.arena in
  match a.ar_frames with
  | fr :: rest ->
    a.ar_frames <- rest;
    let width = a.ar_width in
    fr.cfunc <- cfunc;
    Array.fill fr.defined 0 width false;
    fr.recent_n <- 0;
    fr.recent_pos <- 0;
    fr.cblock <- cfunc.Compiled.cf_blocks.(cfunc.Compiled.cf_entry);
    fr.idx <- 0;
    fr.prev_block <- -1;
    fr.ret_dest <- ret_dest;
    (match st.trace with
     | Some _ ->
       let t = fr.taint in
       if t != Taint.no_regs && Array.length t.Taint.bits = width
       then begin
         Array.fill t.Taint.bits 0 width false;
         t.Taint.n <- 0
       end
       else fr.taint <- Taint.fresh_regs width
     | None -> fr.taint <- Taint.no_regs);
    fr
  | [] -> fresh_frame st cfunc ~ret_dest

(* Return a frame to the arena once it leaves the stack (function return,
   rollback replacement, end of run).  Snapshots never alias frames —
   {!snap_frame} copies the arrays — so recycling cannot corrupt retained
   checkpoints or fork snapshots. *)
let recycle_frame (st : state) (fr : frame) =
  st.arena.ar_frames <- fr :: st.arena.ar_frames

let note_frame_profile st (cfunc : Compiled.cfunc) =
  match st.profile with
  | Some p ->
    Profile.note_block p cfunc.Compiled.cf_name
      (Array.length cfunc.Compiled.cf_blocks) cfunc.Compiled.cf_entry
  | None -> ()

(** Program-entry frame: arguments are already values. *)
let entry_frame (st : state) (cfunc : Compiled.cfunc) ~args =
  let fr = alloc_frame st cfunc ~ret_dest:None in
  (try List.iter2 (fun r v -> write fr r v) cfunc.cf_params args
   with Invalid_argument _ ->
     invalid_arg
       (Printf.sprintf "call to %s: expected %d arguments, got %d"
          cfunc.cf_name
          (List.length cfunc.cf_params) (List.length args)));
  note_frame_profile st cfunc;
  fr

(** Call frame: arguments are operands of the caller's frame, bound to the
    callee's parameters left to right with no intermediate argument list
    (zero-alloc dispatch).  Reads hit the caller, writes the fresh callee —
    distinct frames even under recursion — so interleaving them preserves
    the exact ring-update sequence of the historical evaluate-then-bind
    path. *)
let call_frame (st : state) (cfunc : Compiled.cfunc) ~(caller : frame) ~args
    ~ret_dest =
  let fr = alloc_frame st cfunc ~ret_dest in
  let rec bind params ops =
    match params, ops with
    | [], [] -> ()
    | p :: ps, op :: rest ->
      let v = read st caller op in
      write fr p v;
      bind ps rest
    | [], _ :: _ | _ :: _, [] ->
      invalid_arg
        (Printf.sprintf "call to %s: expected %d arguments, got %d"
           cfunc.Compiled.cf_name
           (List.length cfunc.Compiled.cf_params) (List.length args))
  in
  bind cfunc.Compiled.cf_params args;
  note_frame_profile st cfunc;
  fr

(* Where a {!tick} sits relative to the instruction it charges, which
   fixes the instruction a fault landing on that tick precedes. *)
type tick_site =
  | Body   (* before a body instruction's reads; a fault lands only in the
              slow path ([fast_fuel]), where [fr.idx - 1] is that
              instruction *)
  | Phis   (* after every phi write of a block: [fr.idx] is next *)
  | Term   (* before the terminator reads its operand *)

(* Is register [reg] of [fr], flipped at a tick of kind [site], written
   again — or its frame popped — before anything reads it?  Scans forward
   from the instruction the tick precedes: the first read means live, the
   first write dead.  A call reads its arguments, then writes its
   destination when the callee returns; [Select] counts both arms as
   reads.  At the terminator, an operand read means live, a return pops
   the frame, and a jump or branch leaves [reg] live iff it is live on
   exit ([cb_live_out], which includes the successors' phi reads).
   Liveness over-approximates every dynamic read on any path, so "dead"
   holds for the run. *)
let flip_is_dead (fr : frame) reg site =
  let cb = fr.cblock in
  match cb.Compiled.cb_live_out with
  | None -> false
  | Some live_out ->
    let body = cb.Compiled.cb_instrs in
    let n = Array.length body in
    let reads = function Instr.Reg r -> r = reg | Instr.Imm _ -> false in
    let rec scan i =
      if i < n then begin
        let ins = body.(i) in
        if List.exists reads (Instr.operands ins) then false
        else ins.Instr.dest = Some reg || scan (i + 1)
      end
      else
        match cb.Compiled.cb_term with
        | Compiled.Cret (Some op) | Compiled.Cbr (op, _, _, _, _)
          when reads op -> false
        | Compiled.Cret _ -> true
        | Compiled.Cjmp _ | Compiled.Cbr _ ->
          not (Array.exists (fun r -> r = reg) live_out)
    in
    scan (match site with Body -> fr.idx - 1 | Phis -> fr.idx | Term -> n)

(** Flip a random bit of a random recently-written register of the active
    frame — the paper's register-file single-event upset.  The trial's
    prefix is the golden run's, so when the flipped register is dead
    ({!flip_is_dead}) the run's state is the golden state from the
    overwrite on: where the run may rejoin the golden run without
    checkpointing, it is settled and rejoins at the next loop head
    without a snapshot compare. *)
let inject_fault st (plan : fault_plan) site =
  match plan.kind with
  | Branch_target -> st.branch_fault_armed <- Some plan.fault_rng
  | Register_bit ->
    (match st.stack with
     | [] -> ()
     | fr :: _ ->
       if fr.recent_n > 0 then begin
         (* Restricted draws (stratified campaigns) pick uniformly among
            the ring slots whose register belongs to the target group —
            the uniform draw conditioned on the stratum.  A step is only
            ever targeted when the golden replay saw a candidate there, so
            the no-candidate branch is a safety net (no injection: the
            trial degenerates to a golden replay). *)
         let nth =
           match plan.restrict with
           | None -> Rng.int plan.fault_rng fr.recent_n
           | Some (groups, target) ->
             let candidates = ref 0 in
             for i = 0 to fr.recent_n - 1 do
               if groups.(fr.recent.(i)) = target then incr candidates
             done;
             if !candidates = 0 then -1
             else begin
               let pick = Rng.int plan.fault_rng !candidates in
               let nth = ref (-1) in
               let seen = ref 0 in
               for i = 0 to fr.recent_n - 1 do
                 if !nth < 0 && groups.(fr.recent.(i)) = target then begin
                   if !seen = pick then nth := i;
                   incr seen
                 end
               done;
               !nth
             end
         in
         if nth >= 0 then begin
           let reg = fr.recent.(nth) in
           let bit = Rng.int plan.fault_rng 64 in
           let before = fr.values.(reg) in
           let after = Value.flip_bit before bit in
           fr.values.(reg) <- after;
           st.injection <-
             Some { inj_step = st.steps; inj_kind = Register_bit;
                    inj_reg = reg; inj_bit = bit; before; after };
           (match st.trace with
            | Some tr -> Taint.seed tr fr.taint ~reg ~step:st.steps
            | None -> ());
           if Option.is_some st.rejoin_final
              && st.config.checkpoint_interval = 0
              && flip_is_dead fr reg site
           then begin
             st.settled <- true;
             st.next_rejoin <- st.steps
           end
         end
       end)

(* The rare branch of {!tick}, out of line so the hot loop pays a single
   compare per step.  Reached when the pending fault's step arrived — or,
   in a pass with the ring observer ([st.obs]), on every step ([fault_at]
   is pinned to 0): the pass accumulates the ring's per-group occupancy at
   exactly the point {!inject_fault} would sample it. *)
let slow_tick st site =
  match st.obs with
  | Some o ->
    let base = st.steps * o.ro_ngroups in
    while base + o.ro_ngroups > Bytes.length o.ro_slots do
      let len = Bytes.length o.ro_slots in
      let grown = Bytes.extend o.ro_slots 0 len in
      Bytes.fill grown len len '\000';
      o.ro_slots <- grown
    done;
    (match st.stack with
     | fr :: _ ->
       for i = 0 to fr.recent_n - 1 do
         let j = base + o.ro_groups.(fr.recent.(i)) in
         Bytes.set o.ro_slots j
           (Char.unsafe_chr (Char.code (Bytes.get o.ro_slots j) + 1))
       done
     | [] -> ())
  | None ->
    st.fault_at <- max_int;
    st.fast_fuel <- st.config.fuel;
    (match st.fault_pending with
     | Some plan ->
       st.fault_pending <- None;
       inject_fault st plan site
     | None -> ())

(* [site] is a constant at every call and only {!slow_tick} reads it. *)
let tick st ~cycles ~site =
  st.steps <- st.steps + 1;
  st.cycles <- st.cycles + cycles;
  if st.steps >= st.fault_at then slow_tick st site
  [@@inline]

(** Evaluate the phi batch of a block on entry from [fr.prev_block]:
    parallel-copy semantics (all reads before any write), staged through
    the preallocated scratch arrays so nothing is allocated per batch. *)
let run_phis st (fr : frame) =
  let phis = fr.cblock.Compiled.cb_phis in
  let n = Array.length phis in
  if n > 0 then begin
    let pred = fr.prev_block in
    (* A phi without an edge from the (possibly fault-corrupted) previous
       block keeps its stale value: the parallel copies that real codegen
       places in the predecessor never executed.  Fault-free runs always
       have the edge. *)
    for i = 0 to n - 1 do
      let phi = phis.(i) in
      let preds = phi.Compiled.cp_preds in
      let m = Array.length preds in
      let j = ref 0 in
      while !j < m && preds.(!j) <> pred do incr j done;
      if !j < m then begin
        st.phi_vals.(i) <- read st fr phi.Compiled.cp_ops.(!j);
        st.phi_set.(i) <- true
      end
      else st.phi_set.(i) <- false
    done;
    for i = 0 to n - 1 do
      if st.phi_set.(i) then write fr phis.(i).Compiled.cp_dest st.phi_vals.(i)
    done;
    (* Shadow taint follows the same parallel-copy discipline: all source
       taints are read before any destination bit changes, so a phi whose
       source is another phi's destination sees the pre-batch state. *)
    (match st.trace with
     | Some tr ->
       let taints = Array.make (max n 1) false in
       for i = 0 to n - 1 do
         if st.phi_set.(i) then begin
           let phi = phis.(i) in
           let preds = phi.Compiled.cp_preds in
           let m = Array.length preds in
           let j = ref 0 in
           while !j < m && preds.(!j) <> pred do incr j done;
           taints.(i) <-
             (match phi.Compiled.cp_ops.(!j) with
              | Instr.Imm _ -> false
              | Instr.Reg r -> Taint.reg_tainted fr.taint r)
         end
       done;
       for i = 0 to n - 1 do
         if st.phi_set.(i) then
           Taint.set_reg tr fr.taint phis.(i).Compiled.cp_dest taints.(i)
             ~step:st.steps
       done
     | None -> ());
    for _ = 1 to n do tick st ~cycles:Cost.phi ~site:Phis done
  end

let goto st (fr : frame) target ~label =
  let target =
    match st.branch_fault_armed with
    | None -> target
    | Some rng ->
      st.branch_fault_armed <- None;
      let blocks = fr.cfunc.Compiled.cf_blocks in
      let corrupted = Rng.int rng (Array.length blocks) in
      st.injection <-
        Some { inj_step = st.steps; inj_kind = Branch_target; inj_reg = -1;
               inj_bit = -1; before = Value.zero; after = Value.zero };
      (match st.trace with
       | Some tr -> Taint.seed_control tr ~step:st.steps
       | None -> ());
      corrupted
  in
  if target < 0 then
    invalid_arg
      (Printf.sprintf "%s: no block %S" fr.cfunc.Compiled.cf_name label);
  fr.prev_block <- fr.cblock.Compiled.cb_index;
  fr.cblock <- fr.cfunc.Compiled.cf_blocks.(target);
  fr.idx <- 0;
  (match st.profile with
   | Some p ->
     Profile.note_block p fr.cfunc.Compiled.cf_name
       (Array.length fr.cfunc.Compiled.cf_blocks) target
   | None -> ());
  run_phis st fr

(* Cycle accounting with the slack-credit model (see Cost): source
   instructions accrue spare-slot credit, duplicated shadow instructions
   consume it or pay one issue slot, checks always pay.  [meta] is the
   precomputed cost/origin word from {!Compiled.cblock.cb_meta}. *)
let instr_cycles st meta =
  let origin = Compiled.meta_origin meta in
  if origin = Compiled.origin_source then begin
    let credit = st.slack_credit + Cost.slack_gain in
    st.slack_credit <-
      (if credit > Cost.slack_cap then Cost.slack_cap else credit);
    Compiled.meta_cost meta
  end
  else if origin = Compiled.origin_duplicated then begin
    if st.slack_credit >= Cost.slack_cost then begin
      st.slack_credit <- st.slack_credit - Cost.slack_cost;
      0
    end
    else Cost.shadow_slot
  end
  else Compiled.meta_cost meta
  [@@inline]

(* Raw operand access for the taint tracer.  Deliberately NOT {!read_code}:
   that refreshes the recent-register ring, which fault targeting observes —
   the tracer must leave it untouched or tracing would change which register
   a later fault hits. *)
let code_value st (fr : frame) code =
  if code >= 0 then Array.unsafe_get fr.values code
  else Array.unsafe_get st.imms (lnot code)
  [@@inline]

(* Shadow-taint transfer for one executed instruction (DESIGN.md §10).
   Runs after the instruction's architectural effects, so register values
   (used to recompute addresses and select arms) are those the instruction
   itself saw; values never change between execution and this step. *)
let taint_step st tr (fr : frame) (ci : Compiled.cinstr) =
  let step = st.steps in
  let rt code = Taint.reg_tainted fr.taint code in
  match ci with
  | Compiled.CAdd { uid; dest; a; b }
  | Compiled.CSub { uid; dest; a; b }
  | Compiled.CBinop { uid; dest; a; b; _ } ->
    Taint.def tr fr.taint ~dest ~tainted:(rt a || rt b) ~uid ~step
  | Compiled.CUnop { uid; dest; a; _ } ->
    Taint.def tr fr.taint ~dest ~tainted:(rt a) ~uid ~step
  | Compiled.CIcmp { dest; a; b; _ } | Compiled.CFcmp { dest; a; b; _ } ->
    Taint.def tr fr.taint ~dest ~tainted:(rt a || rt b) ~uid:(-1) ~step
  | Compiled.CSelect { uid; dest; c; a; b } ->
    (* Only the taken arm was read; taint mirrors the dynamic data flow
       (plus the condition, which selected the value). *)
    let chosen = if Value.truthy (code_value st fr c) then a else b in
    Taint.def tr fr.taint ~dest ~tainted:(rt c || rt chosen) ~uid ~step
  | Compiled.CConst { dest; _ } | Compiled.CAlloc { dest; _ } ->
    Taint.set_reg tr fr.taint dest false ~step
  | Compiled.CLoad { uid; dest; a } ->
    let addr = Memory.addr_of_value (code_value st fr a) in
    Taint.load tr fr.taint ~dest ~addr ~addr_tainted:(rt a) ~uid ~step
  | Compiled.CStore { uid; a; v } ->
    let addr = Memory.addr_of_value (code_value st fr a) in
    Taint.store tr ~addr ~tainted:(rt v || rt a) ~uid ~step
  | Compiled.CCall { args; _ } ->
    (* The callee frame was just pushed; argument taint flows to its
       parameters (the frame starts all-clean, so only true bits are set). *)
    (match st.stack with
     | callee :: _ when callee != fr ->
       (try
          List.iter2
            (fun p op ->
              match op with
              | Instr.Imm _ -> ()
              | Instr.Reg r ->
                if Taint.reg_tainted fr.taint r then
                  Taint.set_reg tr callee.taint p true ~step)
            callee.cfunc.Compiled.cf_params args
        with Invalid_argument _ -> ())
     | _ -> ())
  | Compiled.CDup_check { uid; a; b } ->
    if rt a || rt b then Taint.check tr ~uid ~step
  | Compiled.CValue_check { uid; a; _ } ->
    if rt a then Taint.check tr ~uid ~step

(* The executor walks {!Compiled.cinstr} micro-ops: flat records with
   integer-coded operands, so one instruction costs one block load instead
   of a chase through kind, operand and destination AST nodes.  Two-operand
   reads keep the source interpreter's right-to-left evaluation order ([b]
   before [a]) so the recent-register ring — and therefore fault targeting —
   stays bit-identical.  There is also no per-instruction [try]: workload
   exceptions ([Division_by_zero], [Kind_error], [Segfault]) abort the whole
   run, so {!run_compiled} translates them to traps in its single outer
   handler instead of paying for a trap frame on every step. *)
let exec_instr st (fr : frame) (ci : Compiled.cinstr) meta =
  tick st ~cycles:(instr_cycles st meta) ~site:Body;
  (match st.profile with Some p -> Profile.note_instr p ci | None -> ());
  (match ci with
  | Compiled.CAdd { uid; dest; a; b } ->
    (* Specialization of the dominant binop: the add runs inline on the
       unboxed payloads instead of through [Opcode.eval_binop]'s dispatch. *)
    let vb = read_code st fr b in
    let va = read_code st fr a in
    let v = Value.of_int64 (Int64.add (Value.to_int64 va) (Value.to_int64 vb)) in
    if dest >= 0 then write fr dest v;
    (match st.on_def with Some f -> f uid v | None -> ())
  | Compiled.CSub { uid; dest; a; b } ->
    let vb = read_code st fr b in
    let va = read_code st fr a in
    let v = Value.of_int64 (Int64.sub (Value.to_int64 va) (Value.to_int64 vb)) in
    if dest >= 0 then write fr dest v;
    (match st.on_def with Some f -> f uid v | None -> ())
  | Compiled.CBinop { op; uid; dest; a; b } ->
    let vb = read_code st fr b in
    let va = read_code st fr a in
    let v = Opcode.eval_binop op va vb in
    if dest >= 0 then write fr dest v;
    (match st.on_def with Some f -> f uid v | None -> ())
  | Compiled.CUnop { op; uid; dest; a } ->
    let v = Opcode.eval_unop op (read_code st fr a) in
    if dest >= 0 then write fr dest v;
    (match st.on_def with Some f -> f uid v | None -> ())
  | Compiled.CIcmp { op; dest; a; b } ->
    let vb = read_code st fr b in
    let va = read_code st fr a in
    let v = Opcode.eval_icmp op va vb in
    if dest >= 0 then write fr dest v
  | Compiled.CFcmp { op; dest; a; b } ->
    let vb = read_code st fr b in
    let va = read_code st fr a in
    let v = Opcode.eval_fcmp op va vb in
    if dest >= 0 then write fr dest v
  | Compiled.CSelect { uid; dest; c; a; b } ->
    let v =
      if Value.truthy (read_code st fr c) then read_code st fr a
      else read_code st fr b
    in
    if dest >= 0 then write fr dest v;
    (match st.on_def with Some f -> f uid v | None -> ())
  | Compiled.CConst { dest; v } -> if dest >= 0 then write fr dest v
  | Compiled.CLoad { uid; dest; a } ->
    let addr = Memory.addr_of_value (read_code st fr a) in
    let v = Memory.load st.mem addr in
    if dest >= 0 then write fr dest v;
    (match st.on_def with Some f -> f uid v | None -> ())
  | Compiled.CStore { a; v; _ } ->
    let addr = Memory.addr_of_value (read_code st fr a) in
    Memory.store st.mem addr (read_code st fr v)
  | Compiled.CAlloc { dest; n } ->
    let size = Value.to_int (read_code st fr n) in
    if size < 0 || size > 1 lsl 28 then
      raise (Stop_trap (Segfault size));
    let base = Memory.alloc st.mem size in
    if dest >= 0 then write fr dest (Value.of_int base)
  | Compiled.CCall { name; callee; args; dest } ->
    if callee < 0 then raise (Stop_trap (Unknown_function name));
    let cf = st.compiled.Compiled.funcs.(callee) in
    let callee_frame = call_frame st cf ~caller:fr ~args ~ret_dest:dest in
    st.stack <- callee_frame :: st.stack
  | Compiled.CDup_check { uid; a; b } ->
    let vb = read_code st fr b in
    let va = read_code st fr a in
    (match st.profile with Some p -> Profile.note_check_exec p uid | None -> ());
    if not (Value.equal va vb) then begin
      (match st.profile with
       | Some p -> Profile.note_check_fire p uid
       | None -> ());
      (* The raise skips the post-instruction taint step; record the
         tainted-check event here so the detection shows in the trace. *)
      (match st.trace with
       | Some tr
         when Taint.reg_tainted fr.taint a || Taint.reg_tainted fr.taint b ->
         Taint.check tr ~uid ~step:st.steps
       | _ -> ());
      raise (Stop_detected { check_uid = uid; dup_check = true })
    end
  | Compiled.CValue_check { uid; ck; a } ->
    (match st.profile with Some p -> Profile.note_check_exec p uid | None -> ());
    if not (Instr.check_passes ck (read_code st fr a)) then begin
      (match st.profile with
       | Some p -> Profile.note_check_fire p uid
       | None -> ());
      match st.config.mode with
      | Detect ->
        if Hashtbl.mem st.config.disabled_checks uid then begin
          st.valchk_failures <- st.valchk_failures + 1;
          Hashtbl.replace st.failed_uids uid ()
        end
        else begin
          (match st.trace with
           | Some tr when Taint.reg_tainted fr.taint a ->
             Taint.check tr ~uid ~step:st.steps
           | _ -> ());
          raise (Stop_detected { check_uid = uid; dup_check = false })
        end
      | Record ->
        st.valchk_failures <- st.valchk_failures + 1;
        Hashtbl.replace st.failed_uids uid ()
    end);
  (match st.trace with
   | Some tr -> taint_step st tr fr ci
   | None -> ())

(** Execute the terminator; returns [Some v] when the whole program returns. *)
let exec_terminator st (fr : frame) =
  match fr.cblock.Compiled.cb_term with
  | Compiled.Cjmp (target, label) ->
    tick st ~cycles:Cost.jmp ~site:Term;
    goto st fr target ~label;
    None
  | Compiled.Cbr (c, t1, l1, t2, l2) ->
    tick st ~cycles:Cost.br ~site:Term;
    let cond = Value.truthy (read st fr c) in
    (match st.trace with
     | Some tr ->
       (match c with
        | Instr.Reg r when Taint.reg_tainted fr.taint r ->
          Taint.branch tr ~step:st.steps
        | Instr.Reg _ | Instr.Imm _ -> ())
     | None -> ());
    if cond then goto st fr t1 ~label:l1 else goto st fr t2 ~label:l2;
    None
  | Compiled.Cret op ->
    tick st ~cycles:Cost.ret ~site:Term;
    (* Inline match, not [Option.map]: the partial application would
       allocate a closure on every return. *)
    let v = match op with None -> None | Some o -> Some (read st fr o) in
    let ret_tainted =
      match st.trace with
      | Some _ ->
        (match op with
         | Some (Instr.Reg r) -> Taint.reg_tainted fr.taint r
         | Some (Instr.Imm _) | None -> false)
      | None -> false
    in
    (match st.stack with
     | [] -> assert false
     | _self :: rest ->
       st.stack <- rest;
       (match rest with
        | [] ->
          (match st.trace with
           | Some tr ->
             Taint.set_ret tr ret_tainted;
             Taint.drop_frame tr fr.taint;
             (* A tainted return value escaped through the output — that is
                propagation, not death, so the death check is skipped. *)
             if not ret_tainted then Taint.death_check tr ~step:st.steps
           | None -> ());
          recycle_frame st fr;
          Some v         (* program finished *)
        | caller :: _ ->
          (match fr.ret_dest, v with
           | Some r, Some value -> write caller r value
           | Some r, None -> write caller r Value.zero
           | None, _ -> ());
          (match st.trace with
           | Some tr ->
             (* The dying frame's taint leaves first, then the returned
                value's taint (if any) lands in the caller's destination;
                only then can the taint set be pronounced dead. *)
             Taint.drop_frame tr fr.taint;
             (match fr.ret_dest with
              | Some r -> Taint.set_reg tr caller.taint r ret_tainted ~step:st.steps
              | None -> ());
             Taint.death_check tr ~step:st.steps
           | None -> ());
          recycle_frame st fr;
          None))

(* ----- Checkpoint / rollback recovery (DESIGN.md §9) ----- *)

let snap_frame (fr : frame) : Fork.frame =
  { fs_cfunc = fr.cfunc;
    fs_values = Array.copy fr.values;
    fs_defined = Array.copy fr.defined;
    fs_recent = Array.copy fr.recent;
    fs_recent_n = fr.recent_n;
    fs_recent_pos = fr.recent_pos;
    fs_block = fr.cblock.Compiled.cb_index;
    fs_idx = fr.idx;
    fs_prev_block = fr.prev_block;
    fs_ret_dest = fr.ret_dest }

(* The arrays are copied again on restore so the snapshot itself stays
   pristine — a retained checkpoint must survive its own restoration (and
   fork snapshots are shared read-only across worker domains).  Shadow
   taint is not snapshotted: the restored state predates the fault, so the
   frames come back with all-clean shadow registers (the tracer's counters
   are cleared by {!Taint.rollback} alongside).  Goes through the arena
   pool. *)
let restore_frame st (fs : Fork.frame) : frame =
  let fr = alloc_frame st fs.fs_cfunc ~ret_dest:fs.fs_ret_dest in
  Array.blit fs.fs_values 0 fr.values 0 (Array.length fs.fs_values);
  Array.blit fs.fs_defined 0 fr.defined 0 (Array.length fs.fs_defined);
  Array.blit fs.fs_recent 0 fr.recent 0 (Array.length fs.fs_recent);
  fr.recent_n <- fs.fs_recent_n;
  fr.recent_pos <- fs.fs_recent_pos;
  fr.cblock <- fs.fs_cfunc.Compiled.cf_blocks.(fs.fs_block);
  fr.idx <- fs.fs_idx;
  fr.prev_block <- fs.fs_prev_block;
  fr

(* Regions unchanged since the newest snapshot (read-only inputs, mostly)
   share that snapshot's arrays instead of being copied again; only
   snapshot 0 is a full copy. *)
let capture_mem st (plan : Fork.plan) =
  match plan.Fork.fp_snaps, plan.Fork.fp_start with
  | newest :: _, _ | [], Some newest ->
    Memory.capture ~like:newest.Fork.fk_mem st.mem
  | [], None -> Memory.capture st.mem

let sorted_failed_uids st =
  Hashtbl.fold (fun uid () acc -> uid :: acc) st.failed_uids []
  |> List.sort compare

(* The machine's state as a fork snapshot, with the given frames. *)
let fork_snap st plan ~frames ~ckpt_words =
  { Fork.fk_step = st.steps;
    fk_cycles = st.cycles;
    fk_frames = frames;
    fk_mem = capture_mem st plan;
    fk_valchk_failures = st.valchk_failures;
    fk_failed_uids = sorted_failed_uids st;
    fk_slack_credit = st.slack_credit;
    fk_checkpoints = st.ckpt_count;
    fk_ckpt_words = ckpt_words }

(* Capture one golden-prefix fork snapshot ({!Fork}): the current loop
   head is a consistent resume position (same argument as checkpoints:
   the fast path retires whole blocks, so the head only ever sees block
   boundaries or slow-path steps).  [ckpt] is the checkpoint the run took
   at this very step, when checkpointing is on — captures then coincide
   with checkpoint events, and the snapshot shares its frames and keeps
   its footprint, so a resumed trial rebuilds the checkpoint a
   from-scratch run would hold (see {!install}). *)
let capture_fork st ~ckpt =
  match st.fork with
  | None -> ()
  | Some plan ->
    let frames, ckpt_words =
      match ckpt with
      | Some c -> c.ck_frames, Some c.ck_words
      | None -> List.map snap_frame st.stack, None
    in
    Fork.add plan (fork_snap st plan ~frames ~ckpt_words);
    st.next_fork <- st.steps + plan.Fork.fp_stride

(* One frame's live-state footprint: the register file (values + defined
   bits, the latter packed one word per 64) plus the 16-entry recent ring
   and a constant of control state. *)
let frame_words (fs : Fork.frame) =
  Array.length fs.fs_values
  + (Array.length fs.fs_defined + 63) / 64
  + Array.length fs.fs_recent + 4

(* Checkpoints are taken at the interpreter loop head, where [fr.idx] is a
   consistent resume position (the call-free fast path retires a whole
   block's worth of [idx] up front, so mid-body state is not resumable).
   A checkpoint may therefore land up to a block length after the scheduled
   step — deterministically, since the trigger is the step counter. *)
let take_checkpoint st =
  (* The stores since the previous checkpoint are charged as the
     copy-on-checkpoint cost of the memory state. *)
  let dirty =
    match st.ckpt_cur with
    | Some c -> Memory.undo_since st.mem c.ck_mem
    | None -> Memory.undo_length st.mem
  in
  let frames = List.map snap_frame st.stack in
  let ckpt =
    { ck_step = st.steps; ck_cycles = st.cycles; ck_frames = frames;
      ck_mem = Memory.mark st.mem;
      ck_words =
        List.fold_left (fun acc fs -> acc + frame_words fs) dirty frames }
  in
  (* The checkpoint before the previous one is now unreachable: its part of
     the memory undo journal can be dropped. *)
  (match st.ckpt_cur with
   | Some c -> Memory.retire st.mem c.ck_mem
   | None -> ());
  st.ckpt_prev <- st.ckpt_cur;
  st.ckpt_cur <- Some ckpt;
  st.ckpt_count <- st.ckpt_count + 1;
  st.cycles <- st.cycles + Cost.checkpoint ~words:ckpt.ck_words;
  st.next_checkpoint <- st.steps + st.config.checkpoint_interval;
  (* When a checkpointing golden run is also capturing fork snapshots, the
     capture happens exactly here, after the checkpoint cost is charged:
     the snapshot's resume cycles include that cost, and its step and
     frames are the checkpoint's, so with the footprint a resumed trial
     reproduces both the rollback target and its accounting. *)
  if st.steps >= st.next_fork then capture_fork st ~ckpt:(Some ckpt)

(** A software check fired: try to roll back to the newest retained
    checkpoint that predates the injected fault and replay.  Returns false
    (and records the denial) when recovery is off, already used — one
    transient fault means one recovery — or no clean checkpoint remains,
    i.e. the detection latency exceeded the checkpoint window. *)
let try_recover st (d : detection) =
  if st.config.checkpoint_interval <= 0 || st.recovered <> None then false
  else
    match st.injection with
    | None ->
      (* Fault-free run (or the fault never landed): the check fired on the
         program's own behaviour; replaying would just fire it again. *)
      st.rollback_denied <- true;
      false
    | Some inj ->
      (* Strictly before: the injection lands while executing the
         instruction that advances the counter to its step. *)
      let clean c = c.ck_step < inj.inj_step in
      let pick =
        match st.ckpt_cur with
        | Some c when clean c -> Some c
        | _ ->
          (match st.ckpt_prev with
           | Some c when clean c -> Some c
           | _ -> None)
      in
      (match pick with
       | None ->
         st.rollback_denied <- true;
         false
       | Some ckpt ->
         let detect_step = st.steps and detect_cycles = st.cycles in
         Memory.rollback st.mem ckpt.ck_mem;
         (* The wasted segment's frames go back to the pool; the restore
            below blits the snapshot's private copies into them. *)
         List.iter (recycle_frame st) st.stack;
         st.stack <- List.map (restore_frame st) ckpt.ck_frames;
         st.slack_credit <- 0;               (* the rollback flushes the pipe *)
         (* The restore erased the transient fault's architectural effects;
            the shadow taint dies with them. *)
         (match st.trace with
          | Some tr -> Taint.rollback tr ~step:st.steps
          | None -> ());
         let rollback_cycles = Cost.rollback ~words:ckpt.ck_words in
         st.cycles <- st.cycles + rollback_cycles;
         (* The fault was transient: its architectural effects are erased by
            the restore and the replay runs clean, so nothing is re-armed.
            Steps/cycles stay monotone — the replayed instructions charge
            their cost again, which is exactly the recovery overhead. *)
         st.branch_fault_armed <- None;
         st.recovered <-
           Some { rec_detection = d;
                  rec_detect_step = detect_step;
                  rec_checkpoint_step = ckpt.ck_step;
                  rec_replayed_steps = detect_step - ckpt.ck_step;
                  rec_wasted_cycles = detect_cycles - ckpt.ck_cycles;
                  rec_rollback_cycles = rollback_cycles };
         (* Checkpoints taken inside the wasted segment are gone with it;
            keep checkpointing from the restored one on the usual cadence. *)
         st.ckpt_prev <- None;
         st.ckpt_cur <- Some ckpt;
         st.next_checkpoint <- st.steps + st.config.checkpoint_interval;
         true)

(* ----- Rejoining the golden run (DESIGN.md §12) ----- *)

(* Does the live frame stack equal a snapshot's?  Registers are compared
   only where defined: every read is gated on the defined bit, so the
   stale contents of an undefined register are never observed.  The
   recent-register ring is not compared — only fault injection reads it,
   and the fault has already landed. *)
let frame_matches (fr : frame) (fs : Fork.frame) =
  fr.cfunc == fs.fs_cfunc
  && fr.cblock.Compiled.cb_index = fs.fs_block
  && fr.idx = fs.fs_idx
  && fr.prev_block = fs.fs_prev_block
  && Option.equal Int.equal fr.ret_dest fs.fs_ret_dest
  && begin
    let defined = fr.defined and values = fr.values in
    let n = Array.length defined in
    n = Array.length fs.fs_defined
    && begin
      let same = ref true and r = ref 0 in
      while !same && !r < n do
        let d = Array.unsafe_get defined !r in
        if d <> Array.unsafe_get fs.fs_defined !r
           || (d && not (Value.equal (Array.unsafe_get values !r)
                           (Array.unsafe_get fs.fs_values !r)))
        then same := false;
        incr r
      done;
      !same
    end
  end

let rec frames_match frames snaps =
  match frames, snaps with
  | [], [] -> true
  | fr :: frames, fs :: snaps -> frame_matches fr fs && frames_match frames snaps
  | [], _ :: _ | _ :: _, [] -> false

(* The whole machine state against a golden snapshot taken at this very
   step, cheapest comparisons first. *)
let state_matches st (s : Fork.snap) =
  st.cycles = s.Fork.fk_cycles
  && st.slack_credit = s.Fork.fk_slack_credit
  && st.valchk_failures = s.Fork.fk_valchk_failures
  && Hashtbl.length st.failed_uids = List.length s.Fork.fk_failed_uids
  && List.for_all (Hashtbl.mem st.failed_uids) s.Fork.fk_failed_uids
  && st.ckpt_count = s.Fork.fk_checkpoints
  && (match s.Fork.fk_ckpt_words with
      | None -> st.config.checkpoint_interval = 0
      | Some _ ->
        (* The checkpoint just taken at this loop head: the next one's
           dirty-word count — hence its cost — starts from here in both
           runs, so the history before this step no longer matters. *)
        st.next_checkpoint = s.Fork.fk_step + st.config.checkpoint_interval)
  && frames_match st.stack s.Fork.fk_frames
  && Memory.equal_image st.mem s.Fork.fk_mem

(* Make a golden snapshot the machine's state: its frames (the stack's
   frames go back to the arena first), memory image and counters.  A
   checkpointing run also holds the checkpoint the capture run took at the
   snapshot's step: its step and frames are the snapshot's, its cycles
   the snapshot's less the checkpoint cost (charged just before the
   capture), and its mark is this run's own just-reset undo journal, so
   rolling back restores the state at the snapshot.  The golden footprint
   keeps checkpoint and rollback costs bit-identical.  Resume and rejoin
   both install through here. *)
let install st (s : Fork.snap) =
  List.iter (recycle_frame st) st.stack;
  st.stack <- List.map (restore_frame st) s.Fork.fk_frames;
  Memory.restore_image st.mem s.Fork.fk_mem;
  st.steps <- s.Fork.fk_step;
  st.cycles <- s.Fork.fk_cycles;
  st.valchk_failures <- s.Fork.fk_valchk_failures;
  Hashtbl.reset st.failed_uids;
  List.iter (fun uid -> Hashtbl.replace st.failed_uids uid ())
    s.Fork.fk_failed_uids;
  st.slack_credit <- s.Fork.fk_slack_credit;
  st.ckpt_count <- s.Fork.fk_checkpoints;
  if st.config.checkpoint_interval > 0 then begin
    Memory.enable_undo st.mem;
    match s.Fork.fk_ckpt_words with
    | Some words ->
      st.ckpt_cur <-
        Some { ck_step = s.Fork.fk_step;
               ck_cycles = s.Fork.fk_cycles - Cost.checkpoint ~words;
               ck_frames = s.Fork.fk_frames; ck_mem = Memory.mark st.mem;
               ck_words = words };
      st.next_checkpoint <- s.Fork.fk_step + st.config.checkpoint_interval
    | None -> ()
  end

(** At a loop head at or past [next_rejoin]: if the run is settled (its
    flip was dead, see {!inject_fault}), or it sits exactly on a golden
    snapshot's step, its fault has landed, and its whole state equals the
    snapshot's, the rest of the run would replay the golden suffix
    instruction for instruction.  Skip it: install the golden end state
    and report true.  Otherwise advance to the next candidate. *)
let try_rejoin st =
  let snaps = st.rejoin_snaps in
  let n = Array.length snaps in
  let i = ref st.rejoin_idx in
  while !i < n && snaps.(!i).Fork.fk_step < st.steps do incr i done;
  let here = !i < n && snaps.(!i).Fork.fk_step = st.steps in
  (* The fault has landed and no rollback happened: a recovered run's
     counters include the wasted segment, so it cannot be on the golden
     path any more. *)
  let eligible () =
    Option.is_some st.injection && Option.is_none st.fault_pending
    && Option.is_none st.branch_fault_armed
    && Option.is_none st.recovered && not st.rollback_denied
  in
  match st.rejoin_final with
  | Some (fin, _)
    when st.settled || (here && eligible () && state_matches st snaps.(!i)) ->
    st.rejoined_at <- Some st.steps;
    install st fin;
    true
  | _ ->
    let next = if here then !i + 1 else !i in
    st.rejoin_idx <- next;
    st.next_rejoin <-
      (if next < n && Option.is_none st.recovered then snaps.(next).Fork.fk_step
       else max_int);
    false

let run_compiled ?(config = default_config) ?(arena = arena ()) ?fork_capture
    ?resume ?rejoin compiled ~entry ~args ~mem =
  (* Phi scratch and the frame pool come from the arena, the caller's or
     a private one; a width change (different program) drops the pool. *)
  let nphi = max 1 compiled.Compiled.max_phis in
  if Array.length arena.ar_phi_vals < nphi then begin
    arena.ar_phi_vals <- Array.make nphi Value.zero;
    arena.ar_phi_set <- Array.make nphi false
  end;
  if arena.ar_width <> compiled.Compiled.next_reg then begin
    arena.ar_frames <- [];
    arena.ar_width <- compiled.Compiled.next_reg
  end;
  if Option.is_some config.obs && Option.is_some config.fault then
    invalid_arg "Machine.run_compiled: a ring observer with a fault";
  (* Rejoining skips the golden suffix, so a run that observes its
     execution (taint, profile, [on_def]) or captures snapshots itself
     never rejoins.  The end state is only the right answer if the suffix
     runs as it did in the capture run: every check the golden fails must
     be ignored here too, and the fuel must not run out before the golden
     end.  The first check waits for the fault. *)
  let rejoin_snaps, rejoin_final, next_rejoin =
    match rejoin, config.fault with
    | Some (snaps, ((fin : Fork.snap), _ as final)), Some p
      when (not config.taint_trace) && Option.is_none config.profile
           && Option.is_none config.on_def
           && Option.is_none fork_capture && fin.fk_step < config.fuel
           && (config.mode = Record
               || List.for_all (Hashtbl.mem config.disabled_checks)
                    fin.fk_failed_uids) ->
      (snaps, Some final, p.at_step)
    | _ -> ([||], None, max_int)
  in
  let st =
    { compiled; imms = compiled.Compiled.imms; on_def = config.on_def;
      profile = config.profile;
      trace = (if config.taint_trace then Some (Taint.create ()) else None);
      mem; config; stack = []; steps = 0; cycles = 0;
      valchk_failures = 0; failed_uids = Hashtbl.create 4; injection = None;
      fault_pending = config.fault;
      fault_at =
        (match config.fault, config.obs with
         | Some p, _ -> p.at_step
         | None, Some _ -> 0     (* observe the ring at every step *)
         | None, None -> max_int);
      fast_fuel =
        (match config.fault with
         | Some p -> min config.fuel p.at_step
         | None -> config.fuel);
      obs = config.obs;
      branch_fault_armed = None;
      slack_credit = 0;
      next_checkpoint =
        (if config.checkpoint_interval > 0 then 0 else max_int);
      ckpt_cur = None; ckpt_prev = None; ckpt_count = 0;
      recovered = None; rollback_denied = false;
      phi_vals = arena.ar_phi_vals; phi_set = arena.ar_phi_set;
      arena; fork = fork_capture;
      (* The first capture is snapshot 0, at the first loop head. *)
      next_fork =
        (match fork_capture with Some _ -> 0 | None -> max_int);
      rejoin_snaps; rejoin_final; rejoin_idx = 0; next_rejoin;
      rejoined_at = None; settled = false }
  in
  let finish stop =
    (* Frames still on the stack feed the next trial's allocations. *)
    List.iter (recycle_frame st) st.stack;
    st.stack <- [];
    (match st.fork, stop with
     | Some plan, Finished ret ->
       plan.Fork.fp_end <-
         Some (fork_snap st plan ~frames:[] ~ckpt_words:None, ret)
     | _ -> ());
    (match st.obs with
     | Some o ->
       o.ro_cum <- cumulate o ~steps:st.steps;
       o.ro_slots <- Bytes.empty
     | None -> ());
    { stop; steps = st.steps; cycles = st.cycles;
      valchk_failures = st.valchk_failures;
      failed_check_uids = sorted_failed_uids st;
      injection = st.injection;
      recovered = st.recovered; rollback_denied = st.rollback_denied;
      checkpoints = st.ckpt_count;
      taint = Option.map (fun tr -> Taint.summarize tr ~end_step:st.steps) st.trace;
      rejoined_at = st.rejoined_at;
      settled = st.settled && Option.is_some st.rejoined_at }
  in
  let exec_loop () =
    let result = ref None in
    (* Pattern-matching the condition keeps the loop head a tag test; [=]
       on options would call the polymorphic comparator every step. *)
    while (match !result with None -> true | Some _ -> false) do
      if st.steps >= st.next_checkpoint then take_checkpoint st;
      (* Fork captures piggyback on checkpoint events when checkpointing
         is on (see {!take_checkpoint}); otherwise any loop head crossing
         the stride boundary is a consistent capture point.  [next_fork]
         is [max_int] outside capture runs, so trials pay one compare. *)
      if st.steps >= st.next_fork && config.checkpoint_interval = 0 then
        capture_fork st ~ckpt:None;
      (* Rejoin candidates sit where the golden captured its snapshots:
         here, after any checkpoint this loop head took.  [next_rejoin] is
         [max_int] when rejoining is off. *)
      if st.steps >= st.next_rejoin && try_rejoin st then
        result := Some (Finished (snd (Option.get st.rejoin_final)))
      else if st.steps >= config.fuel then result := Some Out_of_fuel
      else begin
        match st.stack with
        | [] -> assert false
        | fr :: _ ->
          let cblock = fr.cblock in
          let code = cblock.Compiled.cb_code in
          let n = Array.length code in
          if fr.idx < n then begin
            if (not cblock.Compiled.cb_has_call)
               && st.steps + (n - fr.idx) < st.fast_fuel
            then begin
              (* Call-free block comfortably inside the fuel budget, and
                 not the one the fault lands in ([fast_fuel]): [fr] stays
                 the top frame and no fuel stop can hit mid-body, so the
                 whole remainder runs without per-step stack or bounds
                 bookkeeping.  Nothing reads [fr.idx] mid-body, so it can
                 be retired up front. *)
              let meta = cblock.Compiled.cb_meta in
              let start = fr.idx in
              fr.idx <- n;
              for i = start to n - 1 do
                (* [i < n] = both array lengths, by the loop bound. *)
                exec_instr st fr (Array.unsafe_get code i)
                  (Array.unsafe_get meta i)
              done
            end
            else begin
              let ci = code.(fr.idx) in
              let meta = cblock.Compiled.cb_meta.(fr.idx) in
              fr.idx <- fr.idx + 1;
              exec_instr st fr ci meta
            end
          end
          else begin
            match exec_terminator st fr with
            | Some v -> result := Some (Finished v)
            | None -> ()
          end
      end
    done;
    (match !result with Some s -> s | None -> assert false)
  in
  (* A software detection is a recovery opportunity before it is a stop:
     roll back and re-enter the loop when a clean checkpoint exists.
     [try_recover] permits at most one rollback per run, so this always
     terminates. *)
  let rec drive () =
    match exec_loop () with
    | stop -> stop
    | exception Stop_detected d ->
      if try_recover st d then drive () else Sw_detected d
  in
  match
    (match resume with
     | None ->
       let entry_func = Compiled.find_func compiled entry in
       let fr = entry_frame st entry_func ~args in
       st.stack <- [ fr ];
       if config.checkpoint_interval > 0 then Memory.enable_undo mem
     | Some (snap : Fork.snap) ->
       (* Resume from a golden-prefix fork snapshot: every piece of state
          a from-scratch run would carry at this step, its checkpoint
          included.  [ckpt_prev] is never needed: the injection postdates
          that checkpoint, so it is always the newest clean one.  The
          injection must land after the fork, or the resumed run would
          skip the very step the fault targets. *)
       (match config.fault with
        | Some p when p.at_step <= snap.fk_step ->
          invalid_arg
            "Machine.run_compiled: resume snapshot does not predate the fault"
        | Some _ | None -> ());
       if config.checkpoint_interval > 0 && Option.is_none snap.fk_ckpt_words then
         invalid_arg
           "Machine.run_compiled: checkpointing run resumed from a \
            snapshot captured without checkpoint state";
       install st snap);
    drive ()
  with
  | stop -> finish stop
  | exception Stop_trap t -> finish (Trapped t)
  | exception Opcode.Division_by_zero -> finish (Trapped Division_by_zero)
  | exception Value.Kind_error m -> finish (Trapped (Kind_confusion m))
  | exception Memory.Segfault x -> finish (Trapped (Segfault x))

let run ?config prog ~entry ~args ~mem =
  run_compiled ?config (Compiled.of_prog prog) ~entry ~args ~mem

let pp_trap ppf = function
  | Segfault a -> Format.fprintf ppf "segfault @%d" a
  | Division_by_zero -> Format.fprintf ppf "division by zero"
  | Kind_confusion m -> Format.fprintf ppf "kind confusion: %s" m
  | Undefined_register r -> Format.fprintf ppf "undefined register %%r%d" r
  | Unknown_function f -> Format.fprintf ppf "unknown function %s" f

let pp_stop ppf = function
  | Finished None -> Format.fprintf ppf "finished"
  | Finished (Some v) -> Format.fprintf ppf "finished with %a" Value.pp v
  | Trapped t -> Format.fprintf ppf "trap: %a" pp_trap t
  | Sw_detected d ->
    Format.fprintf ppf "software detection at check #%d (%s)" d.check_uid
      (if d.dup_check then "dup" else "value")
  | Out_of_fuel -> Format.fprintf ppf "out of fuel"
