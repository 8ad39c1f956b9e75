(** Campaign trial journal: one JSONL record per trial plus a manifest.

    The journal is the per-trial telemetry the aggregate tables discard
    (paper §IV: which check fired, at what latency, for which injection)
    — the input of the [experiments report] subcommand and of detector
    placement studies à la DETOx.

    File layout: line 1 is the manifest record ([{"type":"manifest",…}]
    with schema version, config, golden reference data, timings and
    per-domain breakdown), followed by one [{"type":"trial",…}] record
    per trial, in deterministic seed order.  Journals are produced by
    {!write} from a completed campaign. *)

(** Schema identifier of a uniform journal: the manifest carries final
    outcome statistics (per-outcome counts with Wilson 95% intervals under
    ["stats"]).  Older generations only lacked optional fields, so
    {!fold} reads v1 through v5 alike. *)
val schema_v4 : string

(** Schema identifier of an adaptive stratified journal: the manifest
    also carries the ["adaptive"] section (stratum definitions and
    tallies, mass-reweighted intervals, equivalent-uniform trials) and
    each trial a ["stratum"] id. *)
val schema_v5 : string

(** [git describe --always --dirty] of the working tree, or ["unknown"]
    outside a git checkout — pins a journal to the code that wrote it. *)
val git_describe : unit -> string

(** JSON form of one trial: index, seed, injection site/details, outcome,
    detecting check (uid + kind), detection latency, steps, cycles, and —
    for traced campaigns — the propagation summary under ["taint"]. *)
val trial_record : index:int -> Campaign.trial -> Obs.Json.t

(** JSON form of a propagation summary: scalar fields plus the retained
    events as {!Obs.Trace} spans under ["spans"]. *)
val taint_json : Interp.Taint.summary -> Obs.Json.t

(** The campaign manifest.  [fault_kind] and [technique] are free-form
    labels; [stats] adds wall/per-domain timings when available;
    [counts] (the campaign summary's final outcome counts) becomes the
    per-outcome ["stats"] object — count plus Wilson 95% interval per
    observed outcome; [checkpoint_interval] (default 0: recovery off)
    records the campaign's recovery configuration; [taint_trace] (default
    false) records that trials carry propagation summaries; [adaptive] (a
    {!Campaign.adaptive} result) adds the ["adaptive"] section and stamps
    {!schema_v5} instead of {!schema_v4}; [plan] (an
    [Analysis.Plan.to_json] document) records the protection plan a
    plan-driven campaign executed, so warehouse run keys distinguish
    distinct plans. *)
val manifest_record :
  ?git:string ->
  ?technique:string ->
  ?plan:Obs.Json.t ->
  ?stats:Campaign.run_stats ->
  counts:(Classify.outcome * int) list ->
  ?adaptive:Campaign.adaptive ->
  ?checkpoint_interval:int ->
  ?taint_trace:bool ->
  label:string ->
  trials:int ->
  seed:int ->
  domains:int ->
  hw_window:int ->
  fault_kind:string ->
  golden:Campaign.golden ->
  unit ->
  Obs.Json.t

(** [replace_file ~path f] writes [path] whole through [f]: into a temp
    file in [path]'s directory, renamed over [path] once [f] returns.  A
    crash mid-write leaves the previous file intact, never a torn one; on
    an exception the temp file is removed. *)
val replace_file : path:string -> (out_channel -> unit) -> unit

(** Write a whole journal (manifest first, then the trials in list
    order), replacing [path] ({!replace_file}).  [trace] records the write
    as a [journal/write] duration span on the flight recorder. *)
val write :
  ?trace:Obs.Trace.recorder ->
  path:string -> manifest:Obs.Json.t -> trials:Campaign.trial list ->
  unit -> unit

(** Recovery telemetry read back from a trial that rolled back. *)
type recovery_view = {
  rv_detect_step : int;
  rv_checkpoint_step : int;
  rv_replayed_steps : int;
  rv_wasted_cycles : int;
  rv_rollback_cycles : int;
}

(** Propagation telemetry read back from a traced trial.  Distances
    ([tv_first_store], [tv_first_branch], [tv_died_at], [tv_end_distance])
    are dynamic instructions from the injection. *)
type taint_view = {
  tv_seeded : bool;
  tv_reg_hwm : int;
  tv_mem_words : int;
  tv_first_store : int option;
  tv_first_branch : int option;
  tv_died_at : int option;
  tv_end_distance : int option;
  tv_output_tainted : bool;
  tv_events_total : int;
  tv_spans : Obs.Trace.span list;  (** first retained propagation events *)
}

(** A trial record read back from a journal — the aggregation view the
    [report] subcommand consumes, decoupled from the in-memory types so
    reports work across code versions. *)
type view = {
  v_index : int;
  v_seed : int;
  v_at_step : int;
  v_outcome : string;            (** {!Classify.name} spelling *)
  v_check_uid : int option;      (** detecting check, detections only *)
  v_dup_check : bool option;     (** detector kind, detections only *)
  v_latency : int option;        (** detection latency, detections only *)
  v_steps : int;
  v_cycles : int;
  v_checkpoints : int;           (** 0 when recovery was off *)
  v_recovery : recovery_view option;  (** the trial's rollback, if any *)
  v_taint : taint_view option;   (** propagation summary, traced only *)
  v_inj_reg : int option;        (** injected register, injections only *)
  v_stratum : int option;        (** stratum id, v5 adaptive trials only *)
}

exception Malformed of string

(** Stream a journal: fold [f] over every trial view in file order,
    returning the manifest and the final accumulator.  One line is parsed
    and dropped before the next is read, so arbitrarily large journals
    aggregate in constant memory.  Raises {!Malformed} on unparseable
    lines, missing required trial fields, or a file with no manifest
    record ("no manifest in <path>" — an empty file is a broken journal,
    not an empty campaign); unknown record types are ignored (forward
    compatibility), and v1 through v5 schemas all load. *)
val fold : string -> init:'a -> f:('a -> view -> 'a) -> Obs.Json.t * 'a

(** Parse a whole journal into its manifest and trial views — a thin
    wrapper over {!fold}; same errors and compatibility. *)
val load : string -> Obs.Json.t * view list
