(** Content-addressed store of campaign runs (DESIGN.md §15).

    A warehouse directory files every ingested campaign journal under a
    *run key* — the digest of everything that determines the campaign's
    results (program, technique, fault model, recovery/taint/adaptive
    configuration, seed, trial count) and nothing that doesn't (worker
    domains, git revision, wall-clock timings, host).  Campaigns are
    bit-deterministic in the seed at any domain count, so the key is a
    true content address: the same configuration always produces the
    same trials, and re-ingesting them is a no-op.

    Layout under the warehouse directory:
    - [index.jsonl] — append-only index, one {!schema} record per
      ingested run (outcome counts, Wilson intervals, throughput, host,
      journal schema);
    - [runs/<key>.jsonl] — the journal, byte-for-byte.

    This is the seed of a campaign-server result cache: a request whose
    key is already filed costs one index lookup. *)

(** Index record schema identifier: ["softft.warehouse.v1"]. *)
val schema : string

(** Canonical program digest: the hex MD5 of the printed IR
    ({!Ir.Printer.prog_to_string}) — stable across process runs and
    domain counts, sensitive to any instruction, operand or uid
    change. *)
val prog_digest : Ir.Prog.t -> string

(** [run_key ?prog_digest manifest] derives the run key from a journal
    manifest.  Includes label, technique, fault kind, hardware window,
    checkpoint interval, taint tracing, seed, trial count, the adaptive
    CI target and the protection-plan document when present, and the
    program digest when given; excludes domains, git, timings and host,
    so the key is bit-identical across [--domains 1/2/4] and across
    machines. *)
val run_key : ?prog_digest:string -> Obs.Json.t -> string

(** One ingested run as recorded in the index. *)
type entry = {
  e_seq : int;                      (** ingestion order, dense from 1 *)
  e_key : string;
  e_label : string;
  e_technique : string option;
  e_journal_schema : string;
  e_git : string;
  e_prog_digest : string option;
  e_trials : int;
  e_seed : int;
  e_domains : int;
  e_hw_window : int;
  e_fault_kind : string;
  e_checkpoint_interval : int;
  e_taint_trace : bool;
  e_ci_target : float option;       (** adaptive (v5) runs only *)
  e_path : string;                  (** journal path, relative to dir *)
  e_host : string;
  e_host_cores : int;
  e_ingested_at : float;            (** epoch seconds at ingestion *)
  e_trials_per_sec : float option;  (** from manifest timings, if any *)
  e_counts : (string * int) list;   (** outcome name -> trials *)
  e_sdc : Obs.Stats.interval;       (** SDC aggregate; the adaptive
                                        mass-reweighted interval on v5
                                        runs, plain Wilson otherwise *)
}

(** Parse the index; run entries only, in ingestion order (records of
    any other type, such as the ["bench"] records older versions wrote,
    are skipped).  An absent index is an empty warehouse.  A last line
    with no trailing newline (an append a crash cut short) is skipped,
    with one warning per path on stderr; any other malformed line raises
    [Failure "PATH:LINE: ..."].  A run filed after a torn last line starts
    on a fresh line, so the torn piece then counts as malformed. *)
val entries : dir:string -> entry list

(** Same, but reading a bare index file — what the [regress] gate's
    committed-baseline snapshot is. *)
val entries_of_file : string -> entry list

(** [ingest ?prog_digest ~dir path] files journal [path]: computes its
    key, copies it to [runs/<key>.jsonl] and appends an index record —
    unless the key is already filed, in which case nothing is written.
    Raises {!Faults.Journal.Malformed} on a broken journal. *)
val ingest :
  ?prog_digest:string ->
  dir:string ->
  string ->
  [ `Ingested of entry | `Duplicate of entry ]

(** File a finished campaign straight from memory — the body of the
    [?warehouse] sink of {!Faults.Campaign.run}/[run_adaptive]: writes
    the journal ([manifest] plus [trials]) to [runs/<key>.jsonl] and
    indexes it, or does nothing when the key is already filed. *)
val file_run :
  ?prog_digest:string ->
  dir:string ->
  manifest:Obs.Json.t ->
  trials:Faults.Campaign.trial list ->
  unit ->
  [ `Ingested of entry | `Duplicate of entry ]

(** [resolve ?dir key_or_path] turns a CLI argument into a journal path:
    an existing file is itself; otherwise it must be a run key (or
    unique key prefix) in the warehouse at [dir].  Raises [Failure] with
    a human message on no match or an ambiguous prefix. *)
val resolve : ?dir:string -> string -> string

(** {1 Cross-run diffing} *)

(** One compared rate: [dr_significant] only when the two intervals
    (Wilson, or an adaptive run's reweighted SDC interval) are disjoint ({!Obs.Stats.disjoint}) — overlapping
    intervals never flag, so a run diffed against itself reports zero
    significant deltas by construction. *)
type diff_row = {
  dr_name : string;
  dr_old_k : int;
  dr_old_n : int;
  dr_old : Obs.Stats.interval;
  dr_new_k : int;
  dr_new_n : int;
  dr_new : Obs.Stats.interval;
  dr_significant : bool;
}

type diff = {
  df_old : string;             (** old journal path *)
  df_new : string;
  df_outcomes : diff_row list; (** per outcome, canonical order first *)
  df_sdc : diff_row;           (** the SDC aggregate *)
  df_reweighted : bool;        (** either run is adaptive, so [df_sdc]
                                   compares a mass-reweighted interval *)
  df_strata : diff_row list;   (** per-stratum SDC deltas; nonempty only
                                   when both runs carry v5 stratum ids *)
}

(** Diff two journals outcome by outcome.  The SDC row of an adaptive
    run compares its mass-reweighted interval ({!sdc_interval}). *)
val diff_runs : old_path:string -> new_path:string -> diff

(** A run's SDC interval from its manifest and its pooled SDC count [k]
    of [n] trials: an adaptive (v5) run's mass-reweighted interval, else
    Wilson on [k] of [n]. *)
val sdc_interval : Obs.Json.t -> k:int -> n:int -> Obs.Stats.interval

(** {1 The regression gate} *)

(** One baseline/current run pair matched by configuration identity
    (label, technique, fault kind, hardware window, checkpoint interval,
    taint tracing — the latest run per identity on each side). *)
type regress_row = {
  rg_identity : string;
  rg_old : entry;
  rg_new : entry;
  rg_sdc : diff_row;             (** old vs new SDC aggregate *)
  rg_regressed : bool;           (** SDC rate up with disjoint intervals *)
  rg_improved : bool;            (** SDC rate down with disjoint intervals *)
}

type regress = {
  rx_rows : regress_row list;
  rx_only_old : entry list;      (** identities without a current run *)
  rx_only_new : entry list;
  rx_failures : string list;     (** human messages; nonempty fails the
                                     gate *)
}

(** Compare two index snapshots.  Coverage gate: any matched pair whose
    SDC rate rose with disjoint intervals is a failure. *)
val regress : baseline:entry list -> current:entry list -> regress
