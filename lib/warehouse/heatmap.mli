(** Per-instruction SDC heatmaps: the join of a campaign journal with the
    static coverage classification (DESIGN.md §11 made per-site).

    Every injected trial records the register it flipped; in SSA with
    program-wide register numbering that register has exactly one
    defining site (instruction, phi or parameter — {!Analysis.Usedef}),
    so the join attributes each injection to the instruction whose value
    it corrupted, with no interpreter involvement at all.  The rendered
    listing shows, per site, how many injections landed there and how
    they resolved (SDC / detected / masked / other) next to the static
    protection status — the measured column the static analyzer's
    prediction is checked against.

    Accounting invariant: the per-site totals, including the two pseudo
    sites (control-fault injections hit a branch target, not a register;
    unmapped registers have no recorded definition), sum exactly to the
    journal's injected-trial count. *)

type site = {
  s_func : string;
  s_block : string;      (** ["" ] for parameter pseudo-sites *)
  s_uid : int;           (** instruction/phi uid; [-1] for parameters *)
  s_desc : string;       (** printed instruction, phi or parameter *)
  s_status : string;     (** static coverage status name, or ["—"] *)
  s_sdc_prone : bool;    (** statically SDC-prone (unprotected exposure) *)
  s_total : int;
  s_sdc : int;
  s_detected : int;
  s_masked : int;
  s_other : int;
}

type t = {
  hm_label : string;
  hm_technique : string;
  hm_trials : int;           (** all trials in the journal *)
  hm_injected : int;         (** trials that recorded an injection *)
  hm_sites : site list;      (** program order; two pseudo rows —
                                 ["(control faults)"] then
                                 ["(unmapped)"] — last, present only
                                 when nonzero *)
  hm_static_fraction : float;       (** static SDC-prone fraction *)
  hm_measured_sdc : Obs.Stats.interval;
      (** measured SDC rate ({!Store.sdc_interval}): Wilson, or an
          adaptive run's mass-reweighted interval *)
}

(** Build the heatmap for one program from its journal's manifest and
    trial views. *)
val build :
  prog:Ir.Prog.t ->
  cov:Analysis.Coverage.t ->
  label:string ->
  technique:string ->
  manifest:Obs.Json.t ->
  Faults.Journal.view list ->
  t

(** RFC 4180 CSV, one row per site plus a header. *)
val to_csv : t -> string

(** Standalone HTML page: the annotated listing with a single-hue
    sequential color scale on injection density and the SDC split as
    text (never color alone). *)
val to_html : t -> string
