(** Live campaign telemetry: a heartbeat for long fault campaigns.

    Counts completed trials and their outcomes from any worker domain and
    periodically emits a {!snapshot} to its sinks (stderr heartbeat line,
    JSONL stream, or custom).  Strictly observation-only: campaign results
    are bit-identical with or without a progress instance attached. *)

(** One point-in-time progress report. *)
type snapshot = {
  pg_done : int;
  pg_total : int;
  pg_counts : (Classify.outcome * int) list;  (** running outcome counts,
                                                  in {!Classify.all} order *)
  pg_elapsed : float;     (** seconds since the instance was created *)
  pg_rate : float;        (** all-time trials per second since [create] —
                              includes setup, so it lags early in a run *)
  pg_window_rate : float; (** trials per second over a sliding window of
                              recent completions (the instantaneous rate;
                              what the ETA is computed from) *)
  pg_eta : float;         (** estimated seconds to completion; 0 when done
                              or no rate is measurable yet *)
  pg_strata : int array;  (** per-stratum completed trials, indexed by
                              stratum id — [[||]] unless [create] was given
                              [~strata] (adaptive campaigns) *)
  pg_final : bool;        (** emitted by {!finish} *)
}

type sink = snapshot -> unit

type t

(** [create ~total ()] starts the clock.  [interval] (default 0.5 s)
    rate-limits sink emission; 0 emits on every completed trial (useful in
    tests).  [strata] (default 0) sizes the per-stratum completion
    counters for adaptive campaigns.  Sinks run serialized under the
    instance's lock, on whichever worker domain crossed the emission
    deadline. *)
val create :
  ?interval:float -> ?sinks:sink list -> ?strata:int -> total:int -> unit -> t

(** Record one completed trial and possibly emit a heartbeat.  Safe to call
    concurrently from any domain.  [stratum] additionally bumps that
    stratum's counter (ignored when out of range or strata are off). *)
val note : ?stratum:int -> t -> Classify.outcome -> unit

(** Emit the final snapshot ([pg_final = true]) unconditionally. *)
val finish : t -> unit

(** Read the current counters without emitting ([pg_final = false]). *)
val snapshot : t -> snapshot

(** Human heartbeat line on stderr, windowed rate with per-outcome Wilson
    95% intervals:
    [[campaign] 500/1000 (50.0%)  1234.5 trials/s  ETA 0.4s
     Masked:300(60.0%±4.3) …] *)
val stderr_sink : unit -> sink

(** One [{"type":"progress",…}] JSON line per emission on [oc]; the caller
    keeps the channel open for the campaign's duration. *)
val jsonl_sink : out_channel -> sink

(** JSON form of a snapshot (what {!jsonl_sink} writes). *)
val snapshot_json : snapshot -> Obs.Json.t
