(** Trace spans: point events on a step timeline, and wall-clock duration
    spans for the campaign flight recorder.

    A point {!span} is one named event on a run's dynamic-step timeline
    plus free-form JSON attributes — the journal representation of
    propagation events.  Producers convert domain events (e.g. the fault
    tracer's taint events) into spans; consumers read attributes back
    generically, so journals stay loadable across code versions.

    A duration {!dur} is one named interval on the *wall-clock* timeline
    of a campaign: begin/end timestamps, a track (worker domain id), and
    a category.  Duration spans are collected by a {!recorder} and
    rendered as Chrome trace-event JSON, loadable by Perfetto or
    chrome://tracing. *)

type span = {
  sp_name : string;                    (** event kind, e.g. ["store"] *)
  sp_step : int;                       (** dynamic instruction step *)
  sp_attrs : (string * Json.t) list;   (** extra fields, flattened *)
}

val span : ?attrs:(string * Json.t) list -> step:int -> string -> span

(** Spans serialize flat: [{"name":…,"step":…,<attrs>…}].  [name] and
    [step] are reserved keys; an attribute whose key collides with them
    (or already starts with ["attr."]) goes to the wire under an
    ["attr."] prefix, which {!of_json} strips — the round trip is total,
    nothing is dropped. *)
val to_json : span -> Json.t

(** Inverse of {!to_json}; [None] when [name] or [step] is missing —
    unknown extra fields become attributes (forward compatibility). *)
val of_json : Json.t -> span option

(** {1 Duration spans — the campaign flight recorder} *)

type dur = {
  du_name : string;                    (** e.g. ["golden_run"], ["chunk"] *)
  du_cat : string;                     (** e.g. ["campaign"], ["pool"] *)
  du_track : int;                      (** worker domain id; 0 = caller *)
  du_start_us : float;                 (** µs since the recorder's epoch *)
  du_dur_us : float;                   (** span length in µs, >= 0 *)
  du_args : (string * Json.t) list;    (** free-form span attributes *)
}

(** Collects duration spans from any domain (mutex-guarded; recording is
    cold-path — once per phase or per chunk claim, never per trial). *)
type recorder

val recorder : unit -> recorder

(** µs elapsed since the recorder was created. *)
val now_us : recorder -> float

(** A begun-but-unfinished span, held by the instrumented code between
    {!begin_dur} and {!end_dur}. *)
type open_dur

val begin_dur :
  recorder -> ?args:(string * Json.t) list -> ?track:int -> cat:string ->
  string -> open_dur

(** Close and record the span; [?args] are appended to the open span's. *)
val end_dur : recorder -> ?args:(string * Json.t) list -> open_dur -> unit

(** [with_dur trace ~cat name f] runs [f] inside a duration span when a
    recorder is attached, and is a bare call of [f] when [trace] is
    [None] — instrumented paths cost nothing un-instrumented.  The span
    is recorded even when [f] raises. *)
val with_dur :
  recorder option -> ?args:(string * Json.t) list -> ?track:int ->
  cat:string -> string -> (unit -> 'a) -> 'a

(** Recorded spans, ascending by start time (then track). *)
val durs : recorder -> dur list

(** Chrome trace-event JSON ([{"traceEvents":[…]}]): one complete event
    (ph ["X"], ts/dur in µs) per span with [du_track] as the thread id,
    plus thread-name metadata so the UI labels tracks ["domain N"].
    Loadable by Perfetto and chrome://tracing. *)
val to_chrome : recorder -> Json.t

(** Write {!to_chrome} to [path] (single line + newline). *)
val write_chrome : recorder -> path:string -> unit
