(** Structured, leveled logging for the experiment harness.

    An event is a timestamped (level, component, message, fields) record;
    sinks render it — {!stderr_sink} pretty-prints for humans,
    {!jsonl_sink} emits one machine-readable JSON object per line.  Sink
    emission is serialized by a global mutex, so loggers may be shared
    across campaign worker domains.

    Logging is observation-only: no experiment result may depend on
    whether (or where) events are emitted. *)

type level = Debug | Info | Warn | Error

val level_name : level -> string

type event = {
  ts : float;  (** Unix seconds, {!Unix.gettimeofday} *)
  level : level;
  component : string;
  message : string;
  fields : (string * Json.t) list;
}

type sink = event -> unit

type t

(** [make component] is a logger that drops everything until a sink is
    attached; events below [level] (default [Info]) are never emitted. *)
val make : ?level:level -> ?sinks:sink list -> string -> t

(** Shared no-op logger: the default for library entry points. *)
val null : t

(** Same sinks and level as the parent (shared, so a later {!add_sink} on
    either affects both), component tagged ["parent/name"]. *)
val child : t -> string -> t

val add_sink : t -> sink -> unit

(** True when an event at [level] would reach the sinks — guards
    expensive field construction. *)
val enabled : t -> level -> bool

val info : t -> ?fields:(string * Json.t) list -> string -> unit
val error : t -> ?fields:(string * Json.t) list -> string -> unit

(** The JSONL schema: [{"ts":…,"level":…,"component":…,"msg":…,…fields}]. *)
val event_to_json : event -> Json.t

(** Human-readable sink on stderr: [HH:MM:SS.mmm LEVEL [component] msg k=v]. *)
val stderr_sink : unit -> sink

(** One compact JSON object per event, flushed per line, on [oc]. *)
val jsonl_sink : out_channel -> sink
