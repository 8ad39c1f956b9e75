(** Structured leveled logging; see the interface for the contract. *)

type level = Debug | Info | Warn | Error

let level_name = function
  | Debug -> "debug"
  | Info -> "info"
  | Warn -> "warn"
  | Error -> "error"

let severity = function Debug -> 0 | Info -> 1 | Warn -> 2 | Error -> 3

type event = {
  ts : float;
  level : level;
  component : string;
  message : string;
  fields : (string * Json.t) list;
}

type sink = event -> unit

(* Level and sinks live in a core record shared between a logger and its
   children, so a sink added to either reaches the whole family. *)
type core = { level : level; mutable sinks : sink list }
type t = { core : core; component : string }

let make ?(level = Info) ?(sinks = []) component =
  { core = { level; sinks }; component }

let null = make ~level:Error "null"
let child t name = { t with component = t.component ^ "/" ^ name }
let add_sink t sink = t.core.sinks <- t.core.sinks @ [ sink ]

let enabled t level =
  severity level >= severity t.core.level
  && (match t.core.sinks with [] -> false | _ :: _ -> true)

(* One mutex for every sink: events from worker domains interleave as
   whole lines, never as torn fragments. *)
let emit_mutex = Mutex.create ()

let log t level ?(fields = []) message =
  if enabled t level then begin
    let ev =
      { ts = Unix.gettimeofday (); level; component = t.component; message;
        fields }
    in
    Mutex.lock emit_mutex;
    Fun.protect
      ~finally:(fun () -> Mutex.unlock emit_mutex)
      (fun () -> List.iter (fun sink -> sink ev) t.core.sinks)
  end

let info t ?fields message = log t Info ?fields message
let error t ?fields message = log t Error ?fields message

let event_to_json ev =
  Json.Obj
    ([ ("ts", Json.Float ev.ts);
       ("level", Json.Str (level_name ev.level));
       ("component", Json.Str ev.component);
       ("msg", Json.Str ev.message) ]
     @ ev.fields)

let field_repr = function
  | Json.Str s -> s
  | v -> Json.to_string v

let stderr_sink () ev =
  let tm = Unix.localtime ev.ts in
  let ms = int_of_float (Float.rem ev.ts 1.0 *. 1000.0) in
  let fields =
    String.concat ""
      (List.map (fun (k, v) -> Printf.sprintf " %s=%s" k (field_repr v))
         ev.fields)
  in
  Printf.eprintf "%02d:%02d:%02d.%03d %-5s [%s] %s%s\n%!" tm.Unix.tm_hour
    tm.Unix.tm_min tm.Unix.tm_sec ms
    (String.uppercase_ascii (level_name ev.level))
    ev.component ev.message fields

let jsonl_sink oc ev =
  output_string oc (Json.to_string (event_to_json ev));
  output_char oc '\n';
  flush oc
