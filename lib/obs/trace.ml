(** Trace spans: point events on a step timeline, and wall-clock duration
    spans for the campaign flight recorder.

    A point {!span} is one named event on a run's dynamic-step timeline
    plus free-form JSON attributes — the journal representation of
    propagation events.  The observability layer knows nothing about the
    interpreter; producers (the fault tracer via [Faults.Journal]) convert
    their domain events into spans, and consumers read the attributes back
    generically — so journals stay loadable across code versions that add
    attributes.

    A duration {!dur} is one named interval on the *wall-clock* timeline
    of a campaign: begin/end timestamps, a track (worker domain), and a
    category.  Duration spans are collected by a {!recorder} and rendered
    as Chrome trace-event JSON ({!to_chrome}), loadable by Perfetto or
    chrome://tracing — the flight-recorder view of where a campaign's
    wall time goes. *)

type span = {
  sp_name : string;                    (** event kind, e.g. ["store"] *)
  sp_step : int;                       (** dynamic instruction step *)
  sp_attrs : (string * Json.t) list;   (** extra fields, flattened *)
}

let span ?(attrs = []) ~step name =
  { sp_name = name; sp_step = step; sp_attrs = attrs }

(* Attributes are flattened into the span object itself (not nested), so a
   span line reads naturally in a JSONL journal.  [name]/[step] are
   reserved keys: an attribute that would collide with them — or that
   already carries the escape prefix — goes to the wire under an ["attr."]
   prefix, which {!of_json} strips again.  That makes the round trip total
   instead of silently dropping colliding attributes. *)
let attr_prefix = "attr."

let needs_prefix k =
  k = "name" || k = "step" || String.starts_with ~prefix:attr_prefix k

let to_json s =
  Json.Obj
    (("name", Json.Str s.sp_name)
     :: ("step", Json.Int s.sp_step)
     :: List.map
          (fun (k, v) -> ((if needs_prefix k then attr_prefix ^ k else k), v))
          s.sp_attrs)

let strip_prefix k =
  if String.starts_with ~prefix:attr_prefix k then
    String.sub k (String.length attr_prefix)
      (String.length k - String.length attr_prefix)
  else k

let of_json j =
  match
    ( Option.bind (Json.member "name" j) Json.to_str,
      Option.bind (Json.member "step" j) Json.to_int )
  with
  | Some name, Some step ->
    let attrs =
      match j with
      | Json.Obj fields ->
        List.filter_map
          (fun (k, v) ->
            if k = "name" || k = "step" then None
            else Some (strip_prefix k, v))
          fields
      | _ -> []
    in
    Some { sp_name = name; sp_step = step; sp_attrs = attrs }
  | _, _ -> None

(* ----- Duration spans (the flight recorder) ----- *)

type dur = {
  du_name : string;
  du_cat : string;
  du_track : int;
  du_start_us : float;
  du_dur_us : float;
  du_args : (string * Json.t) list;
}

type recorder = {
  rc_t0 : float;            (* epoch; event timestamps are relative *)
  rc_lock : Mutex.t;        (* guards the list; recording is cold-path *)
  mutable rc_durs : dur list;  (* newest first *)
}

let recorder () =
  { rc_t0 = Unix.gettimeofday (); rc_lock = Mutex.create (); rc_durs = [] }

type open_dur = {
  od_name : string;
  od_cat : string;
  od_track : int;
  od_start_us : float;
  od_args : (string * Json.t) list;
}

let now_us r = (Unix.gettimeofday () -. r.rc_t0) *. 1e6

let begin_dur r ?(args = []) ?(track = 0) ~cat name =
  { od_name = name; od_cat = cat; od_track = track;
    od_start_us = now_us r; od_args = args }

let end_dur r ?(args = []) od =
  let d =
    { du_name = od.od_name; du_cat = od.od_cat; du_track = od.od_track;
      du_start_us = od.od_start_us;
      du_dur_us = Float.max 0.0 (now_us r -. od.od_start_us);
      du_args = od.od_args @ args }
  in
  Mutex.lock r.rc_lock;
  r.rc_durs <- d :: r.rc_durs;
  Mutex.unlock r.rc_lock

(** Run [f] inside a duration span when a recorder is attached; a bare
    call of [f] when [trace] is [None] — so instrumented code paths cost
    nothing un-instrumented.  The span is recorded even when [f] raises
    (the timeline should show where a campaign died). *)
let with_dur trace ?args ?track ~cat name f =
  match trace with
  | None -> f ()
  | Some r ->
    let od = begin_dur r ?args ?track ~cat name in
    Fun.protect ~finally:(fun () -> end_dur r od) f

(** Recorded spans in ascending start order. *)
let durs r =
  Mutex.lock r.rc_lock;
  let ds = r.rc_durs in
  Mutex.unlock r.rc_lock;
  List.sort
    (fun a b ->
      match compare a.du_start_us b.du_start_us with
      | 0 -> compare a.du_track b.du_track
      | c -> c)
    ds

(* Chrome trace-event format (the catapult JSON that Perfetto and
   chrome://tracing load): one complete event (ph "X") per duration span,
   timestamps and durations in microseconds, [du_track] as the thread id,
   plus one thread_name metadata record per track so the UI labels worker
   rows "domain N". *)
let chrome_event d =
  Json.Obj
    ([ ("name", Json.Str d.du_name);
       ("cat", Json.Str d.du_cat);
       ("ph", Json.Str "X");
       ("ts", Json.Float d.du_start_us);
       ("dur", Json.Float d.du_dur_us);
       ("pid", Json.Int 1);
       ("tid", Json.Int d.du_track) ]
     @ (match d.du_args with
        | [] -> []
        | args -> [ ("args", Json.Obj args) ]))

let to_chrome r =
  let ds = durs r in
  let tracks =
    List.sort_uniq compare (List.map (fun d -> d.du_track) ds)
  in
  let metadata =
    List.map
      (fun t ->
        Json.Obj
          [ ("name", Json.Str "thread_name");
            ("ph", Json.Str "M");
            ("pid", Json.Int 1);
            ("tid", Json.Int t);
            ("args",
             Json.Obj
               [ ("name",
                  Json.Str
                    (if t = 0 then "domain 0 (caller)"
                     else Printf.sprintf "domain %d" t)) ]) ])
      tracks
  in
  Json.Obj
    [ ("traceEvents", Json.List (metadata @ List.map chrome_event ds));
      ("displayTimeUnit", Json.Str "ms") ]

let write_chrome r ~path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc (Json.to_string (to_chrome r));
      output_char oc '\n')
