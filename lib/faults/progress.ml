(** Live campaign telemetry: a heartbeat for long fault campaigns.

    A {!t} counts completed trials and their outcomes from any worker
    domain (atomics only on the hot path) and periodically emits a
    {!snapshot} to its sinks — a human heartbeat line on stderr, a JSONL
    progress stream, or a custom sink.  Strictly observation-only: campaign
    results are bit-identical with or without a progress instance attached
    (the determinism contract of {!Campaign.run}); only the *emission
    moments* depend on wall-clock timing, never the counts' final value. *)

open Obs

(** One point-in-time progress report. *)
type snapshot = {
  pg_done : int;
  pg_total : int;
  pg_counts : (Classify.outcome * int) list;  (** running outcome counts,
                                                  in {!Classify.all} order *)
  pg_elapsed : float;     (** seconds since the instance was created *)
  pg_rate : float;        (** all-time trials per second since [create] *)
  pg_window_rate : float; (** trials per second over the recent-completion
                              window — the honest instantaneous rate *)
  pg_eta : float;         (** estimated seconds to completion; 0 when done
                              or no rate is measurable yet *)
  pg_strata : int array;  (** per-stratum completed trials (adaptive
                              campaigns only; [[||]] otherwise) *)
  pg_final : bool;        (** emitted by {!finish} *)
}

type sink = snapshot -> unit

(* Completions retained for the windowed rate.  Each completion stamps its
   wall-clock offset (µs since [t0], word-sized int) at slot [i mod
   window_size]; readers reconstruct the window from [completed].  The
   array is written without synchronization — a torn window only skews the
   *estimate* in a snapshot, never a count, so this stays inside the
   observation-only contract. *)
let window_size = 256

type t = {
  total : int;
  t0 : float;
  interval : float;
  counts : int Atomic.t array;   (** indexed in {!Classify.all} order *)
  strata : int Atomic.t array;   (** per-stratum completions (adaptive) *)
  completed : int Atomic.t;
  window : int array;            (** µs offsets of recent completions *)
  sinks : sink list;
  lock : Mutex.t;                (** serializes sink emission *)
  mutable last_emit : float;
}

let outcome_index =
  let tbl = Hashtbl.create 16 in
  List.iteri (fun i o -> Hashtbl.replace tbl o i) Classify.all;
  fun o -> try Hashtbl.find tbl o with Not_found -> 0

let create ?(interval = 0.5) ?(sinks = []) ?(strata = 0) ~total () =
  { total = max 0 total;
    t0 = Unix.gettimeofday ();
    interval = max 0.0 interval;
    counts = Array.init (List.length Classify.all) (fun _ -> Atomic.make 0);
    strata = Array.init (max 0 strata) (fun _ -> Atomic.make 0);
    completed = Atomic.make 0;
    window = Array.make window_size 0;
    sinks;
    lock = Mutex.create ();
    last_emit = 0.0 }

let snapshot t =
  (* [done] is the sum of the outcome counts read here, not [completed]:
     {!note} bumps an outcome before [completed], so a snapshot taken
     between the two would otherwise report counts summing to done + 1.
     Each count only grows, so the sum stays monotone across snapshots
     and never exceeds the notes made. *)
  let counts = List.mapi (fun i o -> (o, Atomic.get t.counts.(i))) Classify.all in
  let done_ = List.fold_left (fun acc (_, n) -> acc + n) 0 counts in
  (* [completed] only locates the window-ring slots already stamped. *)
  let completed = Atomic.get t.completed in
  let elapsed = Unix.gettimeofday () -. t.t0 in
  let rate = if elapsed > 0.0 then float_of_int done_ /. elapsed else 0.0 in
  (* Rate over the last [min done_ window_size] completions.  The all-time
     rate divides by elapsed time since [create], which includes the
     golden-run setup before the first trial finishes — that inflated
     early ETAs badly on slow workloads.  The window starts at the
     oldest retained completion's timestamp, so setup never enters it. *)
  let window_rate =
    (* Retain one slot fewer than the ring holds: once [done_ >=
       window_size] the slot of completion [done_ - window_size] is the
       very next write target, so an in-flight completion may be
       overwriting it while we read — the classic torn read right at the
       wrap boundary. *)
    let retained = min completed (window_size - 1) in
    if retained < 2 then rate
    else begin
      let oldest_us = t.window.((completed - retained) mod window_size) in
      let span = elapsed -. (float_of_int oldest_us /. 1e6) in
      (* A torn slot or sub-µs span would yield an [inf] rate (and a
         non-finite JSONL heartbeat); fall back to the all-time rate on a
         degenerate window and clamp the divisor to a µs floor. *)
      if span <= 0.0 then rate
      else float_of_int retained /. Float.max span 1e-6
    end
  in
  let eta =
    if window_rate > 0.0 && done_ < t.total then
      float_of_int (t.total - done_) /. window_rate
    else 0.0
  in
  { pg_done = done_;
    pg_total = t.total;
    pg_counts = counts;
    pg_elapsed = elapsed;
    pg_rate = rate;
    pg_window_rate = window_rate;
    pg_eta = eta;
    pg_strata = Array.map Atomic.get t.strata;
    pg_final = false }

let emit t snap = List.iter (fun sink -> sink snap) t.sinks

(** Record one completed trial.  Safe to call from any domain; with a
    nonzero [interval] the sinks fire at most once per [interval]
    (whichever worker happens to cross the deadline emits — the others
    skip with a failed try-lock instead of queueing), while [interval = 0]
    emits once per completion. *)
let note ?stratum t outcome =
  Atomic.incr t.counts.(outcome_index outcome);
  (match stratum with
   | Some s when s >= 0 && s < Array.length t.strata ->
     Atomic.incr t.strata.(s)
   | Some _ | None -> ());
  let i = Atomic.fetch_and_add t.completed 1 in
  t.window.(i mod window_size) <-
    int_of_float ((Unix.gettimeofday () -. t.t0) *. 1e6);
  (* interval = 0 promises one emission per completed trial (the
     per-trial JSONL contract tests and drivers rely on), so it must
     queue on the lock; a rate-limited heartbeat instead skips on
     contention — a concurrent emitter is already writing a snapshot at
     least as fresh as ours. *)
  let acquired () =
    if t.interval <= 0.0 then begin
      Mutex.lock t.lock;
      true
    end
    else Mutex.try_lock t.lock
  in
  if t.sinks <> [] && acquired () then
    Fun.protect
      ~finally:(fun () -> Mutex.unlock t.lock)
      (fun () ->
        let now = Unix.gettimeofday () in
        if now -. t.last_emit >= t.interval then begin
          t.last_emit <- now;
          emit t (snapshot t)
        end)

(** Emit the final snapshot unconditionally (blocking on the lock, so it
    never loses the race against a concurrent heartbeat). *)
let finish t =
  Mutex.lock t.lock;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock t.lock)
    (fun () ->
      t.last_emit <- Unix.gettimeofday ();
      emit t { (snapshot t) with pg_final = true })

let nonzero_counts snap = List.filter (fun (_, n) -> n > 0) snap.pg_counts

(* Wilson 95% interval per observed outcome — streamed straight off the
   counters, so every heartbeat carries its own uncertainty. *)
let outcome_ci snap (_, k) = Stats.wilson ~k ~n:snap.pg_done

let stderr_sink () : sink =
 fun snap ->
  let counts =
    nonzero_counts snap
    |> List.map (fun ((o, n) as c) ->
         Printf.sprintf "%s:%d(%s)" (Classify.name o) n
           (Stats.pp_pct (outcome_ci snap c)))
    |> String.concat " "
  in
  if snap.pg_final then
    Printf.eprintf "[campaign] %d/%d done in %.1fs  %.1f trials/s  %s\n%!"
      snap.pg_done snap.pg_total snap.pg_elapsed snap.pg_rate counts
  else
    Printf.eprintf
      "[campaign] %d/%d (%.1f%%)  %.1f trials/s  ETA %.1fs  %s\n%!"
      snap.pg_done snap.pg_total
      (if snap.pg_total > 0 then
         100.0 *. float_of_int snap.pg_done /. float_of_int snap.pg_total
       else 0.0)
      snap.pg_window_rate snap.pg_eta counts

let snapshot_json snap =
  let strata =
    if Array.length snap.pg_strata = 0 then []
    else
      [ ("strata",
         Json.List
           (Array.to_list (Array.map (fun n -> Json.Int n) snap.pg_strata)))
      ]
  in
  Json.Obj
    ([ ("type", Json.Str "progress");
       ("done", Json.Int snap.pg_done);
       ("total", Json.Int snap.pg_total);
       ("elapsed_sec", Json.Float snap.pg_elapsed);
       ("trials_per_sec", Json.Float snap.pg_rate);
       ("window_trials_per_sec", Json.Float snap.pg_window_rate);
       ("eta_sec", Json.Float snap.pg_eta);
       ("final", Json.Bool snap.pg_final) ]
     @ strata
     @ [ ("counts",
          Json.Obj
            (List.map
               (fun (o, n) -> (Classify.name o, Json.Int n))
               (nonzero_counts snap)));
         ("ci",
          Json.Obj
            (List.map
               (fun ((o, _) as c) ->
                 (Classify.name o, Stats.to_json (outcome_ci snap c)))
               (nonzero_counts snap))) ])

(* Sinks are already serialized by the instance lock, so the channel needs
   no mutex of its own. *)
let jsonl_sink oc : sink =
 fun snap ->
  output_string oc (Json.to_string (snapshot_json snap));
  output_char oc '\n';
  flush oc
