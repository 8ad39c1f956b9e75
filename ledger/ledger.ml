(** The performance ledger: end-to-end and per-layer timings of five
    workloads, with the outputs checked (see README.md).

    Every (workload, round) runs in a child process of its own, one at a
    time; this process runs no campaign.  Two ways in:

    {v
    ledger.exe --workload W --seed N --seconds S --trace 0|1
        one workload, rounds back to back for S seconds, then (trace 1)
        one traced round; the last stdout line is the JSON result
    ledger.exe ledger [--seed N] [--workloads a,b] [--runs N]
                      [--trace FILE] [--json FILE] [--quick]
                      [--update-digests]
        all workloads, rounds interleaved round-robin, then one traced
        round each; prints every metric and exits 1 on a failed cell
    v} *)

let default_seed = 0xC0FFEE
let digests_path = "ledger/digests.json"

let fail fmt = Printf.ksprintf (fun s -> prerr_endline ("ledger: " ^ s); exit 2) fmt

(* ----- The child: set-up, one round, checks, and (traced) the replay ----- *)

let peak_rss_mb () =
  let line =
    In_channel.with_open_text "/proc/self/status" In_channel.input_all
    |> String.split_on_char '\n'
    |> List.find_opt (String.starts_with ~prefix:"VmHWM:")
  in
  match line with
  | Some l -> Scanf.sscanf l "VmHWM: %f kB" (fun kb -> kb /. 1024.0)
  | None -> 0.0

(** What a child hands back: marshalled over its stdout, since both ends
    are this executable. *)
type result = {
  setup_end : float;      (** epoch seconds at the end of set-up *)
  round_s : float;
  injected : int;
  rss_mb : float;
  cells : Work.cell list;
  report : Replay.report option;   (** traced rounds only *)
}

let child ~workload ~seed ~quick ~traced ~chrome ~scratch =
  let w = Work.find_workload workload in
  let tracer = if traced then Some (Obs.Trace.recorder ()) else None in
  let ctx = Work.context ~seed ~quick ~scratch ~tracer in
  let round = Work.span ctx "ledger.setup" (fun () -> w.prepare ctx) in
  let setup_end = Unix.gettimeofday () in
  Work.span ctx "ledger.round" round;
  let round_s = Unix.gettimeofday () -. setup_end in
  let rss_mb = peak_rss_mb () in
  let cells = List.rev_map (fun f -> f ()) ctx.pending in
  let report =
    Option.map
      (fun r ->
        let rp = Replay.analyse ctx r in
        Option.iter (fun path -> Obs.Trace.write_chrome r ~path) chrome;
        rp)
      tracer
  in
  Marshal.to_channel stdout
    { setup_end; round_s; injected = ctx.injected; rss_mb; cells; report }
    [];
  flush stdout

(* ----- Running children ----- *)

type round = {
  setup_s : float;
  wall_s : float;
  trials : int;
  rss_mb : float;
  cells : Work.cell list;
  report : Replay.report option;
  crash : string option;   (** the child died or returned no result *)
}

let rec rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let scratch_root = ".ledger-scratch"
let child_count = ref 0

(* Each child's directory goes with it; the root goes once the run is
   over (it stays if another run still uses it). *)
let remove_scratch_root () =
  try Unix.rmdir scratch_root with Unix.Unix_error _ -> ()

let member k j =
  match Obs.Json.member k j with
  | Some v -> v
  | None -> raise (Obs.Json.Parse_error ("missing " ^ k))

let num k j = Option.get (Obs.Json.to_float (member k j))

let crashed msg =
  { setup_s = nan; wall_s = nan; trials = 0; rss_mb = nan; cells = [];
    report = None; crash = Some msg }

(** Runs one (workload, round) in a child process and waits for it. *)
let run_round ?chrome ~workload ~seed ~quick ~traced () =
  incr child_count;
  let dir =
    Filename.concat scratch_root
      (Printf.sprintf "%d-%d" (Unix.getpid ()) !child_count)
  in
  (try Unix.mkdir scratch_root 0o755
   with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  Unix.mkdir dir 0o755;
  let args =
    [ "child"; "--workload"; workload; "--seed"; string_of_int seed;
      "--scratch"; dir ]
    @ (if quick then [ "--quick" ] else [])
    @ (if traced then [ "--traced" ] else [])
    @ match chrome with Some p -> [ "--chrome"; p ] | None -> []
  in
  let exe = Sys.executable_name in
  let r, w = Unix.pipe ~cloexec:true () in
  let t0 = Unix.gettimeofday () in
  let pid =
    Unix.create_process exe (Array.of_list (exe :: args)) Unix.stdin w
      Unix.stderr
  in
  Unix.close w;
  let ic = Unix.in_channel_of_descr r in
  let res =
    try Some (Marshal.from_channel ic : result)
    with End_of_file | Failure _ -> None
  in
  close_in ic;
  let _, status = Unix.waitpid [] pid in
  rm_rf dir;
  match status, res with
  | Unix.WEXITED 0, Some c ->
    { setup_s = c.setup_end -. t0; wall_s = c.round_s; trials = c.injected;
      rss_mb = c.rss_mb; cells = c.cells; report = c.report; crash = None }
  | Unix.WEXITED 0, None -> crashed "child returned no result"
  | Unix.WEXITED n, _ -> crashed (Printf.sprintf "child exited %d" n)
  | (Unix.WSIGNALED n | Unix.WSTOPPED n), _ ->
    crashed (Printf.sprintf "child killed by signal %d" n)

(* ----- Correctness: digests across rounds and against the committed set ----- *)

let load_digests path =
  match In_channel.with_open_text path In_channel.input_all with
  | text ->
    let j = Obs.Json.parse text in
    let seed = int_of_float (num "seed" j) in
    (match member "cells" j with
     | Obs.Json.Obj kvs ->
       Some (seed, List.map (fun (k, v) -> (k, Option.get (Obs.Json.to_str v))) kvs)
     | _ -> fail "%s: \"cells\" is not an object" path)
  | exception Sys_error _ -> None

(** Failed and attempted operations of one round.  A cell fails when it
    raised, failed its output check, or its digest differs from the
    [reference] digests (none: the round is only checked for errors).  A
    crashed child fails every reference cell; a traced round also fails
    when its replay disagreed with the campaigns. *)
let check ?reference ~label r =
  let problems = ref [] in
  let failed = ref 0 and attempted = ref 0 in
  let note msg =
    incr failed;
    problems := Printf.sprintf "%s: %s" label msg :: !problems
  in
  let expected = Option.value ~default:[] reference in
  (match r.crash with
   | Some msg ->
     let n = max 1 (List.length expected) in
     attempted := n;
     failed := n - 1;
     note msg
   | None ->
     List.iter
       (fun (c : Work.cell) ->
         incr attempted;
         match c.error, reference with
         | Some e, _ -> note (c.name ^ ": " ^ e)
         | None, None -> ()
         | None, Some digests ->
           (match List.assoc_opt c.name digests with
            | Some d when d <> c.digest ->
              note (c.name ^ ": digest " ^ c.digest ^ " expected " ^ d)
            | Some _ -> ()
            | None -> note (c.name ^ ": not in the reference digests")))
       r.cells;
     List.iter
       (fun (name, _) ->
         if not (List.exists (fun (c : Work.cell) -> c.name = name) r.cells)
         then begin
           incr attempted;
           note (name ^ ": missing")
         end)
       expected);
  (match r.report with
   | Some rp ->
     incr attempted;
     if rp.mismatches > 0 then
       note
         (Printf.sprintf "replay disagreed with the campaigns %d time(s)"
            rp.mismatches)
   | None -> ());
  (!failed, !attempted, List.rev !problems)

let sum_checks checks =
  List.fold_left
    (fun (f, a, p) (f', a', p') -> (f + f', a + a', p @ p'))
    (0, 0, []) checks

let digests_of r = List.map (fun (c : Work.cell) -> (c.name, c.digest)) r.cells

(** Rounds at one seed must all match the reference: the committed
    digests when there are some, else the first round that ran. *)
let tally ~reference rounds =
  let reference =
    match reference with
    | Some _ -> reference
    | None ->
      Option.map digests_of (List.find_opt (fun r -> r.crash = None) rounds)
  in
  sum_checks
    (List.mapi
       (fun i r -> check ?reference ~label:(Printf.sprintf "round %d" (i + 1)) r)
       rounds)

let committed ~digests ~seed ~quick workload =
  match digests with
  | Some (s, cells) when s = seed && not quick ->
    Some
      (List.filter
         (fun (name, _) -> String.starts_with ~prefix:(workload ^ "/") name)
         cells)
  | Some _ | None -> None

(* ----- Metrics ----- *)

(** End-to-end metric definitions: name, unit, and whether lower is
    better. *)
let end_to_end =
  [ ("setup_s", "s", true); ("wall_s", "s", true);
    ("trials_per_s", "1/s", false); ("peak_rss_mb", "MB", true) ]

let e2e_values name rounds =
  List.filter_map
    (fun r ->
      if r.crash <> None then None
      else
        Some
          (match name with
           | "setup_s" -> r.setup_s
           | "wall_s" -> r.wall_s
           | "trials_per_s" -> float_of_int r.trials /. r.wall_s
           | "peak_rss_mb" -> r.rss_mb
           | _ -> invalid_arg name))
    rounds

(** The traced round's per-layer metrics plus the tracing overhead
    against the untraced rounds' median wall. *)
let layer_metrics ~untraced (rp : Replay.report) =
  let base = Stat.median (e2e_values "wall_s" untraced) in
  rp.metrics
  @ [ ("trace.overhead_pct", 100.0 *. (rp.traced_round_s -. base) /. base) ]

let moves name =
  match List.find_opt (fun (m : Replay.metric) -> m.m_name = name) Replay.catalogue with
  | Some m -> m.m_moves
  | None -> ""

(* ----- The human-readable report ----- *)

let print_workload b (w : Work.t) ~untraced ~(traced : Replay.report option)
    ~failed ~attempted ~problems =
  Printf.bprintf b "\n== %s: %s\n" w.name w.why;
  Printf.bprintf b "%-34s %-9s %12s %12s %12s %3s\n" "end-to-end" "unit"
    "median" "q1" "q3" "n";
  List.iter
    (fun (name, unit, _) ->
      let vs = e2e_values name untraced in
      let q1, med, q3 = Stat.quartiles vs in
      Printf.bprintf b "  %-32s %-9s %12.4f %12.4f %12.4f %3d\n" name unit med q1
        q3 (List.length vs))
    end_to_end;
  Printf.bprintf b "  %-32s %-9s %12.4f  (%d of %d operations)\n"
    "ops_failed_frac" "fraction"
    (float_of_int failed /. float_of_int (max 1 attempted))
    failed attempted;
  List.iter (fun p -> Printf.bprintf b "  FAILED %s\n" p) problems;
  match traced with
  | None -> ()
  | Some rp ->
    Printf.bprintf b "%-34s %-9s %12s   %s\n" "per-layer (traced round)" "unit"
      "value" "should move";
    List.iter
      (fun (name, v) ->
        let label =
          if name = "faults.trial_us_tail" then
            Printf.sprintf "%s (%s)" name rp.tail_name
          else name
        in
        Printf.bprintf b "  %-32s %-9s %12.4f   %s\n" label
          (Replay.unit_of name) v (moves name))
      (layer_metrics ~untraced rp);
    let wall = List.fold_left (fun s (_, ms) -> s +. ms) 0.0 rp.self in
    Printf.bprintf b "%-34s %12s %8s   (%d trials replayed, %d mismatches)\n"
      "self time (traced round)" "ms" "share" rp.replayed rp.mismatches;
    List.iter
      (fun (l, ms) ->
        Printf.bprintf b "  %-32s %12.1f %7.1f%%\n" l ms (100.0 *. ms /. wall))
      rp.self

(* ----- Driver mode: one workload for a fixed time ----- *)

(* Round-count limits: at least this many rounds so a median means
   something, and stop starting rounds once one more could push the run
   past the time the caller allows. *)
let min_rounds = 3
let max_run_s = 150.0

(** The seed of round [r] of a run: the run's own seed for round 0, and
    for later rounds seeds derived from it, so the run's median spans
    several samples of trials instead of one. *)
let round_seed seed r =
  if r = 0 then seed else ((seed * 1_000_003) + (r * 7_919)) land 0x3FFFFFFF

let bench ~workload ~seed ~seconds ~trace =
  let w = Work.find_workload workload in
  let digests = if seed = default_seed then load_digests digests_path else None in
  let t0 = Unix.gettimeofday () in
  let rounds = ref [] in
  let longest = ref 0.0 in
  let continue () =
    let elapsed = Unix.gettimeofday () -. t0 in
    let n = List.length !rounds in
    (elapsed < float_of_int seconds || n < min_rounds)
    && elapsed +. (!longest *. if trace then 4.0 else 1.0) < max_run_s
  in
  while continue () do
    let r0 = Unix.gettimeofday () in
    let seed = round_seed seed (List.length !rounds) in
    rounds := run_round ~workload ~seed ~quick:false ~traced:false () :: !rounds;
    longest := Float.max !longest (Unix.gettimeofday () -. r0)
  done;
  let untraced = List.rev !rounds in
  let traced =
    if trace then Some (run_round ~workload ~seed ~quick:false ~traced:true ())
    else None
  in
  remove_scratch_root ();
  (* Each round has a seed of its own, so it is checked on its own; round
     0 also against the committed digests, and the traced round, which
     repeats round 0's seed, against round 0. *)
  let failed, attempted, problems =
    sum_checks
      (List.mapi
         (fun i r ->
           check
             ?reference:(if i = 0 then committed ~digests ~seed ~quick:false workload
                         else None)
             ~label:(Printf.sprintf "seed %d" (round_seed seed i))
             r)
         untraced
       @ match traced, untraced with
         | Some t, r0 :: _ when r0.crash = None ->
           [ check ~reference:(digests_of r0) ~label:"traced round" t ]
         | Some t, _ -> [ check ~label:"traced round" t ]
         | None, _ -> [])
  in
  let rp = Option.bind traced (fun r -> r.report) in
  let b = Buffer.create 4096 in
  print_workload b w ~untraced ~traced:rp ~failed ~attempted ~problems;
  print_string (Buffer.contents b);
  let metric name unit v =
    (name, Obs.Json.Obj [ ("value", Obs.Json.Float v); ("unit", Obs.Json.Str unit) ])
  in
  let metrics =
    if trace then
      match rp with
      | Some rp ->
        let lm = layer_metrics ~untraced rp in
        List.filter_map
          (fun (m : Replay.metric) ->
            if m.m_universal then
              Option.map (metric m.m_name m.m_unit) (List.assoc_opt m.m_name lm)
            else None)
          Replay.catalogue
      | None -> []
    else
      List.map
        (fun (name, unit, _) ->
          metric name unit (Stat.median (e2e_values name untraced)))
        end_to_end
  in
  let correct = failed = 0 && metrics <> [] in
  print_endline
    (Obs.Json.to_string
       (Obs.Json.Obj
          [ ("correct", Obs.Json.Bool correct);
            ("attempted", Obs.Json.Int (max 1 attempted));
            ("failed", Obs.Json.Int failed);
            ("metrics", Obs.Json.Obj metrics) ]));
  exit (if correct then 0 else 1)

(* ----- Ledger mode: every workload, interleaved rounds ----- *)

(** Where BENCHMARK.json (in the current directory, when there is one)
    disagrees with what this program runs and reports: its workload
    names, its end-to-end metrics, and as per-layer metrics the ones
    every workload reports, each with its unit. *)
let benchmark_mismatches path =
  match In_channel.with_open_text path In_channel.input_all with
  | exception Sys_error _ -> []
  | text ->
    let j = Obs.Json.parse text in
    let entries key = Option.value ~default:[] (Obs.Json.to_list (member key j)) in
    let field k e = Option.value ~default:"" (Obs.Json.to_str (member k e)) in
    let listed key =
      List.map (fun e -> (field "name" e, field "unit" e)) (entries key)
    in
    let expect =
      [ ("workloads",
         List.map (fun e -> (field "name" e, "")) (entries "workloads"),
         List.map (fun (w : Work.t) -> (w.name, "")) Work.all);
        ("end_to_end", listed "end_to_end",
         List.map (fun (n, u, _) -> (n, u)) end_to_end);
        ("per_layer", listed "per_layer",
         List.filter_map
           (fun (m : Replay.metric) ->
             if m.m_universal then Some (m.m_name, m.m_unit) else None)
           Replay.catalogue) ]
    in
    List.filter_map
      (fun (key, got, want) ->
        if got = want then None
        else Some (Printf.sprintf "%s: its %s differ from what the ledger runs" path key))
      expect

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec at i = i + m <= n && (String.sub s i m = sub || at (i + 1)) in
  at 0

let write_file path text =
  Out_channel.with_open_text path (fun oc -> output_string oc text)

(* Chrome traces of the traced children, one process row per workload. *)
let merge_traces parts path =
  let events =
    List.concat
      (List.mapi
         (fun i (name, file) ->
           let pid = Obs.Json.Int (i + 1) in
           let evs =
             match
               Obs.Json.member "traceEvents"
                 (Obs.Json.parse (In_channel.with_open_text file In_channel.input_all))
             with
             | Some (Obs.Json.List evs) -> evs
             | _ -> []
           in
           Obs.Json.Obj
             [ ("name", Obs.Json.Str "process_name"); ("ph", Obs.Json.Str "M");
               ("pid", pid);
               ("args", Obs.Json.Obj [ ("name", Obs.Json.Str name) ]) ]
           :: List.map
                (function
                  | Obs.Json.Obj kvs ->
                    Obs.Json.Obj
                      (List.map (fun (k, v) -> if k = "pid" then (k, pid) else (k, v)) kvs)
                  | e -> e)
                evs)
         parts)
  in
  write_file path
    (Obs.Json.to_string
       (Obs.Json.Obj
          [ ("traceEvents", Obs.Json.List events);
            ("displayTimeUnit", Obs.Json.Str "ms") ])
     ^ "\n")

let stats_json vs =
  let q1, med, q3 = Stat.quartiles vs in
  [ ("median", Obs.Json.Float med); ("q1", Obs.Json.Float q1);
    ("q3", Obs.Json.Float q3); ("n", Obs.Json.Int (List.length vs));
    ("values", Obs.Json.List (List.map (fun v -> Obs.Json.Float v) vs)) ]

let ledger ~seed ~names ~rounds ~runs ~trace_path ~json_path ~quick ~update =
  let ws = List.map Work.find_workload names in
  let digests =
    if update then None
    else if seed = default_seed && not quick then
      match load_digests digests_path with
      | Some d -> Some d
      | None -> fail "no committed digests at %s (run with --update-digests)" digests_path
    else None
  in
  (* Each run: [rounds] rounds of every workload, round-robin, so drift
     of the host hits every workload alike. *)
  let all_runs =
    List.init runs (fun _ ->
      let per = Hashtbl.create 8 in
      for _ = 1 to rounds do
        List.iter
          (fun (w : Work.t) ->
            let r = run_round ~workload:w.name ~seed ~quick ~traced:false () in
            Hashtbl.replace per w.name
              (r :: Option.value ~default:[] (Hashtbl.find_opt per w.name)))
          ws
      done;
      List.map (fun (w : Work.t) -> (w, List.rev (Hashtbl.find per w.name))) ws)
  in
  let last = List.nth all_runs (runs - 1) in
  let chrome_of (w : Work.t) =
    Option.map
      (fun _ -> Filename.concat scratch_root (Printf.sprintf "trace-%s.json" w.name))
      trace_path
  in
  let traced =
    List.map
      (fun (w : Work.t) ->
        (w, run_round ?chrome:(chrome_of w) ~workload:w.name ~seed ~quick ~traced:true ()))
      ws
  in
  let b = Buffer.create 16384 in
  Printf.bprintf b "performance ledger: seed %d, %d round(s) x %d run(s)%s\n"
    seed rounds runs (if quick then ", quick" else "");
  let total_failed = ref 0 in
  let rows =
    List.map
      (fun ((w : Work.t), untraced) ->
        let tr = List.assq w traced in
        let earlier =
          List.concat_map (fun run -> List.assq w run) all_runs
        in
        let failed, attempted, problems =
          tally ~reference:(committed ~digests ~seed ~quick w.name)
            (earlier @ [ tr ])
        in
        total_failed := !total_failed + failed;
        print_workload b w ~untraced ~traced:tr.report ~failed ~attempted
          ~problems;
        (w, untraced, tr, failed, attempted))
      last
  in
  (* Calibration: each run's medians, for the spread between runs. *)
  let calibration =
    if runs < 2 then []
    else begin
      Printf.bprintf b "\n== calibration: medians of %d back-to-back runs\n" runs;
      let per_metric =
        List.concat_map
          (fun (w : Work.t) ->
            List.map
              (fun (name, unit, _) ->
                let meds =
                  List.map (fun run -> Stat.median (e2e_values name (List.assq w run))) all_runs
                in
                let q1, med, q3 = Stat.quartiles meds in
                Printf.bprintf b "  %-14s %-14s %-4s spread %5.1f%%  (%s)\n"
                  w.name name unit
                  (100.0 *. (q3 -. q1) /. med)
                  (String.concat " " (List.map (Printf.sprintf "%.4g") meds));
                (w.name ^ "." ^ name, Obs.Json.List (List.map (fun v -> Obs.Json.Float v) meds)))
              end_to_end)
          ws
      in
      [ ("calibration", Obs.Json.Obj per_metric) ]
    end
  in
  let report = Buffer.contents b in
  print_string report;
  let json =
    Obs.Json.Obj
      ([ ("schema", Obs.Json.Str "softft.ledger.v1");
         ("seed", Obs.Json.Int seed);
         ("quick", Obs.Json.Bool quick);
         ("rounds", Obs.Json.Int rounds);
         ("runs", Obs.Json.Int runs);
         ("workloads",
          Obs.Json.List
            (List.map
               (fun ((w : Work.t), untraced, tr, failed, attempted) ->
                 Obs.Json.Obj
                   [ ("name", Obs.Json.Str w.name);
                     ("why", Obs.Json.Str w.why);
                     ("end_to_end",
                      Obs.Json.Obj
                        (List.map
                           (fun (name, unit, lower) ->
                             ( name,
                               Obs.Json.Obj
                                 ([ ("unit", Obs.Json.Str unit);
                                    ("better",
                                     Obs.Json.Str (if lower then "lower" else "higher")) ]
                                  @ stats_json (e2e_values name untraced)) ))
                           end_to_end
                         @ [ ( "ops_failed_frac",
                               Obs.Json.Obj
                                 [ ("unit", Obs.Json.Str "fraction");
                                   ("value",
                                    Obs.Json.Float
                                      (float_of_int failed /. float_of_int (max 1 attempted)));
                                   ("failed", Obs.Json.Int failed);
                                   ("attempted", Obs.Json.Int attempted) ] ) ]));
                     ("per_layer",
                      match tr.report with
                      | None -> Obs.Json.Null
                      | Some rp ->
                        Obs.Json.Obj
                          (List.map
                             (fun (name, v) ->
                               ( name,
                                 Obs.Json.Obj
                                   ([ ("value", Obs.Json.Float v);
                                      ("unit", Obs.Json.Str (Replay.unit_of name));
                                      ("moves", Obs.Json.Str (moves name)) ]
                                    @
                                    if name = "faults.trial_us_tail" then
                                      [ ("percentile", Obs.Json.Str rp.tail_name) ]
                                    else []) ))
                             (layer_metrics ~untraced rp)));
                     ("self_time_ms",
                      match tr.report with
                      | None -> Obs.Json.Null
                      | Some rp ->
                        Obs.Json.Obj
                          (List.map (fun (l, ms) -> (l, Obs.Json.Float ms)) rp.self));
                     ("digests",
                      Obs.Json.Obj
                        (List.map
                           (fun (c : Work.cell) -> (c.name, Obs.Json.Str c.digest))
                           tr.cells)) ])
               rows)) ]
       @ calibration)
  in
  Option.iter (fun p -> write_file p (Obs.Json.to_string json ^ "\n")) json_path;
  Option.iter
    (fun p ->
      let parts =
        List.filter_map
          (fun (w : Work.t) ->
            Option.map (fun f -> (w.name, f)) (chrome_of w))
          ws
      in
      merge_traces (List.filter (fun (_, f) -> Sys.file_exists f) parts) p;
      List.iter (fun (_, f) -> rm_rf f) parts;
      Printf.printf "wrote %s\n" p)
    trace_path;
  (* Quick mode doubles as the smoke test: every metric the children
     reported, and every end-to-end metric, must appear in the report,
     and BENCHMARK.json must list what the ledger reports. *)
  if quick then begin
    let missing =
      List.concat_map
        (fun (_, untraced, tr, _, _) ->
          match tr.report with
          | Some rp -> List.map fst (layer_metrics ~untraced rp)
          | None -> [ "(traced round)" ])
        rows
      @ List.map (fun (n, _, _) -> n) end_to_end
      |> List.filter (fun name -> not (contains report name))
    in
    List.iter (Printf.printf "FAILED metric not printed: %s\n") missing;
    let stale = benchmark_mismatches "BENCHMARK.json" in
    List.iter (Printf.printf "FAILED %s\n") stale;
    if missing <> [] || stale <> [] then incr total_failed
  end;
  (* New digests are written only when every round agreed with the first. *)
  if update && !total_failed = 0 then begin
    let cells =
      List.concat_map
        (fun (_, _, tr, _, _) ->
          List.map (fun (c : Work.cell) -> (c.name, Obs.Json.Str c.digest)) tr.cells)
        rows
    in
    write_file digests_path
      (Obs.Json.to_string
         (Obs.Json.Obj [ ("seed", Obs.Json.Int seed); ("cells", Obs.Json.Obj cells) ])
       ^ "\n");
    Printf.printf "wrote %s\n" digests_path
  end;
  remove_scratch_root ();
  if !total_failed > 0 then begin
    Printf.printf "\n%d failed operation(s)\n" !total_failed;
    exit 1
  end

(* ----- Command line ----- *)

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let rec opts acc = function
    | [] -> List.rev acc
    | ("--quick" | "--traced" | "--update-digests") as f :: rest ->
      opts ((f, "") :: acc) rest
    | k :: v :: rest when String.starts_with ~prefix:"--" k ->
      opts ((k, v) :: acc) rest
    | k :: _ -> fail "unexpected argument %S" k
  in
  let int_of k v =
    match int_of_string_opt v with
    | Some n -> n
    | None -> fail "%s expects an integer, got %S" k v
  in
  let get o k = List.assoc_opt k o in
  let flag o k = List.mem_assoc k o in
  let known o allowed =
    List.iter
      (fun (k, _) -> if not (List.mem k allowed) then fail "unknown option %s" k)
      o
  in
  match args with
  | "child" :: rest ->
    let o = opts [] rest in
    child
      ~workload:(Option.get (get o "--workload"))
      ~seed:(int_of "--seed" (Option.get (get o "--seed")))
      ~quick:(flag o "--quick") ~traced:(flag o "--traced")
      ~chrome:(get o "--chrome")
      ~scratch:(Option.get (get o "--scratch"))
  | "ledger" :: rest ->
    let o = opts [] rest in
    known o
      [ "--seed"; "--workloads"; "--runs"; "--trace"; "--json"; "--quick";
        "--update-digests" ];
    let quick = flag o "--quick" in
    if quick && flag o "--update-digests" then
      fail "--update-digests records full-size rounds; drop --quick";
    let names =
      match get o "--workloads" with
      | Some s -> String.split_on_char ',' s
      | None -> List.map (fun (w : Work.t) -> w.name) Work.all
    in
    List.iter (fun n -> ignore (Work.find_workload n)) names;
    ledger
      ~seed:(Option.fold ~none:default_seed ~some:(int_of "--seed") (get o "--seed"))
      ~names
      ~rounds:(if quick then 1 else 5)
      ~runs:(max 1 (Option.fold ~none:1 ~some:(int_of "--runs") (get o "--runs")))
      ~trace_path:(get o "--trace") ~json_path:(get o "--json") ~quick
      ~update:(flag o "--update-digests")
  | _ ->
    let o = opts [] args in
    known o [ "--workload"; "--seed"; "--seconds"; "--trace" ];
    let req k = match get o k with Some v -> v | None -> fail "missing %s" k in
    let workload = req "--workload" in
    (match Work.find_workload workload with
     | _ -> ()
     | exception Invalid_argument m -> fail "%s" m);
    bench ~workload
      ~seed:(int_of "--seed" (req "--seed"))
      ~seconds:(max 1 (int_of "--seconds" (req "--seconds")))
      ~trace:
        (match req "--trace" with
         | "0" -> false
         | "1" -> true
         | v -> fail "--trace expects 0 or 1, got %S" v)
