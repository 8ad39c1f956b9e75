(** Observability subsystem tests: JSON codec, logging sinks,
    the campaign trial journal, pool stats, and — the contract that
    matters — determinism of campaigns under full telemetry. *)

open Obs

(* ----- JSON ----- *)

let sample_json =
  Json.Obj
    [ ("null", Json.Null);
      ("t", Json.Bool true);
      ("f", Json.Bool false);
      ("int", Json.Int (-42));
      ("big", Json.Int max_int);
      ("float", Json.Float 0.1);
      ("exp", Json.Float 1.5e300);
      ("str", Json.Str "line\nbreak \"quoted\" \\ tab\t\x01");
      ("utf8", Json.Str "\xce\xbcops");
      ("list", Json.List [ Json.Int 1; Json.Str "two"; Json.List [] ]);
      ("nested", Json.Obj [ ("empty", Json.Obj []) ]) ]

let test_json_roundtrip () =
  let s = Json.to_string sample_json in
  Alcotest.(check bool) "roundtrip" true (Json.parse s = sample_json);
  (* And printing is stable through a second cycle. *)
  Alcotest.(check string) "stable" s (Json.to_string (Json.parse s))

let test_json_unicode_escapes () =
  Alcotest.(check bool) "bmp escape" true
    (Json.parse {|"µs"|} = Json.Str "\xc2\xb5s");
  (* Surrogate pair: U+1F600 as 😀 -> 4-byte UTF-8. *)
  Alcotest.(check bool) "surrogate pair" true
    (Json.parse {|"😀"|} = Json.Str "\xf0\x9f\x98\x80")

let expect_parse_error s =
  match Json.parse s with
  | exception Json.Parse_error _ -> ()
  | j ->
    Alcotest.failf "expected Parse_error on %S, got %s" s (Json.to_string j)

let test_json_parse_errors () =
  List.iter expect_parse_error
    [ ""; "{"; "[1,"; "{\"a\":}"; "tru"; "\"unterminated"; "1 garbage";
      "{\"a\" 1}"; "[1 2]"; "nul" ]

let test_json_accessors () =
  let j = Json.parse {|{"a": 3, "b": 2.5, "s": "x", "l": [1], "t": true}|} in
  Alcotest.(check (option int)) "member int" (Some 3)
    (Option.bind (Json.member "a" j) Json.to_int);
  Alcotest.(check (option (float 1e-9))) "int promotes to float" (Some 3.0)
    (Option.bind (Json.member "a" j) Json.to_float);
  Alcotest.(check (option (float 1e-9))) "float" (Some 2.5)
    (Option.bind (Json.member "b" j) Json.to_float);
  Alcotest.(check (option string)) "str" (Some "x")
    (Option.bind (Json.member "s" j) Json.to_str);
  Alcotest.(check (option bool)) "bool" (Some true)
    (Option.bind (Json.member "t" j) Json.to_bool);
  Alcotest.(check (option int)) "missing member" None
    (Option.bind (Json.member "zz" j) Json.to_int);
  Alcotest.(check bool) "wrong type" true
    (Option.bind (Json.member "s" j) Json.to_int = None)

(* ----- Logging ----- *)

let test_log_jsonl_sink_and_level () =
  let path = Filename.temp_file "softft_log" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out path in
      let log = Log.make ~level:Log.Warn ~sinks:[ Log.jsonl_sink oc ] "test" in
      Alcotest.(check bool) "warn enabled" true (Log.enabled log Log.Warn);
      Alcotest.(check bool) "info filtered" false (Log.enabled log Log.Info);
      Log.info log "dropped below level";
      Log.error log ~fields:[ ("n", Json.Int 3) ] "kept";
      Log.error (Log.child log "sub") "child shares sinks";
      close_out oc;
      let ic = open_in path in
      let lines = ref [] in
      (try
         while true do
           lines := input_line ic :: !lines
         done
       with End_of_file -> close_in ic);
      match List.rev_map Json.parse !lines with
      | [ e1; e2 ] ->
        let str name j = Option.bind (Json.member name j) Json.to_str in
        Alcotest.(check (option string)) "level" (Some "error")
          (str "level" e1);
        Alcotest.(check (option string)) "msg" (Some "kept") (str "msg" e1);
        Alcotest.(check (option int)) "field" (Some 3)
          (Option.bind (Json.member "n" e1) Json.to_int);
        Alcotest.(check (option string)) "child component" (Some "test/sub")
          (str "component" e2)
      | lines -> Alcotest.failf "expected 2 log lines, got %d" (List.length lines))

(* ----- Pool stats ----- *)

let check_pool_stats ~domains n =
  let stats = ref None in
  let out = Faults.Pool.map ~domains ~stats (fun i -> i * i) n in
  Alcotest.(check int) "results intact" n (Array.length out);
  match !stats with
  | None -> Alcotest.fail "no stats reported"
  | Some (s : Faults.Pool.stats) ->
    Alcotest.(check int) "workers" s.st_domains (Array.length s.st_wall);
    Alcotest.(check int) "item slots" s.st_domains (Array.length s.st_items);
    Alcotest.(check int) "all items accounted" n
      (Array.fold_left ( + ) 0 s.st_items);
    Alcotest.(check bool) "chunk positive" true (n = 0 || s.st_chunk > 0)

let test_pool_stats_serial () = check_pool_stats ~domains:1 37
let test_pool_stats_parallel () = check_pool_stats ~domains:3 37
let test_pool_stats_empty () = check_pool_stats ~domains:2 0

exception Trial_blew_up

let test_pool_cancellation () =
  (* A worker exception must propagate out of [map] (not hang, not be
     swallowed), and the other domains must stop claiming chunks instead of
     draining the whole index space first. *)
  let n = 1000 in
  let computed = Atomic.make 0 in
  let f i =
    if i = 0 then raise Trial_blew_up
    else begin
      Unix.sleepf 0.001;
      Atomic.incr computed;
      i
    end
  in
  (match Faults.Pool.map ~domains:4 f n with
   | (_ : int array) -> Alcotest.fail "expected Trial_blew_up"
   | exception Trial_blew_up -> ());
  (* Worker 0 raises on its first index; every other worker finishes at
     most the chunks already in flight before seeing the flag.  Draining
     would need all ~1000 slow items. *)
  Alcotest.(check bool)
    (Printf.sprintf "cancelled early (%d of %d computed)"
       (Atomic.get computed) n)
    true
    (Atomic.get computed < n / 2)

let test_pool_serial_exception () =
  (* The degenerate serial path must propagate too. *)
  match Faults.Pool.map ~domains:1 (fun _ -> raise Trial_blew_up) 5 with
  | (_ : int array) -> Alcotest.fail "expected Trial_blew_up"
  | exception Trial_blew_up -> ()

(* ----- Journal ----- *)

let small_campaign ?profile ?stats_out ?progress ?trace ~domains () =
  Faults.Campaign.run ?profile ?stats_out ?progress ?trace ~domains
    (Test_faults.array_sum_subject ())
    ~trials:30 ~seed:2024

let test_journal_write_load () =
  let path = Filename.temp_file "softft_journal" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let stats = ref None in
      let summary, trials = small_campaign ~stats_out:stats ~domains:2 () in
      let manifest =
        Faults.Journal.manifest_record ~git:"test" ~technique:"none"
          ?stats:!stats ~counts:summary.Faults.Campaign.counts
          ~label:"array_sum" ~trials:30 ~seed:2024 ~domains:2
          ~hw_window:Faults.Classify.default_hw_window
          ~fault_kind:"register_bit"
          ~golden:summary.Faults.Campaign.golden_info ()
      in
      Faults.Journal.write ~path ~manifest ~trials ();
      let m, views = Faults.Journal.load path in
      Alcotest.(check (option string)) "schema" (Some Faults.Journal.schema_v4)
        (Option.bind (Json.member "schema" m) Json.to_str);
      Alcotest.(check (option int)) "trials" (Some 30)
        (Option.bind (Json.member "trials" m) Json.to_int);
      Alcotest.(check bool) "timings present" true
        (Json.member "timings" m <> None);
      Alcotest.(check int) "one view per trial" (List.length trials)
        (List.length views);
      List.iteri
        (fun i (v : Faults.Journal.view) ->
          let t = List.nth trials i in
          Alcotest.(check int) "index" i v.v_index;
          Alcotest.(check int) "seed" t.Faults.Campaign.trial_seed v.v_seed;
          Alcotest.(check string) "outcome"
            (Faults.Classify.name t.Faults.Campaign.outcome)
            v.v_outcome;
          Alcotest.(check (option int)) "latency"
            t.Faults.Campaign.detect_latency v.v_latency;
          Alcotest.(check int) "cycles" t.Faults.Campaign.cycles v.v_cycles)
        views)

let test_journal_overwrite_atomic () =
  (* Rewriting a journal replaces it through a temp file renamed over it:
     nothing but the journal is left in its directory, and it reads back
     the new trials. *)
  let dir = Filename.temp_file "softft_journal_dir" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  let path = Filename.concat dir "run.jsonl" in
  Fun.protect
    ~finally:(fun () ->
      Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
      Sys.rmdir dir)
    (fun () ->
      let summary, trials = small_campaign ~domains:1 () in
      let manifest =
        Faults.Journal.manifest_record ~git:"test" ~technique:"none"
          ~counts:summary.Faults.Campaign.counts ~label:"array_sum"
          ~trials:30 ~seed:2024 ~domains:1
          ~hw_window:Faults.Classify.default_hw_window
          ~fault_kind:"register_bit"
          ~golden:summary.Faults.Campaign.golden_info ()
      in
      Faults.Journal.write ~path ~manifest ~trials ();
      let newer = List.filteri (fun i _ -> i < 7) trials in
      Faults.Journal.write ~path ~manifest ~trials:newer ();
      Alcotest.(check (list string)) "only the journal remains" [ "run.jsonl" ]
        (Array.to_list (Sys.readdir dir));
      let _, views = Faults.Journal.load path in
      Alcotest.(check (list int)) "the new trials load"
        (List.map (fun t -> t.Faults.Campaign.trial_seed) newer)
        (List.map (fun (v : Faults.Journal.view) -> v.v_seed) views))

let test_journal_malformed () =
  let path = Filename.temp_file "softft_journal" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out path in
      output_string oc "{\"type\":\"trial\",\"i\":0}\n";
      close_out oc;
      match Faults.Journal.load path with
      | exception Faults.Journal.Malformed msg ->
        Alcotest.(check bool)
          (Printf.sprintf "error names the line (%s)" msg)
          true
          (String.length msg >= 6 && String.sub msg 0 6 = "line 1")
      | _ -> Alcotest.fail "expected Malformed")

(* Write a valid journal for the campaign and hand its lines to [k]. *)
let with_journal_lines ?(checkpoint_interval = 0) ?(taint_trace = false) k =
  let path = Filename.temp_file "softft_journal" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let subject = Test_faults.protected_array_sum () in
      let summary, trials =
        Faults.Campaign.run subject ~trials:40 ~seed:2024 ~domains:2
          ~checkpoint_interval ~taint_trace
      in
      let manifest =
        Faults.Journal.manifest_record ~git:"test" ~technique:"dup"
          ~counts:summary.Faults.Campaign.counts ~checkpoint_interval
          ~taint_trace ~label:"array_sum" ~trials:40
          ~seed:2024 ~domains:2 ~hw_window:Faults.Classify.default_hw_window
          ~fault_kind:"register_bit"
          ~golden:summary.Faults.Campaign.golden_info ()
      in
      Faults.Journal.write ~path ~manifest ~trials ();
      let ic = open_in path in
      let lines = ref [] in
      (try
         while true do
           lines := input_line ic :: !lines
         done
       with End_of_file -> close_in ic);
      k path (List.rev !lines) trials)

let rewrite path lines =
  let oc = open_out path in
  List.iter (fun l -> output_string oc (l ^ "\n")) lines;
  close_out oc

let test_journal_no_manifest () =
  (* Regression: a journal whose manifest line is missing used to load as
     an empty report; it must instead fail loudly and name the file. *)
  with_journal_lines (fun path lines _ ->
      rewrite path (List.tl lines);
      match Faults.Journal.load path with
      | exception Faults.Journal.Malformed msg ->
        let mentions_path =
          let needle = Filename.basename path in
          let hay = msg and n = String.length (Filename.basename path) in
          let rec scan i =
            i + n <= String.length hay
            && (String.sub hay i n = needle || scan (i + 1))
          in
          scan 0
        in
        Alcotest.(check bool)
          (Printf.sprintf "error names the file (%s)" msg)
          true mentions_path
      | _ -> Alcotest.fail "expected Malformed (no manifest)");
  (* Same for a journal that is empty outright. *)
  with_journal_lines (fun path _ _ ->
      rewrite path [];
      match Faults.Journal.load path with
      | exception Faults.Journal.Malformed _ -> ()
      | _ -> Alcotest.fail "expected Malformed (empty file)")

let test_journal_v1_loads () =
  (* Backward compatibility: a v1 journal (old schema string, no
     checkpoint_interval, no recovery fields) must still load, with the
     v2-only view fields at their defaults. *)
  with_journal_lines (fun path lines _ ->
      let v1_of line =
        (* Rewrite the manifest to its v1 form textually: v2 only *added*
           fields, so deleting them yields a faithful v1 record. *)
        match Json.parse line with
        | Json.Obj fields ->
          Json.to_string
            (Json.Obj
               (List.filter_map
                  (function
                    | ("schema", _) ->
                      Some ("schema", Json.Str "softft.journal.v1")
                    | ("checkpoint_interval", _) -> None
                    | kv -> Some kv)
                  fields))
        | _ -> Alcotest.fail "manifest is not an object"
      in
      (match lines with
       | manifest :: trials -> rewrite path (v1_of manifest :: trials)
       | [] -> Alcotest.fail "journal empty");
      let m, views = Faults.Journal.load path in
      Alcotest.(check (option string)) "v1 schema accepted"
        (Some "softft.journal.v1")
        (Option.bind (Json.member "schema" m) Json.to_str);
      Alcotest.(check int) "all trials load" 40 (List.length views);
      List.iter
        (fun (v : Faults.Journal.view) ->
          Alcotest.(check int) "no checkpoints in v1" 0 v.v_checkpoints;
          Alcotest.(check bool) "no recovery in v1" true (v.v_recovery = None))
        views)

let test_journal_v2_recovery_roundtrip () =
  (* With checkpointing on, recovered trials must journal their telemetry
     and read back field-for-field. *)
  with_journal_lines ~checkpoint_interval:150 (fun path _ trials ->
      let m, views = Faults.Journal.load path in
      Alcotest.(check (option int)) "manifest records interval" (Some 150)
        (Option.bind (Json.member "checkpoint_interval" m) Json.to_int);
      let saw_recovery = ref false in
      List.iteri
        (fun i (v : Faults.Journal.view) ->
          let t = List.nth trials i in
          Alcotest.(check int) "checkpoints roundtrip"
            t.Faults.Campaign.checkpoints v.v_checkpoints;
          match t.Faults.Campaign.recovery, v.v_recovery with
          | None, None -> ()
          | Some r, Some rv ->
            saw_recovery := true;
            Alcotest.(check int) "detect step"
              r.Interp.Machine.rec_detect_step rv.Faults.Journal.rv_detect_step;
            Alcotest.(check int) "checkpoint step"
              r.Interp.Machine.rec_checkpoint_step rv.rv_checkpoint_step;
            Alcotest.(check int) "replayed steps"
              r.Interp.Machine.rec_replayed_steps rv.rv_replayed_steps;
            Alcotest.(check int) "wasted cycles"
              r.Interp.Machine.rec_wasted_cycles rv.rv_wasted_cycles;
            Alcotest.(check int) "rollback cycles"
              r.Interp.Machine.rec_rollback_cycles rv.rv_rollback_cycles
          | Some _, None -> Alcotest.fail "recovery lost in journal"
          | None, Some _ -> Alcotest.fail "journal invented a recovery")
        views;
      Alcotest.(check bool) "campaign exercised recovery" true !saw_recovery)

let test_journal_v3_taint_roundtrip () =
  (* A traced campaign journals its propagation summaries, and they read
     back field-for-field — including the events as spans. *)
  with_journal_lines ~taint_trace:true (fun path _ trials ->
      let m, views = Faults.Journal.load path in
      Alcotest.(check (option bool)) "manifest flags tracing" (Some true)
        (Option.bind (Json.member "taint_trace" m) Json.to_bool);
      List.iteri
        (fun i (v : Faults.Journal.view) ->
          let t = List.nth trials i in
          match t.Faults.Campaign.taint, v.v_taint with
          | Some s, Some tv ->
            Alcotest.(check bool) "seeded" s.Interp.Taint.ts_seeded
              tv.Faults.Journal.tv_seeded;
            Alcotest.(check int) "reg hwm" s.ts_reg_hwm tv.tv_reg_hwm;
            Alcotest.(check int) "mem words" s.ts_mem_words tv.tv_mem_words;
            Alcotest.(check (option int)) "first store" s.ts_first_store
              tv.tv_first_store;
            Alcotest.(check (option int)) "first branch" s.ts_first_branch
              tv.tv_first_branch;
            Alcotest.(check (option int)) "died at" s.ts_died_at
              tv.tv_died_at;
            Alcotest.(check (option int)) "end distance" s.ts_end_distance
              tv.tv_end_distance;
            Alcotest.(check bool) "output tainted" s.ts_output_tainted
              tv.tv_output_tainted;
            Alcotest.(check int) "events total" s.ts_events_total
              tv.tv_events_total;
            Alcotest.(check int) "span per retained event"
              (List.length s.ts_events)
              (List.length tv.tv_spans);
            List.iter2
              (fun (e : Interp.Taint.event) (sp : Trace.span) ->
                Alcotest.(check string) "span name"
                  (Interp.Taint.kind_name e.ev_kind)
                  sp.Trace.sp_name;
                Alcotest.(check int) "span step" e.ev_step sp.Trace.sp_step;
                if e.ev_uid >= 0 then
                  Alcotest.(check (option int)) "span uid" (Some e.ev_uid)
                    (Option.bind (List.assoc_opt "uid" sp.Trace.sp_attrs) Json.to_int))
              s.ts_events tv.tv_spans
          | None, _ -> Alcotest.fail "traced trial lost its summary"
          | Some _, None -> Alcotest.fail "summary lost in the journal")
        views)

let test_journal_untraced_no_taint () =
  (* With tracing off the journal carries no taint field — not even an
     empty one — anywhere in the file. *)
  with_journal_lines ~taint_trace:false (fun _ lines _ ->
      let contains_taint line =
        let needle = "taint" and hay = line in
        let n = String.length needle in
        let rec scan i =
          i + n <= String.length hay
          && (String.sub hay i n = needle || scan (i + 1))
        in
        scan 0
      in
      Alcotest.(check bool) "no taint bytes anywhere" false
        (List.exists contains_taint lines))

let test_journal_fold_streams () =
  (* fold is the primitive and load its wrapper: both agree, and fold
     visits the trials in file order. *)
  with_journal_lines ~taint_trace:true (fun path _ _ ->
      let m_load, views = Faults.Journal.load path in
      let m_fold, (count, rev_indices) =
        Faults.Journal.fold path ~init:(0, []) ~f:(fun (n, acc) v ->
            (n + 1, v.Faults.Journal.v_index :: acc))
      in
      Alcotest.(check bool) "same manifest" true (m_load = m_fold);
      Alcotest.(check int) "same trial count" (List.length views) count;
      Alcotest.(check (list int)) "file order"
        (List.map (fun (v : Faults.Journal.view) -> v.v_index) views)
        (List.rev rev_indices))

(* ----- Determinism under observability -----

   The whole point of the telemetry design: profiling and stats
   collection must be unobservable in the results — bit-identical trial
   lists with every hook enabled, serial and parallel. *)

let check_observability_inert ~domains () =
  let bare_summary, bare = small_campaign ~domains:1 () in
  let profile = Interp.Profile.create () in
  let stats = ref None in
  let instr_summary, instrumented =
    small_campaign ~profile ~stats_out:stats ~domains ()
  in
  Alcotest.(check bool) "trial lists bit-identical" true
    (Faults.Campaign.trials_equal bare instrumented);
  Alcotest.(check bool) "summaries identical" true
    (bare_summary.Faults.Campaign.counts
     = instr_summary.Faults.Campaign.counts);
  (* The hooks did observe the campaign. *)
  Alcotest.(check bool) "profile counted instructions" true
    (Interp.Profile.total_instrs profile > 0);
  Alcotest.(check bool) "stats reported" true (!stats <> None)

let test_observability_inert_serial () = check_observability_inert ~domains:1 ()
let test_observability_inert_parallel () =
  check_observability_inert ~domains:2 ()

let test_profile_merge_deterministic () =
  (* Same campaign, serial vs. parallel: the merged profiles must agree
     (merge happens in trial order, not completion order). *)
  let collect domains =
    let p = Interp.Profile.create () in
    let (_ : Faults.Campaign.summary), (_ : Faults.Campaign.trial list) =
      small_campaign ~profile:p ~domains ()
    in
    (Interp.Profile.total_instrs p, Interp.Profile.opcode_rows p,
     Interp.Profile.check_rows p)
  in
  Alcotest.(check bool) "serial = parallel profile" true
    (collect 1 = collect 4)

(* ----- Stats: Wilson intervals ----- *)

let test_stats_wilson_edges () =
  let open Stats in
  let vac = wilson ~k:0 ~n:0 in
  Alcotest.(check (float 0.0)) "vacuous low" 0.0 vac.ci_low;
  Alcotest.(check (float 0.0)) "vacuous high" 1.0 vac.ci_high;
  Alcotest.(check (float 0.0)) "vacuous width" 1.0 (width vac);
  let zero = wilson ~k:0 ~n:20 in
  Alcotest.(check (float 0.0)) "k=0 estimate" 0.0 zero.ci_estimate;
  Alcotest.(check (float 0.0)) "k=0 low" 0.0 zero.ci_low;
  Alcotest.(check bool) "k=0 high informative" true
    (zero.ci_high > 0.0 && zero.ci_high < 1.0);
  let full = wilson ~k:20 ~n:20 in
  Alcotest.(check (float 0.0)) "k=n estimate" 1.0 full.ci_estimate;
  Alcotest.(check (float 0.0)) "k=n high" 1.0 full.ci_high;
  Alcotest.(check bool) "k=n low informative" true
    (full.ci_low > 0.0 && full.ci_low < 1.0);
  Alcotest.(check bool) "k clamps into [0,n]" true
    (wilson ~k:50 ~n:20 = full && wilson ~k:(-3) ~n:20 = zero);
  Alcotest.(check bool) "width shrinks with n" true
    (width (wilson ~k:100 ~n:1000) < width (wilson ~k:10 ~n:100));
  Alcotest.(check bool) "narrow at depth" true
    (width (wilson ~k:5000 ~n:10_000) <= 0.04);
  Alcotest.(check bool) "wide when shallow" false
    (width (wilson ~k:5 ~n:10) <= 0.04)

let test_stats_wilson_json_pp () =
  let iv = Stats.wilson ~k:25 ~n:200 in
  let j = Stats.to_json iv in
  let f name = Option.bind (Json.member name j) Json.to_float in
  Alcotest.(check (option (float 1e-12))) "est" (Some iv.Stats.ci_estimate)
    (f "est");
  Alcotest.(check (option (float 1e-12))) "lo" (Some iv.Stats.ci_low) (f "lo");
  Alcotest.(check (option (float 1e-12))) "hi" (Some iv.Stats.ci_high)
    (f "hi");
  let s = Stats.pp_pct iv in
  Alcotest.(check bool)
    (Printf.sprintf "pp_pct looks like a percent (%s)" s)
    true
    (String.contains s '%'
     && String.length s > 2
     && String.sub s 0 4 = "12.5")

let prop_wilson_bounds =
  QCheck.Test.make ~name:"wilson interval brackets k/n inside [0,1]"
    ~count:500
    QCheck.(pair (int_range 0 500) (int_range 1 500))
    (fun (a, b) ->
      let n = max a b and k = min a b in
      let iv = Stats.wilson ~k ~n in
      let est = float_of_int k /. float_of_int n in
      iv.Stats.ci_estimate = est
      && 0.0 <= iv.ci_low
      && iv.ci_low <= est
      && est <= iv.ci_high
      && iv.ci_high <= 1.0
      && (n < 2 || iv.ci_low < iv.ci_high))

(* ----- Trace: point-span round trip ----- *)

let test_span_collision_prefixing () =
  (* Attributes named like the reserved wire keys must survive the trip —
     under a prefix on the wire, restored verbatim on the way back. *)
  let s =
    Trace.span ~step:9 "store"
      ~attrs:
        [ ("name", Json.Str "shadow"); ("step", Json.Int 7);
          ("attr.name", Json.Str "pre-escaped"); ("uid", Json.Int 3) ]
  in
  (match Trace.to_json s with
   | Json.Obj fields ->
     let keys = List.map fst fields in
     Alcotest.(check (list string)) "wire keys escape collisions"
       [ "name"; "step"; "attr.name"; "attr.step"; "attr.attr.name"; "uid" ]
       keys
   | _ -> Alcotest.fail "span did not serialize to an object");
  Alcotest.(check bool) "round trip is exact" true
    (Trace.of_json (Trace.to_json s) = Some s)

let span_attr_keys =
  [| "name"; "step"; "attr.name"; "attr.step"; "attr.attr.x"; "uid"; "k";
     "value" |]

let prop_span_roundtrip =
  QCheck.Test.make ~name:"span serialization round-trips totally" ~count:300
    QCheck.(
      pair (int_range 0 10_000)
        (small_list (pair (int_range 0 7) small_int)))
    (fun (step, raw) ->
      let attrs =
        List.fold_left
          (fun acc (ki, v) ->
            let k = span_attr_keys.(ki) in
            if List.mem_assoc k acc then acc else acc @ [ (k, Json.Int v) ])
          [] raw
      in
      let s = Trace.span ~step ~attrs "ev" in
      Trace.of_json (Trace.to_json s) = Some s)

(* ----- Trace: the flight recorder ----- *)

let test_trace_recorder_durs () =
  let r = Trace.recorder () in
  Trace.with_dur (Some r) ~cat:"campaign" "outer" (fun () ->
      Trace.with_dur (Some r)
        ~args:[ ("start", Json.Int 0) ]
        ~track:2 ~cat:"pool" "chunk"
        (fun () -> Unix.sleepf 0.002));
  match Trace.durs r with
  | [ outer; chunk ] ->
    Alcotest.(check string) "outer name" "outer" outer.Trace.du_name;
    Alcotest.(check string) "outer cat" "campaign" outer.du_cat;
    Alcotest.(check int) "outer on caller track" 0 outer.du_track;
    Alcotest.(check string) "chunk name" "chunk" chunk.du_name;
    Alcotest.(check int) "chunk track" 2 chunk.du_track;
    Alcotest.(check (option int)) "chunk args survive" (Some 0)
      (Option.bind (List.assoc_opt "start" chunk.du_args) Json.to_int);
    (* Ascending start order, and the nested span sits inside the outer. *)
    Alcotest.(check bool) "sorted by start" true
      (outer.du_start_us <= chunk.du_start_us);
    Alcotest.(check bool) "nested span is shorter" true
      (chunk.du_dur_us <= outer.du_dur_us && chunk.du_dur_us >= 0.0)
  | ds -> Alcotest.failf "expected 2 spans, got %d" (List.length ds)

let test_trace_with_dur_none_and_raise () =
  (* [None] is a bare call... *)
  Alcotest.(check int) "uninstrumented call" 42
    (Trace.with_dur None ~cat:"x" "y" (fun () -> 42));
  (* ...and a raising body still records its span before propagating. *)
  let r = Trace.recorder () in
  (match
     Trace.with_dur (Some r) ~cat:"campaign" "boom" (fun () ->
         raise Trial_blew_up)
   with
   | () -> Alcotest.fail "expected Trial_blew_up"
   | exception Trial_blew_up -> ());
  match Trace.durs r with
  | [ d ] -> Alcotest.(check string) "span recorded on raise" "boom" d.du_name
  | ds -> Alcotest.failf "expected 1 span, got %d" (List.length ds)

let test_trace_chrome_format () =
  let r = Trace.recorder () in
  Trace.with_dur (Some r) ~cat:"campaign" "golden_run" (fun () -> ());
  Trace.with_dur (Some r) ~track:3 ~cat:"pool" "worker"
    ~args:[ ("items", Json.Int 7) ]
    (fun () -> ());
  let j = Trace.to_chrome r in
  let events =
    match Json.member "traceEvents" j with
    | Some (Json.List evs) -> evs
    | _ -> Alcotest.fail "no traceEvents list"
  in
  let ph e = Option.bind (Json.member "ph" e) Json.to_str in
  let metadata = List.filter (fun e -> ph e = Some "M") events in
  let spans = List.filter (fun e -> ph e = Some "X") events in
  Alcotest.(check int) "one thread_name record per track" 2
    (List.length metadata);
  let track_label e =
    Option.bind (Json.member "args" e) (fun a ->
        Option.bind (Json.member "name" a) Json.to_str)
  in
  Alcotest.(check (list (option string))) "tracks labelled as domains"
    [ Some "domain 0 (caller)"; Some "domain 3" ]
    (List.map track_label metadata);
  Alcotest.(check int) "one complete event per span" 2 (List.length spans);
  List.iter
    (fun e ->
      Alcotest.(check bool) "ts/dur are numbers" true
        (Option.bind (Json.member "ts" e) Json.to_float <> None
         && Option.bind (Json.member "dur" e) Json.to_float <> None);
      Alcotest.(check (option int)) "single process" (Some 1)
        (Option.bind (Json.member "pid" e) Json.to_int))
    spans;
  (* args only where given, and tid carries the worker track. *)
  let worker =
    List.find
      (fun e ->
        Option.bind (Json.member "name" e) Json.to_str = Some "worker")
      spans
  in
  Alcotest.(check (option int)) "worker tid" (Some 3)
    (Option.bind (Json.member "tid" worker) Json.to_int);
  Alcotest.(check (option int)) "worker args" (Some 7)
    (Option.bind (Json.member "args" worker) (fun a ->
         Option.bind (Json.member "items" a) Json.to_int));
  (* write_chrome emits exactly the same JSON, parseable from disk. *)
  let path = Filename.temp_file "softft_trace" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Trace.write_chrome r ~path;
      let ic = open_in path in
      let line = input_line ic in
      close_in ic;
      Alcotest.(check string) "file carries the same JSON" (Json.to_string j)
        line;
      Alcotest.(check bool) "and parses back" true
        (match Json.parse line with Json.Obj _ -> true | _ -> false))

(* ----- Progress: exact counts under parallelism, windowed rate ----- *)

let all_outcomes = Array.of_list Faults.Classify.all

let prop_progress_counts_exact =
  (* Outcome accounting is exact — not approximate — whatever the domain
     count: every note lands in exactly one counter. *)
  QCheck.Test.make ~name:"progress counts are exact at 1/2/4 domains"
    ~count:30
    QCheck.(list_of_size (Gen.int_range 1 200) (int_range 0 8))
    (fun picks ->
      let outcomes =
        Array.of_list (List.map (fun i -> all_outcomes.(i)) picks)
      in
      let n = Array.length outcomes in
      List.for_all
        (fun domains ->
          let pg = Faults.Progress.create ~interval:1e9 ~total:n () in
          let (_ : int array) =
            Faults.Pool.map ~domains
              (fun i ->
                Faults.Progress.note pg outcomes.(i);
                i)
              n
          in
          let snap = Faults.Progress.snapshot pg in
          snap.pg_done = n
          && snap.pg_done <= snap.pg_total
          && List.for_all
               (fun (o, got) ->
                 let expected =
                   Array.fold_left
                     (fun acc o' -> if o' = o then acc + 1 else acc)
                     0 outcomes
                 in
                 got = expected)
               snap.pg_counts)
        [ 1; 2; 4 ])

let test_progress_window_rate () =
  let pg = Faults.Progress.create ~interval:1e9 ~total:100 () in
  for _ = 1 to 50 do
    Faults.Progress.note pg Faults.Classify.Masked
  done;
  let snap = Faults.Progress.snapshot pg in
  Alcotest.(check bool) "windowed rate measurable" true
    (snap.pg_window_rate > 0.0);
  Alcotest.(check bool) "eta finite and non-negative" true
    (snap.pg_eta >= 0.0 && Float.is_finite snap.pg_eta);
  let j = Faults.Progress.snapshot_json snap in
  Alcotest.(check bool) "json carries both rates" true
    (Option.bind (Json.member "trials_per_sec" j) Json.to_float <> None
     && Option.bind (Json.member "window_trials_per_sec" j) Json.to_float
        <> None);
  (* Per-outcome Wilson interval rides along on the heartbeat. *)
  let ci =
    Option.bind (Json.member "ci" j) (fun ci ->
        Option.bind (Json.member "Masked" ci) (fun m ->
            Option.bind (Json.member "est" m) Json.to_float))
  in
  Alcotest.(check (option (float 1e-9))) "ci estimate" (Some 1.0) ci

let test_progress_heartbeat_jsonl () =
  (* Every heartbeat line a real parallel campaign emits must parse, stay
     within bounds, and grow monotonically. *)
  let path = Filename.temp_file "softft_progress" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out path in
      let pg =
        Faults.Progress.create ~interval:0.0
          ~sinks:[ Faults.Progress.jsonl_sink oc ]
          ~total:30 ()
      in
      let (_ : Faults.Campaign.summary), (_ : Faults.Campaign.trial list) =
        small_campaign ~progress:pg ~domains:2 ()
      in
      close_out oc;
      let ic = open_in path in
      let lines = ref [] in
      (try
         while true do
           lines := input_line ic :: !lines
         done
       with End_of_file -> close_in ic);
      let lines = List.rev !lines in
      Alcotest.(check bool) "per-trial emission plus final" true
        (List.length lines >= 31);
      let last_done = ref 0 in
      List.iter
        (fun line ->
          let j = Json.parse line in
          let int name = Option.bind (Json.member name j) Json.to_int in
          Alcotest.(check (option string)) "self-describing" (Some "progress")
            (Option.bind (Json.member "type" j) Json.to_str);
          match int "done", int "total" with
          | Some d, Some t ->
            Alcotest.(check bool) "done within total" true (d <= t);
            Alcotest.(check bool) "done monotone" true (d >= !last_done);
            last_done := d;
            (* Counts are read under the emission lock: they sum to done. *)
            let counted =
              match Json.member "counts" j with
              | Some (Json.Obj fields) ->
                List.fold_left
                  (fun acc (_, v) ->
                    acc + Option.value ~default:0 (Json.to_int v))
                  0 fields
              | _ -> 0
            in
            Alcotest.(check int) "counts sum to done" d counted
          | _ -> Alcotest.fail "heartbeat missing done/total")
        lines;
      match List.rev lines with
      | last :: _ ->
        Alcotest.(check (option bool)) "last line is final" (Some true)
          (Option.bind (Json.member "final" (Json.parse last)) Json.to_bool);
        Alcotest.(check int) "campaign completed" 30 !last_done
      | [] -> Alcotest.fail "no heartbeat lines")

(* ----- Determinism: the flight recorder and statistics are inert ----- *)

(* The recorder saw a campaign's phases: one golden run (which captures
   the fork snapshots itself, and for an adaptive campaign measures the
   stratum masses too, so no pass of its own for either) and the
   trials. *)
let check_campaign_spans what r =
  let all = List.map (fun d -> d.Trace.du_name) (Trace.durs r) in
  let names = List.sort_uniq compare all in
  List.iter
    (fun phase ->
      Alcotest.(check bool) (what ^ ": " ^ phase ^ " span recorded") true
        (List.mem phase names))
    [ "golden_run"; "trials"; "worker" ];
  Alcotest.(check int) (what ^ ": one golden_run span") 1
    (List.length (List.filter (String.equal "golden_run") all));
  List.iter
    (fun pass ->
      Alcotest.(check bool) (what ^ ": no " ^ pass ^ " span") false
        (List.mem pass names))
    [ "fork_capture"; "mass_replay" ]

let check_flight_recorder_inert ~domains () =
  let bare_summary, bare = small_campaign ~domains:1 () in
  let r = Obs.Trace.recorder () in
  let pg = Faults.Progress.create ~interval:1e9 ~total:30 () in
  let traced_summary, traced =
    small_campaign ~progress:pg ~trace:r ~domains ()
  in
  Alcotest.(check bool) "trials bit-identical under tracing" true
    (Faults.Campaign.trials_equal bare traced);
  Alcotest.(check bool) "counts identical" true
    (bare_summary.Faults.Campaign.counts
     = traced_summary.Faults.Campaign.counts);
  check_campaign_spans "uniform" r;
  let r = Obs.Trace.recorder () in
  let _ =
    Test_faults.run_adaptive ~domains ~trace:r
      (Test_faults.protected_array_sum ())
  in
  check_campaign_spans "adaptive" r

let test_flight_recorder_inert_serial () =
  check_flight_recorder_inert ~domains:1 ()

let test_flight_recorder_inert_parallel () =
  check_flight_recorder_inert ~domains:4 ()

let test_journal_bytes_trace_invariant () =
  (* The strongest form of the contract: one manifest, two journal writes —
     serial bare trials vs. parallel traced trials — and the files must be
     byte-identical. *)
  let _, bare = small_campaign ~domains:1 () in
  let r = Obs.Trace.recorder () in
  let summary, traced = small_campaign ~trace:r ~domains:4 () in
  let manifest =
    Faults.Journal.manifest_record ~git:"test" ~technique:"none"
      ~counts:summary.Faults.Campaign.counts ~label:"array_sum" ~trials:30
      ~seed:2024 ~domains:0
      ~hw_window:Faults.Classify.default_hw_window ~fault_kind:"register_bit"
      ~golden:summary.Faults.Campaign.golden_info ()
  in
  let write ?trace trials =
    let path = Filename.temp_file "softft_journal" ".jsonl" in
    Fun.protect
      ~finally:(fun () -> Sys.remove path)
      (fun () ->
        Faults.Journal.write ?trace ~path ~manifest ~trials ();
        In_channel.with_open_bin path In_channel.input_all)
  in
  Alcotest.(check bool) "journal bytes identical" true
    (write bare = write ~trace:r traced)

(* ----- Journal: v4 final statistics ----- *)

let test_journal_v4_stats () =
  let path = Filename.temp_file "softft_journal" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let summary, trials = small_campaign ~domains:2 () in
      let manifest =
        Faults.Journal.manifest_record ~git:"test" ~technique:"none"
          ~counts:summary.Faults.Campaign.counts ~label:"array_sum" ~trials:30
          ~seed:2024 ~domains:2 ~hw_window:Faults.Classify.default_hw_window
          ~fault_kind:"register_bit"
          ~golden:summary.Faults.Campaign.golden_info ()
      in
      Faults.Journal.write ~path ~manifest ~trials ();
      let m, views = Faults.Journal.load path in
      Alcotest.(check (option string)) "stamped v4"
        (Some Faults.Journal.schema_v4)
        (Option.bind (Json.member "schema" m) Json.to_str);
      Alcotest.(check int) "v4 trials load" 30 (List.length views);
      let stats =
        match Json.member "stats" m with
        | Some (Json.Obj fields) -> fields
        | _ -> Alcotest.fail "manifest has no stats object"
      in
      (* One entry per observed outcome, none for unobserved ones, and the
         entries agree with the summary and with Wilson at n=30. *)
      let total = ref 0 in
      List.iter
        (fun ((o : Faults.Classify.outcome), k) ->
          let entry = List.assoc_opt (Faults.Classify.name o) stats in
          if k = 0 then
            Alcotest.(check bool) "unobserved outcome absent" true
              (entry = None)
          else begin
            total := !total + k;
            match entry with
            | None -> Alcotest.failf "missing stats for %s"
                        (Faults.Classify.name o)
            | Some e ->
              let iv = Stats.wilson ~k ~n:30 in
              Alcotest.(check (option int)) "n" (Some k)
                (Option.bind (Json.member "n" e) Json.to_int);
              Alcotest.(check (option (float 1e-12))) "est"
                (Some iv.Stats.ci_estimate)
                (Option.bind (Json.member "est" e) Json.to_float);
              Alcotest.(check (option (float 1e-12))) "lo"
                (Some iv.Stats.ci_low)
                (Option.bind (Json.member "lo" e) Json.to_float);
              Alcotest.(check (option (float 1e-12))) "hi"
                (Some iv.Stats.ci_high)
                (Option.bind (Json.member "hi" e) Json.to_float)
          end)
        summary.Faults.Campaign.counts;
      Alcotest.(check int) "stats cover every trial" 30 !total)

let test_journal_v4_outranks_v3 () =
  (* A traced uniform campaign stamps v4 and keeps its taint flag. *)
  let subject = Test_faults.protected_array_sum () in
  let summary, _ =
    Faults.Campaign.run subject ~trials:20 ~seed:7 ~taint_trace:true
  in
  let m =
    Faults.Journal.manifest_record ~git:"test" ~technique:"dup"
      ~counts:summary.Faults.Campaign.counts ~taint_trace:true
      ~label:"array_sum" ~trials:20 ~seed:7 ~domains:1
      ~hw_window:Faults.Classify.default_hw_window ~fault_kind:"register_bit"
      ~golden:summary.Faults.Campaign.golden_info ()
  in
  Alcotest.(check (option string)) "v4 outranks v3"
    (Some Faults.Journal.schema_v4)
    (Option.bind (Json.member "schema" m) Json.to_str);
  Alcotest.(check (option bool)) "taint flag kept" (Some true)
    (Option.bind (Json.member "taint_trace" m) Json.to_bool)

(* ----- Journal reports: the CI column degrades on pre-v4 journals ----- *)

let with_stdout_silenced f =
  (* print_journal_report writes its tables to stdout; the test only cares
     that rendering succeeds, so park stdout on /dev/null for the call. *)
  flush stdout;
  let saved = Unix.dup Unix.stdout in
  let null = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
  Unix.dup2 null Unix.stdout;
  Unix.close null;
  Fun.protect
    ~finally:(fun () ->
      flush stdout;
      Unix.dup2 saved Unix.stdout;
      Unix.close saved)
    f

let test_journal_report_pre_v4_ci_degrades () =
  (* Regression: aggregating a pre-v4 journal used to recompute intervals
     the journal never recorded.  The CI column must instead degrade to
     "—" — and the whole report must still render. *)
  with_journal_lines (fun path lines _ ->
      let v2_of line =
        match Json.parse line with
        | Json.Obj fields ->
          Json.to_string
            (Json.Obj
               (List.filter_map
                  (function
                    | ("schema", _) ->
                      Some ("schema", Json.Str "softft.journal.v2")
                    | ("stats", _) | ("counts", _) -> None
                    | kv -> Some kv)
                  fields))
        | _ -> Alcotest.fail "manifest is not an object"
      in
      (match lines with
       | manifest :: trials -> rewrite path (v2_of manifest :: trials)
       | [] -> Alcotest.fail "journal empty");
      let m, views = Faults.Journal.load path in
      Alcotest.(check bool) "fixture carries no stats" true
        (Json.member "stats" m = None);
      let rows =
        Softft.Report.journal_outcome_rows
          ?stats:(Json.member "stats" m) views
      in
      List.iter
        (fun row ->
          match List.rev row with
          | ci :: _ ->
            Alcotest.(check string) "CI cell degrades to an em dash"
              "\xe2\x80\x94" ci
          | [] -> Alcotest.fail "empty report row")
        rows;
      (* And the full report renders without raising — the exit-0 path. *)
      with_stdout_silenced (fun () ->
          Softft.Report.print_journal_report ~manifest:m views));
  (* Control: a current journal (v4 stats present) renders real
     intervals, so the dash is genuinely the degraded path. *)
  let stats = ref None in
  let summary, trials = small_campaign ~stats_out:stats ~domains:1 () in
  let m =
    Faults.Journal.manifest_record ~git:"test" ~technique:"none"
      ?stats:!stats ~counts:summary.Faults.Campaign.counts ~label:"array_sum"
      ~trials:30 ~seed:2024 ~domains:1
      ~hw_window:Faults.Classify.default_hw_window ~fault_kind:"register_bit"
      ~golden:summary.Faults.Campaign.golden_info ()
  in
  let path = Filename.temp_file "softft_journal" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Faults.Journal.write ~path ~manifest:m ~trials ();
      let m, views = Faults.Journal.load path in
      let rows =
        Softft.Report.journal_outcome_rows
          ?stats:(Json.member "stats" m) views
      in
      List.iter
        (fun row ->
          match List.rev row with
          | ci :: _ ->
            Alcotest.(check bool) "CI cell is an interval" true
              (String.length ci > 0 && ci.[0] = '[')
          | [] -> Alcotest.fail "empty report row")
        rows)

(* ----- Progress: ring-boundary regression, per-stratum counters ----- *)

let test_progress_ring_boundary () =
  (* Regression: crossing the 256-entry completion ring used to read a
     stale slot as the window start, yielding an inf/negative windowed
     rate.  March straight across the boundary and check every snapshot
     stays finite — serial first, then under 2 and 4 domains. *)
  let check_snap tag (snap : Faults.Progress.snapshot) =
    Alcotest.(check bool) (tag ^ ": window rate finite") true
      (Float.is_finite snap.pg_window_rate);
    Alcotest.(check bool) (tag ^ ": window rate non-negative") true
      (snap.pg_window_rate >= 0.0);
    Alcotest.(check bool) (tag ^ ": eta finite, non-negative") true
      (Float.is_finite snap.pg_eta && snap.pg_eta >= 0.0)
  in
  let total = 600 in
  let pg = Faults.Progress.create ~interval:1e9 ~total () in
  for i = 1 to total do
    Faults.Progress.note pg Faults.Classify.Masked;
    (* Snapshot at every step around both ring crossings (256, 512) and a
       few in the steady state past them. *)
    if (i >= 254 && i <= 260) || (i >= 510 && i <= 516) || i mod 97 = 0 then
      check_snap (Printf.sprintf "serial @%d" i) (Faults.Progress.snapshot pg)
  done;
  check_snap "serial final" (Faults.Progress.snapshot pg);
  List.iter
    (fun domains ->
      let pg = Faults.Progress.create ~interval:1e9 ~total () in
      (* Workers only take the snapshots; Alcotest is not domain-safe, so
         the checks run on the main domain afterwards. *)
      let snaps =
        Faults.Pool.map ~domains
          (fun i ->
            Faults.Progress.note pg Faults.Classify.Masked;
            if i mod 61 = 0 then Some (Faults.Progress.snapshot pg) else None)
          total
      in
      Array.iter
        (Option.iter (check_snap (Printf.sprintf "domains=%d" domains)))
        snaps;
      let snap = Faults.Progress.snapshot pg in
      check_snap (Printf.sprintf "domains=%d final" domains) snap;
      Alcotest.(check int)
        (Printf.sprintf "domains=%d: every note counted" domains)
        total snap.pg_done)
    [ 1; 2; 4 ]

let test_progress_strata_counters () =
  (* Adaptive campaigns tag completions with a stratum id; the heartbeat
     keeps per-stratum tallies.  Out-of-range ids and untagged notes must
     count toward done without touching the stratum counters. *)
  let pg = Faults.Progress.create ~interval:1e9 ~strata:3 ~total:20 () in
  for _ = 1 to 5 do
    Faults.Progress.note ~stratum:0 pg Faults.Classify.Masked
  done;
  for _ = 1 to 3 do
    Faults.Progress.note ~stratum:2 pg Faults.Classify.Asdc
  done;
  Faults.Progress.note ~stratum:7 pg Faults.Classify.Masked;
  Faults.Progress.note ~stratum:(-1) pg Faults.Classify.Masked;
  Faults.Progress.note pg Faults.Classify.Masked;
  let snap = Faults.Progress.snapshot pg in
  Alcotest.(check int) "done counts every note" 11 snap.pg_done;
  Alcotest.(check (array int)) "per-stratum tallies" [| 5; 0; 3 |]
    snap.pg_strata;
  (* Without ~strata the counters stay absent, not sized-but-zero. *)
  let bare = Faults.Progress.create ~interval:1e9 ~total:5 () in
  Faults.Progress.note ~stratum:0 bare Faults.Classify.Masked;
  Alcotest.(check (array int)) "no strata configured" [||]
    (Faults.Progress.snapshot bare).pg_strata

(* ----- Journal: v5 adaptive roundtrip ----- *)

let test_journal_v5_adaptive_roundtrip () =
  (* An adaptive campaign journals its stratum definitions, tallies and
     the savings headline, stamps v5, and each trial carries its stratum
     tag — all of which must read back. *)
  let subject = Test_faults.protected_array_sum () in
  let cov = Analysis.Coverage.analyze subject.Faults.Campaign.prog in
  let groups =
    Analysis.Strata.reg_groups subject.Faults.Campaign.prog cov
  in
  let summary, trials, ad =
    Faults.Campaign.run_adaptive ~seed:23 ~domains:2 ~groups
      ~group_names:Analysis.Strata.group_names
      ~priors:(Analysis.Strata.priors cov) ~ci:0.1 subject
  in
  let manifest =
    Faults.Journal.manifest_record ~git:"test" ~technique:"dup"
      ~counts:summary.Faults.Campaign.counts ~adaptive:ad
      ~label:"array_sum" ~trials:summary.trials ~seed:23 ~domains:2
      ~hw_window:Faults.Classify.default_hw_window ~fault_kind:"register_bit"
      ~golden:summary.Faults.Campaign.golden_info ()
  in
  Alcotest.(check (option string)) "adaptive outranks v4"
    (Some Faults.Journal.schema_v5)
    (Option.bind (Json.member "schema" manifest) Json.to_str);
  let path = Filename.temp_file "softft_journal" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Faults.Journal.write ~path ~manifest ~trials ();
      let m, views = Faults.Journal.load path in
      let section =
        match Json.member "adaptive" m with
        | Some s -> s
        | None -> Alcotest.fail "manifest lost its adaptive section"
      in
      Alcotest.(check (option (float 1e-9))) "ci target" (Some 0.1)
        (Option.bind (Json.member "ci_target" section) Json.to_float);
      Alcotest.(check (option int)) "trial total" (Some ad.ad_trials)
        (Option.bind (Json.member "trials" section) Json.to_int);
      Alcotest.(check (option int)) "savings headline"
        (Some ad.ad_equiv_uniform)
        (Option.bind
           (Json.member "equivalent_uniform_trials" section)
           Json.to_int);
      (match Json.member "strata" section with
       | Some (Json.List ss) ->
         Alcotest.(check int) "one record per stratum"
           (Array.length ad.ad_strata) (List.length ss)
       | _ -> Alcotest.fail "adaptive section has no strata list");
      Alcotest.(check int) "every trial loads"
        (List.length trials) (List.length views);
      List.iteri
        (fun i (v : Faults.Journal.view) ->
          let t = List.nth trials i in
          Alcotest.(check (option int)) "stratum tag roundtrips"
            t.Faults.Campaign.stratum v.v_stratum)
        views)

let tests =
  [ Alcotest.test_case "json: roundtrip" `Quick test_json_roundtrip;
    Alcotest.test_case "json: unicode escapes" `Quick test_json_unicode_escapes;
    Alcotest.test_case "json: parse errors" `Quick test_json_parse_errors;
    Alcotest.test_case "json: accessors" `Quick test_json_accessors;
    Alcotest.test_case "log: jsonl sink + level" `Quick
      test_log_jsonl_sink_and_level;
    Alcotest.test_case "pool: stats serial" `Quick test_pool_stats_serial;
    Alcotest.test_case "pool: stats parallel" `Quick test_pool_stats_parallel;
    Alcotest.test_case "pool: stats empty" `Quick test_pool_stats_empty;
    Alcotest.test_case "pool: worker exception cancels" `Quick
      test_pool_cancellation;
    Alcotest.test_case "pool: serial exception propagates" `Quick
      test_pool_serial_exception;
    Alcotest.test_case "journal: write/load roundtrip" `Quick
      test_journal_write_load;
    Alcotest.test_case "journal: overwrite replaces atomically" `Quick
      test_journal_overwrite_atomic;
    Alcotest.test_case "journal: malformed input" `Quick test_journal_malformed;
    Alcotest.test_case "journal: no manifest is an error" `Quick
      test_journal_no_manifest;
    Alcotest.test_case "journal: v1 still loads" `Quick test_journal_v1_loads;
    Alcotest.test_case "journal: v2 recovery roundtrip" `Quick
      test_journal_v2_recovery_roundtrip;
    Alcotest.test_case "journal: v3 taint roundtrip" `Quick
      test_journal_v3_taint_roundtrip;
    Alcotest.test_case "journal: untraced has no taint bytes" `Quick
      test_journal_untraced_no_taint;
    Alcotest.test_case "journal: fold streams" `Quick
      test_journal_fold_streams;
    Alcotest.test_case "determinism: hooks inert (serial)" `Quick
      test_observability_inert_serial;
    Alcotest.test_case "determinism: hooks inert (domains=2)" `Quick
      test_observability_inert_parallel;
    Alcotest.test_case "determinism: profile merge" `Quick
      test_profile_merge_deterministic;
    Alcotest.test_case "stats: wilson edges" `Quick test_stats_wilson_edges;
    Alcotest.test_case "stats: wilson json + pp" `Quick
      test_stats_wilson_json_pp;
    Alcotest.test_case "trace: span collision prefixing" `Quick
      test_span_collision_prefixing;
    Alcotest.test_case "trace: recorder spans" `Quick test_trace_recorder_durs;
    Alcotest.test_case "trace: with_dur inert + raise" `Quick
      test_trace_with_dur_none_and_raise;
    Alcotest.test_case "trace: chrome format" `Quick test_trace_chrome_format;
    Alcotest.test_case "progress: windowed rate" `Quick
      test_progress_window_rate;
    Alcotest.test_case "progress: heartbeat jsonl" `Quick
      test_progress_heartbeat_jsonl;
    Alcotest.test_case "determinism: flight recorder inert (serial)" `Quick
      test_flight_recorder_inert_serial;
    Alcotest.test_case "determinism: flight recorder inert (domains=4)" `Quick
      test_flight_recorder_inert_parallel;
    Alcotest.test_case "determinism: journal bytes trace-invariant" `Quick
      test_journal_bytes_trace_invariant;
    Alcotest.test_case "journal: v4 final stats" `Quick test_journal_v4_stats;
    Alcotest.test_case "journal: v4 outranks v3" `Quick
      test_journal_v4_outranks_v3;
    Alcotest.test_case "report: pre-v4 CI column degrades" `Quick
      test_journal_report_pre_v4_ci_degrades;
    Alcotest.test_case "progress: ring-boundary rate stays finite" `Quick
      test_progress_ring_boundary;
    Alcotest.test_case "progress: per-stratum counters" `Quick
      test_progress_strata_counters;
    Alcotest.test_case "journal: v5 adaptive roundtrip" `Quick
      test_journal_v5_adaptive_roundtrip;
  ]
  @ List.map QCheck_alcotest.to_alcotest
      [ prop_wilson_bounds; prop_span_roundtrip; prop_progress_counts_exact ]
