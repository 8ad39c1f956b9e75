(** Campaign trial journal; see the interface for the file layout. *)

open Obs

(* Each schema generation only added optional fields, so v1-v5 journals
   all load through one reader.  The writer stamps v5 when the adaptive
   section is present, else v4. *)
let schema_v4 = "softft.journal.v4"
let schema_v5 = "softft.journal.v5"

let git_describe () =
  try
    let ic =
      Unix.open_process_in "git describe --always --dirty 2>/dev/null"
    in
    let line = try input_line ic with End_of_file -> "" in
    match Unix.close_process_in ic with
    | Unix.WEXITED 0 when line <> "" -> line
    | _ -> "unknown"
  with Unix.Unix_error _ | Sys_error _ -> "unknown"

let value_json (v : Ir.Value.t) =
  match v with
  | Ir.Value.Int i ->
    (* int64 payloads may exceed the OCaml int range; keep them lossless
       as decimal strings. *)
    Json.Obj [ ("kind", Json.Str "int"); ("v", Json.Str (Int64.to_string i)) ]
  | Ir.Value.Float f ->
    Json.Obj
      [ ("kind", Json.Str "float"); ("v", Json.Float f);
        ("bits", Json.Str (Int64.to_string (Int64.bits_of_float f))) ]

let fault_kind_name = function
  | Interp.Machine.Register_bit -> "register_bit"
  | Interp.Machine.Branch_target -> "branch_target"

let injection_json (inj : Interp.Machine.injection) =
  Json.Obj
    [ ("kind", Json.Str (fault_kind_name inj.inj_kind));
      ("step", Json.Int inj.inj_step);
      ("reg", Json.Int inj.inj_reg);
      ("bit", Json.Int inj.inj_bit);
      ("before", value_json inj.before);
      ("after", value_json inj.after) ]

let opt_field name f = function
  | None -> []
  | Some v -> [ (name, f v) ]

let recovery_json (r : Interp.Machine.recovery) =
  Json.Obj
    [ ("check_uid", Json.Int r.rec_detection.check_uid);
      ("dup_check", Json.Bool r.rec_detection.dup_check);
      ("detect_step", Json.Int r.rec_detect_step);
      ("checkpoint_step", Json.Int r.rec_checkpoint_step);
      ("replayed_steps", Json.Int r.rec_replayed_steps);
      ("wasted_cycles", Json.Int r.rec_wasted_cycles);
      ("rollback_cycles", Json.Int r.rec_rollback_cycles) ]

(* Propagation events go to the wire as generic {!Obs.Trace} spans, so
   readers aggregate them without knowing the tracer's event vocabulary. *)
let span_of_event (e : Interp.Taint.event) =
  Trace.span ~step:e.ev_step
    (Interp.Taint.kind_name e.ev_kind)
    ~attrs:
      ((if e.ev_uid >= 0 then [ ("uid", Json.Int e.ev_uid) ] else [])
       @ (if e.ev_addr >= 0 then [ ("addr", Json.Int e.ev_addr) ] else []))

let taint_json (s : Interp.Taint.summary) =
  Json.Obj
    ([ ("seeded", Json.Bool s.ts_seeded);
       ("inj_step", Json.Int s.ts_inj_step);
       ("reg_hwm", Json.Int s.ts_reg_hwm);
       ("mem_words", Json.Int s.ts_mem_words) ]
     @ opt_field "first_store" (fun d -> Json.Int d) s.ts_first_store
     @ opt_field "first_branch" (fun d -> Json.Int d) s.ts_first_branch
     @ opt_field "died_at" (fun d -> Json.Int d) s.ts_died_at
     @ opt_field "end_distance" (fun d -> Json.Int d) s.ts_end_distance
     @ [ ("output_tainted", Json.Bool s.ts_output_tainted);
         ("events_total", Json.Int s.ts_events_total);
         ("spans",
          Json.List
            (List.map (fun e -> Trace.to_json (span_of_event e)) s.ts_events))
       ])

let trial_record ~index (t : Campaign.trial) =
  Json.Obj
    ([ ("type", Json.Str "trial");
       ("i", Json.Int index);
       ("seed", Json.Int t.trial_seed);
       ("at_step", Json.Int t.at_step);
       ("outcome", Json.Str (Classify.name t.outcome));
       ("steps", Json.Int t.steps);
       ("cycles", Json.Int t.cycles) ]
     @ opt_field "detect_latency" (fun l -> Json.Int l) t.detect_latency
     @ (match t.detected_by with
        | None -> []
        | Some (d : Interp.Machine.detection) ->
          [ ("check_uid", Json.Int d.check_uid);
            ("dup_check", Json.Bool d.dup_check) ])
     @ opt_field "injection" injection_json t.injection
     @ (if t.checkpoints > 0 then [ ("checkpoints", Json.Int t.checkpoints) ]
        else [])
     @ opt_field "recovery" recovery_json t.recovery
     @ opt_field "taint" taint_json t.taint
     @ opt_field "stratum" (fun s -> Json.Int s) t.stratum)

let pool_stats_json (ps : Pool.stats) =
  Json.Obj
    [ ("domains", Json.Int ps.st_domains);
      ("chunk", Json.Int ps.st_chunk);
      ("wall_sec",
       Json.List (Array.to_list (Array.map (fun s -> Json.Float s) ps.st_wall)));
      ("items",
       Json.List (Array.to_list (Array.map (fun n -> Json.Int n) ps.st_items)))
    ]

let stats_json (rs : Campaign.run_stats) =
  Json.Obj
    ([ ("golden_sec", Json.Float rs.golden_sec);
       ("setup_sec", Json.Float rs.setup_sec);
       ("trials_sec", Json.Float rs.trials_sec);
       ("wall_sec", Json.Float rs.wall_sec);
       ("domains", Json.Int rs.domains);
       ("rejoined", Json.Int rs.rejoined);
       ("settled", Json.Int rs.settled);
       ("steps_skipped", Json.Int rs.steps_skipped);
       ("golden_reused", Json.Bool rs.golden_reused) ]
     @ opt_field "pool" pool_stats_json rs.pool)

(* Final per-outcome statistics for the manifest: count, estimate, and
   Wilson 95% bounds per observed outcome.  Deterministic — counts come
   from the (scheduling-independent) summary, so the manifest line stays
   byte-identical at any domain count. *)
let final_stats_json ~trials counts =
  Json.Obj
    (List.filter_map
       (fun ((o : Classify.outcome), k) ->
         if k = 0 then None
         else begin
           let iv = Stats.wilson ~k ~n:trials in
           Some
             ( Classify.name o,
               Json.Obj
                 [ ("n", Json.Int k);
                   ("est", Json.Float iv.Stats.ci_estimate);
                   ("lo", Json.Float iv.Stats.ci_low);
                   ("hi", Json.Float iv.Stats.ci_high) ] )
         end)
       counts)

(* The v5 adaptive section: stratum definitions and tallies, the
   mass-reweighted whole-program intervals, and the equivalent-uniform
   price of the same precision.  Deterministic — everything derives from
   the (scheduling-independent) campaign counts. *)
let adaptive_json (a : Campaign.adaptive) =
  let stratum_json (ss : Campaign.stratum_stats) =
    let s = ss.Campaign.ss_stratum in
    Json.Obj
      [ ("id", Json.Int s.Campaign.st_id);
        ("group", Json.Int s.Campaign.st_group);
        ("group_name", Json.Str s.Campaign.st_group_name);
        ("band", Json.Int s.Campaign.st_band);
        ("lo", Json.Int s.Campaign.st_lo);
        ("hi", Json.Int s.Campaign.st_hi);
        ("mass", Json.Float s.Campaign.st_mass);
        ("prior", Json.Float s.Campaign.st_prior);
        ("trials", Json.Int ss.Campaign.ss_trials);
        ("counts",
         Json.Obj
           (List.filter_map
              (fun ((o : Classify.outcome), k) ->
                if k = 0 then None
                else Some (Classify.name o, Json.Int k))
              ss.Campaign.ss_counts)) ]
  in
  Json.Obj
    [ ("ci_target", Json.Float a.Campaign.ad_ci_target);
      ("trials", Json.Int a.Campaign.ad_trials);
      ("equivalent_uniform_trials", Json.Int a.Campaign.ad_equiv_uniform);
      ("oracle_uniform_trials", Json.Int a.Campaign.ad_oracle_uniform);
      ("mass_empty", Json.Float a.Campaign.ad_mass_empty);
      ("sdc", Stats.to_json a.Campaign.ad_sdc);
      ("outcomes",
       Json.Obj
         (List.filter_map
            (fun ((o : Classify.outcome), iv) ->
              if iv.Stats.ci_estimate = 0.0 && iv.Stats.ci_high = 0.0 then
                None
              else Some (Classify.name o, Stats.to_json iv))
            a.Campaign.ad_outcomes));
      ("strata",
       Json.List (Array.to_list (Array.map stratum_json a.Campaign.ad_strata)))
    ]

let manifest_record ?git ?technique ?plan ?stats ~counts ?adaptive
    ?(checkpoint_interval = 0) ?(taint_trace = false) ~label ~trials ~seed
    ~domains ~hw_window ~fault_kind ~(golden : Campaign.golden) () =
  let git = match git with Some g -> g | None -> git_describe () in
  Json.Obj
    ([ ("type", Json.Str "manifest");
       ("schema",
        Json.Str (if adaptive <> None then schema_v5 else schema_v4));
       ("git", Json.Str git);
       ("label", Json.Str label);
       ("trials", Json.Int trials);
       ("seed", Json.Int seed);
       ("domains", Json.Int domains);
       ("hw_window", Json.Int hw_window);
       ("fault_kind", Json.Str fault_kind);
       ("checkpoint_interval", Json.Int checkpoint_interval) ]
     @ (if taint_trace then [ ("taint_trace", Json.Bool true) ] else [])
     @ opt_field "technique" (fun t -> Json.Str t) technique
     @ opt_field "plan" (fun j -> j) plan
     @ [ ("golden",
          Json.Obj
            [ ("steps", Json.Int golden.steps);
              ("cycles", Json.Int golden.cycles);
              ("false_positives", Json.Int golden.false_positives);
              ("failing_checks",
               Json.List
                 (List.map (fun uid -> Json.Int uid) golden.failing_checks))
            ]) ]
     @ opt_field "timings" stats_json stats
     @ [ ("stats", final_stats_json ~trials counts) ]
     @ opt_field "adaptive" adaptive_json adaptive)

(* Write into a temp file beside [path], then rename it over [path]: a
   crash mid-write leaves the old file whole (and a stray [.tmp]), never a
   torn one. *)
let replace_file ~path f =
  let tmp, oc =
    Filename.open_temp_file ~mode:[ Open_binary ] ~perms:0o644
      ~temp_dir:(Filename.dirname path) (Filename.basename path) ".tmp"
  in
  match f oc with
  | () ->
    close_out oc;
    Sys.rename tmp path
  | exception e ->
    close_out_noerr oc;
    Sys.remove tmp;
    raise e

let write ?trace ~path ~manifest ~trials () =
  Trace.with_dur trace ~cat:"journal" "write"
    ~args:[ ("trials", Json.Int (List.length trials)) ]
  @@ fun () ->
  replace_file ~path (fun oc ->
    output_string oc (Json.to_string manifest);
    output_char oc '\n';
    List.iteri
      (fun index t ->
        output_string oc (Json.to_string (trial_record ~index t));
        output_char oc '\n')
      trials)

(* ----- Reading ----- *)

(** Recovery telemetry read back from a trial that rolled back. *)
type recovery_view = {
  rv_detect_step : int;
  rv_checkpoint_step : int;
  rv_replayed_steps : int;
  rv_wasted_cycles : int;
  rv_rollback_cycles : int;
}

(** Propagation telemetry read back from a traced trial. *)
type taint_view = {
  tv_seeded : bool;
  tv_reg_hwm : int;
  tv_mem_words : int;
  tv_first_store : int option;
  tv_first_branch : int option;
  tv_died_at : int option;
  tv_end_distance : int option;
  tv_output_tainted : bool;
  tv_events_total : int;
  tv_spans : Trace.span list;
}

type view = {
  v_index : int;
  v_seed : int;
  v_at_step : int;
  v_outcome : string;
  v_check_uid : int option;
  v_dup_check : bool option;
  v_latency : int option;
  v_steps : int;
  v_cycles : int;
  v_checkpoints : int;
  v_recovery : recovery_view option;
  v_taint : taint_view option;
  v_inj_reg : int option;
  v_stratum : int option;
}

exception Malformed of string

let require line name = function
  | Some v -> v
  | None ->
    raise (Malformed (Printf.sprintf "line %d: missing field %S" line name))

let recovery_view_of_json ~line j =
  let need_int name =
    require line name (Option.bind (Json.member name j) Json.to_int)
  in
  { rv_detect_step = need_int "detect_step";
    rv_checkpoint_step = need_int "checkpoint_step";
    rv_replayed_steps = need_int "replayed_steps";
    rv_wasted_cycles = need_int "wasted_cycles";
    rv_rollback_cycles = need_int "rollback_cycles" }

let taint_view_of_json ~line j =
  let int_field name = Option.bind (Json.member name j) Json.to_int in
  let bool_field name = Option.bind (Json.member name j) Json.to_bool in
  { tv_seeded = require line "seeded" (bool_field "seeded");
    tv_reg_hwm = require line "reg_hwm" (int_field "reg_hwm");
    tv_mem_words = require line "mem_words" (int_field "mem_words");
    tv_first_store = int_field "first_store";
    tv_first_branch = int_field "first_branch";
    tv_died_at = int_field "died_at";
    tv_end_distance = int_field "end_distance";
    tv_output_tainted =
      require line "output_tainted" (bool_field "output_tainted");
    tv_events_total = Option.value ~default:0 (int_field "events_total");
    tv_spans =
      (match Json.member "spans" j with
       | Some (Json.List items) -> List.filter_map Trace.of_json items
       | Some _ | None -> []) }

let view_of_json ~line j =
  let int_field name = Option.bind (Json.member name j) Json.to_int in
  let need_int name = require line name (int_field name) in
  { v_index = need_int "i";
    v_seed = need_int "seed";
    v_at_step = need_int "at_step";
    v_outcome =
      require line "outcome"
        (Option.bind (Json.member "outcome" j) Json.to_str);
    v_check_uid = int_field "check_uid";
    v_dup_check = Option.bind (Json.member "dup_check" j) Json.to_bool;
    v_latency = int_field "detect_latency";
    v_steps = need_int "steps";
    v_cycles = need_int "cycles";
    (* Absent from v1 journals and recovery-free trials. *)
    v_checkpoints = Option.value ~default:0 (int_field "checkpoints");
    v_recovery =
      Option.map (recovery_view_of_json ~line) (Json.member "recovery" j);
    (* Absent from v1/v2 journals and untraced campaigns. *)
    v_taint =
      Option.map (taint_view_of_json ~line) (Json.member "taint" j);
    (* The injected register, from the nested injection record; absent
       when the trial's fault window closed before any injection. *)
    v_inj_reg =
      Option.bind (Json.member "injection" j) (fun inj ->
          Option.bind (Json.member "reg" inj) Json.to_int);
    (* v5 field, absent from older journals and uniform campaigns. *)
    v_stratum = int_field "stratum" }

(* Streaming reader: one line is parsed, folded, and dropped before the
   next is read, so a multi-gigabyte journal aggregates in constant memory
   — span-heavy v3 journals made the load-everything approach untenable. *)
let fold path ~init ~f =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let manifest = ref None in
      let acc = ref init in
      let line_no = ref 0 in
      (try
         while true do
           let line = input_line ic in
           line_no := !line_no + 1;
           if String.trim line <> "" then begin
             let j =
               try Json.parse line
               with Json.Parse_error msg ->
                 raise
                   (Malformed (Printf.sprintf "line %d: %s" !line_no msg))
             in
             match Option.bind (Json.member "type" j) Json.to_str with
             | Some "manifest" ->
               if !manifest = None then manifest := Some j
             | Some "trial" ->
               acc := f !acc (view_of_json ~line:!line_no j)
             | Some _ | None -> ()  (* forward compatibility: skip *)
           end
         done
       with End_of_file -> ());
      match !manifest with
      | None ->
        (* An empty or manifest-less file is a broken journal, not an empty
           campaign: surface it instead of aggregating nothing. *)
        raise (Malformed (Printf.sprintf "no manifest in %s" path))
      | Some m -> (m, !acc))

let load path =
  let manifest, rev = fold path ~init:[] ~f:(fun acc v -> v :: acc) in
  (manifest, List.rev rev)
