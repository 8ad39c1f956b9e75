(** Content-addressed campaign store; see the interface for the layout. *)

let schema = "softft.warehouse.v1"

let prog_digest prog =
  Digest.to_hex (Digest.string (Ir.Printer.prog_to_string prog))

(* ------------------------------------------------------------------ *)
(* Run keys                                                            *)
(* ------------------------------------------------------------------ *)

let mstr name m =
  match Obs.Json.member name m with
  | Some j -> Option.value ~default:"" (Obs.Json.to_str j)
  | None -> ""

let mint ?(default = 0) name m =
  match Obs.Json.member name m with
  | Some j -> Option.value ~default (Obs.Json.to_int j)
  | None -> default

let mbool name m =
  match Obs.Json.member name m with
  | Some j -> Option.value ~default:false (Obs.Json.to_bool j)
  | None -> false

(* Everything that determines the trials goes in; everything that only
   describes the circumstances of the run (domains, git, timings, host)
   stays out — the campaign determinism contract makes the former a
   complete address and the latter noise. *)
let run_key ?prog_digest manifest =
  let adaptive_tag =
    match Obs.Json.member "adaptive" manifest with
    | None -> "-"
    | Some a ->
      (match Obs.Json.member "ci_target" a with
       | Some (Obs.Json.Float f) -> Printf.sprintf "%.6g" f
       | Some (Obs.Json.Int i) -> string_of_int i
       | _ -> "?")
  in
  (* The protection plan (when the run executed one) is part of the run's
     identity: two plans with the same label shape must not collide. *)
  let plan_tag =
    match Obs.Json.member "plan" manifest with
    | None -> "-"
    | Some p -> Digest.to_hex (Digest.string (Obs.Json.to_string p))
  in
  let identity =
    String.concat "|"
      [ "softft.runkey.v2";
        "prog=" ^ Option.value ~default:"-" prog_digest;
        "label=" ^ mstr "label" manifest;
        "tech=" ^ mstr "technique" manifest;
        "fault=" ^ mstr "fault_kind" manifest;
        "hw=" ^ string_of_int (mint "hw_window" manifest);
        "ckpt=" ^ string_of_int (mint "checkpoint_interval" manifest);
        "taint=" ^ string_of_bool (mbool "taint_trace" manifest);
        "seed=" ^ string_of_int (mint "seed" manifest);
        "trials=" ^ string_of_int (mint "trials" manifest);
        "adaptive=" ^ adaptive_tag;
        "plan=" ^ plan_tag ]
  in
  Digest.to_hex (Digest.string identity)

(* ------------------------------------------------------------------ *)
(* Index records                                                       *)
(* ------------------------------------------------------------------ *)

type entry = {
  e_seq : int;
  e_key : string;
  e_label : string;
  e_technique : string option;
  e_journal_schema : string;
  e_git : string;
  e_prog_digest : string option;
  e_trials : int;
  e_seed : int;
  e_domains : int;
  e_hw_window : int;
  e_fault_kind : string;
  e_checkpoint_interval : int;
  e_taint_trace : bool;
  e_ci_target : float option;
  e_path : string;
  e_host : string;
  e_host_cores : int;
  e_ingested_at : float;
  e_trials_per_sec : float option;
  e_counts : (string * int) list;
  e_sdc : Obs.Stats.interval;
}

let index_path dir = Filename.concat dir "index.jsonl"

let opt_field name f = function None -> [] | Some v -> [ (name, f v) ]

let interval_json (iv : Obs.Stats.interval) =
  Obs.Json.Obj
    [ ("est", Obs.Json.Float iv.ci_estimate);
      ("lo", Obs.Json.Float iv.ci_low);
      ("hi", Obs.Json.Float iv.ci_high) ]

let interval_of_json j =
  let f name =
    match Obs.Json.member name j with
    | Some v -> Option.value ~default:0.0 (Obs.Json.to_float v)
    | None -> 0.0
  in
  { Obs.Stats.ci_estimate = f "est"; ci_low = f "lo"; ci_high = f "hi" }

let entry_json e =
  Obs.Json.Obj
    ([ ("type", Obs.Json.Str "run");
       ("schema", Obs.Json.Str schema);
       ("seq", Obs.Json.Int e.e_seq);
       ("key", Obs.Json.Str e.e_key);
       ("label", Obs.Json.Str e.e_label) ]
     @ opt_field "technique" (fun t -> Obs.Json.Str t) e.e_technique
     @ [ ("journal_schema", Obs.Json.Str e.e_journal_schema);
         ("git", Obs.Json.Str e.e_git) ]
     @ opt_field "prog_digest" (fun d -> Obs.Json.Str d) e.e_prog_digest
     @ [ ("trials", Obs.Json.Int e.e_trials);
         ("seed", Obs.Json.Int e.e_seed);
         ("domains", Obs.Json.Int e.e_domains);
         ("hw_window", Obs.Json.Int e.e_hw_window);
         ("fault_kind", Obs.Json.Str e.e_fault_kind);
         ("checkpoint_interval", Obs.Json.Int e.e_checkpoint_interval);
         ("taint_trace", Obs.Json.Bool e.e_taint_trace) ]
     @ opt_field "ci_target" (fun c -> Obs.Json.Float c) e.e_ci_target
     @ [ ("path", Obs.Json.Str e.e_path);
         ("host", Obs.Json.Str e.e_host);
         ("host_cores", Obs.Json.Int e.e_host_cores);
         ("ingested_at", Obs.Json.Float e.e_ingested_at) ]
     @ opt_field "trials_per_sec" (fun t -> Obs.Json.Float t)
         e.e_trials_per_sec
     @ [ ("counts",
          Obs.Json.Obj
            (List.map (fun (o, k) -> (o, Obs.Json.Int k)) e.e_counts));
         ("sdc", interval_json e.e_sdc) ])

let entry_of_json j =
  let str name = mstr name j in
  let opt_str name =
    match Obs.Json.member name j with
    | Some v -> Obs.Json.to_str v
    | None -> None
  in
  let opt_float name =
    match Obs.Json.member name j with
    | Some v -> Obs.Json.to_float v
    | None -> None
  in
  { e_seq = mint "seq" j;
    e_key = str "key";
    e_label = str "label";
    e_technique = opt_str "technique";
    e_journal_schema = str "journal_schema";
    e_git = str "git";
    e_prog_digest = opt_str "prog_digest";
    e_trials = mint "trials" j;
    e_seed = mint "seed" j;
    e_domains = mint "domains" j;
    e_hw_window = mint "hw_window" j;
    e_fault_kind = str "fault_kind";
    e_checkpoint_interval = mint "checkpoint_interval" j;
    e_taint_trace = mbool "taint_trace" j;
    e_ci_target = opt_float "ci_target";
    e_path = str "path";
    e_host = str "host";
    e_host_cores = mint "host_cores" j;
    e_ingested_at = Option.value ~default:0.0 (opt_float "ingested_at");
    e_trials_per_sec = opt_float "trials_per_sec";
    e_counts =
      (match Obs.Json.member "counts" j with
       | Some (Obs.Json.Obj fields) ->
         List.filter_map
           (fun (o, v) -> Option.map (fun k -> (o, k)) (Obs.Json.to_int v))
           fields
       | _ -> []);
    e_sdc =
      (match Obs.Json.member "sdc" j with
       | Some iv -> interval_of_json iv
       | None -> Obs.Stats.wilson ~k:0 ~n:0) }

(* Paths whose torn last line has been reported, so a command that reads
   the index several times warns once. *)
let torn_warned = Hashtbl.create 4
let torn_lock = Mutex.create ()

(* An index is appended one whole line at a time, so only its last line
   can be cut short (a crash mid-append); it has no trailing newline and
   is skipped with a warning.  A line that does not parse anywhere else
   is corruption, reported as [PATH:LINE:]. *)
let index_lines_of_file path =
  if not (Sys.file_exists path) then []
  else begin
    let text = In_channel.with_open_bin path In_channel.input_all in
    let lines = String.split_on_char '\n' text in
    let last = List.length lines in
    List.concat
      (List.mapi
         (fun i line ->
           if line = "" then []
           else if i + 1 = last then begin
             Mutex.protect torn_lock (fun () ->
               if not (Hashtbl.mem torn_warned path) then begin
                 Hashtbl.replace torn_warned path ();
                 prerr_endline
                   (Printf.sprintf
                      "warning: %s:%d: skipping a torn last line (no \
                       trailing newline)"
                      path last)
               end);
             []
           end
           else
             match Obs.Json.parse line with
             | j -> [ j ]
             | exception Obs.Json.Parse_error msg ->
               failwith
                 (Printf.sprintf "%s:%d: malformed index line: %s" path (i + 1)
                    msg))
         lines)
  end

let index_lines dir = index_lines_of_file (index_path dir)

(* Run records only: indexes written by older versions may also hold
   "bench" records, which are skipped (but still counted by [next_seq]). *)
let entries_of_file path =
  List.map entry_of_json
    (List.filter (fun j -> mstr "type" j = "run") (index_lines_of_file path))

let entries ~dir = entries_of_file (index_path dir)

let next_seq lines =
  1 + List.fold_left (fun m j -> max m (mint "seq" j)) 0 lines

let rec mkdir_p dir =
  if dir <> "" && dir <> "/" && dir <> "." && not (Sys.file_exists dir)
  then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755
    with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

(* Does the file end in anything but a newline (a torn last line)? *)
let ends_torn path =
  Sys.file_exists path
  && In_channel.with_open_bin path (fun ic ->
       let len = In_channel.length ic in
       len > 0L
       && begin
         In_channel.seek ic (Int64.pred len);
         In_channel.input_char ic <> Some '\n'
       end)

(* A record after a torn last line starts on a line of its own: the torn
   piece then stands alone, and loaders name it by line number. *)
let append_index dir json =
  mkdir_p dir;
  let path = index_path dir in
  let torn = ends_torn path in
  let oc = open_out_gen [ Open_append; Open_creat ] 0o644 path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      if torn then output_char oc '\n';
      output_string oc (Obs.Json.to_string json);
      output_char oc '\n')

(* ------------------------------------------------------------------ *)
(* Summarizing a journal into an index record                          *)
(* ------------------------------------------------------------------ *)

let outcome_rank =
  let ranks = Hashtbl.create 16 in
  List.iteri
    (fun i o -> Hashtbl.replace ranks (Faults.Classify.name o) i)
    Faults.Classify.all;
  fun name ->
    match Hashtbl.find_opt ranks name with
    | Some i -> (i, name)
    | None -> (max_int, name)   (* future outcomes sort last, by name *)

(* A name -> count table as a list in outcome order. *)
let sorted_counts tbl =
  List.sort (fun (a, _) (b, _) -> compare (outcome_rank a) (outcome_rank b))
    (Hashtbl.fold (fun o k acc -> (o, k) :: acc) tbl [])

let is_sdc_name name =
  match Faults.Classify.of_name name with
  | Some o -> Faults.Classify.is_sdc o
  | None -> false

(* One pass over a journal's trial records: its manifest, the trial count,
   trials per outcome name and, per adaptive stratum, (trials, SDC trials).
   Counts come from the records themselves, not the manifest, so v1
   journals (no final stats) tally identically to v4+ ones. *)
let tally_journal path =
  let counts = Hashtbl.create 16 in
  let strata = Hashtbl.create 8 in
  let manifest, n =
    Faults.Journal.fold path ~init:0 ~f:(fun n v ->
      let o = v.Faults.Journal.v_outcome in
      Hashtbl.replace counts o
        (1 + Option.value ~default:0 (Hashtbl.find_opt counts o));
      (match v.Faults.Journal.v_stratum with
       | Some s ->
         let sn, sk =
           Option.value ~default:(0, 0) (Hashtbl.find_opt strata s)
         in
         Hashtbl.replace strata s
           (sn + 1, if is_sdc_name o then sk + 1 else sk)
       | None -> ());
      n + 1)
  in
  (manifest, n, counts, strata)

(* An adaptive (v5) run's mass-reweighted SDC interval, as JSON. *)
let adaptive_sdc manifest =
  Option.bind (Obs.Json.member "adaptive" manifest) (Obs.Json.member "sdc")

let sdc_interval manifest ~k ~n =
  (* The adaptive mass-reweighted interval is the honest one on v5 runs
     (raw stratified counts are allocation-biased); elsewhere plain
     Wilson on the pooled counts. *)
  match adaptive_sdc manifest with
  | Some iv -> interval_of_json iv
  | None -> Obs.Stats.wilson ~k ~n

let sdc_count_of counts =
  List.fold_left
    (fun acc (o, k) -> if is_sdc_name o then acc + k else acc)
    0 counts

let entry_of_manifest ?prog_digest ~key ~seq ~path ~n ~counts manifest =
  let trials_per_sec =
    match Obs.Json.member "timings" manifest with
    | Some t ->
      (match Obs.Json.member "trials_sec" t with
       | Some s ->
         (match Obs.Json.to_float s with
          | Some sec when sec > 0.0 -> Some (float_of_int n /. sec)
          | _ -> None)
       | None -> None)
    | None -> None
  in
  let opt_str name =
    match Obs.Json.member name manifest with
    | Some v -> Obs.Json.to_str v
    | None -> None
  in
  { e_seq = seq;
    e_key = key;
    e_label = mstr "label" manifest;
    e_technique = opt_str "technique";
    e_journal_schema = mstr "schema" manifest;
    e_git = mstr "git" manifest;
    e_prog_digest = prog_digest;
    e_trials = n;
    e_seed = mint "seed" manifest;
    e_domains = mint "domains" manifest;
    e_hw_window = mint "hw_window" manifest;
    e_fault_kind = mstr "fault_kind" manifest;
    e_checkpoint_interval = mint "checkpoint_interval" manifest;
    e_taint_trace = mbool "taint_trace" manifest;
    e_ci_target =
      (match Obs.Json.member "adaptive" manifest with
       | Some a ->
         (match Obs.Json.member "ci_target" a with
          | Some v -> Obs.Json.to_float v
          | None -> None)
       | None -> None);
    e_path = path;
    e_host = Unix.gethostname ();
    e_host_cores = Domain.recommended_domain_count ();
    e_ingested_at = Unix.gettimeofday ();
    e_trials_per_sec = trials_per_sec;
    e_counts = counts;
    e_sdc = sdc_interval manifest ~k:(sdc_count_of counts) ~n }

(* ------------------------------------------------------------------ *)
(* Ingestion                                                           *)
(* ------------------------------------------------------------------ *)

let copy_file src dst =
  let ic = open_in_bin src in
  let len = in_channel_length ic in
  let bytes =
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> really_input_string ic len)
  in
  Faults.Journal.replace_file ~path:dst (fun oc -> output_string oc bytes)

let find_key dir key =
  List.find_opt (fun e -> e.e_key = key) (entries ~dir)

(* Filing processes take turns on an exclusive lock of [index.lock]: the
   duplicate-key check, the seq and the index append must see no other
   filer in between, or one key is filed twice, one seq handed out twice,
   or two records' bytes interleave.  The lock is per process (fcntl), and
   closing the descriptor releases it. *)
let with_filing_lock dir f =
  mkdir_p dir;
  let fd =
    Unix.openfile (Filename.concat dir "index.lock")
      [ Unix.O_RDWR; Unix.O_CREAT; Unix.O_CLOEXEC ] 0o644
  in
  Fun.protect
    ~finally:(fun () -> Unix.close fd)
    (fun () ->
      Unix.lockf fd Unix.F_LOCK 0;
      f ())

let file_indexed ?prog_digest ~dir ~manifest ~n ~counts write_journal =
  let key = run_key ?prog_digest manifest in
  with_filing_lock dir (fun () ->
    match find_key dir key with
    | Some e -> `Duplicate e
    | None ->
      let rel = Filename.concat "runs" (key ^ ".jsonl") in
      mkdir_p (Filename.concat dir "runs");
      write_journal (Filename.concat dir rel);
      let seq = next_seq (index_lines dir) in
      let e =
        entry_of_manifest ?prog_digest ~key ~seq ~path:rel ~n ~counts manifest
      in
      append_index dir (entry_json e);
      `Ingested e)

let ingest ?prog_digest ~dir path =
  let manifest, n, counts, _ = tally_journal path in
  let counts = sorted_counts counts in
  file_indexed ?prog_digest ~dir ~manifest ~n ~counts (fun dst ->
    copy_file path dst)

let file_run ?prog_digest ~dir ~manifest ~trials () =
  let counts = Hashtbl.create 16 in
  List.iter
    (fun (t : Faults.Campaign.trial) ->
      let o = Faults.Classify.name t.outcome in
      Hashtbl.replace counts o
        (1 + Option.value ~default:0 (Hashtbl.find_opt counts o)))
    trials;
  let counts = sorted_counts counts in
  file_indexed ?prog_digest ~dir ~manifest ~n:(List.length trials) ~counts
    (fun dst -> Faults.Journal.write ~path:dst ~manifest ~trials ())

let resolve ?dir arg =
  if Sys.file_exists arg then arg
  else
    match dir with
    | None ->
      failwith
        (Printf.sprintf
           "%s: no such file (pass --warehouse DIR to resolve run keys)" arg)
    | Some dir ->
      let matches =
        List.filter
          (fun e ->
            String.length arg > 0
            && String.length e.e_key >= String.length arg
            && String.sub e.e_key 0 (String.length arg) = arg)
          (entries ~dir)
      in
      (match matches with
       | [ e ] -> Filename.concat dir e.e_path
       | [] ->
         failwith
           (Printf.sprintf "%s: neither a file nor a run key in %s" arg dir)
       | _ :: _ :: _ ->
         failwith
           (Printf.sprintf "%s: ambiguous key prefix in %s (%d matches)" arg
              dir (List.length matches)))

(* ------------------------------------------------------------------ *)
(* Cross-run diffing                                                   *)
(* ------------------------------------------------------------------ *)

type diff_row = {
  dr_name : string;
  dr_old_k : int;
  dr_old_n : int;
  dr_old : Obs.Stats.interval;
  dr_new_k : int;
  dr_new_n : int;
  dr_new : Obs.Stats.interval;
  dr_significant : bool;
}

type diff = {
  df_old : string;
  df_new : string;
  df_outcomes : diff_row list;
  df_sdc : diff_row;
  df_reweighted : bool;
  df_strata : diff_row list;
}

let diff_row ~name ~old_k ~old_n ~new_k ~new_n =
  let old_iv = Obs.Stats.wilson ~k:old_k ~n:old_n in
  let new_iv = Obs.Stats.wilson ~k:new_k ~n:new_n in
  { dr_name = name;
    dr_old_k = old_k;
    dr_old_n = old_n;
    dr_old = old_iv;
    dr_new_k = new_k;
    dr_new_n = new_n;
    dr_new = new_iv;
    dr_significant = Obs.Stats.disjoint old_iv new_iv }

let diff_runs ~old_path ~new_path =
  let old_m, old_n, old_counts, old_strata = tally_journal old_path in
  let new_m, new_n, new_counts, new_strata = tally_journal new_path in
  let get tbl o = Option.value ~default:0 (Hashtbl.find_opt tbl o) in
  let names =
    let all = Hashtbl.create 16 in
    Hashtbl.iter (fun o _ -> Hashtbl.replace all o ()) old_counts;
    Hashtbl.iter (fun o _ -> Hashtbl.replace all o ()) new_counts;
    List.sort
      (fun a b -> compare (outcome_rank a) (outcome_rank b))
      (Hashtbl.fold (fun o () acc -> o :: acc) all [])
  in
  let outcomes =
    List.map
      (fun o ->
        diff_row ~name:o ~old_k:(get old_counts o) ~old_n
          ~new_k:(get new_counts o) ~new_n)
      names
  in
  (* An adaptive run's SDC rate is its mass-reweighted interval, as in
     the index and the regression gate. *)
  let sdc =
    let old_k = sdc_count_of (sorted_counts old_counts) in
    let new_k = sdc_count_of (sorted_counts new_counts) in
    let old_iv = sdc_interval old_m ~k:old_k ~n:old_n in
    let new_iv = sdc_interval new_m ~k:new_k ~n:new_n in
    { (diff_row ~name:"SDC" ~old_k ~old_n ~new_k ~new_n) with
      dr_old = old_iv;
      dr_new = new_iv;
      dr_significant = Obs.Stats.disjoint old_iv new_iv }
  in
  let strata =
    if Hashtbl.length old_strata = 0 || Hashtbl.length new_strata = 0 then []
    else begin
      let ids = Hashtbl.create 8 in
      Hashtbl.iter (fun s _ -> Hashtbl.replace ids s ()) old_strata;
      Hashtbl.iter (fun s _ -> Hashtbl.replace ids s ()) new_strata;
      List.map
        (fun s ->
          let old_sn, old_sk =
            Option.value ~default:(0, 0) (Hashtbl.find_opt old_strata s)
          in
          let new_sn, new_sk =
            Option.value ~default:(0, 0) (Hashtbl.find_opt new_strata s)
          in
          diff_row
            ~name:(Printf.sprintf "stratum %d SDC" s)
            ~old_k:old_sk ~old_n:old_sn ~new_k:new_sk ~new_n:new_sn)
        (List.sort compare (Hashtbl.fold (fun s () acc -> s :: acc) ids []))
    end
  in
  { df_old = old_path;
    df_new = new_path;
    df_outcomes = outcomes;
    df_sdc = sdc;
    df_reweighted =
      Option.is_some (adaptive_sdc old_m)
      || Option.is_some (adaptive_sdc new_m);
    df_strata = strata }

(* ------------------------------------------------------------------ *)
(* The regression gate                                                 *)
(* ------------------------------------------------------------------ *)

type regress_row = {
  rg_identity : string;
  rg_old : entry;
  rg_new : entry;
  rg_sdc : diff_row;
  rg_regressed : bool;
  rg_improved : bool;
}

type regress = {
  rx_rows : regress_row list;
  rx_only_old : entry list;
  rx_only_new : entry list;
  rx_failures : string list;
}

(* The configuration identity deliberately excludes seed, trials and the
   program digest: a new baseline run with more trials, or a code change
   that altered the protected program, is exactly what the gate must
   still compare — Wilson intervals absorb the count difference. *)
let identity e =
  String.concat " "
    [ e.e_label;
      Option.value ~default:"-" e.e_technique;
      e.e_fault_kind;
      "hw=" ^ string_of_int e.e_hw_window;
      "ckpt=" ^ string_of_int e.e_checkpoint_interval;
      "taint=" ^ string_of_bool e.e_taint_trace ]

let latest_per_identity es =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun e ->
      let id = identity e in
      match Hashtbl.find_opt tbl id with
      | Some prev when prev.e_seq >= e.e_seq -> ()
      | _ -> Hashtbl.replace tbl id e)
    es;
  tbl


let regress ~baseline ~current =
  let old_tbl = latest_per_identity baseline in
  let new_tbl = latest_per_identity current in
  let rows = ref [] and failures = ref [] in
  let only_old = ref [] and only_new = ref [] in
  Hashtbl.iter
    (fun id old_e ->
      match Hashtbl.find_opt new_tbl id with
      | None -> only_old := old_e :: !only_old
      | Some new_e ->
        (* Adaptive runs carry their mass-reweighted interval in the
           index; pooled Wilson would be allocation-biased, so compare
           the stored intervals and only fall back to recomputation for
           plain runs (where both agree). *)
        let sdc =
          let row =
            diff_row ~name:"SDC" ~old_k:(sdc_count_of old_e.e_counts)
              ~old_n:old_e.e_trials ~new_k:(sdc_count_of new_e.e_counts)
              ~new_n:new_e.e_trials
          in
          if old_e.e_ci_target = None && new_e.e_ci_target = None then row
          else
            { row with
              dr_old = old_e.e_sdc;
              dr_new = new_e.e_sdc;
              dr_significant = Obs.Stats.disjoint old_e.e_sdc new_e.e_sdc }
        in
        let regressed =
          sdc.dr_significant
          && sdc.dr_new.ci_estimate > sdc.dr_old.ci_estimate
        in
        let improved =
          sdc.dr_significant
          && sdc.dr_new.ci_estimate < sdc.dr_old.ci_estimate
        in
        if regressed then
          failures :=
            Printf.sprintf
              "%s: SDC rate regressed %.2f%% [%.2f, %.2f] -> %.2f%% [%.2f, %.2f] (disjoint 95%% intervals)"
              id
              (100.0 *. sdc.dr_old.ci_estimate)
              (100.0 *. sdc.dr_old.ci_low)
              (100.0 *. sdc.dr_old.ci_high)
              (100.0 *. sdc.dr_new.ci_estimate)
              (100.0 *. sdc.dr_new.ci_low)
              (100.0 *. sdc.dr_new.ci_high)
            :: !failures;
        rows :=
          { rg_identity = id;
            rg_old = old_e;
            rg_new = new_e;
            rg_sdc = sdc;
            rg_regressed = regressed;
            rg_improved = improved }
          :: !rows)
    old_tbl;
  Hashtbl.iter
    (fun id new_e ->
      if not (Hashtbl.mem old_tbl id) then only_new := new_e :: !only_new)
    new_tbl;
  { rx_rows =
      List.sort (fun a b -> compare a.rg_identity b.rg_identity) !rows;
    rx_only_old =
      List.sort (fun a b -> compare a.e_seq b.e_seq) !only_old;
    rx_only_new =
      List.sort (fun a b -> compare a.e_seq b.e_seq) !only_new;
    rx_failures = List.rev !failures }
