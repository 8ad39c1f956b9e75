(** Per-instruction SDC heatmaps; see the interface for the join. *)

type site = {
  s_func : string;
  s_block : string;
  s_uid : int;
  s_desc : string;
  s_status : string;
  s_sdc_prone : bool;
  s_total : int;
  s_sdc : int;
  s_detected : int;
  s_masked : int;
  s_other : int;
}

type t = {
  hm_label : string;
  hm_technique : string;
  hm_trials : int;
  hm_injected : int;
  hm_sites : site list;
  hm_static_fraction : float;
  hm_measured_sdc : Obs.Stats.interval;
}

(* Tally bucket addresses: a uid covers instructions and phis (the
   program-wide uid space is shared); parameters have no uid and key on
   (function, register).  The two pseudo buckets keep the accounting
   exact — every injected trial lands somewhere. *)
type key =
  | K_uid of int
  | K_param of string * int
  | K_control
  | K_unmapped

type cell = {
  mutable c_total : int;
  mutable c_sdc : int;
  mutable c_detected : int;
  mutable c_masked : int;
  mutable c_other : int;
}

let sdc_prone_status = function
  | Analysis.Coverage.Unprotected | Analysis.Coverage.Dup_unchecked -> true
  | Analysis.Coverage.Dup_checked | Analysis.Coverage.Value_checked
  | Analysis.Coverage.Shadow | Analysis.Coverage.Check ->
    false

let build ~(prog : Ir.Prog.t) ~(cov : Analysis.Coverage.t) ~label ~technique
    ~manifest views =
  (* Register -> defining site, program-wide.  SSA plus program-wide
     register numbering make this total and unambiguous; first definition
     wins defensively. *)
  let site_of_reg = Hashtbl.create 256 in
  List.iter
    (fun (f : Ir.Func.t) ->
      let ud = Analysis.Usedef.compute f in
      Hashtbl.iter
        (fun reg def ->
          if not (Hashtbl.mem site_of_reg reg) then
            Hashtbl.replace site_of_reg reg
              (match def with
               | Analysis.Usedef.Param -> K_param (f.Ir.Func.name, reg)
               | Analysis.Usedef.Phi_def (_, phi) ->
                 K_uid phi.Ir.Instr.phi_uid
               | Analysis.Usedef.Instr_def (_, ins) ->
                 K_uid ins.Ir.Instr.uid))
        ud.Analysis.Usedef.defs)
    prog.Ir.Prog.funcs;
  let cells = Hashtbl.create 256 in
  let cell key =
    match Hashtbl.find_opt cells key with
    | Some c -> c
    | None ->
      let c =
        { c_total = 0; c_sdc = 0; c_detected = 0; c_masked = 0; c_other = 0 }
      in
      Hashtbl.replace cells key c;
      c
  in
  let trials = ref 0 and injected = ref 0 and sdc_trials = ref 0 in
  List.iter
    (fun (v : Faults.Journal.view) ->
      incr trials;
      let cls = Faults.Classify.group_of_name v.Faults.Journal.v_outcome in
      if cls = `Sdc then incr sdc_trials;
      match v.Faults.Journal.v_inj_reg with
      | None -> ()   (* empty-ring draw: nothing was injected *)
      | Some reg ->
        incr injected;
        let key =
          if reg < 0 then K_control
          else
            match Hashtbl.find_opt site_of_reg reg with
            | Some k -> k
            | None -> K_unmapped
        in
        let c = cell key in
        c.c_total <- c.c_total + 1;
        (match cls with
         | `Sdc -> c.c_sdc <- c.c_sdc + 1
         | `Detected -> c.c_detected <- c.c_detected + 1
         | `Masked -> c.c_masked <- c.c_masked + 1
         | `Other -> c.c_other <- c.c_other + 1))
    views;
  (* Static status lookups for the side-by-side column. *)
  let status_of_uid = Hashtbl.create 256 in
  List.iter
    (fun (r : Analysis.Coverage.instr_row) ->
      if not (Hashtbl.mem status_of_uid r.Analysis.Coverage.i_uid) then
        Hashtbl.replace status_of_uid r.Analysis.Coverage.i_uid
          r.Analysis.Coverage.i_status)
    cov.Analysis.Coverage.instrs;
  let status_of_reg = Analysis.Coverage.reg_status cov in
  let counts_of key =
    match Hashtbl.find_opt cells key with
    | Some c -> (c.c_total, c.c_sdc, c.c_detected, c.c_masked, c.c_other)
    | None -> (0, 0, 0, 0, 0)
  in
  let mk ~func ~block ~uid ~desc ~status key =
    let total, sdc, detected, masked, other = counts_of key in
    let status_name, prone =
      match status with
      | Some st ->
        (Analysis.Coverage.status_name st, sdc_prone_status st)
      | None -> ("—", false)
    in
    { s_func = func;
      s_block = block;
      s_uid = uid;
      s_desc = desc;
      s_status = status_name;
      s_sdc_prone = prone;
      s_total = total;
      s_sdc = sdc;
      s_detected = detected;
      s_masked = masked;
      s_other = other }
  in
  let sites = ref [] in
  let push s = sites := s :: !sites in
  List.iter
    (fun (f : Ir.Func.t) ->
      let fname = f.Ir.Func.name in
      List.iter
        (fun reg ->
          push
            (mk ~func:fname ~block:"" ~uid:(-1)
               ~desc:(Printf.sprintf "param %%r%d" reg)
               ~status:(status_of_reg reg)
               (K_param (fname, reg))))
        f.Ir.Func.params;
      List.iter
        (fun (b : Ir.Block.t) ->
          let bl = b.Ir.Block.label in
          List.iter
            (fun (phi : Ir.Instr.phi) ->
              push
                (mk ~func:fname ~block:bl ~uid:phi.Ir.Instr.phi_uid
                   ~desc:
                     (Format.asprintf "%%r%d = phi" phi.Ir.Instr.phi_dest)
                   ~status:(Hashtbl.find_opt status_of_uid
                              phi.Ir.Instr.phi_uid)
                   (K_uid phi.Ir.Instr.phi_uid)))
            b.Ir.Block.phis;
          Array.iter
            (fun (ins : Ir.Instr.t) ->
              let desc =
                match ins.Ir.Instr.dest with
                | Some r ->
                  Format.asprintf "%%r%d = %a" r Ir.Printer.pp_kind
                    ins.Ir.Instr.kind
                | None ->
                  Format.asprintf "%a" Ir.Printer.pp_kind ins.Ir.Instr.kind
              in
              push
                (mk ~func:fname ~block:bl ~uid:ins.Ir.Instr.uid ~desc
                   ~status:(Hashtbl.find_opt status_of_uid ins.Ir.Instr.uid)
                   (K_uid ins.Ir.Instr.uid)))
            b.Ir.Block.body)
        f.Ir.Func.blocks)
    prog.Ir.Prog.funcs;
  let pseudo name key =
    let total, _, _, _, _ = counts_of key in
    if total = 0 then ()
    else push (mk ~func:"" ~block:"" ~uid:(-1) ~desc:name ~status:None key)
  in
  pseudo "(control faults)" K_control;
  pseudo "(unmapped)" K_unmapped;
  { hm_label = label;
    hm_technique = technique;
    hm_trials = !trials;
    hm_injected = !injected;
    hm_sites = List.rev !sites;
    hm_static_fraction = cov.Analysis.Coverage.sdc_prone_fraction;
    hm_measured_sdc = Store.sdc_interval manifest ~k:!sdc_trials ~n:!trials }

(* ------------------------------------------------------------------ *)
(* CSV                                                                 *)
(* ------------------------------------------------------------------ *)

let to_csv t =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf
    "func,block,uid,site,status,sdc_prone,injections,sdc,detected,masked,other\n";
  List.iter
    (fun s ->
      Buffer.add_string buf
        (Obs.Csv.row
           [ s.s_func;
             s.s_block;
             string_of_int s.s_uid;
             String.trim s.s_desc;
             s.s_status;
             string_of_bool s.s_sdc_prone;
             string_of_int s.s_total;
             string_of_int s.s_sdc;
             string_of_int s.s_detected;
             string_of_int s.s_masked;
             string_of_int s.s_other ]);
      Buffer.add_char buf '\n')
    t.hm_sites;
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* HTML                                                                *)
(* ------------------------------------------------------------------ *)

let html_escape s =
  let buf = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '&' -> Buffer.add_string buf "&amp;"
      | '<' -> Buffer.add_string buf "&lt;"
      | '>' -> Buffer.add_string buf "&gt;"
      | '"' -> Buffer.add_string buf "&quot;"
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

(* Sequential single-hue ramp (light #f7fbff -> dark #08519c), the
   magnitude encoding for injection density; SDC counts are text in a
   reserved red and never color alone — the numbers are always printed. *)
let ramp_color frac =
  let lerp a b t = int_of_float (float_of_int a +. ((float_of_int b -. float_of_int a) *. t)) in
  (* sqrt stretch: campaign injections are residency-weighted, so a few
     hot sites would otherwise wash every other row to white *)
  let u = sqrt (Float.max 0.0 (Float.min 1.0 frac)) in
  Printf.sprintf "#%02x%02x%02x" (lerp 0xf7 0x08 u) (lerp 0xfb 0x51 u)
    (lerp 0xff 0x9c u)

let to_html t =
  let buf = Buffer.create 16384 in
  let add = Buffer.add_string buf in
  let max_total =
    List.fold_left (fun m s -> max m s.s_total) 1 t.hm_sites
  in
  let title =
    Printf.sprintf "SDC heatmap — %s (%s)" t.hm_label t.hm_technique
  in
  add "<!DOCTYPE html>\n<html lang=\"en\">\n<head>\n<meta charset=\"utf-8\">\n";
  add (Printf.sprintf "<title>%s</title>\n" (html_escape title));
  add
    {|<style>
body { font-family: system-ui, sans-serif; margin: 24px; color: #1a1a1a; }
h1 { font-size: 18px; }
p.summary { color: #555; max-width: 64em; }
table { border-collapse: collapse; font-size: 13px; }
th { text-align: left; font-weight: 600; color: #555; padding: 4px 10px;
     border-bottom: 1px solid #ccc; position: sticky; top: 0; background: #fff; }
td { padding: 3px 10px; border-bottom: 1px solid #eee; }
td.num { text-align: right; font-variant-numeric: tabular-nums; }
td.code { font-family: ui-monospace, monospace; white-space: pre; }
tr.blockhdr td { background: #f2f2f2; font-weight: 600; color: #333; }
td.inj { text-align: right; font-variant-numeric: tabular-nums; }
span.sdc { color: #b2182b; font-weight: 600; }
span.prone { color: #b2182b; }
.legend { margin: 12px 0; font-size: 12px; color: #555; }
.legend span.swatch { display: inline-block; width: 28px; height: 12px;
  margin-right: 2px; vertical-align: middle; border: 1px solid #ddd; }
</style>
</head>
<body>
|};
  add (Printf.sprintf "<h1>%s</h1>\n" (html_escape title));
  add
    (Printf.sprintf
       "<p class=\"summary\">%d trials, %d injected. Static SDC-prone \
        fraction %.1f%% vs measured SDC rate %.1f%% [%.1f, %.1f] \
        (Wilson 95%%). Each row is one instruction; the <em>inj</em> \
        column is shaded light&rarr;dark by injection count, and the \
        outcome split is printed as numbers beside it.</p>\n"
       t.hm_trials t.hm_injected
       (100.0 *. t.hm_static_fraction)
       (100.0 *. t.hm_measured_sdc.Obs.Stats.ci_estimate)
       (100.0 *. t.hm_measured_sdc.Obs.Stats.ci_low)
       (100.0 *. t.hm_measured_sdc.Obs.Stats.ci_high));
  add "<div class=\"legend\">injections: ";
  List.iter
    (fun f ->
      add
        (Printf.sprintf "<span class=\"swatch\" style=\"background:%s\"></span>"
           (ramp_color f)))
    [ 0.0; 0.04; 0.16; 0.36; 0.64; 1.0 ];
  add
    (Printf.sprintf
       " 0&rarr;%d &nbsp;&middot;&nbsp; <span class=\"sdc\">SDC</span> \
        counts in red &nbsp;&middot;&nbsp; &#9888; = statically \
        SDC-prone</div>\n"
       max_total);
  add
    "<table>\n<thead><tr><th>site</th><th>static status</th>\
     <th>inj</th><th>SDC</th><th>det</th><th>mask</th><th>other</th>\
     </tr></thead>\n<tbody>\n";
  let current_block = ref None in
  List.iter
    (fun s ->
      let blk =
        if s.s_func = "" then None else Some (s.s_func, s.s_block)
      in
      if blk <> !current_block then begin
        current_block := blk;
        match blk with
        | Some (f, b) ->
          add
            (Printf.sprintf
               "<tr class=\"blockhdr\"><td colspan=\"7\">@%s%s</td></tr>\n"
               (html_escape f)
               (if b = "" then " (params)"
                else Printf.sprintf " / %s:" (html_escape b)))
        | None ->
          add
            "<tr class=\"blockhdr\"><td colspan=\"7\">pseudo sites</td></tr>\n"
      end;
      let shade =
        ramp_color (float_of_int s.s_total /. float_of_int max_total)
      in
      let ink = if s.s_total * 3 > max_total then "#fff" else "#1a1a1a" in
      add
        (Printf.sprintf
           "<tr><td class=\"code\">%s</td><td>%s%s</td>\
            <td class=\"inj\" style=\"background:%s;color:%s\" \
            title=\"%d of %d injections\">%d</td>\
            <td class=\"num\">%s</td><td class=\"num\">%d</td>\
            <td class=\"num\">%d</td><td class=\"num\">%d</td></tr>\n"
           (html_escape (String.trim s.s_desc))
           (html_escape s.s_status)
           (if s.s_sdc_prone then " <span class=\"prone\">&#9888;</span>"
            else "")
           shade ink s.s_total t.hm_injected s.s_total
           (if s.s_sdc > 0 then
              Printf.sprintf "<span class=\"sdc\">%d</span>" s.s_sdc
            else "0")
           s.s_detected s.s_masked s.s_other))
    t.hm_sites;
  add "</tbody>\n</table>\n</body>\n</html>\n";
  Buffer.contents buf
