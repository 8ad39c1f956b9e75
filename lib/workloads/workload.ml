(** The uniform interface every benchmark implements (paper Table I).

    A workload bundles the IR kernel (built fresh per protection variant,
    since passes mutate programs in place), the recipe to materialize its
    train/test input state, the output reader, and the fidelity metric with
    its acceptance threshold. *)

type input_role =
  | Train    (** used for value profiling, the offline step *)
  | Test     (** used for fault injection and overhead measurement *)

let role_name = function Train -> "train" | Test -> "test"

type t = {
  name : string;
  suite : string;        (** provenance in the paper: mediabench, mibench, ... *)
  category : string;     (** image, audio, video, computer vision, machine learning *)
  description : string;
  train_desc : string;   (** Table I column 3, first row *)
  test_desc : string;    (** Table I column 3, second row *)
  metric : Fidelity.Metric.spec;
  build : unit -> Ir.Prog.t;
  fresh_state : input_role -> Faults.Campaign.run_state;
}

(** Entry point symbol shared by all workloads. *)
let entry = "main"

(** Wrap a workload as a fault-campaign subject for a given program variant
    (the variant is built and protected by the caller). *)
let subject ?label w ~role ~prog =
  { Faults.Campaign.label =
      (match label with
       | Some l -> l
       | None -> Printf.sprintf "%s/%s" w.name (role_name role));
    prog;
    entry;
    fresh_state = (fun () -> w.fresh_state role);
    metric = w.metric }

(** Fault-free execution of a fresh build on [role]'s input; convenience for
    tests and overhead measurements. *)
let golden ?prog w ~role =
  let prog = match prog with Some p -> p | None -> w.build () in
  Faults.Campaign.golden_run (subject w ~role ~prog)

(** Value profiling on the training input (the paper's offline step).
    [role] may be overridden for the cross-validation experiment. *)
let profile ?prog ?(role = Train) w =
  let prog = match prog with Some p -> p | None -> w.build () in
  let state = w.fresh_state role in
  let p, (result : Interp.Machine.result) =
    Profiling.Value_profile.collect prog ~entry ~args:state.args
      ~mem:state.mem
  in
  (match result.stop with
   | Interp.Machine.Finished _ -> ()
   | stop ->
     failwith
       (Format.asprintf "%s: profiling run failed: %a" w.name
          Interp.Machine.pp_stop stop));
  p
