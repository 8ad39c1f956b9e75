open Ir

(** Execution tracing: capture the first values produced by a run, rendered
    against the static program.  A debugging aid for kernel authors (see
    the `trace` subcommand of bin/experiments.exe); it rides on the
    machine's profiling hook, so tracing changes nothing about execution. *)

type event = {
  ordinal : int;           (** 0-based index among traced events *)
  uid : int;               (** static instruction *)
  value : Value.t;
}

(** [first_values prog ~entry ~args ~mem ~limit] runs the program and
    returns the first [limit] values produced by value-producing
    instructions, along with the machine result.  [config] is the base
    machine configuration to extend (default {!Machine.default_config}):
    profiling, checkpointing, fault plans etc. are honoured, and a caller
    [on_def] hook is chained after the tracing one rather than dropped. *)
let first_values ?config ?(limit = 100) prog ~entry ~args ~mem =
  let base =
    match config with Some c -> c | None -> Machine.default_config
  in
  let events = ref [] in
  let count = ref 0 in
  let on_def uid value =
    if !count < limit then begin
      events := { ordinal = !count; uid; value } :: !events;
      incr count
    end;
    match base.Machine.on_def with Some f -> f uid value | None -> ()
  in
  let config = { base with Machine.on_def = Some on_def } in
  let result = Machine.run ~config prog ~entry ~args ~mem in
  (List.rev !events, result)

(** Render events with their defining instructions. *)
let render prog events =
  let instr_text = Printer.instr_text prog in
  List.map
    (fun e ->
      Printf.sprintf "%5d  %-60s -> %s" e.ordinal (instr_text e.uid)
        (Value.to_string e.value))
    events
