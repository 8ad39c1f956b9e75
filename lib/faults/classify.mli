(** Outcome classification of a fault-injection trial (paper §IV-C).

    The five paper categories are Masked, HWDetect, SWDetect, Failure and
    USDC; we additionally keep the ASDC/USDC split of Figure 13 and the
    large/small-disturbance split of USDCs from Figure 2. *)

type outcome =
  | Masked            (** bit-identical output *)
  | Asdc              (** numerically different but acceptable output *)
  | Usdc_large        (** unacceptable; the fault caused a large value change *)
  | Usdc_small        (** unacceptable; small value change *)
  | Sw_detect         (** caught by an inserted software check *)
  | Hw_detect         (** trap (symptom) within the detection window *)
  | Failure           (** late trap, or infinite loop (fuel exhausted) *)
  | Recovered         (** check fired, checkpoint rollback replayed cleanly
                          and the output is bit-identical (DESIGN.md §9) *)
  | Unrecoverable     (** check fired with recovery enabled, but detection
                          latency exceeded the checkpoint window — or the
                          replay still failed to reproduce the golden
                          output *)

val all : outcome list
val name : outcome -> string

(** Inverse of {!name}; [None] for unknown strings (e.g. a journal written
    by a future schema). *)
val of_name : string -> outcome option

(** A symptom within this many dynamic instructions of the flip counts as
    HWDetect (paper: 1000). *)
val default_hw_window : int

(** Was the register disturbance "large"?  Integers: moved by at least
    2^16; floats: changed by more than 4x its own magnitude or became
    non-finite; branch-target corruptions always count as large. *)
val large_disturbance : Interp.Machine.injection -> bool

(** Classify one machine run.  [identical] and [acceptable] judge the
    produced output against the fault-free golden output; they are only
    consulted when the program ran to completion. *)
val classify :
  hw_window:int ->
  result:Interp.Machine.result ->
  identical:(unit -> bool) ->
  acceptable:(unit -> bool) ->
  outcome

val is_sdc : outcome -> bool

(** The four-way grouping every join of journal outcomes against static
    coverage tallies: [`Sdc] (ASDC and both USDCs), [`Detected]
    (SWDetect, HWDetect, Recovered, Unrecoverable), [`Masked], and
    [`Other] (Failure, and any name {!of_name} does not know). *)
val group_of_name : string -> [ `Sdc | `Detected | `Masked | `Other ]
