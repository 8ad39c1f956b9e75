(** Outcome classification of a fault-injection trial (paper §IV-C).

    The five paper categories are Masked, HWDetect, SWDetect, Failure and
    USDC; we additionally keep the ASDC/USDC split of Figure 13 (SDCs whose
    output is still of acceptable quality) and the large/small-disturbance
    split of USDCs from Figure 2. *)

type outcome =
  | Masked            (** bit-identical output *)
  | Asdc              (** numerically different but acceptable output *)
  | Usdc_large        (** unacceptable; flip caused a large value change *)
  | Usdc_small        (** unacceptable; flip caused a small value change *)
  | Sw_detect         (** caught by an inserted software check *)
  | Hw_detect         (** trap (symptom) within the detection window *)
  | Failure           (** late trap, or infinite loop (fuel exhausted) *)
  | Recovered         (** check fired, checkpoint rollback replayed cleanly
                          and the output is bit-identical (DESIGN.md §9) *)
  | Unrecoverable     (** check fired with recovery enabled, but detection
                          latency exceeded the checkpoint window — or the
                          replay still failed to reproduce the golden
                          output *)

let all =
  [ Masked; Asdc; Usdc_large; Usdc_small; Sw_detect; Hw_detect; Failure;
    Recovered; Unrecoverable ]

let name = function
  | Masked -> "Masked"
  | Asdc -> "ASDC"
  | Usdc_large -> "USDC(large)"
  | Usdc_small -> "USDC(small)"
  | Sw_detect -> "SWDetect"
  | Hw_detect -> "HWDetect"
  | Failure -> "Failure"
  | Recovered -> "Recovered"
  | Unrecoverable -> "Unrecoverable"

let of_name = function
  | "Masked" -> Some Masked
  | "ASDC" -> Some Asdc
  | "USDC(large)" -> Some Usdc_large
  | "USDC(small)" -> Some Usdc_small
  | "SWDetect" -> Some Sw_detect
  | "HWDetect" -> Some Hw_detect
  | "Failure" -> Some Failure
  | "Recovered" -> Some Recovered
  | "Unrecoverable" -> Some Unrecoverable
  | _ -> None

(** Paper defaults: a symptom within 1000 dynamic instructions of the flip
    counts as HWDetect (§IV-C). *)
let default_hw_window = 1000

(** Was the register disturbance "large"?  Integers: the flip moved the
    value by at least 2^16; floats: the value changed by more than 4x its
    own magnitude (or became non-finite). *)
let large_disturbance (inj : Interp.Machine.injection) =
  match inj.inj_kind with
  | Interp.Machine.Branch_target -> true
  | Interp.Machine.Register_bit ->
  let d = Ir.Value.disturbance ~before:inj.before ~after:inj.after in
  match inj.before with
  | Ir.Value.Int _ -> d >= 65536.0
  | Ir.Value.Float f ->
    (not (Float.is_finite d)) || d > 4.0 *. (Float.abs f +. 1e-9)

(** Classify one finished-or-stopped machine run.

    [acceptable] and [identical] judge the produced output against the
    fault-free golden output; they are only consulted when the program ran
    to completion. *)
let classify ~hw_window ~(result : Interp.Machine.result)
    ~identical ~acceptable =
  match result.stop with
  | Interp.Machine.Sw_detected _ ->
    (* With recovery enabled, a check that still *stops* the run means the
       rollback was denied: no retained checkpoint predated the fault. *)
    if result.rollback_denied then Unrecoverable else Sw_detect
  | Interp.Machine.Out_of_fuel -> Failure
  | Interp.Machine.Trapped _ ->
    (match result.injection with
     | Some inj when result.steps - inj.inj_step <= hw_window -> Hw_detect
     | Some _ -> Failure
     | None -> Failure)
  | Interp.Machine.Finished _ ->
    (match result.recovered with
     | Some _ ->
       (* The run detected, rolled back and replayed to completion: full
          recovery iff the output is the golden one. *)
       if identical () then Recovered else Unrecoverable
     | None ->
       if identical () then Masked
       else if acceptable () then Asdc
       else begin
         match result.injection with
         | Some inj when large_disturbance inj -> Usdc_large
         | Some _ -> Usdc_small
         | None -> Usdc_small
       end)

(* Outcome groupings. *)

let is_sdc = function
  | Asdc | Usdc_large | Usdc_small -> true
  | Masked | Sw_detect | Hw_detect | Failure | Recovered | Unrecoverable ->
    false

let group_of_name name =
  match of_name name with
  | Some (Asdc | Usdc_large | Usdc_small) -> `Sdc
  | Some (Sw_detect | Hw_detect | Recovered | Unrecoverable) -> `Detected
  | Some Masked -> `Masked
  | Some Failure | None -> `Other
