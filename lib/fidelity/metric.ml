(** Objective output-quality metrics (paper Table I, column 4).

    Each workload declares one metric and a threshold; a numerically
    incorrect output that still meets the threshold is an *acceptable* SDC
    (ASDC), anything worse is an *unacceptable* SDC (USDC). *)

type kind =
  | Psnr                   (** peak signal-to-noise ratio, dB; higher better *)
  | Segmental_snr          (** frame-averaged SNR, dB; higher better *)
  | Mismatch_fraction      (** fraction of differing matrix cells; lower better *)
  | Classification_error   (** fraction of differing labels; lower better *)

type spec = {
  kind : kind;
  threshold : float;
  (** acceptance boundary: PSNR/segSNR must be >= threshold, mismatch and
      classification error must be <= threshold *)
  peak : float;
  (** signal peak used by PSNR (255 for 8-bit images, 32768 for PCM16) *)
}

let psnr_spec ?(peak = 255.0) threshold = { kind = Psnr; threshold; peak }
let seg_snr_spec threshold = { kind = Segmental_snr; threshold; peak = 0.0 }
let mismatch_spec threshold = { kind = Mismatch_fraction; threshold; peak = 0.0 }
let class_error_spec threshold =
  { kind = Classification_error; threshold; peak = 0.0 }

let kind_name = function
  | Psnr -> "PSNR"
  | Segmental_snr -> "Segmental SNR"
  | Mismatch_fraction -> "Matrix mismatch"
  | Classification_error -> "Classification error"

let spec_to_string s =
  match s.kind with
  | Psnr | Segmental_snr -> Printf.sprintf "%s (%g dB)" (kind_name s.kind) s.threshold
  | Mismatch_fraction | Classification_error ->
    Printf.sprintf "%s (%g%%)" (kind_name s.kind) (s.threshold *. 100.)

let check_lengths name a b =
  if Array.length a <> Array.length b then
    invalid_arg
      (Printf.sprintf "%s: length mismatch (%d vs %d)" name (Array.length a)
         (Array.length b))

(** PSNR in dB against a reference signal with the given peak value.
    Identical signals give [infinity]. *)
let psnr ?(peak = 255.0) ~reference signal =
  check_lengths "psnr" reference signal;
  let n = Array.length reference in
  if n = 0 then infinity
  else begin
    let mse = ref 0.0 in
    for i = 0 to n - 1 do
      let d = reference.(i) -. signal.(i) in
      mse := !mse +. (d *. d)
    done;
    let mse = !mse /. float_of_int n in
    if mse <= 0.0 then infinity
    else 10.0 *. (log10 ((peak *. peak) /. mse))
  end

(** Segmental SNR: mean of per-segment SNRs (dB), segments of 64 samples.
    Standard speech-quality metric; per-segment SNR is clamped to
    [0, 100] dB before averaging, to keep silent or error-free segments
    from dominating.  The clamp sits above the 80 dB acceptance threshold
    so that a localized corruption does not automatically fail the run. *)
let segmental_snr ~reference signal =
  let seg = 64 and clamp_db = 100.0 in
  check_lengths "segmental_snr" reference signal;
  let n = Array.length reference in
  if n = 0 then clamp_db
  else begin
    let n_segs = (n + seg - 1) / seg in
    let total = ref 0.0 in
    for s = 0 to n_segs - 1 do
      let lo = s * seg and hi = min n (s * seg + seg) in
      let sig_energy = ref 0.0 and err_energy = ref 0.0 in
      for i = lo to hi - 1 do
        sig_energy := !sig_energy +. (reference.(i) *. reference.(i));
        let d = reference.(i) -. signal.(i) in
        err_energy := !err_energy +. (d *. d)
      done;
      let snr_db =
        if !err_energy <= 0.0 then clamp_db
        else if !sig_energy <= 0.0 then 0.0
        else 10.0 *. log10 (!sig_energy /. !err_energy)
      in
      total := !total +. Float.max 0.0 (Float.min clamp_db snr_db)
    done;
    !total /. float_of_int n_segs
  end

(** Fraction of cells whose values differ (exact comparison). *)
let mismatch_fraction ~reference output =
  check_lengths "mismatch_fraction" reference output;
  let n = Array.length reference in
  if n = 0 then 0.0
  else begin
    let bad = ref 0 in
    for i = 0 to n - 1 do
      if reference.(i) <> output.(i) then incr bad
    done;
    float_of_int !bad /. float_of_int n
  end

(** Alias with the machine-learning framing: labels that changed. *)
let classification_error ~reference output = mismatch_fraction ~reference output

(** Evaluate a metric; returns the score on the metric's natural scale. *)
let score spec ~reference output =
  match spec.kind with
  | Psnr -> psnr ~peak:spec.peak ~reference output
  | Segmental_snr -> segmental_snr ~reference output
  | Mismatch_fraction -> mismatch_fraction ~reference output
  | Classification_error -> classification_error ~reference output

(** Is the output of acceptable quality under this metric? *)
let acceptable spec ~reference output =
  let s = score spec ~reference output in
  match spec.kind with
  | Psnr | Segmental_snr -> s >= spec.threshold
  | Mismatch_fraction | Classification_error -> s <= spec.threshold

(** Exactly equal outputs (pure masking, no corruption at all). *)
let identical ~reference output =
  Array.length reference = Array.length output
  && (let ok = ref true in
      Array.iteri
        (fun i v ->
          (* NaN-safe bit comparison *)
          if Int64.bits_of_float v <> Int64.bits_of_float reference.(i) then
            ok := false)
        output;
      !ok)
