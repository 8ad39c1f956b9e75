(** Objective output-quality metrics (paper Table I, column 4).

    Each workload declares one metric and a threshold; a numerically
    incorrect output that still meets the threshold is an *acceptable*
    silent data corruption (ASDC), anything worse is unacceptable (USDC). *)

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

(** Constructors with the paper's conventions. *)

val psnr_spec : ?peak:float -> float -> spec
val seg_snr_spec : float -> spec
val mismatch_spec : float -> spec
val class_error_spec : float -> spec

val kind_name : kind -> string
val spec_to_string : spec -> string

(** PSNR in dB against a reference signal; identical signals give
    [infinity].  Raises [Invalid_argument] on length mismatch. *)
val psnr : ?peak:float -> reference:float array -> float array -> float

(** Segmental SNR: mean of per-segment SNRs (dB) over 64-sample segments,
    each clamped into [0, 100].  The clamp sits above the 80 dB acceptance
    threshold so a localized corruption does not automatically fail the
    whole run. *)
val segmental_snr : reference:float array -> float array -> float

(** Fraction of cells whose values differ (exact comparison). *)
val mismatch_fraction : reference:float array -> float array -> float

(** Alias of {!mismatch_fraction} with the machine-learning framing. *)
val classification_error : reference:float array -> float array -> float

(** Evaluate [spec]'s metric; the score is on the metric's natural scale. *)
val score : spec -> reference:float array -> float array -> float

(** Is the output of acceptable quality under [spec]? *)
val acceptable : spec -> reference:float array -> float array -> bool

(** Bitwise equality of the two signals (NaN-safe): pure masking. *)
val identical : reference:float array -> float array -> bool
