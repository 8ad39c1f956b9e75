(** Tests over the 13 benchmark kernels: every workload builds a verified
    program, runs fault-free on both inputs, produces a sane output, and is
    semantics-preserved by every protection technique.  Codec pairs are
    additionally checked for round-trip quality. *)

open Workloads

let all = Registry.all

let foreach_workload f = List.iter (fun (w : Workload.t) -> f w) all

let test_registry () =
  Alcotest.(check int) "13 benchmarks" 13 (List.length all);
  let names = List.sort_uniq compare Registry.names in
  Alcotest.(check int) "names unique" 13 (List.length names);
  List.iter
    (fun c ->
      Alcotest.(check bool)
        (Printf.sprintf "at least 2 in %s" c)
        true
        (List.length (List.filter (fun (w : Workload.t) -> w.category = c) all)
         >= 2))
    [ "image"; "audio"; "video"; "computer vision"; "machine learning" ];
  Alcotest.(check string) "find works" "svm" (Registry.find "svm").name

let test_find_unknown () =
  Alcotest.(check bool) "unknown raises" true
    (try ignore (Registry.find "nope"); false with Invalid_argument _ -> true)

let test_programs_verify () =
  foreach_workload (fun w ->
    let prog = w.build () in
    (try Ir.Verifier.verify prog
     with Ir.Verifier.Invalid e ->
       Alcotest.failf "%s: %a" w.name Ir.Verifier.pp_error e);
    Alcotest.(check bool)
      (Printf.sprintf "%s has instructions" w.name)
      true
      (Ir.Prog.instr_count prog > 10))

let test_programs_have_state_vars () =
  foreach_workload (fun w ->
    let prog = w.build () in
    Alcotest.(check bool)
      (Printf.sprintf "%s has state variables" w.name)
      true
      (Analysis.Plan.candidate_chains prog <> []))

let test_golden_runs_both_roles () =
  foreach_workload (fun w ->
    List.iter
      (fun role ->
        let g = Workload.golden w ~role in
        Alcotest.(check bool)
          (Printf.sprintf "%s/%s output non-empty" w.name
             (Workload.role_name role))
          true
          (Array.length g.output > 0);
        Alcotest.(check bool)
          (Printf.sprintf "%s/%s finite output" w.name (Workload.role_name role))
          true
          (Array.for_all Float.is_finite g.output))
      [ Workload.Train; Workload.Test ])

let test_golden_deterministic () =
  foreach_workload (fun w ->
    let a = Workload.golden w ~role:Workload.Test in
    let b = Workload.golden w ~role:Workload.Test in
    Alcotest.(check bool)
      (Printf.sprintf "%s deterministic" w.name)
      true
      (Fidelity.Metric.identical ~reference:a.output b.output
       && a.steps = b.steps))

let test_train_and_test_differ () =
  foreach_workload (fun w ->
    let a = Workload.golden w ~role:Workload.Train in
    let b = Workload.golden w ~role:Workload.Test in
    Alcotest.(check bool)
      (Printf.sprintf "%s inputs differ" w.name)
      false
      (a.steps = b.steps
       && Array.length a.output = Array.length b.output
       && Fidelity.Metric.identical ~reference:a.output b.output))

(* Semantic preservation: every technique leaves the fault-free output
   bit-identical. *)
let check_preservation technique =
  foreach_workload (fun w ->
    let reference = Workload.golden w ~role:Workload.Test in
    let p = Softft.protect w technique in
    let transformed = Softft.golden p ~role:Workload.Test in
    Alcotest.(check bool)
      (Printf.sprintf "%s/%s output identical" w.name
         (Softft.technique_name technique))
      true
      (Fidelity.Metric.identical ~reference:reference.output transformed.output))

let test_dup_only_preserves_all () = check_preservation Softft.Dup_only
let test_dup_valchk_preserves_all () = check_preservation Softft.Dup_valchk
let test_full_dup_preserves_all () = check_preservation Softft.Full_dup

(* Codec round trips: the encoder's output, decoded by the matching host
   decoder, must be a faithful rendition of the input signal. *)

let test_jpeg_roundtrip () =
  let w, h = 48, 48 in
  let pixels = Synth.gray_image ~seed:5 ~w ~h in
  let stream = Jpeg_common.host_encode ~pixels ~w ~h in
  let decoded = Jpeg_common.host_decode ~stream ~w ~h in
  let reference = Array.map float_of_int pixels in
  let psnr = Fidelity.Metric.psnr ~reference decoded in
  Alcotest.(check bool) (Printf.sprintf "jpeg %0.1f dB" psnr) true (psnr > 30.0)

let test_adpcm_roundtrip () =
  let pcm = Synth.audio ~seed:6 ~n:1000 in
  let decoded = Adpcm_common.host_decode (Adpcm_common.host_encode pcm) in
  let reference = Array.map float_of_int pcm in
  let snr = Fidelity.Metric.segmental_snr ~reference decoded in
  Alcotest.(check bool) (Printf.sprintf "adpcm %0.1f dB" snr) true (snr > 15.0)

let test_mp3_roundtrip () =
  let pcm = Synth.audio ~seed:7 ~n:1024 in
  let decoded = Mp3_common.host_decode (Mp3_common.host_encode pcm) in
  let reference = Array.map float_of_int pcm in
  let psnr = Fidelity.Metric.psnr ~peak:32768.0 ~reference decoded in
  Alcotest.(check bool) (Printf.sprintf "mp3 %0.1f dB" psnr) true (psnr > 30.0)

let test_h264_roundtrip () =
  let w, h, frames = 24, 24, 3 in
  let video = Synth.video ~seed:8 ~w ~h ~frames in
  let stream = H264_common.host_encode ~video ~w ~h ~frames in
  let decoded = H264_common.host_decode ~stream ~w ~h ~frames in
  let reference = Array.map float_of_int video in
  let psnr = Fidelity.Metric.psnr ~reference decoded in
  Alcotest.(check bool) (Printf.sprintf "h264 %0.1f dB" psnr) true (psnr > 28.0)

(* Kernel-vs-host consistency: the IR decoders consume host-encoder
   streams; their fault-free output must decode the signal faithfully. *)

let test_jpegdec_kernel_quality () =
  let g = Workload.golden (Registry.find "jpegdec") ~role:Workload.Test in
  let pixels = Synth.gray_image ~seed:22 ~w:48 ~h:48 in
  let reference = Array.map float_of_int pixels in
  let psnr = Fidelity.Metric.psnr ~reference g.output in
  Alcotest.(check bool) (Printf.sprintf "decodes input %0.1f dB" psnr) true
    (psnr > 30.0)

let test_g721dec_kernel_matches_host () =
  let g = Workload.golden (Registry.find "g721dec") ~role:Workload.Test in
  let pcm = Synth.audio ~seed:52 ~n:1400 in
  let host = Adpcm_common.host_decode (Adpcm_common.host_encode pcm) in
  Alcotest.(check bool) "kernel = host decoder" true
    (Fidelity.Metric.identical ~reference:host g.output)

let test_h264dec_kernel_matches_host () =
  let g = Workload.golden (Registry.find "h264dec") ~role:Workload.Test in
  let video = Synth.video ~seed:92 ~w:24 ~h:24 ~frames:3 in
  let stream = H264_common.host_encode ~video ~w:24 ~h:24 ~frames:3 in
  let host = H264_common.host_decode ~stream ~w:24 ~h:24 ~frames:3 in
  Alcotest.(check bool) "kernel = host decoder" true
    (Fidelity.Metric.identical ~reference:host g.output)

(* Encoder kernels must be bit-identical to the host reference encoders:
   both implement the same arithmetic in the same order, so any divergence
   is a kernel (or interpreter) bug. *)

let kernel_output_words w ~arg_index ~words =
  let st = (Registry.find w).fresh_state Workload.Test in
  let prog = (Registry.find w).build () in
  let r =
    Interp.Machine.run prog ~entry:Workload.entry ~args:st.Faults.Campaign.args
      ~mem:st.Faults.Campaign.mem
  in
  let base = Ir.Value.to_int (List.nth st.Faults.Campaign.args arg_index) in
  let n =
    match words, r.stop with
    | Some n, _ -> n
    | None, Interp.Machine.Finished (Some len) -> Ir.Value.to_int len
    | None, _ -> Alcotest.fail (w ^ ": no length returned")
  in
  Interp.Memory.read_ints_tolerant st.Faults.Campaign.mem base n

let test_jpegenc_kernel_bit_exact () =
  let kernel = kernel_output_words "jpegenc" ~arg_index:7 ~words:None in
  let pixels = Synth.gray_image ~seed:12 ~w:Jpegenc.test_w ~h:Jpegenc.test_h in
  let host = Jpeg_common.host_encode ~pixels ~w:Jpegenc.test_w ~h:Jpegenc.test_h in
  Alcotest.(check (array int)) "streams identical" host kernel

let test_g721enc_kernel_bit_exact () =
  let kernel =
    kernel_output_words "g721enc" ~arg_index:4 ~words:(Some G721enc.test_n)
  in
  let pcm = Synth.audio ~seed:42 ~n:G721enc.test_n in
  Alcotest.(check (array int)) "codes identical"
    (Adpcm_common.host_encode pcm) kernel

let test_mp3enc_kernel_bit_exact () =
  let n = Mp3enc.test_n in
  let frames = n / Mp3_common.bands in
  let kernel =
    kernel_output_words "mp3enc" ~arg_index:3
      ~words:(Some (frames * Mp3_common.frame_words))
  in
  let pcm = Synth.audio ~seed:62 ~n in
  Alcotest.(check (array int)) "frames identical"
    (Mp3_common.host_encode pcm) kernel

let test_h264enc_kernel_bit_exact () =
  let w, h, frames = H264enc.test_w, H264enc.test_h, H264enc.test_frames in
  let kernel =
    kernel_output_words "h264enc" ~arg_index:5
      ~words:(Some (H264_common.stream_words ~w ~h ~frames))
  in
  let video = Synth.video ~seed:82 ~w ~h ~frames in
  Alcotest.(check (array int)) "streams identical"
    (H264_common.host_encode ~video ~w ~h ~frames) kernel

(* Defensive host decoders must absorb garbage streams. *)
let test_host_decoders_defensive () =
  let rng = Rng.create 99 in
  let garbage n = Array.init n (fun _ -> Rng.int rng 2_000_000 - 1_000_000) in
  let (_ : float array) =
    Jpeg_common.host_decode ~stream:(garbage 64) ~w:48 ~h:48
  in
  let (_ : float array) = Adpcm_common.host_decode (garbage 100) in
  let (_ : float array) = Mp3_common.host_decode (garbage 200) in
  let (_ : float array) =
    H264_common.host_decode ~stream:(garbage 100) ~w:24 ~h:24 ~frames:3
  in
  ()

(* Synthetic input generators. *)

let test_synth_images_in_range () =
  let img = Synth.gray_image ~seed:1 ~w:32 ~h:32 in
  Alcotest.(check int) "size" 1024 (Array.length img);
  Array.iter
    (fun p -> Alcotest.(check bool) "0..255" true (p >= 0 && p <= 255))
    img;
  let rgb = Synth.rgb_image ~seed:1 ~w:8 ~h:8 in
  Alcotest.(check int) "rgb size" 192 (Array.length rgb)

let test_synth_audio_in_range () =
  let pcm = Synth.audio ~seed:2 ~n:512 in
  Array.iter
    (fun s ->
      Alcotest.(check bool) "pcm16" true (s >= -32768 && s <= 32767))
    pcm;
  (* Non-degenerate signal. *)
  let energy = Array.fold_left (fun a s -> a + abs s) 0 pcm in
  Alcotest.(check bool) "non-silent" true (energy > 1000)

let test_synth_deterministic () =
  Alcotest.(check bool) "same seed same image" true
    (Synth.gray_image ~seed:4 ~w:16 ~h:16 = Synth.gray_image ~seed:4 ~w:16 ~h:16);
  Alcotest.(check bool) "different seed different image" false
    (Synth.gray_image ~seed:4 ~w:16 ~h:16 = Synth.gray_image ~seed:5 ~w:16 ~h:16)

let test_synth_clusters () =
  let points, labels = Synth.clustered_points ~seed:3 ~n:40 ~d:3 ~k:4 in
  Alcotest.(check int) "points" 120 (Array.length points);
  Alcotest.(check int) "labels" 40 (Array.length labels);
  Array.iter
    (fun l -> Alcotest.(check bool) "label range" true (l >= 0 && l < 4))
    labels

let test_synth_svm_separable () =
  let sv, alpha, bias, test = Synth.svm_problem ~seed:4 ~n_sv:10 ~n_test:20 ~d:4 in
  Alcotest.(check int) "sv size" 40 (Array.length sv);
  Alcotest.(check int) "alpha size" 10 (Array.length alpha);
  Alcotest.(check int) "test size" 80 (Array.length test);
  Alcotest.(check bool) "bias finite" true (Float.is_finite bias)

let tests =
  [ Alcotest.test_case "registry: inventory" `Quick test_registry;
    Alcotest.test_case "registry: unknown name" `Quick test_find_unknown;
    Alcotest.test_case "all: programs verify" `Quick test_programs_verify;
    Alcotest.test_case "all: have state vars" `Quick test_programs_have_state_vars;
    Alcotest.test_case "all: golden runs" `Slow test_golden_runs_both_roles;
    Alcotest.test_case "all: deterministic" `Slow test_golden_deterministic;
    Alcotest.test_case "all: train/test differ" `Slow test_train_and_test_differ;
    Alcotest.test_case "all: dup only preserves" `Slow test_dup_only_preserves_all;
    Alcotest.test_case "all: dup+valchk preserves" `Slow
      test_dup_valchk_preserves_all;
    Alcotest.test_case "all: full dup preserves" `Slow test_full_dup_preserves_all;
    Alcotest.test_case "codec: jpeg roundtrip" `Quick test_jpeg_roundtrip;
    Alcotest.test_case "codec: adpcm roundtrip" `Quick test_adpcm_roundtrip;
    Alcotest.test_case "codec: mp3 roundtrip" `Quick test_mp3_roundtrip;
    Alcotest.test_case "codec: h264 roundtrip" `Quick test_h264_roundtrip;
    Alcotest.test_case "codec: jpegdec kernel quality" `Quick
      test_jpegdec_kernel_quality;
    Alcotest.test_case "codec: g721dec kernel = host" `Quick
      test_g721dec_kernel_matches_host;
    Alcotest.test_case "codec: h264dec kernel = host" `Quick
      test_h264dec_kernel_matches_host;
    Alcotest.test_case "codec: defensive decoders" `Quick
      test_host_decoders_defensive;
    Alcotest.test_case "codec: jpegenc kernel bit-exact" `Quick
      test_jpegenc_kernel_bit_exact;
    Alcotest.test_case "codec: g721enc kernel bit-exact" `Quick
      test_g721enc_kernel_bit_exact;
    Alcotest.test_case "codec: mp3enc kernel bit-exact" `Quick
      test_mp3enc_kernel_bit_exact;
    Alcotest.test_case "codec: h264enc kernel bit-exact" `Quick
      test_h264enc_kernel_bit_exact;
    Alcotest.test_case "synth: image ranges" `Quick test_synth_images_in_range;
    Alcotest.test_case "synth: audio ranges" `Quick test_synth_audio_in_range;
    Alcotest.test_case "synth: determinism" `Quick test_synth_deterministic;
    Alcotest.test_case "synth: clusters" `Quick test_synth_clusters;
    Alcotest.test_case "synth: svm problem" `Quick test_synth_svm_separable;
  ]
