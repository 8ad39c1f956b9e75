(** The benchmark suite of the paper's Table I: 13 soft-computing workloads
    across image, audio, video, computer vision and machine learning. *)

let all : Workload.t list =
  [ Jpegenc.workload;
    Jpegdec.workload;
    Tiff2bw.workload;
    Segm.workload;
    Tex_synth.workload;
    G721enc.workload;
    G721dec.workload;
    Mp3enc.workload;
    Mp3dec.workload;
    H264enc.workload;
    H264dec.workload;
    Kmeans.workload;
    Svm.workload;
  ]

let find name =
  match List.find_opt (fun (w : Workload.t) -> w.name = name) all with
  | Some w -> w
  | None ->
    invalid_arg
      (Printf.sprintf "unknown workload %S (known: %s)" name
         (String.concat ", " (List.map (fun (w : Workload.t) -> w.name) all)))

let names = List.map (fun (w : Workload.t) -> w.name) all
