(** Minimal domain worker pool for embarrassingly parallel index spaces.

    Fault-injection campaigns are N independent trials (DESIGN.md §4): one
    golden run, then N seeded single-fault runs that never observe each
    other's state.  This module fans an index space [0, n) out over OCaml 5
    domains.  Each index is computed exactly once and its result lands at
    its own slot of the output array, so the output is independent of how
    the scheduler interleaves workers — determinism is the caller's seed
    discipline (derive all per-index seeds *before* dispatch) plus this
    placement guarantee. *)

(** Domains the hardware comfortably supports, always at least 1. *)
let recommended_domains () = max 1 (Domain.recommended_domain_count ())

(* Ceiling on a guided-self-scheduling claim; with claims decaying toward
   single items at the tail, the cap only shapes the very first claims of
   large index spaces. *)
let guided_cap = 64

(* Size of the next guided claim when [cur] indices are already taken:
   half an even share of the remaining work.  Early claims are large
   (amortizing the atomic), tail claims decay to one item, so a straggler
   (one jpegdec-length trial) bounds the finish-line imbalance by a single
   item instead of a whole fixed-size chunk. *)
let guided_size ~domains ~n cur =
  max 1 (min guided_cap ((n - cur + (2 * domains) - 1) / (2 * domains)))

type stats = {
  st_domains : int;
  st_chunk : int;
  st_wall : float array;
  st_items : int array;
}

let put_stats out stats = match out with None -> () | Some r -> r := Some stats

(** Per-worker GC tuning ({!map}'s [gc]): OCaml 5 minor collections are
    stop-the-world across *all* domains, so campaign workers that allocate
    boxed values every step drag each other into frequent global pauses at
    the 256k-word default minor heap.  A larger per-domain minor heap and a
    laxer space overhead trade memory for fewer global syncs — the main
    multi-domain scaling lever for allocation-heavy trial workers. *)
type gc_tuning = {
  gc_minor_heap_words : int;   (** per-domain minor heap size, in words *)
  gc_space_overhead : int;     (** major-GC space/work trade-off, percent *)
}

(** The tuning fault campaigns use: a 16 MiB (2M-word) minor heap per
    worker and double the default space overhead. *)
let campaign_gc_tuning =
  { gc_minor_heap_words = 1 lsl 21; gc_space_overhead = 200 }

(* Run [f] under a tuning, restoring the caller domain's settings after
   (spawned workers die with their domain, but worker 0 is the caller). *)
let with_gc tuning f =
  match tuning with
  | None -> f ()
  | Some t ->
    let g = Gc.get () in
    Fun.protect
      ~finally:(fun () -> Gc.set g)
      (fun () ->
        Gc.set
          { g with
            Gc.minor_heap_size = t.gc_minor_heap_words;
            space_overhead = t.gc_space_overhead };
        f ())

(** [map ~domains f n] is [\[| f 0; f 1; ...; f (n-1) |\]], computed by
    [domains] workers.  [f] must be safe to call from any domain and must
    not depend on call order.  [domains <= 1] (or [n <= 1]) degenerates to
    a plain in-order serial loop with no domain spawned.  [stats] receives
    the per-worker timing/work record — observation only, the output array
    never depends on it.  Workers claim guided (decreasing) chunks.  [gc]
    applies a per-domain GC tuning for the duration of the call. *)
let map ?gc ?stats ?trace ~domains f n =
  if n = 0 then begin
    put_stats stats
      { st_domains = 0; st_chunk = 0; st_wall = [||]; st_items = [||] };
    [||]
  end
  else begin
    let domains = max 1 (min domains n) in
    if domains = 1 then
      with_gc gc (fun () ->
        let t0 = Unix.gettimeofday () in
        let out =
          Obs.Trace.with_dur trace ~cat:"pool" "worker"
            ~args:[ ("items", Obs.Json.Int n) ]
            (fun () ->
              let first = f 0 in
              let out = Array.make n first in
              for i = 1 to n - 1 do
                out.(i) <- f i
              done;
              out)
        in
        put_stats stats
          { st_domains = 1; st_chunk = n;
            st_wall = [| Unix.gettimeofday () -. t0 |]; st_items = [| n |] };
        out)
    else begin
      (* Guided self-scheduling (see {!guided_size}); [st_chunk] reports
         the first claim's size. *)
      let rec claim next =
        let cur = Atomic.get next in
        if cur >= n then (cur, 1)
        else begin
          let size = guided_size ~domains ~n cur in
          if Atomic.compare_and_set next cur (cur + size) then (cur, size)
          else claim next
        end
      in
      let chunk = guided_size ~domains ~n 0 in
      let out = Array.make n None in
      let next = Atomic.make 0 in
      (* Cooperative cancellation: the first worker whose [f] raises sets
         this, and every other worker stops at its next chunk boundary
         instead of pointlessly draining the rest of the index space before
         the exception can propagate. *)
      let cancelled = Atomic.make false in
      let wall = Array.make domains 0.0 in
      let items = Array.make domains 0 in
      let worker wid () =
        with_gc gc @@ fun () ->
        let t0 = Unix.gettimeofday () in
        let done_ = ref 0 in
        (* One flight-recorder span per worker lifetime (track = worker
           id) plus one per chunk claim: the gaps between chunk spans on
           a track are exactly the pool's idle/contention time. *)
        let wspan =
          Option.map
            (fun r -> Obs.Trace.begin_dur r ~track:wid ~cat:"pool" "worker")
            trace
        in
        Fun.protect
          ~finally:(fun () ->
            (match trace, wspan with
             | Some r, Some od ->
               Obs.Trace.end_dur r od
                 ~args:[ ("items", Obs.Json.Int !done_) ]
             | _, _ -> ());
            (* Each worker writes only its own slots; the joins below
               publish them to the caller (also on the exception path, so
               a cancelled run still reports what each worker did). *)
            wall.(wid) <- Unix.gettimeofday () -. t0;
            items.(wid) <- !done_)
          (fun () ->
            try
              let continue_ = ref true in
              while !continue_ do
                if Atomic.get cancelled then continue_ := false
                else begin
                  let start, size = claim next in
                  if start >= n then continue_ := false
                  else
                    Obs.Trace.with_dur trace ~track:wid ~cat:"pool" "chunk"
                      ~args:
                        [ ("start", Obs.Json.Int start);
                          ("size", Obs.Json.Int (min (start + size) n - start))
                        ]
                      (fun () ->
                        for i = start to min (start + size) n - 1 do
                          out.(i) <- Some (f i);
                          done_ := !done_ + 1
                        done)
                end
              done
            with e ->
              Atomic.set cancelled true;
              raise e)
      in
      let helpers =
        Array.init (domains - 1) (fun i -> Domain.spawn (worker (i + 1)))
      in
      let main_exn = (try worker 0 (); None with e -> Some e) in
      (* Join everyone before re-raising so no domain outlives the call. *)
      let helper_exn =
        Array.fold_left
          (fun acc d ->
            match (try Domain.join d; None with e -> Some e) with
            | Some _ as e when acc = None -> e
            | _ -> acc)
          None helpers
      in
      (match main_exn, helper_exn with
       | Some e, _ | None, Some e -> raise e
       | None, None -> ());
      put_stats stats
        { st_domains = domains; st_chunk = chunk; st_wall = wall;
          st_items = items };
      Array.map
        (function Some v -> v | None -> assert false (* every slot filled *))
        out
    end
  end
