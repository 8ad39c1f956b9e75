(** Minimal domain worker pool for embarrassingly parallel index spaces.

    Fans an index space [0, n) out over OCaml 5 domains in contiguous
    chunks.  Each index is computed exactly once and lands at its own slot
    of the output array, so the result is independent of scheduling;
    determinism is the caller's seed discipline (derive all per-index seeds
    before dispatch) plus that placement guarantee. *)

(** Domains the hardware comfortably supports, always at least 1. *)
val recommended_domains : unit -> int

(** What one {!map} call actually did — the observability record that
    makes parallel-overhead regressions diagnosable (DESIGN.md §8):
    per-worker wall time and work share, plus the first chunk's size.
    Worker 0 is the calling domain. *)
type stats = {
  st_domains : int;        (** workers used, after clamping to [n] *)
  st_chunk : int;          (** the first guided claim's size ([n] on the
                               serial path) *)
  st_wall : float array;   (** per-worker busy wall seconds *)
  st_items : int array;    (** per-worker indices executed *)
}

(** Per-worker GC tuning for {!map}: OCaml 5 minor collections are
    stop-the-world across *all* domains, so allocation-heavy workers drag
    each other into frequent global pauses at the default 256k-word minor
    heap.  A larger per-domain minor heap and a laxer space overhead trade
    memory for fewer global syncs.  Settings are applied inside each
    worker and restored on the calling domain afterwards. *)
type gc_tuning = {
  gc_minor_heap_words : int;   (** per-domain minor heap size, in words *)
  gc_space_overhead : int;     (** major-GC space/work trade-off, percent *)
}

(** The tuning fault campaigns use: a 2M-word (16 MiB) minor heap per
    worker and double the default space overhead. *)
val campaign_gc_tuning : gc_tuning

(** [map ~domains f n] is [\[| f 0; f 1; ...; f (n-1) |\]], computed by
    [domains] workers.  [f] must be safe to call from any domain and must
    not depend on call order.  [domains <= 1] (or [n <= 1]) degenerates to
    a plain in-order serial loop with no domain spawned.  Workers claim
    guided (decreasing-size) chunks — large claims early to amortize the
    atomic, single items at the tail so a straggler bounds the
    finish-line imbalance by one index.  [gc] applies a per-domain {!gc_tuning} for the
    duration of the call (observation-free: the output never depends on
    it).  If [f] raises, the other workers cooperatively stop at their
    next chunk boundary (no further chunks are claimed), every domain is
    joined, and one of the raised exceptions is re-raised — the call
    neither hangs nor silently drains the remaining index space.  When
    [stats] is given it receives the run's {!stats}
    (also on the degenerate serial path); timing is observation-only and
    does not affect the output.  [trace]
    attaches a flight recorder: one [pool/worker] duration span per
    worker lifetime and one [pool/chunk] span per chunk claim, each on
    the worker's track — the gaps between chunk spans on a track are the
    pool's idle time.  Also observation-only. *)
val map :
  ?gc:gc_tuning ->
  ?stats:stats option ref ->
  ?trace:Obs.Trace.recorder ->
  domains:int ->
  (int -> 'a) ->
  int ->
  'a array
