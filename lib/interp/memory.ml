open Ir

(** Word-addressed simulated memory.

    Memory is a set of disjoint allocated regions separated by large guard
    gaps; any access outside an allocated region raises {!Segfault}.  The
    gaps matter for fidelity to the paper's fault model: when a bit flip
    lands in an address computation, the access usually falls in a gap and
    produces a page-fault-like symptom (HWDetect) rather than silently
    hitting another object. *)

exception Segfault of int

type region = {
  base : int;
  size : int;
  cells : Value.t array;
}

type t = {
  mutable regions : region array;   (** sorted by base *)
  mutable next_base : int;
  mutable last : int;               (** index of the most recently hit region;
                                        accesses cluster, so checking it first
                                        skips the binary search almost always *)
  (* Undo journal for checkpoint/rollback recovery (see Machine): when
     enabled, every store appends (address, previous value) so any earlier
     memory state can be rebuilt by replaying the log backwards.  Off by
     default: the only hot-path cost when off is one boolean test per
     store. *)
  mutable undo_on : bool;
  mutable undo_addr : int array;
  mutable undo_prev : Value.t array;
  mutable undo_len : int;           (** valid entries in the arrays *)
  mutable undo_off : int;           (** absolute position of entry 0: marks
                                        store absolute positions so retiring
                                        old entries does not invalidate them *)
}

let guard_gap = 0x10000
let first_base = 0x40000

let create () =
  { regions = [||]; next_base = first_base; last = 0;
    undo_on = false; undo_addr = [||]; undo_prev = [||]; undo_len = 0;
    undo_off = 0 }

(** Allocate [size] words; returns the base address. *)
let alloc t size =
  if size < 0 then invalid_arg "Memory.alloc: negative size";
  let base = t.next_base in
  let region = { base; size; cells = Array.make (max size 1) Value.zero } in
  t.regions <- Array.append t.regions [| region |];
  (* Round the next base up so that single bit flips in low address bits
     stay inside the gap. *)
  t.next_base <- base + size + guard_gap - ((base + size) mod guard_gap);
  base

let find_region_slow t addr =
  (* Binary search over regions sorted by base; tracks the hit by index so
     every load/store stays allocation-free. *)
  let regions = t.regions in
  let lo = ref 0 and hi = ref (Array.length regions - 1) in
  let found = ref (-1) in
  while !lo <= !hi do
    let mid = (!lo + !hi) / 2 in
    let r = regions.(mid) in
    if addr < r.base then hi := mid - 1
    else if addr >= r.base + r.size then lo := mid + 1
    else begin
      found := mid;
      lo := !hi + 1
    end
  done;
  if !found < 0 then raise (Segfault addr)
  else begin
    t.last <- !found;
    regions.(!found)
  end

let find_region t addr =
  let regions = t.regions in
  if t.last < Array.length regions then begin
    let r = regions.(t.last) in
    if addr >= r.base && addr - r.base < r.size then r
    else find_region_slow t addr
  end
  else find_region_slow t addr
  [@@inline]

(* find_region established base <= addr < base + size = length cells. *)
let load t addr =
  let r = find_region t addr in
  Array.unsafe_get r.cells (addr - r.base)
  [@@inline]

let undo_push t addr prev =
  let n = t.undo_len in
  if n = Array.length t.undo_addr then begin
    let cap = max 64 (2 * n) in
    let addr' = Array.make cap 0 and prev' = Array.make cap Value.zero in
    Array.blit t.undo_addr 0 addr' 0 n;
    Array.blit t.undo_prev 0 prev' 0 n;
    t.undo_addr <- addr';
    t.undo_prev <- prev'
  end;
  t.undo_addr.(n) <- addr;
  t.undo_prev.(n) <- prev;
  t.undo_len <- n + 1

let store t addr v =
  let r = find_region t addr in
  let i = addr - r.base in
  if t.undo_on then undo_push t addr (Array.unsafe_get r.cells i);
  Array.unsafe_set r.cells i v
  [@@inline]

(* ----- Undo journal: marks and rollback (checkpoint recovery) ----- *)

(** A point in the memory's history: region count, allocation cursor and
    undo-log position.  Valid as long as the undo log has not been rolled
    back past it. *)
type mark = {
  mk_regions : int;
  mk_next_base : int;
  mk_undo : int;
}

(** Start journaling stores (idempotent).  Only journaled history can be
    rolled back, so enable before the run's first store. *)
let enable_undo t = t.undo_on <- true

(** Total (absolute) undo entries recorded since journaling began. *)
let undo_length t = t.undo_off + t.undo_len

(** Undo entries recorded since [m] — the dirty-word count a checkpoint at
    [m] must have preserved (cost accounting). *)
let undo_since t (m : mark) = t.undo_off + t.undo_len - m.mk_undo

let mark t =
  { mk_regions = Array.length t.regions; mk_next_base = t.next_base;
    mk_undo = t.undo_off + t.undo_len }

(** Rewind the memory to [m]: replay the undo log backwards down to the
    mark (restoring every overwritten cell, oldest value last), drop the
    regions allocated since, and rewind the allocation cursor.  Requires
    journaling enabled at [m]'s creation and neither a rollback past [m]
    nor a {!retire} of [m]'s history since. *)
let rollback t (m : mark) =
  if m.mk_undo > t.undo_off + t.undo_len || m.mk_undo < t.undo_off
     || m.mk_regions > Array.length t.regions then
    invalid_arg "Memory.rollback: stale mark";
  for i = t.undo_len - 1 downto m.mk_undo - t.undo_off do
    let addr = t.undo_addr.(i) in
    let r = find_region t addr in
    r.cells.(addr - r.base) <- t.undo_prev.(i)
  done;
  t.undo_len <- m.mk_undo - t.undo_off;
  if Array.length t.regions > m.mk_regions then
    t.regions <- Array.sub t.regions 0 m.mk_regions;
  t.next_base <- m.mk_next_base;
  t.last <- 0

(** Drop undo entries older than [m]: nothing can roll back before it any
    more.  Called when a checkpoint is superseded, so the journal only ever
    holds the history the retained checkpoints might need — bounded by a
    couple of checkpoint intervals' worth of stores, not the whole run. *)
let retire t (m : mark) =
  let shift = m.mk_undo - t.undo_off in
  if shift > 0 then begin
    let keep = max 0 (t.undo_len - shift) in
    if keep > 0 then begin
      Array.blit t.undo_addr shift t.undo_addr 0 keep;
      Array.blit t.undo_prev shift t.undo_prev 0 keep
    end;
    t.undo_len <- keep;
    t.undo_off <- m.mk_undo
  end

(* ----- Whole-image capture and restore (golden-prefix forking) ----- *)

(** A deep, self-contained copy of the memory contents: every region's
    cells plus the allocation cursor.  Unlike a {!mark} (a position in the
    undo journal), an image does not depend on the journal's history, so it
    can restore a *different* [t] — the per-worker trial arenas restore the
    golden run's captured state into their own memory.  Immutable once
    captured; safe to share read-only across domains. *)
type image = {
  im_regions : region array;
  im_next_base : int;
}

let cells_equal a b =
  Array.length a = Array.length b
  && begin
    let same = ref true and j = ref 0 in
    while !same && !j < Array.length a do
      (* Values are immutable, so a shared cell (an interned small
         integer, an untouched input) needs no bit comparison. *)
      let x = Array.unsafe_get a !j and y = Array.unsafe_get b !j in
      if not (x == y || Value.equal x y) then same := false;
      incr j
    done;
    !same
  end

let region_equal a b =
  a.base = b.base && a.size = b.size && cells_equal a.cells b.cells

(** [like]: an earlier image of the same memory.  A region still equal to
    that image's region at the same index shares it instead of being
    copied — images are immutable, so the sharing is unobservable — which
    keeps regions a run only reads out of the copy. *)
let capture ?like t =
  { im_regions =
      Array.mapi
        (fun i r ->
          match like with
          | Some im
            when i < Array.length im.im_regions
                 && region_equal im.im_regions.(i) r ->
            im.im_regions.(i)
          | Some _ | None -> { r with cells = Array.copy r.cells })
        t.regions;
    im_next_base = t.next_base }

(** Overwrite [t]'s entire contents with [im], reusing [t]'s existing cell
    arrays whenever the region layout matches (the steady state of an arena
    reset: a blit per region, no allocation).  The undo journal is emptied
    and journaling switched off — the restored state is a fresh starting
    point with no history; re-enable journaling afterwards if the run
    checkpoints. *)
let restore_image t (im : image) =
  let src = im.im_regions in
  let n = Array.length src in
  let old = t.regions in
  let n_old = Array.length old in
  let dst = if n_old = n then old else Array.sub src 0 n in
  for i = 0 to n - 1 do
    let s = src.(i) in
    if i < n_old && old.(i).base = s.base && old.(i).size = s.size then begin
      Array.blit s.cells 0 old.(i).cells 0 (Array.length s.cells);
      dst.(i) <- old.(i)
    end
    else dst.(i) <- { s with cells = Array.copy s.cells }
  done;
  t.regions <- dst;
  t.next_base <- im.im_next_base;
  t.last <- 0;
  t.undo_on <- false;
  t.undo_len <- 0;
  t.undo_off <- 0

(** Does [t] hold exactly [im]: the same region layout, allocation cursor
    and cell bits?  Stops at the first difference. *)
let equal_image t (im : image) =
  t.next_base = im.im_next_base
  && Array.length t.regions = Array.length im.im_regions
  && Array.for_all2 region_equal t.regions im.im_regions

(** Words an image pins (diagnostics / capture budgeting). *)
let image_words (im : image) =
  Array.fold_left (fun acc r -> acc + Array.length r.cells) 0 im.im_regions

(** Address extraction from a runtime value.  A float used as an address is a
    program error surfaced as a segfault-style trap; faults never change a
    value's kind, so this can only come from a workload bug. *)
let addr_of_value v =
  match v with
  | Value.Int i ->
    let a = Int64.to_int i in
    if Int64.of_int a <> i then raise (Segfault max_int) else a
  | Value.Float _ -> raise (Segfault min_int)

(* Bulk transfer helpers used by workload harnesses. *)

let write_ints t base arr =
  Array.iteri (fun i n -> store t (base + i) (Value.of_int n)) arr

let write_floats t base arr =
  Array.iteri (fun i f -> store t (base + i) (Value.of_float f)) arr

let read_ints_tolerant t base n =
  Array.init n (fun i ->
    let r = Value.to_real (load t (base + i)) in
    if Float.is_finite r && Float.abs r < 1e18 then int_of_float r else 0)

(** Allocate a region and fill it. *)
let alloc_ints t arr =
  let base = alloc t (Array.length arr) in
  write_ints t base arr;
  base

let alloc_floats t arr =
  let base = alloc t (Array.length arr) in
  write_floats t base arr;
  base
