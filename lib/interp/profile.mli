(** Interpreter execution profiling: per-opcode-class dynamic counts,
    per-block execution counts and check execute/fire counters.

    A profile is attached to one run via {!Machine.config.profile}; when
    the field is [None] the interpreter pays a single pointer test per
    recorded event and nothing else.  Profiles are observation-only —
    they never feed back into execution, so a profiled run is
    bit-identical to a bare one (the observability determinism contract,
    DESIGN.md §8).

    A profile instance is plainly mutable and NOT domain-safe: give each
    run (or each campaign trial) its own instance and combine them with
    {!merge_into} afterwards, in a deterministic order. *)

type t

val create : unit -> t
val reset : t -> unit

(** Accumulate [src] into [dst] (bucket-wise sums). *)
val merge_into : dst:t -> t -> unit

(** {2 Recording — called by {!Machine}, only when profiling is on} *)

val note_instr : t -> Compiled.cinstr -> unit

(** [note_block p func_name n_blocks block_idx] counts one execution of
    the block. *)
val note_block : t -> string -> int -> int -> unit

val note_check_exec : t -> int -> unit
val note_check_fire : t -> int -> unit

(** {2 Views} *)

(** Dynamic instructions recorded (sum over opcode classes). *)
val total_instrs : t -> int

(** Opcode classes with nonzero dynamic counts, heaviest first. *)
val opcode_rows : t -> (string * int) list

(** [(func, block_index, executions)], the 12 hottest, hottest first. *)
val hot_blocks : t -> (string * int * int) list

(** [(check_uid, executed, fired)] for every check that executed,
    by uid. *)
val check_rows : t -> (int * int * int) list

(** Per-block execution counts of [func], indexed in block layout order
    (the node ids of [Analysis.Cfg]); [None] if the function never ran.
    Returns a copy — mutating it does not touch the profile. *)
val func_block_counts : t -> string -> int array option
