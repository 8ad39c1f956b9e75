open Ir

(** Small combinators over {!Ir.Builder} shared by the workload kernels:
    counted loops carrying one/two/three values without match boilerplate,
    2-D addressing, rounding and clamping idioms. *)

let reg r = Instr.Reg r

(** Counted loop carrying one value; returns its final value. *)
let for1 b ~from ~until ~init ~body =
  match
    Builder.for_up b ~from ~until ~carried:[ init ]
      ~body:(fun ~i regs ->
        match regs with
        | [ acc ] -> [ body ~i (reg acc) ]
        | [] | _ :: _ :: _ -> assert false)
      ()
  with
  | [ r ] -> reg r
  | [] | _ :: _ :: _ -> assert false

(** Counted loop carrying two values. *)
let for2 b ~from ~until ~init:(i1, i2) ~body =
  match
    Builder.for_up b ~from ~until ~carried:[ i1; i2 ]
      ~body:(fun ~i regs ->
        match regs with
        | [ a; c ] ->
          let x, y = body ~i (reg a) (reg c) in
          [ x; y ]
        | [] | [ _ ] | _ :: _ :: _ :: _ -> assert false)
      ()
  with
  | [ r1; r2 ] -> (reg r1, reg r2)
  | [] | [ _ ] | _ :: _ :: _ :: _ -> assert false

(** Counted loop carrying three values. *)
let for3 b ~from ~until ~init:(i1, i2, i3) ~body =
  match
    Builder.for_up b ~from ~until ~carried:[ i1; i2; i3 ]
      ~body:(fun ~i regs ->
        match regs with
        | [ a; c; d ] ->
          let x, y, z = body ~i (reg a) (reg c) (reg d) in
          [ x; y; z ]
        | _ -> assert false)
      ()
  with
  | [ r1; r2; r3 ] -> (reg r1, reg r2, reg r3)
  | _ -> assert false

(** Two-way conditional carrying two merged values. *)
let if2 b cond ~then_ ~else_ =
  match
    Builder.if_ b cond
      ~then_:(fun () -> let x, y = then_ () in [ x; y ])
      ~else_:(fun () -> let x, y = else_ () in [ x; y ])
  with
  | [ r1; r2 ] -> (reg r1, reg r2)
  | [] | [ _ ] | _ :: _ :: _ :: _ -> assert false

(** Address of element (row, col) in a row-major matrix at [base]. *)
let at2 b base ~row ~ncols ~col =
  Builder.add b base (Builder.add b (Builder.mul b row ncols) col)

(** Load/store of a row-major matrix element. *)
let get2 b base ~row ~ncols ~col = Builder.load b (at2 b base ~row ~ncols ~col)
let set2 b base ~row ~ncols ~col v =
  Builder.store b (at2 b base ~row ~ncols ~col) v

(** Float accumulation: sum over i in [from, until) of [f ~i]. *)
let fsum b ~from ~until ~f =
  for1 b ~from ~until ~init:(Builder.immf 0.0)
    ~body:(fun ~i acc -> Builder.fadd b acc (f ~i))

(** Integer accumulation. *)
let isum b ~from ~until ~f =
  for1 b ~from ~until ~init:(Builder.imm 0)
    ~body:(fun ~i acc -> Builder.add b acc (f ~i))

(** Round-half-away-from-zero of a float to an integer, matching the host
    codecs' [round_half_away]. *)
let round b r =
  let ge0 = Builder.fge b r (Builder.immf 0.0) in
  let up = Builder.int_of_float b (Builder.fadd b r (Builder.immf 0.5)) in
  let down =
    Builder.neg b (Builder.int_of_float b (Builder.fsub b (Builder.immf 0.5) r))
  in
  Builder.select b ge0 up down

(** Clamp an integer value into [lo, hi]. *)
let clamp b v ~lo ~hi =
  let too_low = Builder.lt b v (Builder.imm lo) in
  let v = Builder.select b too_low (Builder.imm lo) v in
  let too_high = Builder.gt b v (Builder.imm hi) in
  Builder.select b too_high (Builder.imm hi) v

(** Integer absolute value. *)
let iabs b v =
  let negv = Builder.neg b v in
  Builder.select b (Builder.lt b v (Builder.imm 0)) negv v

(** Integer min/max. *)
let imin b x y = Builder.select b (Builder.lt b x y) x y
let imax b x y = Builder.select b (Builder.gt b x y) x y
