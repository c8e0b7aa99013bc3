(* SplitMix64: Steele, Lea & Flood, "Fast splittable pseudorandom number
   generators", OOPSLA 2014.  State advances by the golden-gamma constant;
   outputs are a finalizer of the state. *)

(* The 64-bit state lives unboxed in 8 bytes: storing a new [int64] in a
   mutable record field would allocate a boxed copy on every draw.
   [bits64], [unit_float] and [float] are inlined into their callers,
   so a draw does not box its [int64] or [float] result either. *)
type t = Bytes.t

external get64u : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set64u : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

let golden_gamma = 0x9E3779B97F4A7C15L

let of_state s =
  let g = Bytes.create 8 in
  set64u g 0 s;
  g

let create seed = of_state (Int64.of_int seed)

let state g = get64u g 0

let copy = Bytes.copy

let[@inline] bits64 g =
  let z = Int64.add (get64u g 0) golden_gamma in
  set64u g 0 z;
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let split g = of_state (bits64 g)

(* Non-negative 62-bit value, cheap and unbiased enough for modulo use
   after rejection sampling below. *)
let bits62 g = Int64.to_int (Int64.shift_right_logical (bits64 g) 2)

let int g n =
  if n <= 0 then invalid_arg "Prng.int: bound must be positive";
  (* rejection sampling to avoid modulo bias *)
  let bound = 0x3FFFFFFFFFFFFFFF in
  let limit = bound - (bound mod n) in
  let rec draw () =
    let v = bits62 g in
    if v >= limit then draw () else v mod n
  in
  draw ()

let int_range g lo hi =
  if lo > hi then invalid_arg "Prng.int_range: empty range";
  lo + int g (hi - lo + 1)

let[@inline] unit_float g =
  (* 53 random bits into [0,1) *)
  let v = Int64.to_float (Int64.shift_right_logical (bits64 g) 11) in
  v *. (1.0 /. 9007199254740992.0)

let[@inline] float g x = unit_float g *. x

let uniform g lo hi =
  if lo > hi then invalid_arg "Prng.uniform: empty range";
  lo +. (unit_float g *. (hi -. lo))

let exponential g mean =
  if mean <= 0.0 then invalid_arg "Prng.exponential: mean must be positive";
  let u = unit_float g in
  (* 1 - u is in (0,1], so log is finite *)
  -.mean *. log (1.0 -. u)

let choose_weighted g items =
  let total =
    List.fold_left
      (fun acc (_, w) ->
        if w < 0.0 then invalid_arg "Prng.choose_weighted: negative weight";
        acc +. w)
      0.0 items
  in
  if total <= 0.0 then invalid_arg "Prng.choose_weighted: non-positive total weight";
  let target = unit_float g *. total in
  let rec pick acc = function
    | [] -> invalid_arg "Prng.choose_weighted: empty list"
    | [ (x, _) ] -> x
    | (x, w) :: rest ->
      let acc = acc +. w in
      if target < acc then x else pick acc rest
  in
  pick 0.0 items
