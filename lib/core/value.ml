type t =
  | Int of int
  | Float of float
  | Bool of bool

exception Type_error of string

let type_name = function
  | Int _ -> "int"
  | Float _ -> "float"
  | Bool _ -> "bool"

let type_error want v =
  raise (Type_error (Printf.sprintf "expected %s, got %s" want (type_name v)))

let to_float = function
  | Int i -> float_of_int i
  | Float f -> f
  | Bool _ as v -> type_error "number" v

let to_int = function
  | Int i -> i
  | Float f -> int_of_float f
  | Bool _ as v -> type_error "number" v

let equal a b =
  match a, b with
  | Bool x, Bool y -> x = y
  | Bool _, (Int _ | Float _) | (Int _ | Float _), Bool _ -> false
  | Int x, Int y -> x = y
  | (Int _ | Float _), (Int _ | Float _) -> Float.equal (to_float a) (to_float b)

(* Must agree with [equal]: numerically equal Int/Float values hash the
   same, via the float image.  [Hashtbl.hash] mixes its bits: a small
   integer's raw image has all-zero low bits, which hash tables bucket on. *)
let hash = function
  | Bool false -> 0x2545F491
  | Bool true -> 0x4F6CDD1D
  | (Int _ | Float _) as v -> Hashtbl.hash (to_float v)

let compare_num a b =
  match a, b with
  | Int x, Int y -> compare x y
  | (Int _ | Float _), (Int _ | Float _) -> compare (to_float a) (to_float b)
  | (Bool _, _ | _, Bool _) ->
    raise (Type_error "cannot order boolean values")

let pp ppf = function
  | Int i -> Format.pp_print_int ppf i
  | Float f -> Format.fprintf ppf "%g" f
  | Bool b -> Format.pp_print_bool ppf b

let to_string v = Format.asprintf "%a" pp v
