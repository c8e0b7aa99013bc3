type unop =
  | Neg
  | Not

type binop =
  | Add | Sub | Mul | Div | Mod
  | Eq | Ne | Lt | Le | Gt | Ge
  | And | Or

type t =
  | Const of Value.t
  | Var of string
  | Index of string * t
  | Unop of unop * t
  | Binop of binop * t * t
  | If of t * t * t
  | Call of string * t list

type stmt =
  | Assign of string * t
  | Table_assign of string * t * t

exception Eval_error of string

let eval_error fmt = Printf.ksprintf (fun s -> raise (Eval_error s)) fmt

let int i = Const (Value.Int i)
let float f = Const (Value.Float f)
let bool b = Const (Value.Bool b)
let var name = Var name
let ( + ) a b = Binop (Add, a, b)
let ( - ) a b = Binop (Sub, a, b)
let ( * ) a b = Binop (Mul, a, b)
let ( / ) a b = Binop (Div, a, b)
let ( = ) a b = Binop (Eq, a, b)
let ( <> ) a b = Binop (Ne, a, b)
let ( < ) a b = Binop (Lt, a, b)
let ( <= ) a b = Binop (Le, a, b)
let ( > ) a b = Binop (Gt, a, b)
let ( >= ) a b = Binop (Ge, a, b)
let ( && ) a b = Binop (And, a, b)
let ( || ) a b = Binop (Or, a, b)
let not_ a = Unop (Not, a)
let irand lo hi = Call ("irand", [ lo; hi ])
let index tbl i = Index (tbl, i)

(* Arithmetic on values: int op int stays int; any float promotes. *)
let arith name int_op float_op a b =
  match a, b with
  | Value.Int x, Value.Int y -> Value.Int (int_op x y)
  | (Value.Int _ | Value.Float _), (Value.Int _ | Value.Float _) ->
    Value.Float (float_op (Value.to_float a) (Value.to_float b))
  | (Value.Bool _, _ | _, Value.Bool _) ->
    eval_error "operator %s applied to a boolean" name

(* One binop application over already-evaluated operands; shared between
   the interpreter and the closure compiler so the two can never drift. *)
let apply_binop op va vb =
  let cmp op = Value.Bool (op (Value.compare_num va vb) 0) in
  match op with
  | Add -> arith "+" Stdlib.( + ) Stdlib.( +. ) va vb
  | Sub -> arith "-" Stdlib.( - ) Stdlib.( -. ) va vb
  | Mul -> arith "*" Stdlib.( * ) Stdlib.( *. ) va vb
  | Div -> (
    match va, vb with
    | Value.Int _, Value.Int 0 -> eval_error "integer division by zero"
    | _ -> arith "/" Stdlib.( / ) Stdlib.( /. ) va vb)
  | Mod -> (
    match va, vb with
    | Value.Int _, Value.Int 0 -> eval_error "modulo by zero"
    | Value.Int x, Value.Int y -> Value.Int (x mod y)
    | _ -> eval_error "%% requires integer operands")
  | Eq -> Value.Bool (Value.equal va vb)
  | Ne -> Value.Bool (Stdlib.not (Value.equal va vb))
  | Lt -> cmp Stdlib.( < )
  | Le -> cmp Stdlib.( <= )
  | Gt -> cmp Stdlib.( > )
  | Ge -> cmp Stdlib.( >= )
  | And | Or -> assert false (* handled in [eval] for short-circuiting *)

let rec eval ?prng env expr =
  match expr with
  | Const v -> v
  | Var name -> (
    try Env.get env name
    with Env.Unbound name -> eval_error "unbound variable %s" name)
  | Index (tbl, e) -> (
    let i = Value.to_int (eval ?prng env e) in
    try Env.table_get env tbl i
    with
    | Env.Unbound name -> eval_error "unbound table %s" name
    | Invalid_argument msg -> eval_error "%s" msg)
  | Unop (Neg, e) -> (
    match eval ?prng env e with
    | Value.Int i -> Value.Int (Stdlib.( - ) 0 i)
    | Value.Float f -> Value.Float (-.f)
    | Value.Bool _ -> eval_error "negation applied to a boolean")
  | Unop (Not, e) -> Value.Bool (Stdlib.not (eval_bool ?prng env e))
  | Binop (And, a, b) ->
    (* short-circuit *)
    Value.Bool (if eval_bool ?prng env a then eval_bool ?prng env b else false)
  | Binop (Or, a, b) ->
    Value.Bool (if eval_bool ?prng env a then true else eval_bool ?prng env b)
  | Binop (op, a, b) -> eval_binop ?prng env op a b
  | If (c, th, el) ->
    if eval_bool ?prng env c then eval ?prng env th else eval ?prng env el
  | Call (fn, args) -> eval_call ?prng env fn args

and eval_binop ?prng env op a b =
  let va = eval ?prng env a in
  let vb = eval ?prng env b in
  apply_binop op va vb

and eval_call ?prng env fn args =
  let values () = List.map (eval ?prng env) args in
  let unary name f =
    match values () with
    | [ v ] -> f v
    | vs -> eval_error "%s expects 1 argument, got %d" name (List.length vs)
  in
  let binary name f =
    match values () with
    | [ a; b ] -> f a b
    | vs -> eval_error "%s expects 2 arguments, got %d" name (List.length vs)
  in
  match fn with
  | "irand" -> (
    match prng with
    | None -> eval_error "irand used in a context without a random stream"
    | Some g ->
      binary "irand" (fun a b ->
          let lo = Value.to_int a and hi = Value.to_int b in
          if Stdlib.( > ) lo hi then
            eval_error "irand: empty range [%d,%d]" lo hi;
          Value.Int (Prng.int_range g lo hi)))
  | "min" ->
    binary "min" (fun a b ->
        if Stdlib.( <= ) (Value.compare_num a b) 0 then a else b)
  | "max" ->
    binary "max" (fun a b ->
        if Stdlib.( >= ) (Value.compare_num a b) 0 then a else b)
  | "abs" ->
    unary "abs" (function
      | Value.Int i -> Value.Int (Stdlib.abs i)
      | Value.Float f -> Value.Float (Float.abs f)
      | Value.Bool _ -> eval_error "abs applied to a boolean")
  | "floor" -> unary "floor" (fun v -> Value.Float (Float.floor (Value.to_float v)))
  | "ceil" -> unary "ceil" (fun v -> Value.Float (Float.ceil (Value.to_float v)))
  | "int" -> unary "int" (fun v -> Value.Int (Value.to_int v))
  | "float" -> unary "float" (fun v -> Value.Float (Value.to_float v))
  | other -> eval_error "unknown function %s" other

and eval_bool ?prng env e =
  match eval ?prng env e with
  | Value.Bool b -> b
  | (Value.Int _ | Value.Float _) as v ->
    eval_error "expected a boolean, got %s" (Value.to_string v)

let eval_float ?prng env e = Value.to_float (eval ?prng env e)
let eval_int ?prng env e = Value.to_int (eval ?prng env e)

let run_stmt ?prng env = function
  | Assign (name, e) -> Env.set env name (eval ?prng env e)
  | Table_assign (tbl, ie, e) -> (
    let i = eval_int ?prng env ie in
    let v = eval ?prng env e in
    try Env.table_set env tbl i v
    with
    | Env.Unbound name -> eval_error "unbound table %s" name
    | Invalid_argument msg -> eval_error "%s" msg)

let run_stmts ?prng env stmts = List.iter (run_stmt ?prng env) stmts

(* -- compilation to closures --

   [compile] turns an expression into a [unit -> Value.t] closure bound
   to one environment (and optionally one random stream).  Variable and
   table names resolve to their live [Env] cells on first use and are
   cached — [Env.set] mutates cells in place and never removes them, so
   a cached cell stays valid for the environment's lifetime.  The
   compiled closure evaluates sub-expressions in exactly the order the
   interpreter does (left to right, short-circuiting [and]/[or],
   arguments before arity checks) and raises the same [Eval_error]
   messages, so random draws and failure behaviour are identical — a
   trace produced through compiled expressions is bit-for-bit the trace
   the interpreter produces. *)

let compile ?prng env expr =
  let rec comp e =
    match e with
    | Const v -> fun () -> v
    | Var name ->
      let slot = ref None in
      fun () -> (
        match !slot with
        | Some cell -> !cell
        | None -> (
          match Env.find_ref env name with
          | Some cell ->
            slot := Some cell;
            !cell
          | None -> eval_error "unbound variable %s" name))
    | Index (tbl, ie) ->
      let ci = comp ie in
      let slot = ref None in
      fun () ->
        let i = Value.to_int (ci ()) in
        let arr =
          match !slot with
          | Some arr -> arr
          | None -> (
            match Env.find_table env tbl with
            | Some arr ->
              slot := Some arr;
              arr
            | None -> eval_error "unbound table %s" tbl)
        in
        let len = Array.length arr in
        if Stdlib.( && ) (Stdlib.( <= ) 0 i) (Stdlib.( < ) i len) then arr.(i)
        else
          eval_error "Env.table_get: index %d out of bounds for %s[%d]" i tbl
            len
    | Unop (Neg, e) ->
      let c = comp e in
      fun () -> (
        match c () with
        | Value.Int i -> Value.Int (Stdlib.( - ) 0 i)
        | Value.Float f -> Value.Float (-.f)
        | Value.Bool _ -> eval_error "negation applied to a boolean")
    | Unop (Not, e) ->
      let c = comp_bool e in
      fun () -> Value.Bool (Stdlib.not (c ()))
    | Binop (And, a, b) ->
      let ca = comp_bool a in
      let cb = comp_bool b in
      fun () -> Value.Bool (if ca () then cb () else false)
    | Binop (Or, a, b) ->
      let ca = comp_bool a in
      let cb = comp_bool b in
      fun () -> Value.Bool (if ca () then true else cb ())
    | Binop (op, a, b) ->
      let ca = comp a in
      let cb = comp b in
      fun () ->
        let va = ca () in
        let vb = cb () in
        apply_binop op va vb
    | If (c, th, el) ->
      let cc = comp_bool c in
      let cth = comp th in
      let cel = comp el in
      fun () -> if cc () then cth () else cel ()
    | Call (fn, args) -> comp_call fn args
  and comp_bool e =
    let c = comp e in
    fun () -> (
      match c () with
      | Value.Bool b -> b
      | (Value.Int _ | Value.Float _) as v ->
        eval_error "expected a boolean, got %s" (Value.to_string v))
  and comp_call fn args =
    (* like [eval_call]'s [values ()]: arguments are evaluated left to
       right before the arity check, so their side effects (random
       draws, errors) happen even when the call is malformed *)
    let rec force = function
      | [] -> []
      | c :: rest ->
        let v = c () in
        v :: force rest
    in
    let unary name f =
      let cs = List.map comp args in
      match cs with
      | [ c ] -> fun () -> f (c ())
      | _ ->
        fun () ->
          eval_error "%s expects 1 argument, got %d" name
            (List.length (force cs))
    in
    let binary name f =
      let cs = List.map comp args in
      match cs with
      | [ ca; cb ] ->
        fun () ->
          let a = ca () in
          let b = cb () in
          f a b
      | _ ->
        fun () ->
          eval_error "%s expects 2 arguments, got %d" name
            (List.length (force cs))
    in
    match fn with
    | "irand" -> (
      match prng with
      | None ->
        fun () -> eval_error "irand used in a context without a random stream"
      | Some g ->
        binary "irand" (fun a b ->
            let lo = Value.to_int a and hi = Value.to_int b in
            if Stdlib.( > ) lo hi then
              eval_error "irand: empty range [%d,%d]" lo hi;
            Value.Int (Prng.int_range g lo hi)))
    | "min" ->
      binary "min" (fun a b ->
          if Stdlib.( <= ) (Value.compare_num a b) 0 then a else b)
    | "max" ->
      binary "max" (fun a b ->
          if Stdlib.( >= ) (Value.compare_num a b) 0 then a else b)
    | "abs" ->
      unary "abs" (function
        | Value.Int i -> Value.Int (Stdlib.abs i)
        | Value.Float f -> Value.Float (Float.abs f)
        | Value.Bool _ -> eval_error "abs applied to a boolean")
    | "floor" ->
      unary "floor" (fun v -> Value.Float (Float.floor (Value.to_float v)))
    | "ceil" ->
      unary "ceil" (fun v -> Value.Float (Float.ceil (Value.to_float v)))
    | "int" -> unary "int" (fun v -> Value.Int (Value.to_int v))
    | "float" -> unary "float" (fun v -> Value.Float (Value.to_float v))
    | other -> fun () -> eval_error "unknown function %s" other
  in
  comp expr

let compile_bool ?prng env e =
  let c = compile ?prng env e in
  fun () -> (
    match c () with
    | Value.Bool b -> b
    | (Value.Int _ | Value.Float _) as v ->
      eval_error "expected a boolean, got %s" (Value.to_string v))

let compile_int ?prng env e =
  let c = compile ?prng env e in
  fun () -> Value.to_int (c ())

let variables expr =
  let rec go acc = function
    | Const _ -> acc
    | Var name -> name :: acc
    | Index (_, e) | Unop (_, e) -> go acc e
    | Binop (_, a, b) -> go (go acc a) b
    | If (a, b, c) -> go (go (go acc a) b) c
    | Call (_, args) -> List.fold_left go acc args
  in
  go [] expr |> List.sort_uniq String.compare

let rec is_deterministic = function
  | Const _ | Var _ -> true
  | Index (_, e) | Unop (_, e) -> is_deterministic e
  | Binop (_, a, b) -> Stdlib.( && ) (is_deterministic a) (is_deterministic b)
  | If (a, b, c) -> List.for_all is_deterministic [ a; b; c ]
  | Call ("irand", _) -> false
  | Call (_, args) -> List.for_all is_deterministic args

(* Pretty-printing in the concrete syntax of Pnut_lang.  Precedence levels:
   0 or, 1 and, 2 comparison, 3 add/sub, 4 mul/div/mod, 5 unary, 6 atom.
   Operand levels must mirror the parser's associativity so that printed
   text re-parses to the same tree: +,-,*,/,% are left-associative
   (right operand one level up), and/or right-associative (left operand
   one level up), comparisons non-associative (both one level up). *)
let binop_info = function
  | Or -> ("or", 0, `Right)
  | And -> ("and", 1, `Right)
  | Eq -> ("==", 2, `None)
  | Ne -> ("!=", 2, `None)
  | Lt -> ("<", 2, `None)
  | Le -> ("<=", 2, `None)
  | Gt -> (">", 2, `None)
  | Ge -> (">=", 2, `None)
  | Add -> ("+", 3, `Left)
  | Sub -> ("-", 3, `Left)
  | Mul -> ("*", 4, `Left)
  | Div -> ("/", 4, `Left)
  | Mod -> ("%", 4, `Left)

let rec pp_prec level ppf expr =
  match expr with
  | Const v -> Value.pp ppf v
  | Var name -> Format.pp_print_string ppf name
  | Index (tbl, e) -> Format.fprintf ppf "%s[%a]" tbl (pp_prec 0) e
  | Unop (op, e) ->
    let sym = match op with Neg -> "-" | Not -> "not " in
    if Stdlib.( > ) 5 level then Format.fprintf ppf "%s%a" sym (pp_prec 5) e
    else Format.fprintf ppf "(%s%a)" sym (pp_prec 5) e
  | Binop (op, a, b) ->
    let sym, prec, assoc = binop_info op in
    let left_level, right_level =
      let next = Stdlib.( + ) prec 1 in
      match assoc with
      | `Left -> (prec, next)
      | `Right -> (next, prec)
      | `None -> (next, next)
    in
    let body ppf () =
      Format.fprintf ppf "%a %s %a" (pp_prec left_level) a sym
        (pp_prec right_level) b
    in
    if Stdlib.( >= ) prec level then body ppf ()
    else Format.fprintf ppf "(%a)" body ()
  | If (c, th, el) ->
    Format.fprintf ppf "(if %a then %a else %a)" (pp_prec 0) c (pp_prec 0) th
      (pp_prec 0) el
  | Call (fn, args) ->
    Format.fprintf ppf "%s(%a)" fn
      (Format.pp_print_list
         ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ", ")
         (pp_prec 0))
      args

let pp ppf expr = pp_prec 0 ppf expr

let pp_stmt ppf = function
  | Assign (name, e) -> Format.fprintf ppf "%s = %a" name pp e
  | Table_assign (tbl, i, e) -> Format.fprintf ppf "%s[%a] = %a" tbl pp i pp e

let to_string e = Format.asprintf "%a" pp e
