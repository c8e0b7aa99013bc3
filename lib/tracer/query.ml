module Trace = Pnut_trace.Trace
module Expr = Pnut_core.Expr
module Env = Pnut_core.Env
module Value = Pnut_core.Value

type formula =
  | Atom of Expr.t
  | Not of formula
  | And of formula * formula
  | Or of formula * formula
  | Implies of formula * formula
  | Inev of formula
  | Alw of formula

type domain = {
  except : int list;
  such_that : formula option;
}

let whole = { except = []; such_that = None }

type t =
  | Forall of domain * formula
  | Exists of domain * formula

type result =
  | Holds of int option
  | Fails of int option
  | Vacuous

let holds = function
  | Holds _ | Vacuous -> true
  | Fails _ -> false

let rec atoms acc = function
  | Atom e -> e :: acc
  | Not f | Inev f | Alw f -> atoms acc f
  | And (a, b) | Or (a, b) | Implies (a, b) -> atoms (atoms acc a) b

let formula_atoms f = atoms [] f

(* Evaluate every atom at every state of the trace in one forward pass.
   Returns a lookup: atom index -> bool array over states 0..n. *)
let atom_matrix trace atom_list =
  let deltas = Trace.deltas trace in
  let n_states = Array.length deltas + 1 in
  let cursor = Trace.cursor (Trace.header trace) in
  (* Free variables of all atoms, each bound to its source. *)
  let sources = Hashtbl.create 16 in
  let resolve name =
    if not (Hashtbl.mem sources name) then
      match Trace.lookup cursor name with
      | source :: _ -> Hashtbl.replace sources name source
      | [] ->
        invalid_arg
          (Printf.sprintf
             "unknown identifier %s (no such place, transition or variable)"
             name)
  in
  List.iter (fun e -> List.iter resolve (Expr.variables e)) atom_list;
  let scratch = Env.create () in
  let eval_atom e =
    Hashtbl.iter
      (fun name source -> Env.set scratch name (Trace.read cursor source))
      sources;
    match Expr.eval scratch e with
    | Value.Bool b -> b
    | (Value.Int _ | Value.Float _) as v ->
      invalid_arg
        (Printf.sprintf "formula atom %s is not boolean (got %s)"
           (Expr.to_string e) (Value.to_string v))
    | exception (Expr.Eval_error msg | Value.Type_error msg) -> invalid_arg msg
  in
  let matrix =
    Array.of_list (List.map (fun _ -> Array.make n_states false) atom_list)
  in
  let record state =
    List.iteri (fun ai e -> matrix.(ai).(state) <- eval_atom e) atom_list
  in
  record 0;
  let step = Trace.emit (Trace.step cursor) in
  Array.iteri
    (fun i d ->
      step d;
      record (i + 1))
    deltas;
  matrix

(* A context mapping each atom (by physical position in the collected
   list) to its row. *)
let rec eval_rows atom_list matrix f : bool array =
  let row_of_atom e =
    let rec go i = function
      | [] -> assert false
      | e' :: rest -> if e' == e then matrix.(i) else go (i + 1) rest
    in
    go 0 atom_list
  in
  match f with
  | Atom e -> row_of_atom e
  | Not g -> Array.map not (eval_rows atom_list matrix g)
  | And (a, b) ->
    let ra = eval_rows atom_list matrix a and rb = eval_rows atom_list matrix b in
    Array.mapi (fun i v -> v && rb.(i)) ra
  | Or (a, b) ->
    let ra = eval_rows atom_list matrix a and rb = eval_rows atom_list matrix b in
    Array.mapi (fun i v -> v || rb.(i)) ra
  | Implies (a, b) ->
    let ra = eval_rows atom_list matrix a and rb = eval_rows atom_list matrix b in
    Array.mapi (fun i v -> (not v) || rb.(i)) ra
  | Inev g ->
    let rg = eval_rows atom_list matrix g in
    let n = Array.length rg in
    let out = Array.make n false in
    let future = ref false in
    for i = n - 1 downto 0 do
      future := !future || rg.(i);
      out.(i) <- !future
    done;
    out
  | Alw g ->
    let rg = eval_rows atom_list matrix g in
    let n = Array.length rg in
    let out = Array.make n true in
    let future = ref true in
    for i = n - 1 downto 0 do
      future := !future && rg.(i);
      out.(i) <- !future
    done;
    out

let query_formulas = function
  | Forall (d, f) | Exists (d, f) -> (
    match d.such_that with
    | Some g -> [ g; f ]
    | None -> [ f ])

let decide q n_states rows =
  let in_domain d =
    let filter =
      match d.such_that with
      | Some g -> rows g
      | None -> Array.make n_states true
    in
    fun i -> filter.(i) && not (List.mem i d.except)
  in
  match q with
  | Forall (d, f) ->
    let member = in_domain d in
    let truth = rows f in
    let rec go i saw_any =
      if i >= n_states then if saw_any then Holds None else Vacuous
      else if member i then
        if truth.(i) then go (i + 1) true else Fails (Some i)
      else go (i + 1) saw_any
    in
    go 0 false
  | Exists (d, f) ->
    let member = in_domain d in
    let truth = rows f in
    let rec go i =
      if i >= n_states then Fails None
      else if member i && truth.(i) then Holds (Some i)
      else go (i + 1)
    in
    go 0

let eval trace q =
  let atom_list = List.concat_map formula_atoms (query_formulas q) in
  let matrix = atom_matrix trace atom_list in
  decide q (Trace.length trace + 1) (eval_rows atom_list matrix)

let eval_formula trace f state =
  if state < 0 || state > Trace.length trace then
    invalid_arg "Query.eval_formula: state index out of range";
  let atom_list = formula_atoms f in
  let matrix = atom_matrix trace atom_list in
  (eval_rows atom_list matrix f).(state)

let pp_result ppf = function
  | Holds None -> Format.pp_print_string ppf "holds"
  | Holds (Some i) -> Format.fprintf ppf "holds (witness state #%d)" i
  | Fails None -> Format.pp_print_string ppf "fails (no witness)"
  | Fails (Some i) -> Format.fprintf ppf "fails (counterexample state #%d)" i
  | Vacuous -> Format.pp_print_string ppf "vacuously holds (empty domain)"
