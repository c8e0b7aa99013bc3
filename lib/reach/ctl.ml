module Net = Pnut_core.Net
module Expr = Pnut_core.Expr
module Env = Pnut_core.Env
module Value = Pnut_core.Value

type formula =
  | True
  | False
  | Atom of Expr.t
  | Not of formula
  | And of formula * formula
  | Or of formula * formula
  | Implies of formula * formula
  | EX of formula
  | AX of formula
  | EF of formula
  | AF of formula
  | EG of formula
  | AG of formula
  | EU of formula * formula
  | AU of formula * formula

(* Successor state indices, with an implicit self-loop at deadlocks. *)
let successor_ids g i =
  match Graph.successors g i with
  | [] -> [ i ]
  | l -> List.map (fun e -> e.Graph.e_to) l

let predecessor_ids g i =
  let explicit = List.map (fun e -> e.Graph.e_from) (Graph.predecessors g i) in
  if Graph.successors g i = [] then i :: explicit else explicit

let eval_atom g e =
  let net = Graph.net g in
  let n = Graph.num_states g in
  let out = Array.make n false in
  let scratch = Env.create () in
  let free = Expr.variables e in
  for i = 0 to n - 1 do
    let s = Graph.state g i in
    let bind name =
      match Net.find_place net name with
      | Some p -> Env.set scratch name (Value.Int s.Graph.s_marking.(p.Net.p_id))
      | None -> (
        match List.assoc_opt name s.Graph.s_env with
        | Some v -> Env.set scratch name v
        | None ->
          invalid_arg
            (Printf.sprintf "unknown identifier %s (no place or variable)" name))
    in
    List.iter bind free;
    match Expr.eval scratch e with
    | Value.Bool b -> out.(i) <- b
    | (Value.Int _ | Value.Float _) as v ->
      invalid_arg
        (Printf.sprintf "atom %s is not boolean (got %s)" (Expr.to_string e)
           (Value.to_string v))
    | exception (Expr.Eval_error msg | Value.Type_error msg) -> invalid_arg msg
  done;
  out

(* E[f U g]: least fixpoint, backward from g-states through f-states. *)
let eu g f_set g_set =
  let n = Graph.num_states g in
  let out = Array.make n false in
  let stack = ref [] in
  for i = 0 to n - 1 do
    if g_set.(i) then begin
      out.(i) <- true;
      stack := i :: !stack
    end
  done;
  while !stack <> [] do
    match !stack with
    | [] -> ()
    | i :: rest ->
      stack := rest;
      List.iter
        (fun p ->
          if (not out.(p)) && f_set.(p) then begin
            out.(p) <- true;
            stack := p :: !stack
          end)
        (predecessor_ids g i)
  done;
  out

(* A[f U g]: least fixpoint — g holds, or f holds and all successors are
   already in the set.  Iterate until stable. *)
let au g f_set g_set =
  let n = Graph.num_states g in
  let out = Array.copy g_set in
  let changed = ref true in
  while !changed do
    changed := false;
    for i = 0 to n - 1 do
      if (not out.(i)) && f_set.(i)
         && List.for_all (fun j -> out.(j)) (successor_ids g i)
      then begin
        out.(i) <- true;
        changed := true
      end
    done
  done;
  out

(* EG f: greatest fixpoint — f holds and some successor stays in the set. *)
let eg g f_set =
  let n = Graph.num_states g in
  let out = Array.copy f_set in
  let changed = ref true in
  while !changed do
    changed := false;
    for i = 0 to n - 1 do
      if out.(i) && not (List.exists (fun j -> out.(j)) (successor_ids g i))
      then begin
        out.(i) <- false;
        changed := true
      end
    done
  done;
  out

let rec sat g f =
  let n = Graph.num_states g in
  match f with
  | True -> Array.make n true
  | False -> Array.make n false
  | Atom e -> eval_atom g e
  | Not f -> Array.map not (sat g f)
  | And (a, b) ->
    let ra = sat g a and rb = sat g b in
    Array.mapi (fun i v -> v && rb.(i)) ra
  | Or (a, b) ->
    let ra = sat g a and rb = sat g b in
    Array.mapi (fun i v -> v || rb.(i)) ra
  | Implies (a, b) ->
    let ra = sat g a and rb = sat g b in
    Array.mapi (fun i v -> (not v) || rb.(i)) ra
  | EX f ->
    let rf = sat g f in
    Array.init n (fun i -> List.exists (fun j -> rf.(j)) (successor_ids g i))
  | AX f ->
    let rf = sat g f in
    Array.init n (fun i -> List.for_all (fun j -> rf.(j)) (successor_ids g i))
  | EF f -> eu g (Array.make n true) (sat g f)
  | AF f -> au g (Array.make n true) (sat g f)
  | EG f -> eg g (sat g f)
  | AG f -> Array.map not (eu g (Array.make n true) (Array.map not (sat g f)))
  | EU (a, b) -> eu g (sat g a) (sat g b)
  | AU (a, b) -> au g (sat g a) (sat g b)

let check g f =
  if not (Graph.complete g) then
    invalid_arg "Ctl.check: reachability graph was truncated";
  (sat g f).(Graph.initial g)

let counterexample g f =
  let truth = sat g f in
  let n = Graph.num_states g in
  let rec go i = if i >= n then None else if not truth.(i) then Some i else go (i + 1) in
  go 0
