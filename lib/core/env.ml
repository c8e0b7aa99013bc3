exception Unbound of string

(* Variables are stored behind a [ref] cell so that a compiled expression
   (see {!Expr.compile}) can resolve a name to its cell once and then read
   or write it without any further hashtable lookup.  [set] mutates the
   existing cell in place, so cached cells stay valid for the lifetime of
   the environment.  Cells are never removed. *)
type t = {
  vars : (string, Value.t ref) Hashtbl.t;
  tbls : (string, Value.t array) Hashtbl.t;
}

let create () = { vars = Hashtbl.create 16; tbls = Hashtbl.create 4 }

let of_bindings ?(tables = []) vars =
  let env = create () in
  let add_var (name, v) =
    if Hashtbl.mem env.vars name then
      invalid_arg ("Env.of_bindings: duplicate variable " ^ name);
    Hashtbl.replace env.vars name (ref v)
  in
  let add_table (name, arr) =
    if Hashtbl.mem env.tbls name then
      invalid_arg ("Env.of_bindings: duplicate table " ^ name);
    Hashtbl.replace env.tbls name (Array.copy arr)
  in
  List.iter add_var vars;
  List.iter add_table tables;
  env

let copy env =
  let vars = Hashtbl.create (Hashtbl.length env.vars) in
  Hashtbl.iter (fun k cell -> Hashtbl.replace vars k (ref !cell)) env.vars;
  let tbls = Hashtbl.create (Hashtbl.length env.tbls) in
  Hashtbl.iter (fun k v -> Hashtbl.replace tbls k (Array.copy v)) env.tbls;
  { vars; tbls }

let get env name =
  match Hashtbl.find_opt env.vars name with
  | Some cell -> !cell
  | None -> raise (Unbound name)

let set env name v =
  match Hashtbl.find_opt env.vars name with
  | Some cell -> cell := v
  | None -> Hashtbl.replace env.vars name (ref v)

let mem env name = Hashtbl.mem env.vars name

let find_ref env name = Hashtbl.find_opt env.vars name

let find_table env name = Hashtbl.find_opt env.tbls name

let get_table env name =
  match Hashtbl.find_opt env.tbls name with
  | Some arr -> arr
  | None -> raise (Unbound name)

let table_get env name i =
  let arr = get_table env name in
  if i < 0 || i >= Array.length arr then
    invalid_arg
      (Printf.sprintf "Env.table_get: index %d out of bounds for %s[%d]" i name
         (Array.length arr));
  arr.(i)

let table_set env name i v =
  let arr = get_table env name in
  if i < 0 || i >= Array.length arr then
    invalid_arg
      (Printf.sprintf "Env.table_set: index %d out of bounds for %s[%d]" i name
         (Array.length arr));
  arr.(i) <- v

(* Most nets declare no variable, and [Graph.state] asks for every
   state's bindings: an empty env skips the fold's closure and the sort. *)
let bindings env =
  if Hashtbl.length env.vars = 0 then []
  else
    Hashtbl.fold (fun k cell acc -> (k, !cell) :: acc) env.vars []
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let tables env =
  Hashtbl.fold (fun k v acc -> (k, Array.copy v) :: acc) env.tbls []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

(* Names are unique keys, so equal sizes and every entry of [a] found
   equal in [b] is equality, with no sort or copy.  Names are compared
   as strings, never rendered, so the single binding ["a=1;b" = 2] and
   the pair [a = 1; b = 2] stay distinct. *)
let equal a b =
  let covers tbl eq (k, v) =
    match Hashtbl.find_opt tbl k with Some v' -> eq v v' | None -> false
  in
  let cells u v = Array.length u = Array.length v && Array.for_all2 Value.equal u v in
  Hashtbl.length a.vars = Hashtbl.length b.vars
  && Hashtbl.length a.tbls = Hashtbl.length b.tbls
  && Seq.for_all (covers b.vars (fun u v -> Value.equal !u !v)) (Hashtbl.to_seq a.vars)
  && Seq.for_all (covers b.tbls cells) (Hashtbl.to_seq a.tbls)

let hash env =
  let h = ref 17 in
  let mix v = h := (!h * 31) lxor v in
  List.iter
    (fun (k, v) ->
      mix (Hashtbl.hash k);
      mix (Value.hash v))
    (bindings env);
  List.iter
    (fun (k, arr) ->
      mix (Hashtbl.hash k);
      Array.iter (fun v -> mix (Value.hash v)) arr)
    (tables env);
  !h land max_int
