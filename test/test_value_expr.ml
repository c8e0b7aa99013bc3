(* Tests for runtime values, environments, and the expression language
   (predicates/actions of the interpreted-net extension). *)

module Value = Pnut_core.Value
module Env = Pnut_core.Env
module Expr = Pnut_core.Expr
module Prng = Pnut_core.Prng

let value = Alcotest.testable Value.pp Value.equal

let eval ?env ?prng text_expr =
  let env = match env with Some e -> e | None -> Env.create () in
  Expr.eval ?prng env text_expr

(* -- Value -- *)

let test_value_equal () =
  Alcotest.(check bool) "int/float promote" true
    (Value.equal (Value.Int 1) (Value.Float 1.0));
  Alcotest.(check bool) "bool vs int" false
    (Value.equal (Value.Bool true) (Value.Int 1));
  Alcotest.(check bool) "bools" true
    (Value.equal (Value.Bool false) (Value.Bool false))

let test_value_hash () =
  Alcotest.(check int) "Int 1 and Float 1.0 hash alike"
    (Value.hash (Value.Int 1)) (Value.hash (Value.Float 1.0));
  (* hash tables bucket on the low bits: the counter values 0..1023
     must spread over them, or a counter net's environments all land in
     one bucket and interning goes quadratic *)
  let buckets =
    List.sort_uniq compare
      (List.init 1024 (fun i -> Value.hash (Value.Int i) land 1023))
  in
  Alcotest.(check bool) "low bits spread" true (List.length buckets > 512)

let test_value_coerce () =
  Alcotest.(check int) "float to int truncates" 3 (Value.to_int (Value.Float 3.7));
  Alcotest.(check (float 0.0)) "int to float" 5.0 (Value.to_float (Value.Int 5));
  Alcotest.check_raises "bool to float"
    (Value.Type_error "expected number, got bool") (fun () ->
      ignore (Value.to_float (Value.Bool true)))

let test_value_compare () =
  Alcotest.(check bool) "1 < 2.5" true
    (Value.compare_num (Value.Int 1) (Value.Float 2.5) < 0);
  Alcotest.check_raises "bool order" (Value.Type_error "cannot order boolean values")
    (fun () -> ignore (Value.compare_num (Value.Bool true) (Value.Int 1)))

(* -- Env -- *)

let test_env_basics () =
  let env = Env.of_bindings [ ("x", Value.Int 1) ] in
  Alcotest.check value "get" (Value.Int 1) (Env.get env "x");
  Env.set env "x" (Value.Int 2);
  Alcotest.check value "set" (Value.Int 2) (Env.get env "x");
  Alcotest.(check bool) "mem" true (Env.mem env "x");
  Alcotest.check_raises "unbound" (Env.Unbound "y") (fun () ->
      ignore (Env.get env "y"))

let test_env_tables () =
  let env =
    Env.of_bindings ~tables:[ ("t", [| Value.Int 10; Value.Int 20 |]) ] []
  in
  Alcotest.check value "table get" (Value.Int 20) (Env.table_get env "t" 1);
  Env.table_set env "t" 0 (Value.Int 99);
  Alcotest.check value "table set" (Value.Int 99) (Env.table_get env "t" 0);
  Alcotest.check_raises "bounds"
    (Invalid_argument "Env.table_get: index 5 out of bounds for t[2]")
    (fun () -> ignore (Env.table_get env "t" 5))

let test_env_copy_deep () =
  let env =
    Env.of_bindings ~tables:[ ("t", [| Value.Int 1 |]) ] [ ("x", Value.Int 1) ]
  in
  let copy = Env.copy env in
  Env.set env "x" (Value.Int 2);
  Env.table_set env "t" 0 (Value.Int 2);
  Alcotest.check value "scalar isolated" (Value.Int 1) (Env.get copy "x");
  Alcotest.check value "table isolated" (Value.Int 1) (Env.table_get copy "t" 0)

let test_env_snapshot_equal () =
  let a = Env.of_bindings [ ("x", Value.Int 1); ("y", Value.Bool true) ] in
  let b = Env.of_bindings [ ("y", Value.Bool true); ("x", Value.Int 1) ] in
  Alcotest.(check bool) "order-insensitive" true (Env.equal a b);
  Env.set b "x" (Value.Int 2);
  Alcotest.(check bool) "value-sensitive" false (Env.equal a b)

let test_env_equal () =
  let v i = Value.Int i in
  let a = Env.of_bindings ~tables:[ ("t", [| v 1; v 2 |]); ("u", [| v 3 |]) ]
      [ ("x", v 1); ("y", v 2) ] in
  let b = Env.of_bindings ~tables:[ ("u", [| v 3 |]); ("t", [| v 1; v 2 |]) ]
      [ ("y", v 2); ("x", v 1) ] in
  Alcotest.(check bool) "insertion order ignored" true (Env.equal a b);
  Alcotest.(check bool) "equal envs hash alike" true (Env.hash a = Env.hash b);
  Env.table_set b "t" 1 (v 9);
  Alcotest.(check bool) "tables compared by content" false (Env.equal a b);
  Env.table_set b "t" 1 (v 2);
  Alcotest.(check bool) "content restored" true (Env.equal a b);
  let short = Env.of_bindings ~tables:[ ("t", [| v 1 |]); ("u", [| v 3 |]) ]
      [ ("x", v 1); ("y", v 2) ] in
  Alcotest.(check bool) "table lengths compared" false (Env.equal a short);
  let one = Env.of_bindings [ ("a=1;b", v 2) ] in
  let two = Env.of_bindings [ ("a", v 1); ("b", v 2) ] in
  Alcotest.(check bool) "one binding is not two" false (Env.equal one two);
  Alcotest.(check bool) "nor two one" false (Env.equal two one);
  let other = Env.of_bindings [ ("a", v 1); ("c", v 2) ] in
  Alcotest.(check bool) "names compared" false (Env.equal two other)

let test_env_duplicate () =
  Alcotest.check_raises "duplicate var"
    (Invalid_argument "Env.of_bindings: duplicate variable x") (fun () ->
      ignore (Env.of_bindings [ ("x", Value.Int 1); ("x", Value.Int 2) ]))

(* -- Expr evaluation -- *)

let test_arith () =
  Alcotest.check value "int add" (Value.Int 7) (eval Expr.(int 3 + int 4));
  Alcotest.check value "promote" (Value.Float 4.5) (eval Expr.(int 4 + float 0.5));
  Alcotest.check value "int div" (Value.Int 2) (eval Expr.(int 7 / int 3));
  Alcotest.check value "mod" (Value.Int 1) (eval (Expr.Binop (Expr.Mod, Expr.int 7, Expr.int 3)));
  Alcotest.check value "neg" (Value.Int (-5)) (eval (Expr.Unop (Expr.Neg, Expr.int 5)))

let test_division_by_zero () =
  Alcotest.check_raises "div0" (Expr.Eval_error "integer division by zero")
    (fun () -> ignore (eval Expr.(int 1 / int 0)));
  Alcotest.check_raises "mod0" (Expr.Eval_error "modulo by zero") (fun () ->
      ignore (eval (Expr.Binop (Expr.Mod, Expr.int 1, Expr.int 0))))

let test_comparisons () =
  Alcotest.check value "lt" (Value.Bool true) (eval Expr.(int 1 < int 2));
  Alcotest.check value "ge" (Value.Bool false) (eval Expr.(int 1 >= int 2));
  Alcotest.check value "eq across types" (Value.Bool true)
    (eval Expr.(int 2 = float 2.0));
  Alcotest.check value "ne" (Value.Bool true) (eval Expr.(int 2 <> int 3))

let test_boolean_short_circuit () =
  (* the right operand would raise if evaluated *)
  let diverges = Expr.(int 1 / int 0 > int 0) in
  Alcotest.check value "and shortcuts" (Value.Bool false)
    (eval Expr.(bool false && diverges));
  Alcotest.check value "or shortcuts" (Value.Bool true)
    (eval Expr.(bool true || diverges))

let test_if () =
  Alcotest.check value "then" (Value.Int 1)
    (eval (Expr.If (Expr.bool true, Expr.int 1, Expr.int 2)));
  Alcotest.check value "else" (Value.Int 2)
    (eval (Expr.If (Expr.bool false, Expr.int 1, Expr.int 2)))

let test_vars_and_tables () =
  let env =
    Env.of_bindings
      ~tables:[ ("operands", [| Value.Int 0; Value.Int 1; Value.Int 2 |]) ]
      [ ("type_", Value.Int 2) ]
  in
  Alcotest.check value "var" (Value.Int 2) (eval ~env (Expr.var "type_"));
  Alcotest.check value "table lookup" (Value.Int 2)
    (eval ~env (Expr.index "operands" (Expr.var "type_")));
  Alcotest.check_raises "unbound var" (Expr.Eval_error "unbound variable nope")
    (fun () -> ignore (eval ~env (Expr.var "nope")))

let test_builtins () =
  Alcotest.check value "min" (Value.Int 2)
    (eval (Expr.Call ("min", [ Expr.int 5; Expr.int 2 ])));
  Alcotest.check value "max" (Value.Float 5.0)
    (eval (Expr.Call ("max", [ Expr.float 5.0; Expr.int 2 ])));
  Alcotest.check value "abs" (Value.Int 3)
    (eval (Expr.Call ("abs", [ Expr.int (-3) ])));
  Alcotest.check value "floor" (Value.Float 2.0)
    (eval (Expr.Call ("floor", [ Expr.float 2.9 ])));
  Alcotest.check value "ceil" (Value.Float 3.0)
    (eval (Expr.Call ("ceil", [ Expr.float 2.1 ])));
  Alcotest.check value "int cast" (Value.Int 2)
    (eval (Expr.Call ("int", [ Expr.float 2.9 ])));
  Alcotest.check_raises "unknown function"
    (Expr.Eval_error "unknown function mystery") (fun () ->
      ignore (eval (Expr.Call ("mystery", []))))

let test_irand () =
  let g = Prng.create 99 in
  for _ = 1 to 200 do
    match eval ~prng:g (Expr.irand (Expr.int 1) (Expr.int 3)) with
    | Value.Int v -> Alcotest.(check bool) "in [1,3]" true (v >= 1 && v <= 3)
    | Value.Float _ | Value.Bool _ -> Alcotest.fail "irand must return an int"
  done;
  Alcotest.check_raises "irand needs a stream"
    (Expr.Eval_error "irand used in a context without a random stream")
    (fun () -> ignore (eval (Expr.irand (Expr.int 1) (Expr.int 3))))

let test_statements () =
  let env =
    Env.of_bindings ~tables:[ ("t", [| Value.Int 0; Value.Int 0 |]) ]
      [ ("n", Value.Int 3) ]
  in
  Expr.run_stmts env
    [
      Expr.Assign ("n", Expr.(var "n" - int 1));
      Expr.Table_assign ("t", Expr.int 1, Expr.var "n");
    ];
  Alcotest.check value "assignment" (Value.Int 2) (Env.get env "n");
  Alcotest.check value "table assignment" (Value.Int 2) (Env.table_get env "t" 1)

let test_variables_listing () =
  let e = Expr.(var "b" + index "tbl" (var "a") + Expr.Call ("min", [ var "a"; int 1 ])) in
  Alcotest.(check (list string)) "free variables" [ "a"; "b" ] (Expr.variables e)

let test_is_deterministic () =
  Alcotest.(check bool) "pure" true Expr.(is_deterministic (var "x" + int 1));
  Alcotest.(check bool) "irand" false
    (Expr.is_deterministic (Expr.irand (Expr.int 0) (Expr.int 1)));
  Alcotest.(check bool) "irand nested" false
    Expr.(is_deterministic (int 1 + Expr.irand (int 0) (int 1)))

let test_pp_roundtrip_manual () =
  (* pretty-printed syntax must re-parse to an equivalent expression;
     full round-trip testing lives in test_lang, here we check shapes *)
  let s = Expr.to_string Expr.(var "a" + var "b" * int 2) in
  Alcotest.(check string) "precedence preserved" "a + b * 2" s;
  let s2 = Expr.to_string Expr.((var "a" + var "b") * int 2) in
  Alcotest.(check string) "parens forced" "(a + b) * 2" s2

(* property: pretty-print of random expressions always re-parses (no
   crashes and structural equality after normalization) — exercised via
   evaluation equivalence on integer-valued expressions *)
let gen_expr =
  QCheck2.Gen.(
    sized
    @@ fix (fun self n ->
           if n <= 0 then
             oneof [ map Expr.int (int_range (-20) 20); return (Expr.var "x") ]
           else
             let sub = self (n / 2) in
             oneof
               [
                 map Expr.int (int_range (-20) 20);
                 return (Expr.var "x");
                 map2 (fun a b -> Expr.(a + b)) sub sub;
                 map2 (fun a b -> Expr.(a - b)) sub sub;
                 map2 (fun a b -> Expr.(a * b)) sub sub;
                 map (fun a -> Expr.Unop (Expr.Neg, a)) sub;
               ]))

let prop_eval_total =
  QCheck2.Test.make ~name:"integer expressions evaluate" ~count:200 gen_expr
    (fun e ->
      let env = Env.of_bindings [ ("x", Value.Int 3) ] in
      match Expr.eval env e with
      | Value.Int _ -> true
      | Value.Float _ | Value.Bool _ -> false)

let prop_neg_involution =
  QCheck2.Test.make ~name:"double negation" ~count:200 gen_expr (fun e ->
      let env = Env.of_bindings [ ("x", Value.Int 3) ] in
      let v1 = Expr.eval env e in
      let v2 = Expr.eval env (Expr.Unop (Expr.Neg, Expr.Unop (Expr.Neg, e))) in
      Value.equal v1 v2)

let () =
  Alcotest.run "value-expr"
    [
      ( "value",
        [
          Alcotest.test_case "equality" `Quick test_value_equal;
          Alcotest.test_case "coercion" `Quick test_value_coerce;
          Alcotest.test_case "hash" `Quick test_value_hash;
          Alcotest.test_case "comparison" `Quick test_value_compare;
        ] );
      ( "env",
        [
          Alcotest.test_case "basics" `Quick test_env_basics;
          Alcotest.test_case "tables" `Quick test_env_tables;
          Alcotest.test_case "deep copy" `Quick test_env_copy_deep;
          Alcotest.test_case "snapshot equality" `Quick test_env_snapshot_equal;
          Alcotest.test_case "duplicates rejected" `Quick test_env_duplicate;
          Alcotest.test_case "equality" `Quick test_env_equal;
        ] );
      ( "expr",
        [
          Alcotest.test_case "arithmetic" `Quick test_arith;
          Alcotest.test_case "division by zero" `Quick test_division_by_zero;
          Alcotest.test_case "comparisons" `Quick test_comparisons;
          Alcotest.test_case "short circuit" `Quick test_boolean_short_circuit;
          Alcotest.test_case "conditional" `Quick test_if;
          Alcotest.test_case "vars and tables" `Quick test_vars_and_tables;
          Alcotest.test_case "builtins" `Quick test_builtins;
          Alcotest.test_case "irand" `Quick test_irand;
          Alcotest.test_case "statements" `Quick test_statements;
          Alcotest.test_case "free variables" `Quick test_variables_listing;
          Alcotest.test_case "determinism check" `Quick test_is_deterministic;
          Alcotest.test_case "printing" `Quick test_pp_roundtrip_manual;
        ] );
      ( "property",
        [
          QCheck_alcotest.to_alcotest prop_eval_total;
          QCheck_alcotest.to_alcotest prop_neg_involution;
        ] );
    ]
