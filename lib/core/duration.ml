(* Deterministic-delay helpers shared by the timed builders.  A timed
   reachability construction only terminates when every delay resolves
   to one concrete value per environment; these helpers classify the
   duration kinds once so the state-class builder and the frozen
   explicit oracle agree to the letter on what is accepted and on the
   error text for what is not. *)

let det ~who env d =
  Net.check_delay who
    (match d with
    | Net.Zero -> 0.0
    | Net.Const d -> d
    | Net.Uniform (lo, hi) when Float.equal lo hi -> lo
    | Net.Choice ((v, _) :: rest)
      when List.for_all (fun (v', _) -> Float.equal v v') rest ->
      v
    | Net.Dynamic e when Expr.is_deterministic e -> (
      try Expr.eval_float env e
      with Expr.Eval_error msg -> invalid_arg (who () ^ ": " ^ msg))
    | Net.Uniform _ | Net.Exponential _ | Net.Choice _ | Net.Dynamic _ ->
      invalid_arg (who () ^ ": stochastic duration in a timed reachability net"))

let deterministic = function
  | Net.Zero | Net.Const _ -> true
  | Net.Uniform (lo, hi) when Float.equal lo hi -> true
  | Net.Choice ((v, _) :: rest)
    when List.for_all (fun (v', _) -> Float.equal v v') rest ->
    true
  | Net.Dynamic e when Expr.is_deterministic e -> true
  | Net.Uniform _ | Net.Exponential _ | Net.Choice _ | Net.Dynamic _ -> false

let stochastic_logic tr =
  match tr.Net.t_predicate with
  | Some p when not (Expr.is_deterministic p) -> Some "predicate"
  | Some _ | None ->
    if
      List.exists
        (function
          | Expr.Assign (_, e) -> not (Expr.is_deterministic e)
          | Expr.Table_assign (_, i, e) ->
            not (Expr.is_deterministic i && Expr.is_deterministic e))
        tr.Net.t_action
    then Some "action"
    else None

let check_net ~who net =
  Array.iter
    (fun tr ->
      let check_dur what d =
        if not (deterministic d) then
          invalid_arg
            (Printf.sprintf "%s: stochastic %s time on transition %s" who what
               tr.Net.t_name)
      in
      check_dur "firing" tr.Net.t_firing;
      check_dur "enabling" tr.Net.t_enabling;
      match stochastic_logic tr with
      | Some what ->
        invalid_arg
          (Printf.sprintf "%s: stochastic %s on transition %s" who what
             tr.Net.t_name)
      | None -> ())
    (Net.transitions net)
