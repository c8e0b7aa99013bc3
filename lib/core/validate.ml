type severity =
  | Error
  | Warning

type diagnostic = {
  severity : severity;
  subject : string;
  message : string;
}

let diag severity subject fmt =
  Printf.ksprintf (fun message -> { severity; subject; message }) fmt

(* Variables available to expressions: model variables plus none implicit. *)
let unbound_names net expr =
  let bound = List.map fst (Net.variables net) in
  List.filter (fun v -> not (List.mem v bound)) (Expr.variables expr)

let rec expr_tables acc = function
  | Expr.Const _ | Expr.Var _ -> acc
  | Expr.Index (tbl, e) -> expr_tables (tbl :: acc) e
  | Expr.Unop (_, e) -> expr_tables acc e
  | Expr.Binop (_, a, b) -> expr_tables (expr_tables acc a) b
  | Expr.If (a, b, c) -> expr_tables (expr_tables (expr_tables acc a) b) c
  | Expr.Call (_, args) -> List.fold_left expr_tables acc args

let unbound_tables net expr =
  let bound = List.map fst (Net.tables net) in
  expr_tables [] expr
  |> List.sort_uniq String.compare
  |> List.filter (fun t -> not (List.mem t bound))

let check_expr net subject what expr =
  let vars =
    List.map
      (fun v -> diag Error subject "%s refers to unbound variable %s" what v)
      (unbound_names net expr)
  in
  let tbls =
    List.map
      (fun t -> diag Error subject "%s refers to unbound table %s" what t)
      (unbound_tables net expr)
  in
  vars @ tbls

let check_stmt net subject s =
  match s with
  | Expr.Assign (_, e) -> check_expr net subject "action" e
  | Expr.Table_assign (tbl, i, e) ->
    let known = List.map fst (Net.tables net) in
    let head =
      if List.mem tbl known then []
      else [ diag Error subject "action writes unbound table %s" tbl ]
    in
    head @ check_expr net subject "action" i @ check_expr net subject "action" e

let check_duration net subject what = function
  | Net.Zero | Net.Const _ -> []
  | Net.Uniform (lo, hi) ->
    if lo < 0.0 || hi < lo then
      [ diag Error subject "%s has an invalid uniform range [%g,%g]" what lo hi ]
    else []
  | Net.Exponential mean ->
    if mean <= 0.0 then
      [ diag Error subject "%s has non-positive exponential mean %g" what mean ]
    else []
  | Net.Choice items ->
    if items = [] then [ diag Error subject "%s has an empty choice" what ]
    else
      List.concat_map
        (fun (v, w) ->
          let bad_v =
            if v < 0.0 then
              [ diag Error subject "%s choice value %g is negative" what v ]
            else []
          in
          let bad_w =
            if w <= 0.0 then
              [ diag Error subject "%s choice weight %g is not positive" what w ]
            else []
          in
          bad_v @ bad_w)
        items
  | Net.Dynamic e -> check_expr net subject what e

let check_transition net t =
  let subject = t.Net.t_name in
  let no_brake =
    if t.Net.t_inputs = [] && t.Net.t_inhibitors = []
       && t.Net.t_predicate = None
    then
      [ diag Warning subject
          "transition has no input, inhibitor or predicate: it is always \
           enabled" ]
    else []
  in
  let timing =
    check_duration net subject "firing time" t.Net.t_firing
    @ check_duration net subject "enabling time" t.Net.t_enabling
  in
  let predicate =
    match t.Net.t_predicate with
    | None -> []
    | Some p -> check_expr net subject "predicate" p
  in
  let action = List.concat_map (check_stmt net subject) t.Net.t_action in
  no_brake @ timing @ predicate @ action

let check_places net =
  let np = Net.num_places net in
  let written = Array.make np false in
  let read = Array.make np false in
  let note field arcs =
    List.iter (fun { Net.a_place; _ } -> field.(a_place) <- true) arcs
  in
  Array.iter
    (fun t ->
      note written t.Net.t_outputs;
      note read t.Net.t_inputs;
      note read t.Net.t_inhibitors)
    (Net.transitions net);
  Array.to_list (Net.places net)
  |> List.concat_map (fun p ->
         let subject = p.Net.p_name in
         let dead_source =
           if (not written.(p.Net.p_id)) && p.Net.p_initial = 0
              && read.(p.Net.p_id)
           then
             [ diag Warning subject
                 "place is read but never marked: consumers are dead" ]
           else []
         in
         let write_only =
           if (not read.(p.Net.p_id)) && written.(p.Net.p_id) then
             [ diag Warning subject "place is written but never read" ]
           else []
         in
         let isolated =
           if (not read.(p.Net.p_id)) && not written.(p.Net.p_id) then
             [ diag Warning subject "place is not connected to any transition" ]
           else []
         in
         dead_source @ write_only @ isolated)

let check net =
  let diags =
    check_places net
    @ List.concat_map (check_transition net) (Array.to_list (Net.transitions net))
  in
  let order d = match d.severity with Error -> 0 | Warning -> 1 in
  List.stable_sort (fun a b -> compare (order a) (order b)) diags

let errors = List.filter (fun d -> d.severity = Error)
let warnings = List.filter (fun d -> d.severity = Warning)

let pp_diagnostic ppf d =
  let tag = match d.severity with Error -> "error" | Warning -> "warning" in
  Format.fprintf ppf "%s: %s: %s" tag d.subject d.message

let assert_valid net =
  match errors (check net) with
  | [] -> ()
  | errs ->
    let msg =
      String.concat "\n"
        (List.map (fun d -> Format.asprintf "%a" pp_diagnostic d) errs)
    in
    invalid_arg msg
