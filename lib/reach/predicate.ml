module Query = Pnut_tracer.Query

let rec to_ctl (f : Query.formula) : Ctl.formula =
  match f with
  | Query.Atom e -> Ctl.Atom e
  | Query.Not g -> Ctl.Not (to_ctl g)
  | Query.And (a, b) -> Ctl.And (to_ctl a, to_ctl b)
  | Query.Or (a, b) -> Ctl.Or (to_ctl a, to_ctl b)
  | Query.Implies (a, b) -> Ctl.Implies (to_ctl a, to_ctl b)
  | Query.Inev g -> Ctl.AF (to_ctl g)
  | Query.Alw g -> Ctl.AG (to_ctl g)

let eval g query =
  if not (Graph.complete g) then
    invalid_arg "Reach.Predicate.eval: reachability graph was truncated";
  Query.decide query (Graph.num_states g) (fun f -> Ctl.sat g (to_ctl f))

let holds g query = Query.holds (eval g query)
