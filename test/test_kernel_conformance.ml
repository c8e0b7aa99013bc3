(* Cross-layer conformance: every consumer of the shared firing kernel
   against an interpreted oracle, on randomly generated extended nets.

   PR 5 moved the transition relation into [Pnut_core.Kernel] and ported
   the simulator, the reachability builders and the GSPN solver onto it.
   Three independent paths must therefore agree with the code that did
   not change:

   - [Reach.Graph.build] (kernel arc arrays + interpreted
     predicates/actions on per-state environments) against a
     straightforward BFS written here over [Net.enabled] /
     [Net.consume] / [Net.produce] / [Expr.run_stmts] — the same
     numbering, the same states, the same edges, including truncation
     behaviour at the state cap;
   - the explorer's firing path ([fire_transition], which drives
     [Pnut_sim.Explorer]) on the optimized engine against the frozen
     [Reference] engine;
   - engine single-steps ([step]) against [Reference] steps.

   The generator covers what the kernel compiles: arc weights above 1,
   inhibitors, every duration kind, frequencies, deterministic
   predicates and table-writing actions. *)

module Net = Pnut_core.Net
module B = Net.Builder
module Expr = Pnut_core.Expr
module Value = Pnut_core.Value
module Marking = Pnut_core.Marking
module Env = Pnut_core.Env
module Sim = Pnut_sim.Simulator
module Ref = Pnut_oracle.Reference
module Checkpoint = Pnut_sim.Checkpoint
module Graph = Pnut_reach.Graph

(* -- random net generation (same shape as the differential suite) -- *)

type tr_spec = {
  ts_inputs : (int * int) list;
  ts_inhibitors : (int * int) list;
  ts_outputs : (int * int) list;
  ts_enabling : int;
  ts_firing : int;
  ts_frequency : int;
  ts_predicate : int;
  ts_action : int;
}

type spec = {
  sp_tokens : int list;
  sp_trans : tr_spec list;
}

let gen_spec =
  QCheck2.Gen.(
    let* np = int_range 2 5 in
    let* tokens = list_size (return np) (int_range 0 3) in
    let tokens =
      if List.for_all (fun t -> t = 0) tokens then 2 :: List.tl tokens
      else tokens
    in
    let gen_arcs lo hi =
      list_size (int_range lo hi) (pair (int_range 0 (np - 1)) (int_range 1 2))
    in
    let gen_tr =
      let* ts_inputs = gen_arcs 1 2 in
      let* ts_inhibitors =
        let* with_inh = int_range 0 3 in
        if with_inh = 0 then gen_arcs 1 1 else return []
      in
      let* ts_outputs = gen_arcs 1 2 in
      let* ts_enabling = int_range 0 6 in
      let* ts_firing = int_range 0 6 in
      let* ts_frequency = int_range 1 3 in
      let* ts_predicate = int_range 0 5 in
      let* ts_action = int_range 0 3 in
      return
        { ts_inputs; ts_inhibitors; ts_outputs; ts_enabling; ts_firing;
          ts_frequency; ts_predicate; ts_action }
    in
    let* ntr = int_range 1 6 in
    let* sp_trans = list_size (return ntr) gen_tr in
    return { sp_tokens = tokens; sp_trans })

let emod a b = Expr.Binop (Expr.Mod, a, b)

let duration_of_code = function
  | 0 -> Net.Zero
  | 1 -> Net.Const 1.0
  | 2 -> Net.Const 2.5
  | 3 -> Net.Uniform (0.5, 2.0)
  | 4 -> Net.Exponential 1.5
  | 5 -> Net.Choice [ (1.0, 1.0); (2.0, 2.0); (0.5, 1.0) ]
  | _ -> Net.Dynamic Expr.(int 1 + emod (var "counter") (int 3))

let predicate_of_code = function
  | 1 -> Some Expr.(emod (var "counter") (int 2) = int 0)
  | 2 -> Some Expr.(var "counter" < int 25)
  | 3 -> Some Expr.(index "tbl" (emod (var "counter") (int 4)) <= int 6)
  | _ -> None

let action_of_code = function
  | 1 -> [ Expr.Assign ("counter", Expr.(var "counter" + int 1)) ]
  | 2 ->
    [ Expr.Assign ("counter", Expr.(var "counter" + int 1));
      Expr.Table_assign
        ( "tbl",
          emod (Expr.var "counter") (Expr.int 4),
          Expr.(index "tbl" (emod (var "counter") (int 4)) + int 1) ) ]
  | 3 -> [ Expr.Table_assign ("tbl", Expr.int 0, Expr.(index "tbl" (int 0) + int 1)) ]
  | _ -> []

let build_net ?(untimed = false) spec =
  let b =
    B.create "conformance"
      ~variables:[ ("counter", Value.Int 0) ]
      ~tables:[ ("tbl", Array.make 4 (Value.Int 0)) ]
  in
  let np = List.length spec.sp_tokens in
  let places =
    List.mapi
      (fun i tokens -> B.add_place b (Printf.sprintf "p%d" i) ~initial:tokens)
      spec.sp_tokens
  in
  let arcs l =
    List.sort_uniq compare l
    |> List.map (fun (i, w) -> (List.nth places (i mod np), w))
    |> List.fold_left
         (fun acc (p, w) ->
           match acc with
           | (p', w') :: rest when p' = p -> (p, max w w') :: rest
           | _ -> (p, w) :: acc)
         []
    |> List.rev
  in
  List.iteri
    (fun ti ts ->
      ignore
        (B.add_transition b
           (Printf.sprintf "t%d" ti)
           ~inputs:(arcs ts.ts_inputs)
           ~inhibitors:(arcs ts.ts_inhibitors)
           ~outputs:(arcs ts.ts_outputs)
           ~enabling:(if untimed then Net.Zero else duration_of_code ts.ts_enabling)
           ~firing:(if untimed then Net.Zero else duration_of_code ts.ts_firing)
           ~frequency:(float_of_int ts.ts_frequency)
           ?predicate:(predicate_of_code ts.ts_predicate)
           ~action:(action_of_code ts.ts_action)
          : Net.transition_id))
    spec.sp_trans;
  B.build b

(* -- oracle reachability graph, interpreted end to end --

   Same BFS discipline as [Graph.build] (FIFO interning, ascending
   transition order, cap drops edges into would-be-fresh states) but
   every semantic decision goes through the pre-kernel interpreted
   entry points: [Net.enabled], [Net.consume], [Net.produce],
   [Expr.run_stmts].  States are keyed structurally on marking,
   bindings and table contents. *)

type oracle = {
  o_states : (int array * (string * Value.t) list) array;
  o_edges : (int * int * int) list;  (* from, transition, to *)
  o_complete : bool;
}

let oracle_build ~max_states net =
  let key m env =
    ( Marking.to_array m,
      Env.bindings env,
      List.map (fun (n, a) -> (n, Array.to_list a)) (Env.tables env) )
  in
  let index = Hashtbl.create 256 in
  let states = ref [] in
  let n = ref 0 in
  let truncated = ref false in
  let edges = ref [] in
  let queue = Queue.create () in
  let intern m env =
    let k = key m env in
    match Hashtbl.find_opt index k with
    | Some i -> Some i
    | None ->
      if !n >= max_states then begin
        truncated := true;
        None
      end
      else begin
        let i = !n in
        incr n;
        Hashtbl.replace index k i;
        states := (Marking.to_array m, Env.bindings env) :: !states;
        Queue.add (i, m, env) queue;
        Some i
      end
  in
  let m0 = Net.initial_marking net in
  let env0 = Net.initial_env net in
  ignore (intern m0 env0 : int option);
  while not (Queue.is_empty queue) do
    let i, m, env = Queue.pop queue in
    Array.iter
      (fun tr ->
        if Net.enabled net m env tr then begin
          let m' = Marking.copy m in
          Net.consume net m' tr;
          Net.produce net m' tr;
          let env' = Env.copy env in
          Expr.run_stmts env' tr.Net.t_action;
          match intern m' env' with
          | Some j -> edges := (i, tr.Net.t_id, j) :: !edges
          | None -> ()
        end)
      (Net.transitions net)
  done;
  { o_states = Array.of_list (List.rev !states);
    o_edges = List.rev !edges;
    o_complete = not !truncated }

let prop_graph_matches_oracle =
  QCheck2.Test.make
    ~name:"kernel-based Reach.Graph equals the interpreted oracle BFS"
    ~count:120 gen_spec (fun spec ->
      let net = build_net spec in
      let cap = 400 in
      let g = Graph.build ~max_states:cap net in
      let o = oracle_build ~max_states:cap net in
      Graph.complete g = o.o_complete
      && Graph.num_states g = Array.length o.o_states
      && Array.for_all
           (fun (s : Graph.state) ->
             let om, oe = o.o_states.(s.Graph.s_index) in
             s.Graph.s_marking = om && s.Graph.s_env = oe)
           (Array.init (Graph.num_states g) (Graph.state g))
      && List.map
           (fun (e : Graph.edge) -> (e.Graph.e_from, e.Graph.e_transition, e.Graph.e_to))
           (Graph.edges g)
         = o.o_edges)

(* -- explorer firing path against the frozen Reference engine -- *)

let cap = 200

let prop_fire_transition_matches_reference =
  QCheck2.Test.make
    ~name:"explorer firings agree between kernel engine and Reference"
    ~count:150 gen_spec (fun spec ->
      let net = build_net spec in
      let sr = Ref.create ~seed:17 ~max_instant_firings:cap net in
      let sf = Sim.create ~seed:17 ~max_instant_firings:cap net in
      let ok = ref true in
      (try
         for i = 0 to 40 do
           let fr = Ref.fireable_transitions sr in
           let ff = Sim.fireable_transitions sf in
           if fr <> ff then begin
             ok := false;
             raise Exit
           end;
           (match fr with
           | [] ->
             (* advance time through the normal schedulers instead *)
             (match (Ref.step sr, Sim.step sf) with
             | Sim.Quiescent, Sim.Quiescent -> raise Exit
             | a, b -> if a <> b then (ok := false; raise Exit))
           | _ :: _ ->
             let tid = List.nth fr (i mod List.length fr) in
             Ref.fire_transition sr tid;
             Sim.fire_transition sf tid);
           if Ref.clock sr <> Sim.clock sf
              || not (Marking.equal (Ref.marking sr) (Sim.marking sf))
           then begin
             ok := false;
             raise Exit
           end
         done
       with
      | Exit -> ()
      | Sim.Sim_error _ -> ());
      !ok
      && String.equal
           (Checkpoint.to_string (Ref.checkpoint sr))
           (Checkpoint.to_string (Sim.checkpoint sf)))

(* -- engine single-steps against Reference -- *)

let prop_steps_match_reference =
  QCheck2.Test.make
    ~name:"engine single-steps agree with Reference on random nets"
    ~count:150 gen_spec (fun spec ->
      let net = build_net spec in
      let sr = Ref.create ~seed:29 ~max_instant_firings:cap net in
      let sf = Sim.create ~seed:29 ~max_instant_firings:cap net in
      let ok = ref true in
      (try
         for _ = 0 to 200 do
           let a = Ref.step sr in
           let b = Sim.step sf in
           if a <> b
              || Ref.clock sr <> Sim.clock sf
              || not (Marking.equal (Ref.marking sr) (Sim.marking sf))
           then begin
             ok := false;
             raise Exit
           end;
           if a = Sim.Quiescent || Ref.clock sr > 50.0 then raise Exit
         done
       with
      | Exit -> ()
      | Sim.Sim_error _ -> ());
      !ok)

let () =
  Alcotest.run "kernel-conformance"
    [
      ( "layers",
        [
          QCheck_alcotest.to_alcotest prop_graph_matches_oracle;
          QCheck_alcotest.to_alcotest prop_fire_transition_matches_reference;
          QCheck_alcotest.to_alcotest prop_steps_match_reference;
        ] );
    ]
