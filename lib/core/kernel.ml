(* The compiled firing-semantics kernel.

   One implementation of the paper's extended-net transition relation —
   weighted input/output arcs, inhibitors, predicates, actions — shared
   by the simulator, the reachability builders, the Karp-Miller
   construction and the GSPN analyzer.  The static layer ([ctrans],
   [of_net]) is immutable and environment-free; the compiled layer
   ([compiled], [compile]) binds predicates, delay distributions and
   actions to closures over one environment and random stream. *)

type ctrans = {
  s_tr : Net.transition;
  s_id : Net.transition_id;
  s_in_place : int array;
  s_in_weight : int array;
  s_inh_place : int array;
  s_inh_weight : int array;
  s_out_place : int array;
  s_out_weight : int array;
  s_frequency : float;
  s_consumed_weight : int array;
  s_produced_place : int array;
  s_produced_weight : int array;
  s_delta_place : int array;
  s_delta_weight : int array;
  s_has_action : bool;
}

type t = {
  k_net : Net.t;
  k_trans : ctrans array;
  k_readers : int array array;
  k_predicated : int array;
}

(* Merge (place, delta) lists, summing deltas per place and dropping
   zero entries (self-loops).  Only runs at kernel-construction time;
   the results for a transition's constant arc lists are cached in its
   [ctrans]. *)
let merge_changes a b =
  let tbl = Hashtbl.create 8 in
  let add (p, d) =
    Hashtbl.replace tbl p (d + try Hashtbl.find tbl p with Not_found -> 0)
  in
  List.iter add a;
  List.iter add b;
  Hashtbl.fold (fun p d acc -> if d = 0 then acc else (p, d) :: acc) tbl []
  |> List.sort compare

let static_of_transition tr =
  let places arcs = Array.of_list (List.map (fun a -> a.Net.a_place) arcs) in
  let weights arcs = Array.of_list (List.map (fun a -> a.Net.a_weight) arcs) in
  let consumed =
    List.map (fun { Net.a_place; a_weight } -> (a_place, -a_weight))
      tr.Net.t_inputs
  in
  let produced =
    List.map (fun { Net.a_place; a_weight } -> (a_place, a_weight))
      tr.Net.t_outputs
  in
  let split l = (Array.of_list (List.map fst l), Array.of_list (List.map snd l)) in
  let produced_place, produced_weight = split (merge_changes [] produced) in
  let delta_place, delta_weight = split (merge_changes consumed produced) in
  {
    s_tr = tr;
    s_id = tr.Net.t_id;
    s_in_place = places tr.Net.t_inputs;
    s_in_weight = weights tr.Net.t_inputs;
    s_inh_place = places tr.Net.t_inhibitors;
    s_inh_weight = weights tr.Net.t_inhibitors;
    s_out_place = places tr.Net.t_outputs;
    s_out_weight = weights tr.Net.t_outputs;
    s_frequency = tr.Net.t_frequency;
    s_consumed_weight = Array.of_list (List.map snd consumed);
    s_produced_place = produced_place;
    s_produced_weight = produced_weight;
    s_delta_place = delta_place;
    s_delta_weight = delta_weight;
    s_has_action = tr.Net.t_action <> [];
  }

(* Which transitions read each place (input or inhibitor arcs), per
   place, in ascending transition order. *)
let build_readers net =
  let idx = Array.make (Net.num_places net) [] in
  (* build in descending id order so each list ends up ascending *)
  for i = Net.num_transitions net - 1 downto 0 do
    let tr = Net.transition net i in
    let note { Net.a_place; _ } =
      match idx.(a_place) with
      | hd :: _ when hd = i -> ()
      | l -> idx.(a_place) <- i :: l
    in
    List.iter note tr.Net.t_inputs;
    List.iter note tr.Net.t_inhibitors
  done;
  Array.map Array.of_list idx

let build_predicated net =
  Array.to_list (Net.transitions net)
  |> List.filter_map (fun tr ->
         if tr.Net.t_predicate <> None then Some tr.Net.t_id else None)
  |> Array.of_list

let of_net net =
  {
    k_net = net;
    k_trans = Array.map static_of_transition (Net.transitions net);
    k_readers = build_readers net;
    k_predicated = build_predicated net;
  }

let net k = k.k_net
let num_transitions k = Array.length k.k_trans
let transitions k = k.k_trans
let transition k tid = k.k_trans.(tid)
let readers k = k.k_readers
let predicated k = k.k_predicated

(* -- the transition relation over the static arrays -- *)

(* Plain loops over the arc arrays: a local [let rec] capturing the
   marking is a heap closure per call on the non-flambda compiler, and
   this test runs once per transition per explored state. *)
let token_enabled c m =
  let ok = ref true in
  let i = ref 0 in
  let n = Array.length c.s_in_place in
  while !ok && !i < n do
    if Marking.get m c.s_in_place.(!i) < c.s_in_weight.(!i) then ok := false;
    incr i
  done;
  let i = ref 0 in
  let n = Array.length c.s_inh_place in
  while !ok && !i < n do
    if Marking.get m c.s_inh_place.(!i) >= c.s_inh_weight.(!i) then ok := false;
    incr i
  done;
  !ok

(* A predicate or action that fails to evaluate is an input error
   naming its transition; token-only transitions never enter here. *)
let guard what c f =
  try f () with Expr.Eval_error m ->
    invalid_arg (Printf.sprintf "%s of transition %s: %s" what c.s_tr.Net.t_name m)

let enabled c m env =
  token_enabled c m
  && (match c.s_tr.Net.t_predicate with
     | None -> true
     | Some p -> guard "predicate" c (fun () -> Expr.eval_bool env p))

let consume c m =
  for k = 0 to Array.length c.s_in_place - 1 do
    Marking.add m c.s_in_place.(k) (-c.s_in_weight.(k))
  done

let produce c m =
  for k = 0 to Array.length c.s_out_place - 1 do
    Marking.add m c.s_out_place.(k) c.s_out_weight.(k)
  done

let apply c m =
  for k = 0 to Array.length c.s_delta_place - 1 do
    Marking.add m c.s_delta_place.(k) c.s_delta_weight.(k)
  done

let run_action env c =
  guard "action" c (fun () -> Expr.run_stmts env c.s_tr.Net.t_action)

(* -- the compiled instance view -- *)

type compiled = {
  c_s : ctrans;
  c_pred : (unit -> bool) option;
  c_enabling : unit -> float;
  c_firing : unit -> float;
  c_action : (unit -> string * Value.t) array;
}

(* Compile one action statement.  Mirrors the interpreted runner: the
   index and value are evaluated first, then the table write is
   attempted; every failure is an [Expr.Eval_error] for the engine to
   wrap. *)
let compile_stmt ?prng env = function
  | Expr.Assign (name, e) ->
    let ce = Expr.compile ?prng env e in
    let slot = ref None in
    fun () ->
      let v = ce () in
      (match !slot with
      | Some cell -> cell := v
      | None ->
        Env.set env name v;
        slot := Env.find_ref env name);
      (name, v)
  | Expr.Table_assign (tbl, ie, e) ->
    let ci = Expr.compile_int ?prng env ie in
    let ce = Expr.compile ?prng env e in
    let slot = ref None in
    fun () ->
      let i = ci () in
      let v = ce () in
      let arr =
        match !slot with
        | Some arr -> arr
        | None -> (
          match Env.find_table env tbl with
          | Some arr ->
            slot := Some arr;
            arr
          | None ->
            raise
              (Expr.Eval_error
                 (Printf.sprintf "action writes unbound table %s" tbl)))
      in
      if i < 0 || i >= Array.length arr then
        raise
          (Expr.Eval_error
             (Printf.sprintf "Env.table_set: index %d out of bounds for %s[%d]"
                i tbl (Array.length arr)));
      arr.(i) <- v;
      (Printf.sprintf "%s[%d]" tbl i, v)

let compile_one ?prng env c =
  let tr = c.s_tr in
  {
    c_s = c;
    c_pred = Option.map (Expr.compile_bool env) tr.Net.t_predicate;
    c_enabling =
      Net.compile_duration ?prng env tr.Net.t_enabling ~who:(fun () ->
          "enabling time of transition " ^ tr.Net.t_name);
    c_firing =
      Net.compile_duration ?prng env tr.Net.t_firing ~who:(fun () ->
          "firing time of transition " ^ tr.Net.t_name);
    c_action =
      Array.of_list (List.map (compile_stmt ?prng env) tr.Net.t_action);
  }

let compile ?prng env k = Array.map (compile_one ?prng env) k.k_trans

let compiled_enabled c m =
  token_enabled c.c_s m && (match c.c_pred with None -> true | Some p -> p ())
