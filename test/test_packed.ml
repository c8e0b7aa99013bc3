(* The compact state store.  The packed builder must be invisible:
   same state numbering, same edge order, same truncation and budget
   behaviour as the frozen boxed oracle, on every class of net the
   codec handles — variable-free bounded nets (the zero-env fast
   path), env-bearing interpreted nets (the side table), nets with
   lying declared capacities and unbounded growth (the checked widen
   path), and sweeps cut short by the state cap or a budget. *)

module Net = Pnut_core.Net
module B = Net.Builder
module Expr = Pnut_core.Expr
module Value = Pnut_core.Value
module Marking = Pnut_core.Marking
module Env = Pnut_core.Env
module Graph = Pnut_reach.Graph
module Packed = Pnut_reach.Packed
module Store = Pnut_reach.Store
module Boxed = Pnut_oracle.Boxed_graph

let triples es =
  List.map
    (fun (e : Graph.edge) -> (e.Graph.e_from, e.Graph.e_transition, e.Graph.e_to))
    es

(* Structural equality of the oracle's boxed graph and the packed
   graph: states with markings and environments, per-state successor
   and predecessor lists in order, the global edge list, and the
   printed summary (the oracle renders deadlocks, safety,
   reversibility and dead transitions from its own arrays, so the
   packed analyses are cross-checked too). *)
let graphs_equal (ga : Boxed.t) (gb : Graph.t) =
  Boxed.complete ga = Graph.complete gb
  && Boxed.num_states ga = Graph.num_states gb
  && Boxed.num_edges ga = Graph.num_edges gb
  && (let n = Boxed.num_states ga in
      let ok = ref true in
      for i = 0 to n - 1 do
        let sa = Boxed.state ga i and sb = Graph.state gb i in
        if sa.Graph.s_marking <> sb.Graph.s_marking then ok := false;
        if sa.Graph.s_env <> sb.Graph.s_env then ok := false;
        if triples (Boxed.successors ga i) <> triples (Graph.successors gb i)
        then ok := false;
        if
          triples (Boxed.predecessors ga i)
          <> triples (Graph.predecessors gb i)
        then ok := false
      done;
      !ok)
  && triples (Boxed.edges ga) = triples (Graph.edges gb)
  && String.equal
       (Format.asprintf "%a" Boxed.pp_summary ga)
       (Format.asprintf "%a" Graph.pp_summary gb)

(* -- fixed nets -- *)

let ring ?capacity ?(tokens = 4) () =
  let b = B.create "ring" in
  let ps =
    Array.init 5 (fun i ->
        B.add_place b
          (Printf.sprintf "p%d" i)
          ~initial:(if i = 0 then tokens else 0)
          ?capacity)
  in
  for i = 0 to 4 do
    ignore
      (B.add_transition b
         (Printf.sprintf "t%d" i)
         ~inputs:[ (ps.(i), 1) ]
         ~outputs:[ (ps.((i + 1) mod 5), 1) ]
        : Net.transition_id)
  done;
  B.build b

let counter_net () =
  (* env-bearing: the action path interns fresh environments *)
  let b = B.create "counter" ~variables:[ ("n", Value.Int 0) ] in
  let p = B.add_place b "p" ~initial:1 in
  let q = B.add_place b "q" in
  ignore
    (B.add_transition b "bump" ~inputs:[ (p, 1) ] ~outputs:[ (q, 1) ]
       ~action:[ Expr.Assign ("n", Expr.(var "n" + int 1)) ]
      : Net.transition_id);
  ignore
    (B.add_transition b "back" ~inputs:[ (q, 1) ] ~outputs:[ (p, 1) ]
       ~predicate:Expr.(var "n" < int 20)
      : Net.transition_id);
  B.build b

let pump_net () =
  (* q grows without bound: exercises the unknown-bound guess width and
     the widen path once q passes 15 *)
  let b = B.create "pump" in
  let p = B.add_place b "p" ~initial:1 in
  let q = B.add_place b "q" in
  ignore
    (B.add_transition b "t" ~inputs:[ (p, 1) ] ~outputs:[ (p, 1); (q, 1) ]
      : Net.transition_id);
  B.build b

let both ?max_states net =
  let boxed =
    Pnut_exec.Supervisor.value (Boxed.build_supervised ?max_states net)
  in
  let packed =
    Pnut_exec.Supervisor.value
      (Graph.build_supervised ?max_states net)
  in
  (boxed, packed)

let check_identical ?max_states net () =
  let boxed, packed = both ?max_states net in
  Alcotest.(check bool) "packed graph equals boxed graph" true
    (graphs_equal boxed packed)

(* -- identity on fixed nets -- *)

let test_ring_identical = check_identical (ring ())
let test_counter_identical = check_identical (counter_net ())

let test_pump_widen_identical =
  (* truncation at the cap after q has outgrown the initial 4-bit
     field: the widen path must re-encode the arena mid-sweep *)
  check_identical ~max_states:400 (pump_net ())

let test_lying_capacity_identical () =
  (* capacities are declarative, not enforced at firing: the sink
     declares capacity 1 yet accumulates 5 tokens, so its 1-bit field
     overflows and the store must recover via widen *)
  let b = B.create "liar" in
  let p = B.add_place b "p" ~initial:5 ~capacity:5 in
  let s = B.add_place b "sink" ~capacity:1 in
  ignore
    (B.add_transition b "drain" ~inputs:[ (p, 1) ] ~outputs:[ (s, 1) ]
      : Net.transition_id);
  let net = B.build b in
  let boxed = Boxed.build net in
  let packed = Graph.build net in
  Alcotest.(check int) "sink really exceeds its declared capacity" 5
    (Graph.bound packed 1);
  Alcotest.(check bool) "packed graph equals boxed graph" true
    (graphs_equal boxed packed)

let test_late_widen_identical () =
  (* the lying sink again, gated on 8 of the ring's 11 tokens sitting
     in r8: its 1-bit field overflows only after more than one arena
     page (65,536 states) is stored, so the widen re-encodes a full
     page and a partial one; the cap lets the build fill a third page *)
  let b = B.create "late liar" in
  let ps =
    Array.init 9 (fun i ->
        B.add_place b (Printf.sprintf "r%d" i)
          ~initial:(if i = 0 then 11 else 0))
  in
  for i = 0 to 8 do
    ignore
      (B.add_transition b (Printf.sprintf "rt%d" i)
         ~inputs:[ (ps.(i), 1) ]
         ~outputs:[ (ps.((i + 1) mod 9), 1) ]
        : Net.transition_id)
  done;
  let src = B.add_place b "src" ~initial:2 ~capacity:2 in
  let sink = B.add_place b "sink" ~capacity:1 in
  ignore
    (B.add_transition b "drain"
       ~inputs:[ (ps.(8), 8); (src, 1) ]
       ~outputs:[ (ps.(8), 8); (sink, 1) ]
      : Net.transition_id);
  let net = B.build b in
  let boxed, packed = both ~max_states:150_000 net in
  let first_overflow =
    let rec go i =
      if (Graph.state packed i).Graph.s_marking.(sink) >= 2 then i
      else go (i + 1)
    in
    go 0
  in
  Alcotest.(check bool) "the sink overflows past the first arena page" true
    (first_overflow > 65_536);
  Alcotest.(check bool) "packed graph equals boxed graph" true
    (graphs_equal boxed packed)

let test_budget_trip_identical () =
  (* a state cap degrades both builders at the same point *)
  let net = ring ~tokens:6 () in
  let out_boxed = Boxed.build_supervised ~max_states:50 net in
  let out_packed = Graph.build_supervised ~max_states:50 net in
  match (out_boxed, out_packed) with
  | ( Pnut_exec.Supervisor.Degraded { partial = gb; _ },
      Pnut_exec.Supervisor.Degraded { partial = gp; _ } ) ->
    Alcotest.(check bool) "partial graphs equal" true (graphs_equal gb gp)
  | _ -> Alcotest.fail "expected both builds to degrade at the state cap"

let test_bytes_per_state () =
  (* 17 tokens over 5 ring places: C(21,4) = 5985 states, enough for
     the fixed index floor to amortize below the 32-bytes/state target
     (one arena word per state for this net) *)
  let net = ring ~tokens:17 () in
  match Graph.packed_bytes_per_state (Graph.build ~max_states:10_000 net) with
  | None -> Alcotest.fail "packed graph must report its footprint"
  | Some b ->
    Alcotest.(check bool)
      (Printf.sprintf "bytes/state %.1f within 32" b)
      true (b <= 32.0)

let test_bounds_known () =
  Alcotest.(check bool) "ring invariant gives bounds" true
    (Packed.bounds_known (ring ()));
  Alcotest.(check bool) "pump q is unbounded" false
    (Packed.bounds_known (pump_net ()))

(* -- word-delta successors -- *)

(* Action-free firings intern the parent's packed words plus a
   precomputed per-word delta.  [c] has no known bound (no P-invariant
   covers it; the fuel stops it at 24), so it starts in a guessed 4-bit
   field and overflows on the word-delta path mid-build: the firing
   must fall back to the encode path, widen, and carry on with deltas
   rebuilt for the new layout.  The inhibitor and the two-token ring
   interleave with the growth. *)
let delta_overflow_net () =
  let b = B.create "delta_overflow" in
  let fuel = B.add_place b "fuel" ~initial:24 in
  let c = B.add_place b "c" in
  let d = B.add_place b "d" in
  let r0 = B.add_place b "r0" ~initial:2 in
  let r1 = B.add_place b "r1" in
  let t name ?inhibitors inputs outputs =
    ignore
      (B.add_transition b name ~inputs ?inhibitors ~outputs
        : Net.transition_id)
  in
  t "inc" [ (fuel, 1) ] [ (c, 1) ];
  t "fold" [ (c, 3) ] [ (d, 1) ];
  t "back" ~inhibitors:[ (d, 2) ] [ (d, 1) ] [ (c, 1) ];
  t "fwd" [ (r0, 1) ] [ (r1, 1) ];
  t "ret" [ (r1, 1) ] [ (r0, 1) ];
  B.build b


let test_delta_overflow_identical () =
  let net = delta_overflow_net () in
  Alcotest.(check bool) "c has no known bound" false (Packed.bounds_known net);
  List.iter
    (fun por ->
      let what = if por then "por on" else "por off" in
      let boxed = Boxed.build ~max_states:50_000 ~por net in
      let packed = Graph.build ~max_states:50_000 ~por net in
      Alcotest.(check bool) (what ^ ": complete") true
        (Boxed.complete boxed && Graph.complete packed);
      Alcotest.(check bool)
        (what ^ ": c outgrew its guessed 4-bit field")
        true
        (Graph.bound packed 1 > 15);
      Alcotest.(check int) (what ^ ": states") (Boxed.num_states boxed)
        (Graph.num_states packed);
      for i = 0 to Boxed.num_states boxed - 1 do
        Alcotest.(check (array int))
          (Printf.sprintf "%s: marking of state %d" what i)
          (Boxed.state boxed i).Graph.s_marking
          (Graph.state packed i).Graph.s_marking
      done;
      Alcotest.(check (list (triple int int int)))
        (what ^ ": edges")
        (triples (Boxed.edges boxed))
        (triples (Graph.edges packed));
      Alcotest.(check bool) (what ^ ": whole graph") true
        (graphs_equal boxed packed))
    [ false; true ]

(* The 9-place ring with 8 tokens (C(16,8) = 12,870 states): an MD5 of
   every state's successor list, recorded from the builders before
   word-delta successors and pinned for the packed graph and the boxed
   oracle, with and without POR (which prunes nothing on a ring). *)
let ring9 ~tokens =
  let b = B.create "ring9" in
  let ps =
    Array.init 9 (fun i ->
        B.add_place b (Printf.sprintf "r%d" i)
          ~initial:(if i = 0 then tokens else 0))
  in
  for i = 0 to 8 do
    ignore
      (B.add_transition b (Printf.sprintf "rt%d" i)
         ~inputs:[ (ps.(i), 1) ]
         ~outputs:[ (ps.((i + 1) mod 9), 1) ]
        : Net.transition_id)
  done;
  B.build b

let successor_digest n successors =
  let buf = Buffer.create (1 lsl 16) in
  for i = 0 to n - 1 do
    Buffer.add_string buf (string_of_int i);
    List.iter
      (fun e ->
        Printf.bprintf buf " %d>%d" e.Graph.e_transition e.Graph.e_to)
      (successors i);
    Buffer.add_char buf '\n'
  done;
  Digest.to_hex (Digest.string (Buffer.contents buf))

let ring9_successor_digest = "b5cb821a38520ff1e1a9292cbd1be374"

let test_ring_successor_digest () =
  let net = ring9 ~tokens:8 in
  List.iter
    (fun por ->
      let g = Graph.build ~por net in
      let o = Boxed.build ~por net in
      let what = Printf.sprintf "por=%b" por in
      Alcotest.(check int) (what ^ ": states") 12870 (Graph.num_states g);
      Alcotest.(check string) (what ^ ": successor digest")
        ring9_successor_digest
        (successor_digest (Graph.num_states g) (Graph.successors g));
      Alcotest.(check string) (what ^ ": oracle successor digest")
        ring9_successor_digest
        (successor_digest (Boxed.num_states o) (Boxed.successors o)))
    [ true; false ]

(* Exact bytes held: ring9 with 8 tokens packs into one word per state,
   and its 12,870 states grow the index to 32,768 slots of 4 bytes
   (the load factor passes 0.7 of 16,384 at 11,468 states).  The slots
   still count after [finalize] released them. *)
let test_bytes_per_state_exact () =
  let g = Graph.build (ring9 ~tokens:8) in
  Alcotest.(check int) "states" 12_870 (Graph.num_states g);
  Alcotest.(check (option (float 0.0)))
    "arena words plus 4-byte slots"
    (Some (float_of_int ((12_870 * 8) + (32_768 * 4)) /. 12_870.0))
    (Graph.packed_bytes_per_state g)

(* -- the unexpanded frontier -- *)

(* Both builders, degraded at the same point with the same partial
   graph and the same progress counts.  The packed sweep's frontier is
   every state index past its cursor; the boxed oracle's is its queue,
   and both check the budget on the same 256-expansion cadence. *)
let check_degraded_identical ?budget ~max_states net =
  match
    ( Boxed.build_supervised ?budget ~max_states net,
      Graph.build_supervised ?budget ~max_states net )
  with
  | ( Pnut_exec.Supervisor.Degraded { partial = gb; progress = pb; _ },
      Pnut_exec.Supervisor.Degraded { partial = gp; progress = pp; _ } ) ->
    Alcotest.(check bool) "partial graphs equal" true (graphs_equal gb gp);
    Alcotest.(check int) "visited" pb.Pnut_exec.Supervisor.visited
      pp.Pnut_exec.Supervisor.visited;
    Alcotest.(check int) "frontier" pb.Pnut_exec.Supervisor.frontier
      pp.Pnut_exec.Supervisor.frontier;
    pp.Pnut_exec.Supervisor.frontier
  | _ -> Alcotest.fail "expected both builds to degrade"

let test_trip_frontier_identical () =
  (* widen mid-sweep (Field_overflow re-encodes the arena) plus cap
     truncation *)
  ignore (check_degraded_identical ~max_states:400 (pump_net ()) : int);
  (* a pre-cancelled token trips at the first check, before state 255
     is expanded: the frontier is everything interned from 255 on *)
  let tok = Pnut_exec.Budget.token () in
  Pnut_exec.Budget.cancel tok;
  let frontier =
    check_degraded_identical
      ~budget:(Pnut_exec.Budget.make ~cancel:tok ())
      ~max_states:10_000 (ring ~tokens:17 ())
  in
  Alcotest.(check bool) "a non-empty frontier is left" true (frontier > 0)

(* -- side table -- *)

let test_intern_extra_clocks () =
  let net = counter_net () in
  let codec = Packed.create net in
  let env = Net.initial_env net in
  let a = Packed.intern_extra codec env in
  let b = Packed.intern_extra codec ~clocks:"t0@1.5" env in
  let c = Packed.intern_extra codec ~clocks:"t0@2.5" env in
  Alcotest.(check bool) "clock renderings distinguish ids" true
    (a <> b && b <> c && a <> c);
  Alcotest.(check int) "same pair, same id" a (Packed.intern_extra codec env);
  Alcotest.(check int) "same clocks, same id" b
    (Packed.intern_extra codec ~clocks:"t0@1.5" env);
  (* identity is Env.equal on the env and String.equal on the clocks *)
  let mk ?(cells = [| Value.Int 0; Value.Int 0 |]) n =
    Env.of_bindings ~tables:[ ("w", cells) ] [ ("n", n) ]
  in
  let e = mk (Value.Int 1) in
  let d = Packed.intern_extra codec e in
  Alcotest.(check int) "distinct but equal envs, one id" d
    (Packed.intern_extra codec (mk (Value.Int 1)));
  Alcotest.(check int) "Int 1 and Float 1.0, one id" d
    (Packed.intern_extra codec (mk (Value.Float 1.0)));
  Alcotest.(check int) "Int 0 and Float -0.0, one id"
    (Packed.intern_extra codec (mk (Value.Int 0)))
    (Packed.intern_extra codec (mk (Value.Float (-0.0))));
  Alcotest.(check bool) "one table cell apart, two ids" true
    (d <> Packed.intern_extra codec
            (mk ~cells:[| Value.Int 0; Value.Int 1 |] (Value.Int 1)));
  Alcotest.(check bool) "same env, other clocks, two ids" true
    (d <> Packed.intern_extra codec ~clocks:"t0@1.5" e)

(* -- qcheck: codec round trip and key agreement -- *)

(* a net is only a carrier for the layout here: np places with the
   given bounds *)
let carrier_net bounds =
  let b = B.create "carrier" in
  Array.iteri
    (fun i _ ->
      ignore (B.add_place b (Printf.sprintf "p%d" i) : Net.place_id))
    bounds;
  ignore (B.add_transition b "t" : Net.transition_id);
  B.build b

let gen_bounds_and_markings =
  QCheck2.Gen.(
    let* np = int_range 1 12 in
    let* bounds = list_size (return np) (int_range 1 300) in
    let bounds = Array.of_list bounds in
    let gen_marking =
      Array.to_list bounds
      |> List.map (fun b -> int_range 0 b)
      |> flatten_l |> map Array.of_list
    in
    let* a = gen_marking in
    let* b = gen_marking in
    let* equal_pair = bool in
    return (bounds, a, (if equal_pair then Array.copy a else b)))

let prop_roundtrip_and_agreement =
  QCheck2.Test.make
    ~name:"packed encode/decode round-trips and agrees with key equality"
    ~count:300 gen_bounds_and_markings (fun (bounds, ma, mb) ->
      let net = carrier_net bounds in
      let codec =
        Packed.create ~bounds:(Array.map (fun b -> Some b) bounds) net
      in
      let lay = Packed.layout codec in
      let w = Packed.words lay in
      let buf = Array.make (2 * w) 0 in
      Packed.encode lay buf ~pos:0 ma ~extra:0;
      Packed.encode lay buf ~pos:w mb ~extra:0;
      let same_marking = ma = mb in
      Packed.decode lay buf ~pos:0 = ma
      && Packed.decode lay buf ~pos:w = mb
      && Packed.equal lay buf ~pos:0 buf w = same_marking
      && ((not same_marking)
         || Packed.hash lay buf ~pos:0 = Packed.hash lay buf ~pos:w))

(* -- qcheck: the store's intern agrees with a hash table -- *)

(* Random markings interned into a {!Store} and into a [Hashtbl] keyed
   on the marking: each intern must return [`Found] of the table's id
   for a marking seen before and [`Added] of the next id for a fresh
   one.  The declared capacity [lie] is too small: the first phase
   stays within it until the store holds 800 states, past the 1024-slot
   index's first doubling (at 717), and the second draws counts up to
   [4 * lie + 8], so the codec widens and re-encodes the stored states,
   and the index doubles twice more (at 1434 and 2868) before 3000.  A
   third of the draws repeat a stored marking, so [`Found] is checked
   after every rehash. *)
let gen_intern_run =
  QCheck2.Gen.(
    let* np = int_range 7 8 in
    let* lie = int_range 2 3 in
    let* seed = int in
    return (np, lie, seed))

let prop_intern_agrees_with_hashtbl =
  QCheck2.Test.make ~name:"store intern agrees with a hash table"
    ~count:20 gen_intern_run (fun (np, lie, seed) ->
      let rs = Random.State.make [| seed |] in
      let net = carrier_net (Array.make np lie) in
      let codec =
        Packed.create ~bounds:(Array.make np (Some lie)) ~with_extra:false net
      in
      let lay0 = Packed.layout codec in
      let st = Store.create codec ~num_transitions:1 in
      let ids = Hashtbl.create 4096 and by_id = Array.make 3000 [||] in
      let ok = ref true in
      let draw hi =
        let n = Hashtbl.length ids in
        if n > 0 && Random.State.int rs 3 = 0 then
          Array.copy by_id.(Random.State.int rs n)
        else Array.init np (fun _ -> Random.State.int rs (hi + 1))
      in
      let intern m =
        let expected =
          match Hashtbl.find_opt ids m with
          | Some i -> `Found i
          | None ->
            let i = Hashtbl.length ids in
            Hashtbl.add ids m i;
            by_id.(i) <- Array.copy m;
            `Added i
        in
        if Store.intern st m ~extra:0 ~max_states:max_int <> expected then
          ok := false
      in
      while Hashtbl.length ids < 800 do
        intern (draw lie)
      done;
      let unwidened = Packed.layout codec == lay0 in
      while Hashtbl.length ids < 3000 do
        intern (draw ((4 * lie) + 8))
      done;
      let back = Array.make np 0 in
      Hashtbl.iter
        (fun m i ->
          Store.marking_into st i back;
          if back <> m then ok := false)
        ids;
      !ok
      && Store.num_states st = Hashtbl.length ids
      && unwidened
      && Packed.layout codec != lay0)

(* -- qcheck: packed builder equals the boxed oracle on random
      interpreted nets (variables, tables, predicates, actions) -- *)

type spec = {
  sp_tokens : int list;
  sp_trans : ((int * int) list * (int * int) list * int * int) list;
      (* inputs, outputs, predicate code, action code *)
}

let gen_spec =
  QCheck2.Gen.(
    let* np = int_range 2 5 in
    let* tokens = list_size (return np) (int_range 0 3) in
    let tokens =
      if List.for_all (fun t -> t = 0) tokens then 2 :: List.tl tokens
      else tokens
    in
    let gen_arcs =
      list_size (int_range 1 2) (pair (int_range 0 (np - 1)) (int_range 1 2))
    in
    let gen_tr =
      let* inputs = gen_arcs in
      let* outputs = gen_arcs in
      let* p = int_range 0 3 in
      let* a = int_range 0 2 in
      return (inputs, outputs, p, a)
    in
    let* ntr = int_range 1 5 in
    let* sp_trans = list_size (return ntr) gen_tr in
    return { sp_tokens = tokens; sp_trans })

let emod a b = Expr.Binop (Expr.Mod, a, b)

let predicate_of_code = function
  | 1 -> Some Expr.(emod (var "n") (int 2) = int 0)
  | 2 -> Some Expr.(var "n" < int 15)
  | 3 -> Some Expr.(index "tbl" (emod (var "n") (int 3)) <= int 4)
  | _ -> None

let action_of_code = function
  | 1 -> [ Expr.Assign ("n", Expr.(var "n" + int 1)) ]
  | 2 ->
    [ Expr.Assign ("n", Expr.(var "n" + int 1));
      Expr.Table_assign
        ( "tbl",
          emod (Expr.var "n") (Expr.int 3),
          Expr.(index "tbl" (emod (var "n") (int 3)) + int 1) ) ]
  | _ -> []

(* [plain] drops the predicates, actions, variable and table: a net
   the stubborn-set reduction accepts *)
let build_spec_net ?(plain = false) spec =
  let b =
    if plain then B.create "random"
    else
      B.create "random"
        ~variables:[ ("n", Value.Int 0) ]
        ~tables:[ ("tbl", Array.make 3 (Value.Int 0)) ]
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
    (fun ti (inputs, outputs, p, a) ->
      ignore
        (B.add_transition b
           (Printf.sprintf "t%d" ti)
           ~inputs:(arcs inputs) ~outputs:(arcs outputs)
           ?predicate:(if plain then None else predicate_of_code p)
           ~action:(if plain then [] else action_of_code a)
          : Net.transition_id))
    spec.sp_trans;
  B.build b

let prop_packed_equals_boxed =
  QCheck2.Test.make
    ~name:"packed builder equals boxed builder on random interpreted nets"
    ~count:120 gen_spec (fun spec ->
      let net = build_spec_net spec in
      let cap = 300 in
      let boxed, packed = both ~max_states:cap net in
      graphs_equal boxed packed)

(* -- edge pages: 4-byte entries, the switch to 8 bytes, page
      boundaries -- *)

(* Store [edges] (source, tid, target), grouped by ascending source,
   into a store of [n] one-place states. *)
let store_of_edges ~num_transitions ~n edges =
  let codec = Packed.create (carrier_net [| n |]) in
  let st = Store.create codec ~num_transitions in
  for i = 0 to n - 1 do
    match Store.intern st [| i |] ~extra:0 ~max_states:max_int with
    | `Added j when j = i -> ()
    | _ -> Alcotest.fail "states intern in order"
  done;
  let last = ref (-1) in
  List.iter
    (fun (src, tid, tgt) ->
      if src <> !last then begin
        Store.begin_source st src;
        last := src
      end;
      Store.add_edge st ~tid ~target:tgt)
    edges;
  Store.finalize st;
  st

(* Every edge accessor against the plain edge list. *)
let check_against_model what st ~n edges =
  Alcotest.(check int) (what ^ ": edge count") (List.length edges)
    (Store.num_edges st);
  let seen = ref [] in
  Store.iter_edges st (fun src tid tgt -> seen := (src, tid, tgt) :: !seen);
  Alcotest.(check bool) (what ^ ": iter_edges in sweep order") true
    (List.rev !seen = edges);
  (* successors in sweep order, predecessors in reverse sweep order *)
  let out = Array.make n [] and into = Array.make n [] in
  List.iter
    (fun (src, tid, tgt) ->
      out.(src) <- (tid, tgt) :: out.(src);
      into.(tgt) <- (src, tid) :: into.(tgt))
    edges;
  let ok = ref true in
  for i = 0 to n - 1 do
    if
      Store.successors st i <> List.rev out.(i)
      || Store.predecessors st i <> into.(i)
    then ok := false
  done;
  Alcotest.(check bool)
    (what ^ ": successors and predecessors")
    true !ok

(* [finalize] releases the intern index: every intern entry point
   refuses afterwards instead of probing the released table. *)
let test_intern_after_finalize () =
  let st = store_of_edges ~num_transitions:1 ~n:3 [ (0, 0, 1); (1, 0, 2) ] in
  let refuses what f =
    Alcotest.(check bool) (what ^ " raises Invalid_argument") true
      (match f () with exception Invalid_argument _ -> true | _ -> false)
  in
  refuses "intern" (fun () ->
      ignore (Store.intern st [| 7 |] ~extra:0 ~max_states:max_int));
  refuses "intern_index" (fun () ->
      ignore (Store.intern_index st [| 0 |] ~extra:0 ~max_states:max_int));
  refuses "intern_delta" (fun () ->
      ignore (Store.intern_delta st ~src:0 [| 1 |] ~max_states:max_int));
  Alcotest.(check int) "the states stay" 3 (Store.num_states st);
  Alcotest.(check (list (pair int int))) "the edges stay" [ (0, 2) ]
    (Store.successors st 1)

let test_edge_width_switch () =
  (* 30 transition bits: a word for target 3 still fits 32 bits, one
     for target 4 does not *)
  let num_transitions = 1 lsl 30 in
  let big = num_transitions - 1 in
  let narrow =
    [ (0, 0, 1); (0, big, 2); (1, 5, 3); (1, 7, 0); (2, big, 3); (3, 1, 1) ]
  in
  let wide = narrow @ [ (4, 2, 4); (4, big, 5); (5, 3, 0) ] in
  let st = store_of_edges ~num_transitions ~n:6 narrow in
  Alcotest.(check int) "targets below 4 keep 4-byte entries" 4
    (Store.edge_bytes st);
  check_against_model "narrow" st ~n:6 narrow;
  let st = store_of_edges ~num_transitions ~n:6 wide in
  Alcotest.(check int) "target 4 switches to 8-byte entries" 8
    (Store.edge_bytes st);
  check_against_model "wide" st ~n:6 wide

let test_edge_pages_cross () =
  (* 70,000 states with one edge each: the offsets and the edges both
     cross from the first page of 65,536 entries into the second.  With
     24 transition bits, targets below 256 fit 32 bits and the last
     state does not: the wide variant switches once the first page is
     full, so a full page and a partial one are re-encoded. *)
  let n = 70_000 in
  let gen ~wide_after =
    List.init n (fun k ->
        (k, k mod 1000, if k >= wide_after then n - 1 else k * 7 mod 200))
  in
  let narrow = gen ~wide_after:max_int in
  let st = store_of_edges ~num_transitions:1000 ~n narrow in
  Alcotest.(check int) "4-byte entries" 4 (Store.edge_bytes st);
  check_against_model "paged" st ~n narrow;
  let wide = gen ~wide_after:66_000 in
  let st = store_of_edges ~num_transitions:(1 lsl 24) ~n wide in
  Alcotest.(check int) "8-byte entries after the switch" 8
    (Store.edge_bytes st);
  check_against_model "paged wide" st ~n wide

(* -- reversibility: the early-stopping DFS against the boxed oracle's
      backward walks -- *)

let net_of name ~places transitions =
  let b = B.create name in
  let ps =
    List.map (fun (p, initial) -> (p, B.add_place b p ~initial)) places
  in
  List.iter
    (fun (t, i, o) ->
      ignore
        (B.add_transition b t
           ~inputs:[ (List.assoc i ps, 1) ]
           ~outputs:[ (List.assoc o ps, 1) ]
          : Net.transition_id))
    transitions;
  B.build b

let check_scc ?max_states net ~reversible () =
  let o = Pnut_exec.Supervisor.value (Boxed.build_supervised ?max_states net) in
  let g = Pnut_exec.Supervisor.value (Graph.build_supervised ?max_states net) in
  Alcotest.(check bool) "oracle reversible" reversible (Boxed.is_reversible o);
  Alcotest.(check bool) "reversible" reversible (Graph.is_reversible g)

(* p branches into two 2-cycles: two bottom SCCs *)
let test_scc_two_bottoms =
  check_scc
    (net_of "forks"
       ~places:[ ("p", 1); ("a", 0); ("a2", 0); ("b", 0); ("b2", 0) ]
       [ ("ta", "p", "a"); ("tb", "p", "b"); ("ta2", "a", "a2");
         ("ta1", "a2", "a"); ("tb2", "b", "b2"); ("tb1", "b2", "b") ])
    ~reversible:false

let test_scc_sink =
  check_scc
    (net_of "sink" ~places:[ ("p", 1); ("q", 0) ] [ ("t", "p", "q") ])
    ~reversible:false

(* [a <-> b] with the exit [b -> c] on the member that is not the
   component's root: the first component to close is c's, not a's *)
let test_scc_exit_from_member =
  check_scc
    (net_of "member exit" ~places:[ ("a", 1); ("b", 0); ("c", 0) ]
       [ ("ab", "a", "b"); ("ba", "b", "a"); ("bc", "b", "c") ])
    ~reversible:false

(* p reaches the sink q directly and through r; the sink closes first *)
let test_scc_into_last_closed =
  check_scc
    (net_of "diamond" ~places:[ ("p", 1); ("q", 0); ("r", 0) ]
       [ ("pq", "p", "q"); ("pr", "p", "r"); ("rq", "r", "q") ])
    ~reversible:false

let test_scc_one_state () =
  check_scc
    (net_of "loop" ~places:[ ("p", 1) ] [ ("t", "p", "p") ])
    ~reversible:true ();
  check_scc
    (net_of "dead" ~places:[ ("p", 0); ("q", 0) ] [ ("t", "p", "q") ])
    ~reversible:true ()

(* a capped prefix: the unexpanded frontier states are sinks *)
let test_scc_truncated () =
  check_scc ~max_states:50 (pump_net ()) ~reversible:false ();
  check_scc ~max_states:50 (ring ~tokens:6 ()) ~reversible:false ()

let test_scc_ring_scale () =
  let net = ring9 ~tokens:8 in
  List.iter
    (fun por ->
      let g = Graph.build ~por net in
      let what = Printf.sprintf "por=%b" por in
      Alcotest.(check int) (what ^ ": every marking") 12870
        (Graph.num_states g);
      Alcotest.(check bool) (what ^ ": reversible") true
        (Graph.is_reversible g))
    [ true; false ]

(* ring9 with 10 tokens (C(18,8) = 43,758 markings) and a one-shot
   [latch], enabled while r8 holds 8 tokens, that moves the token of
   [armed] to [latched]: 87,516 states.  That is more than 0.7 of a
   65,536-slot page, so the intern index grows into a second page, and
   the DFS ranks and path cross a page too.  The latch never fires
   back, so the graph is not reversible: the DFS closes a latched
   component first. *)
let latched_ring () =
  let b = B.create "latched ring" in
  let ps =
    Array.init 9 (fun i ->
        B.add_place b (Printf.sprintf "r%d" i)
          ~initial:(if i = 0 then 10 else 0))
  in
  for i = 0 to 8 do
    ignore
      (B.add_transition b (Printf.sprintf "rt%d" i)
         ~inputs:[ (ps.(i), 1) ]
         ~outputs:[ (ps.((i + 1) mod 9), 1) ]
        : Net.transition_id)
  done;
  let armed = B.add_place b "armed" ~initial:1 in
  let latched = B.add_place b "latched" in
  ignore
    (B.add_transition b "latch"
       ~inputs:[ (ps.(8), 8); (armed, 1) ]
       ~outputs:[ (ps.(8), 8); (latched, 1) ]
      : Net.transition_id);
  (B.build b, latched)

let test_scc_index_pages () =
  let net, latched = latched_ring () in
  List.iter
    (fun por ->
      let what = Printf.sprintf "por=%b" por in
      let boxed = Boxed.build ~por net and packed = Graph.build ~por net in
      let n = Graph.num_states packed in
      Alcotest.(check bool) (what ^ ": the index outgrows one page") true
        (n * 10 > 65_536 * 7);
      Alcotest.(check bool) (what ^ ": packed graph equals boxed graph") true
        (graphs_equal boxed packed);
      Alcotest.(check bool) (what ^ ": reversible as the oracle")
        (Boxed.is_reversible boxed) (Graph.is_reversible packed);
      let latched_states =
        List.filter
          (fun i -> (Graph.state packed i).Graph.s_marking.(latched) = 1)
          (List.init n Fun.id)
      in
      Alcotest.(check int) (what ^ ": half the states are latched") (n / 2)
        (List.length latched_states))
    [ true; false ]

(* -- which step decides: at most two index-order passes mark the
      states that reach state 0, and the DFS runs only when they leave
      the answer open.  The marks take a byte a state and the DFS's two
      tables 4 bytes a state each, so the bytes [Graph.is_reversible]
      allocates tell the steps apart.  The minor heap is emptied first,
      so no promotion falls inside the count; tables past 256 words go
      straight to the major heap, which [Gc.minor_words] does not
      see. -- *)

let allocated_words () =
  let _, _, major = Gc.counters () in
  Gc.minor_words () +. major

let check_decided what g ~reversible ~by =
  let n = Graph.num_states g in
  Gc.minor ();
  let a = allocated_words () in
  let r = Graph.is_reversible g in
  let bytes = (allocated_words () -. a) *. float_of_int (Sys.word_size / 8) in
  Alcotest.(check bool) (what ^ ": reversible") reversible r;
  let detail = Printf.sprintf "(%.0f bytes for %d states)" bytes n in
  match by with
  | `Passes ->
    Alcotest.(check bool) (what ^ ": no DFS tables " ^ detail) true
      (bytes < float_of_int ((2 * n) + 512))
  | `Dfs ->
    Alcotest.(check bool) (what ^ ": the DFS tables " ^ detail) true
      (bytes >= float_of_int (8 * n))

(* the ascending pass marks the 8 states that move every token back to
   r0 at once, the descending pass all the others *)
let test_passes_say_true () =
  List.iter
    (fun por ->
      let g = Graph.build ~por (ring9 ~tokens:8) in
      let what = Printf.sprintf "por=%b" por in
      Alcotest.(check int) (what ^ ": states") 12870 (Graph.num_states g);
      check_decided what g ~reversible:true ~by:`Passes)
    [ true; false ]

(* state 1 (q marked) has no successor: the first pass marks nothing *)
let test_passes_say_false () =
  let g =
    Graph.build (net_of "sink" ~places:[ ("p", 1); ("q", 0) ] [ ("t", "p", "q") ])
  in
  Alcotest.(check int) "states" 2 (Graph.num_states g);
  check_decided "p -t-> q" g ~reversible:false ~by:`Passes

(* the Figure 1-3 pipeline drains back to state 0 only through long
   chains that both passes cross against their order; capped at 500
   states, its unexpanded frontier never reaches 0 *)
let test_dfs_decides () =
  let net = Pnut_pipeline.Model.full Pnut_pipeline.Config.default in
  let g = Graph.build ~max_states:20000 ~por:true net in
  Alcotest.(check int) "states" 552 (Graph.num_states g);
  check_decided "pipeline" g ~reversible:true ~by:`Dfs;
  let g = Graph.build ~max_states:500 ~por:true net in
  Alcotest.(check bool) "capped" false (Graph.complete g);
  check_decided "pipeline capped at 500" g ~reversible:false ~by:`Dfs

(* Random graphs written straight into the store: state [v > 0] gets a
   tree edge from a lower state, so every state is reachable from 0,
   and extra edges go anywhere.  [Store.strongly_connected] against a
   backward fixpoint from state 0. *)
let gen_rooted_graph =
  let open QCheck2.Gen in
  let* n = int_range 1 40 in
  let* parents = list_repeat (n - 1) (int_bound 1000) in
  let* extra =
    list_size (int_bound (2 * n)) (pair (int_bound (n - 1)) (int_bound (n - 1)))
  in
  return (n, parents, extra)

let prop_scc_equals_backward_fixpoint =
  QCheck2.Test.make ~name:"strongly_connected equals the backward fixpoint"
    ~count:500
    ~print:QCheck2.Print.(triple int (list int) (list (pair int int)))
    gen_rooted_graph
    (fun (n, parents, extra) ->
      let tree = List.mapi (fun i x -> (x mod (i + 1), i + 1)) parents in
      let edges = List.stable_sort compare (tree @ extra) in
      let st =
        store_of_edges ~num_transitions:1 ~n
          (List.map (fun (s, t) -> (s, 0, t)) edges)
      in
      let reaches = Array.init n (fun i -> i = 0) in
      let grew = ref true in
      while !grew do
        grew := false;
        List.iter
          (fun (s, t) ->
            if reaches.(t) && not reaches.(s) then begin
              reaches.(s) <- true;
              grew := true
            end)
          edges
      done;
      Store.strongly_connected st = Array.for_all Fun.id reaches)

(* unreduced builds of the interpreted nets, and reduced builds of
   their plain projections *)
let prop_scc_equals_backward_walks =
  QCheck2.Test.make
    ~name:"reversibility equals the backward walks, reduced or not"
    ~count:120 gen_spec (fun spec ->
      let boxed, packed = both ~max_states:300 (build_spec_net spec) in
      let plain = build_spec_net ~plain:true spec in
      Boxed.is_reversible boxed = Graph.is_reversible packed
      && Pnut_reach.Stubborn.unsupported plain = None
      && Boxed.is_reversible (Boxed.build ~max_states:300 ~por:true plain)
         = Graph.is_reversible (Graph.build ~max_states:300 ~por:true plain))

let () =
  Alcotest.run "packed"
    [
      ( "identity",
        [
          Alcotest.test_case "ring" `Quick test_ring_identical;
          Alcotest.test_case "counter env" `Quick test_counter_identical;
          Alcotest.test_case "pump widen + truncation" `Quick
            test_pump_widen_identical;
          Alcotest.test_case "lying capacity widen" `Quick
            test_lying_capacity_identical;
          Alcotest.test_case "late widen across arena pages" `Quick
            test_late_widen_identical;
          Alcotest.test_case "budget trip partial" `Quick
            test_budget_trip_identical;
          Alcotest.test_case "trip frontier" `Quick
            test_trip_frontier_identical;
          Alcotest.test_case "bytes per state" `Quick test_bytes_per_state;
          Alcotest.test_case "exact bytes per state" `Quick
            test_bytes_per_state_exact;
          Alcotest.test_case "bounds known" `Quick test_bounds_known;
          Alcotest.test_case "word delta overflow" `Quick
            test_delta_overflow_identical;
          Alcotest.test_case "ring successor digest" `Quick
            test_ring_successor_digest;
        ] );
      ( "edge pages",
        [
          Alcotest.test_case "4- to 8-byte switch" `Quick
            test_edge_width_switch;
          Alcotest.test_case "page boundary" `Quick test_edge_pages_cross;
          Alcotest.test_case "intern after finalize" `Quick
            test_intern_after_finalize;
        ] );
      ( "scc",
        [
          Alcotest.test_case "two bottom SCCs" `Quick test_scc_two_bottoms;
          Alcotest.test_case "deadlock sink" `Quick test_scc_sink;
          Alcotest.test_case "exit from a member" `Quick
            test_scc_exit_from_member;
          Alcotest.test_case "edge into the last closed" `Quick
            test_scc_into_last_closed;
          Alcotest.test_case "one state" `Quick test_scc_one_state;
          Alcotest.test_case "truncated prefix" `Quick test_scc_truncated;
          Alcotest.test_case "ring9 reversible" `Quick test_scc_ring_scale;
          Alcotest.test_case "index past one page" `Quick
            test_scc_index_pages;
          Alcotest.test_case "passes say true" `Quick test_passes_say_true;
          Alcotest.test_case "passes say false" `Quick test_passes_say_false;
          Alcotest.test_case "DFS decides" `Quick test_dfs_decides;
          QCheck_alcotest.to_alcotest prop_scc_equals_backward_fixpoint;
        ] );
      ( "side table",
        [ Alcotest.test_case "env and clocks" `Quick test_intern_extra_clocks ]
      );
      ( "properties",
        [
          QCheck_alcotest.to_alcotest prop_roundtrip_and_agreement;
          QCheck_alcotest.to_alcotest prop_intern_agrees_with_hashtbl;
          QCheck_alcotest.to_alcotest prop_packed_equals_boxed;
          QCheck_alcotest.to_alcotest prop_scc_equals_backward_walks;
        ] );
    ]
