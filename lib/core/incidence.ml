type t = {
  matrix : int array array;  (* places x transitions *)
  np : int;
  nt : int;
}

let of_net net =
  let np = Net.num_places net in
  let nt = Net.num_transitions net in
  let matrix = Array.make_matrix np nt 0 in
  Array.iter
    (fun tr ->
      let j = tr.Net.t_id in
      List.iter
        (fun { Net.a_place; a_weight } ->
          matrix.(a_place).(j) <- matrix.(a_place).(j) - a_weight)
        tr.Net.t_inputs;
      List.iter
        (fun { Net.a_place; a_weight } ->
          matrix.(a_place).(j) <- matrix.(a_place).(j) + a_weight)
        tr.Net.t_outputs)
    (Net.transitions net);
  { matrix; np; nt }

let num_places c = c.np
let num_transitions c = c.nt

let entry c p t = c.matrix.(p).(t)

let apply c marking t =
  for p = 0 to c.np - 1 do
    marking.(p) <- marking.(p) + c.matrix.(p).(t)
  done

let rec gcd a b = if b = 0 then abs a else gcd b (a mod b)

let vector_gcd v = Array.fold_left (fun acc x -> gcd acc x) 0 v

let normalize v =
  let g = vector_gcd v in
  if g > 1 then Array.map (fun x -> x / g) v else Array.copy v

let support v =
  let s = ref [] in
  Array.iteri (fun i x -> if x <> 0 then s := i :: !s) v;
  !s

let support_subset a b =
  (* support(a) subset-of support(b)? *)
  let ok = ref true in
  Array.iteri (fun i x -> if x <> 0 && b.(i) = 0 then ok := false) a;
  !ok

(* Farkas' algorithm.  [rows] is a list of (coeff vector over the original
   rows, residual matrix row).  Eliminates one column at a time, combining
   positive and negative rows; rows already zero in the column survive. *)
let farkas ~rows ~cols matrix =
  let max_rows = 20000 in
  let initial =
    List.init rows (fun i ->
        let coeff = Array.make rows 0 in
        coeff.(i) <- 1;
        (coeff, Array.copy matrix.(i)))
  in
  let eliminate col current =
    let zero, nonzero =
      List.partition (fun (_, row) -> row.(col) = 0) current
    in
    let pos = List.filter (fun (_, row) -> row.(col) > 0) nonzero in
    let neg = List.filter (fun (_, row) -> row.(col) < 0) nonzero in
    (* the step yields exactly |zero| + |pos|·|neg| rows: refuse it
       before building any combination *)
    if List.length zero + (List.length pos * List.length neg) > max_rows then
      invalid_arg "Incidence: invariant computation exceeded row limit";
    let combos =
      List.concat_map
        (fun (cp, rp) ->
          List.map
            (fun (cn, rn) ->
              let a = rp.(col) and b = -rn.(col) in
              let g = gcd a b in
              let ka = b / g and kb = a / g in
              let coeff =
                Array.init rows (fun i -> (ka * cp.(i)) + (kb * cn.(i)))
              in
              let row =
                Array.init cols (fun j -> (ka * rp.(j)) + (kb * rn.(j)))
              in
              (coeff, row))
            neg)
        pos
    in
    zero @ combos
  in
  let rec go col current =
    if col >= cols then current else go (col + 1) (eliminate col current)
  in
  let final = go 0 initial in
  let candidates =
    List.filter_map
      (fun (coeff, _) ->
        if Array.exists (fun x -> x <> 0) coeff then Some (normalize coeff)
        else None)
    final
  in
  (* keep minimal-support, deduplicated vectors *)
  let minimal v others =
    not
      (List.exists
         (fun w -> w != v && support_subset w v && support w <> support v)
         others)
  in
  let dedup =
    List.fold_left
      (fun acc v -> if List.exists (fun w -> w = v) acc then acc else v :: acc)
      [] candidates
    |> List.rev
  in
  List.filter (fun v -> minimal v dedup) dedup

let p_invariants c = farkas ~rows:c.np ~cols:c.nt c.matrix

let t_invariants c =
  let transposed =
    Array.init c.nt (fun j -> Array.init c.np (fun i -> c.matrix.(i).(j)))
  in
  farkas ~rows:c.nt ~cols:c.np transposed

let conserved c y =
  let ok = ref true in
  for j = 0 to c.nt - 1 do
    let sum = ref 0 in
    for i = 0 to c.np - 1 do
      sum := !sum + (y.(i) * c.matrix.(i).(j))
    done;
    if !sum <> 0 then ok := false
  done;
  !ok

let weighted_sum y m =
  let sum = ref 0 in
  Array.iteri (fun i x -> sum := !sum + (x * m.(i))) y;
  !sum

(* Upper bounds on reachable token counts: the declared capacity (if
   any) tightened by every P-invariant — for an invariant [y >= 0] with
   [y_p > 0], [y.M = y.M0] along any firing sequence, so
   [M(p) <= (y.M0) / y_p].  Farkas can blow up combinatorially, so
   invariants are only consulted under a size guard and its row-limit
   trip is treated as "no invariants". *)
let place_bounds net =
  let np = Net.num_places net in
  let m0 = Marking.to_array (Net.initial_marking net) in
  let bounds = Array.init np (fun p -> (Net.place net p).Net.p_capacity) in
  let tighten p b =
    match bounds.(p) with
    | Some c when c <= b -> ()
    | Some _ | None -> bounds.(p) <- Some b
  in
  if np <= 200 && Net.num_transitions net <= 200 then begin
    let invs =
      try p_invariants (of_net net) with Invalid_argument _ -> []
    in
    List.iter
      (fun y ->
        let total = weighted_sum y m0 in
        Array.iteri (fun p yp -> if yp > 0 then tighten p (total / yp)) y)
      invs
  end;
  bounds

(* -- static dependency relations for stubborn-set reduction --

   [conflicts] links two transitions whenever they touch a common place
   through any arc (input, inhibitor or output).  This is deliberately
   coarser than the minimal "shared input place" conflict: besides token
   competition it covers both inhibitor directions (t may raise or
   lower a place t' tests, and vice versa) and shared outputs, whose
   interleavings are what give a place its intermediate peaks — so a
   reduction closed under this relation never fires two place-sharing
   transitions in only one order, which is what keeps the reduced
   graph's deadlock set exact and its place bounds exact on terminating
   nets.  Transitions in different place-connected components stay
   unrelated, which is where the reduction wins.

   [enablers]/[consumers] are per place: the transitions whose firing
   strictly raises (resp. lowers) its token count, by net arc delta —
   a self-loop that returns what it takes moves nothing and appears in
   neither.  They answer the closure's question for a disabled
   transition: who could cure an insufficient input place (producers),
   who could release an over-threshold inhibitor place (consumers). *)

let arc_places tr =
  let ps arcs = List.map (fun a -> a.Net.a_place) arcs in
  List.sort_uniq compare
    (ps tr.Net.t_inputs @ ps tr.Net.t_inhibitors @ ps tr.Net.t_outputs)

let conflicts net =
  let np = Net.num_places net in
  let nt = Net.num_transitions net in
  let touching = Array.make np [] in
  (* descending build per place so each list ends up ascending *)
  for i = nt - 1 downto 0 do
    List.iter
      (fun p -> touching.(p) <- i :: touching.(p))
      (arc_places (Net.transition net i))
  done;
  let seen = Array.make nt false in
  Array.map
    (fun tr ->
      let t = tr.Net.t_id in
      let acc = ref [] in
      List.iter
        (fun p ->
          List.iter
            (fun t' ->
              if t' <> t && not seen.(t') then begin
                seen.(t') <- true;
                acc := t' :: !acc
              end)
            touching.(p))
        (arc_places tr);
      let l = List.sort compare !acc in
      List.iter (fun t' -> seen.(t') <- false) l;
      Array.of_list l)
    (Net.transitions net)

let net_deltas net =
  let np = Net.num_places net in
  let prod = Array.make np [] in
  let cons = Array.make np [] in
  for i = Net.num_transitions net - 1 downto 0 do
    let tr = Net.transition net i in
    let delta = Hashtbl.create 8 in
    let add sign { Net.a_place; a_weight } =
      let d = try Hashtbl.find delta a_place with Not_found -> 0 in
      Hashtbl.replace delta a_place (d + (sign * a_weight))
    in
    List.iter (add (-1)) tr.Net.t_inputs;
    List.iter (add 1) tr.Net.t_outputs;
    (* iterate places in sorted order so the per-place lists stay
       deterministic (Hashtbl.iter order is not) *)
    Hashtbl.fold (fun p d acc -> (p, d) :: acc) delta []
    |> List.sort compare
    |> List.iter (fun (p, d) ->
           if d > 0 then prod.(p) <- i :: prod.(p)
           else if d < 0 then cons.(p) <- i :: cons.(p))
  done;
  (prod, cons)

let enablers net = Array.map Array.of_list (fst (net_deltas net))
let consumers net = Array.map Array.of_list (snd (net_deltas net))

let pp_vector net kind ppf v =
  let name i =
    match kind with
    | `Place -> (Net.place net i).Net.p_name
    | `Transition -> (Net.transition net i).Net.t_name
  in
  let terms =
    Array.to_list v
    |> List.mapi (fun i x -> (i, x))
    |> List.filter (fun (_, x) -> x <> 0)
    |> List.map (fun (i, x) ->
           if x = 1 then name i else Printf.sprintf "%d*%s" x (name i))
  in
  Format.pp_print_string ppf (String.concat " + " terms)
