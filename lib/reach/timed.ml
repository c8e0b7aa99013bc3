(* State-class timed reachability.

   The old builder enumerated concrete clock valuations — every residual
   combination its own state, every time advance its own Tick edge.  On
   the paper's pipeline models that explodes linearly in the delay
   constants: a 10-cycle memory stage drags thousands of interpolated
   tick states through the graph without changing a single marking.
   This builder computes {e state classes} instead, in the
   Berthomieu/Menasche tradition adapted to Razouk's two-phase firing
   rule: a class is a marking, an environment, and the multiset of
   transition ids currently in flight, together with a canonical
   firing-interval domain — the per-timer [lo, hi] envelope of every
   residual vector reaching the class.

   The facts that make the class graph exact for the analyses we run:

   - Vectors are {e shift-normalized} at creation: when no timer is at
     zero, the minimum residual is subtracted from every clock — the
     explicit builder's Tick, folded into the edge that created the
     vector.  Tick edges therefore vanish entirely; every class edge is
     a [Fire] or a [Complete].
   - The pending (enabling) timer support is a function of (marking,
     env) — the refresh rule keeps exactly the enabled transitions — so
     class identity only needs the in-flight multiset on top of the
     {!Statekey}; all vectors of a class agree on both supports and
     differ only in residual values.
   - Reachable (marking, env) pairs, the deadlock set and per-place
     bounds all coincide with the explicit expansion's (a class is dead
     iff it has no timers and nothing enabled, which is a per-class
     property, not a per-vector one).  Per-path time is the one thing
     folded away; {!min_cycle_time} recovers it with a uniform-cost
     search over normalized vectors where the edge weight is the
     normalization shift.

   The construction is layered onto the one graph stack: classes intern
   via {!Statekey}, pack into the {!Store} arena (marking fields plus
   the interned (env, in-flight) domain in the extra-id field) and run
   under {!Pnut_exec.Supervisor} budgets.  {!Timed_explicit} keeps the old semantics frozen as the differential
   oracle. *)

module Net = Pnut_core.Net
module Marking = Pnut_core.Marking
module Env = Pnut_core.Env
module Value = Pnut_core.Value
module Kernel = Pnut_core.Kernel
module Duration = Pnut_core.Duration

type label =
  | Fire of Net.transition_id
  | Complete of Net.transition_id

type state = {
  ts_index : int;
  ts_marking : int array;
  ts_flight : Net.transition_id list;
  ts_pending : Net.transition_id list;
  ts_flight_iv : (float * float) list;
  ts_pending_iv : (float * float) list;
  ts_env : (string * Value.t) list;
}

type edge = {
  e_from : int;
  e_label : label;
  e_to : int;
}

(* Same two physical layouts as {!Graph}: [Boxed] keeps per-class
   records and edge lists, [Compact] is the packed arena with CSR
   edges.  The timer supports and interval envelopes live in flat side
   arrays shared by both layouts (they are small — one slot per timer
   per class — and have no packed encoding). *)
type repr =
  | Boxed of {
      markings : int array array;
      envs : Env.t array;
      succ : edge list array;
      pred : edge list array;
    }
  | Compact of Store.t

type t = {
  net : Net.t;
  repr : repr;
  complete : bool;
  n_edges : int;
  n_vectors : int;  (* residual vectors explored to close the classes *)
  sup_off : int array;  (* class -> start into sup/iv; length n+1 *)
  sup : int array;  (* 2*tid = in-flight slot, 2*tid+1 = pending slot *)
  iv_lo : float array;
  iv_hi : float array;
}

let net g = g.net
let complete g = g.complete
let num_vectors g = g.n_vectors
let num_edges g = g.n_edges

let num_states g =
  match g.repr with
  | Boxed b -> Array.length b.markings
  | Compact st -> Store.num_states st

(* Fire and Complete edges share the store's transition-id field:
   even codes fire, odd codes complete. *)
let label_of_code c = if c land 1 = 0 then Fire (c asr 1) else Complete (c asr 1)

let state g i =
  let marking, env_bindings =
    match g.repr with
    | Boxed b -> (b.markings.(i), Env.bindings b.envs.(i))
    | Compact st ->
      let codec = Store.codec st in
      let np = Packed.places (Packed.layout codec) in
      let m = Array.make np 0 in
      Store.marking_into st i m;
      (m, Packed.extra_bindings codec (Store.extra st i))
  in
  let lo = g.sup_off.(i) and hi = g.sup_off.(i + 1) in
  let flight = ref [] and pending = ref [] in
  let flight_iv = ref [] and pending_iv = ref [] in
  for k = hi - 1 downto lo do
    let s = g.sup.(k) in
    let iv = (g.iv_lo.(k), g.iv_hi.(k)) in
    if s land 1 = 0 then begin
      flight := (s asr 1) :: !flight;
      flight_iv := iv :: !flight_iv
    end
    else begin
      pending := (s asr 1) :: !pending;
      pending_iv := iv :: !pending_iv
    end
  done;
  {
    ts_index = i;
    ts_marking = marking;
    ts_flight = !flight;
    ts_pending = !pending;
    ts_flight_iv = !flight_iv;
    ts_pending_iv = !pending_iv;
    ts_env = env_bindings;
  }

let initial _ = 0

let successors g i =
  match g.repr with
  | Boxed b -> b.succ.(i)
  | Compact st ->
    List.map
      (fun (code, tgt) -> { e_from = i; e_label = label_of_code code; e_to = tgt })
      (Store.successors st i)

let predecessors g j =
  match g.repr with
  | Boxed b -> b.pred.(j)
  | Compact st ->
    List.map
      (fun (src, code) -> { e_from = src; e_label = label_of_code code; e_to = j })
      (Store.predecessors st j)

let packed_bytes_per_state g =
  match g.repr with
  | Boxed _ -> None
  | Compact st -> Some (Store.bytes_per_state st)

let domain_arrays g = (g.sup_off, g.sup, g.iv_lo, g.iv_hi)

(* -- shared timed-semantics helpers (Razouk's two-phase rule) -- *)

let det_duration env d = Duration.det ~who:"Reach.Timed" env d

(* Recompute the pending (enabling) list after a state change: enabled
   transitions keep their old residual, newly enabled ones start at
   their full enabling delay, [restart] names transitions whose clock
   restarts regardless (the just-fired one).  Identical to the frozen
   oracle's rule — the differential suite depends on it. *)
let refresh_pending kernel marking env old_pending ~restart =
  Array.to_list (Kernel.transitions kernel)
  |> List.filter_map (fun (c : Kernel.ctrans) ->
         if Kernel.enabled c marking env then
           let residual =
             match List.assoc_opt c.s_id old_pending with
             | Some r when not (List.mem c.s_id restart) -> r
             | Some _ | None -> det_duration env c.s_tr.Net.t_enabling
           in
           Some (c.s_id, residual)
         else None)

let float_key f = Printf.sprintf "%.9g" f

(* Canonical rendering of one residual vector (both timer lists must be
   sorted) — the per-class vector-dedup key. *)
let clocks_repr in_flight pending =
  let buf = Buffer.create 32 in
  List.iter
    (fun (t, r) -> Buffer.add_string buf (Printf.sprintf "%d:%s;" t (float_key r)))
    in_flight;
  Buffer.add_char buf '|';
  List.iter
    (fun (t, r) -> Buffer.add_string buf (Printf.sprintf "%d:%s;" t (float_key r)))
    pending;
  Buffer.contents buf

(* Canonical rendering of the in-flight transition multiset (sorted) —
   the clock component of class identity, and the [clocks] string under
   which the class's domain is interned into the packed extra table. *)
let flight_repr flight =
  let buf = Buffer.create 16 in
  List.iter
    (fun (t, _) ->
      Buffer.add_string buf (string_of_int t);
      Buffer.add_char buf ';')
    flight;
  Buffer.contents buf

let sort_flight l =
  List.sort
    (fun (t1, r1) (t2, r2) ->
      match compare t1 t2 with 0 -> Float.compare r1 r2 | c -> c)
    l

(* Shift-normalize a vector: when no clock is at zero, subtract the
   minimum residual from every clock — the oracle's Tick, performed
   eagerly with the same float operations so residual values match it
   bit for bit.  Returns the shift (the Tick duration folded into the
   incoming edge); 0 when the vector was already normal. *)
let normalize flight pending =
  let has_zero = List.exists (fun (_, r) -> Float.equal r 0.0) in
  if has_zero flight || has_zero pending then (flight, pending, 0.0)
  else begin
    let residuals =
      List.map snd flight
      @ List.filter_map (fun (_, r) -> if r > 0.0 then Some r else None) pending
    in
    match residuals with
    | [] -> (flight, pending, 0.0)
    | first :: rest ->
      let d = List.fold_left Float.min first rest in
      let tick l = List.map (fun (t, r) -> (t, Float.max 0.0 (r -. d))) l in
      (tick flight, tick pending, d)
  end

(* One candidate successor vector, already sorted and normalized. *)
type cand = {
  c_code : int;
  c_marking : Marking.t;
  c_flight : (Net.transition_id * float) list;
  c_pending : (Net.transition_id * float) list;
  c_env : Env.t;
  c_shift : float;  (* normalization shift = folded Tick duration *)
}

(* All successor vectors of one vector, in the fixed completion-then-
   firing order.  Normal vectors always have a zero clock (or none at
   all), so the oracle's third branch — the explicit tick — never
   applies here; it is absorbed into [normalize]. *)
let successors_of kernel (marking, flight, pending, env) =
  let acc = ref [] in
  let visit code marking' flight' pending' env' =
    let flight', pending', shift =
      normalize (sort_flight flight') (sort_flight pending')
    in
    acc :=
      { c_code = code; c_marking = marking'; c_flight = flight';
        c_pending = pending'; c_env = env'; c_shift = shift }
      :: !acc
  in
  let completable = List.filter (fun (_, r) -> Float.equal r 0.0) flight in
  List.iter
    (fun (tid, _) ->
      let c = Kernel.transition kernel tid in
      let m' = Marking.copy marking in
      Kernel.produce c m';
      let env' =
        if c.Kernel.s_has_action then begin
          let env' = Env.copy env in
          Kernel.run_action env' c;
          env'
        end
        else env
      in
      let remove l =
        let rec go = function
          | [] -> []
          | (t, r) :: rest when t = tid && Float.equal r 0.0 -> rest
          | x :: rest -> x :: go rest
        in
        go l
      in
      let flight' = remove flight in
      let pending' = refresh_pending kernel m' env' pending ~restart:[] in
      visit ((2 * tid) + 1) m' flight' pending' env')
    (List.sort_uniq compare completable);
  let fireable =
    List.filter
      (fun (tid, r) ->
        Float.equal r 0.0
        && Kernel.enabled (Kernel.transition kernel tid) marking env)
      pending
  in
  List.iter
    (fun (tid, _) ->
      let c = Kernel.transition kernel tid in
      let m' = Marking.copy marking in
      Kernel.consume c m';
      let d = det_duration env c.Kernel.s_tr.Net.t_firing in
      if Float.equal d 0.0 then begin
        Kernel.produce c m';
        let env' =
          if c.Kernel.s_has_action then begin
            let env' = Env.copy env in
            Kernel.run_action env' c;
            env'
          end
          else env
        in
        let pending' = refresh_pending kernel m' env' pending ~restart:[ tid ] in
        visit (2 * tid) m' flight pending' env'
      end
      else begin
        let flight' = (tid, d) :: flight in
        let pending' = refresh_pending kernel m' env pending ~restart:[ tid ] in
        visit (2 * tid) m' flight' pending' env
      end)
    fireable;
  List.rev !acc

(* The initial vector: empty flight, full enabling delays pending,
   normalized (the oracle reaches the same point through leading
   Ticks). *)
let initial_vector kernel net =
  let m0 = Net.initial_marking net in
  let env0 = Net.initial_env net in
  let pending0 = sort_flight (refresh_pending kernel m0 env0 [] ~restart:[]) in
  let flight0, pending0, shift0 = normalize [] pending0 in
  (m0, flight0, pending0, env0, shift0)

(* Widen a class's per-slot interval envelope with one more residual
   vector (flight slots first, then pending). *)
let widen_ranges lo hi flight pending =
  let nf = List.length flight in
  List.iteri
    (fun k (_, r) ->
      if r < lo.(k) then lo.(k) <- r;
      if r > hi.(k) then hi.(k) <- r)
    flight;
  List.iteri
    (fun k (_, r) ->
      if r < lo.(nf + k) then lo.(nf + k) <- r;
      if r > hi.(nf + k) then hi.(nf + k) <- r)
    pending

(* -- class records; [cl_edges] is in reverse emission order -- *)

type cls = {
  cl_index : int;
  cl_marking : int array;
  cl_env : Env.t;
  cl_flight : int list;  (* in-flight tid multiset, sorted *)
  cl_pending : int list;  (* enabled tids, sorted *)
  cl_flight_repr : string;
  cl_lo : float array;  (* per timer slot: flight entries, then pending *)
  cl_hi : float array;
  mutable cl_edges : (int * int) list;  (* (code, target class) *)
  cl_eseen : (int * int, unit) Hashtbl.t;
  cl_vecs : (string, unit) Hashtbl.t;
}

let fresh_cls ~index ~key ~env ~flight ~pending ~frepr =
  let n = List.length flight + List.length pending in
  {
    cl_index = index;
    cl_marking = key.Statekey.k_marking;
    cl_env = env;
    cl_flight = List.map fst flight;
    cl_pending = List.map fst pending;
    cl_flight_repr = frepr;
    cl_lo = Array.make n infinity;
    cl_hi = Array.make n neg_infinity;
    cl_edges = [];
    cl_eseen = Hashtbl.create 8;
    cl_vecs = Hashtbl.create 8;
  }

let add_class_edge cl code target =
  if not (Hashtbl.mem cl.cl_eseen (code, target)) then begin
    Hashtbl.add cl.cl_eseen (code, target) ();
    cl.cl_edges <- (code, target) :: cl.cl_edges
  end

(* -- serial class fixpoint: a FIFO over residual vectors; classes
      intern via Statekey, vectors dedup per class by their canonical
      rendering -- *)

let build_serial ~max_states ~monitor ~monitored kernel net =
  let index : cls Statekey.Tbl.t = Statekey.Tbl.create 1024 in
  let classes_rev = ref [] in
  let n_classes = ref 0 in
  let n_vectors = ref 0 in
  let truncated = ref false in
  let budget_stop = ref None in
  let frontier_left = ref 0 in
  let q = Queue.create () in
  (* Intern one normalized vector: find or create its class, then dedup
     the vector inside it.  [None] means the class would be fresh
     beyond the cap — the edge is dropped and the graph flagged
     incomplete, exactly like the untimed builder (edges into existing
     classes are still recorded at the cap). *)
  let intern_vec marking flight pending env =
    let frepr = flight_repr flight in
    let key = Statekey.make ~clocks:frepr marking env in
    let cl =
      match Statekey.Tbl.find_opt index key with
      | Some cl -> Some cl
      | None ->
        if !n_classes >= max_states then begin
          truncated := true;
          None
        end
        else begin
          let cl =
            fresh_cls ~index:!n_classes ~key ~env ~flight ~pending ~frepr
          in
          incr n_classes;
          Statekey.Tbl.replace index key cl;
          classes_rev := cl :: !classes_rev;
          Some cl
        end
    in
    match cl with
    | None -> None
    | Some cl ->
      let vkey = clocks_repr flight pending in
      if not (Hashtbl.mem cl.cl_vecs vkey) then begin
        Hashtbl.add cl.cl_vecs vkey ();
        incr n_vectors;
        widen_ranges cl.cl_lo cl.cl_hi flight pending;
        Queue.add (cl, marking, flight, pending, env) q
      end;
      Some cl
  in
  let m0, flight0, pending0, env0, _ = initial_vector kernel net in
  (match intern_vec m0 flight0 pending0 env0 with
  | Some cl -> assert (cl.cl_index = 0)
  | None -> assert false);
  let pops = ref 0 in
  (* Budget checks ride the dequeue boundary every 256 vectors — the
     cadence of every other builder in the stack. *)
  (try
     while not (Queue.is_empty q) do
       incr pops;
       if monitored && !pops land 255 = 0 then begin
         match Pnut_exec.Supervisor.check monitor with
         | Some r ->
           budget_stop := Some r;
           frontier_left := Queue.length q;
           raise_notrace Exit
         | None -> ()
       end;
       let cl, marking, flight, pending, env = Queue.pop q in
       List.iter
         (fun c ->
           match intern_vec c.c_marking c.c_flight c.c_pending c.c_env with
           | None -> ()
           | Some cl' -> add_class_edge cl c.c_code cl'.cl_index)
         (successors_of kernel (marking, flight, pending, env))
     done
   with Exit -> ());
  let classes = Array.make !n_classes None in
  List.iter (fun cl -> classes.(cl.cl_index) <- Some cl) !classes_rev;
  let classes = Array.map Option.get classes in
  (classes, !n_vectors, !truncated, !budget_stop, !frontier_left)

(* -- final assembly: the one place classes are packed.  Classes are
      appended in canonical discovery order and their (env, in-flight
      domain) snapshots are interned in class order, so the arena,
      index, CSR and side-table contents depend only on the class
      list. -- *)

let assemble_store net classes =
  let codec = Packed.create ~with_extra:true net in
  let nt = max 1 (Net.num_transitions net) in
  let store = Store.create codec ~num_transitions:(2 * nt) in
  Array.iter
    (fun cl ->
      let ex = Packed.intern_extra codec ~clocks:cl.cl_flight_repr cl.cl_env in
      match Store.intern store cl.cl_marking ~extra:ex ~max_states:max_int with
      | `Added _ -> ()
      | `Found _ | `Capped ->
        (* class identity is exactly (marking, env, in-flight domain) =
           (marking fields, extra id) — duplicates are impossible *)
        assert false)
    classes;
  Array.iteri
    (fun i cl ->
      Store.begin_source store i;
      List.iter
        (fun (code, j) -> Store.add_edge store ~tid:code ~target:j)
        (List.rev cl.cl_edges))
    classes;
  Store.finalize store;
  store

let assemble_domains classes =
  let n = Array.length classes in
  let sup_off = Array.make (n + 1) 0 in
  for i = 0 to n - 1 do
    sup_off.(i + 1) <-
      sup_off.(i)
      + List.length classes.(i).cl_flight
      + List.length classes.(i).cl_pending
  done;
  let m = sup_off.(n) in
  let sup = Array.make m 0 in
  let lo = Array.make m 0.0 in
  let hi = Array.make m 0.0 in
  Array.iteri
    (fun i cl ->
      let base = sup_off.(i) in
      let k = ref 0 in
      List.iter
        (fun t ->
          sup.(base + !k) <- 2 * t;
          lo.(base + !k) <- cl.cl_lo.(!k);
          hi.(base + !k) <- cl.cl_hi.(!k);
          incr k)
        cl.cl_flight;
      List.iter
        (fun t ->
          sup.(base + !k) <- (2 * t) + 1;
          lo.(base + !k) <- cl.cl_lo.(!k);
          hi.(base + !k) <- cl.cl_hi.(!k);
          incr k)
        cl.cl_pending)
    classes;
  (sup_off, sup, lo, hi)

let assemble_boxed classes =
  let n = Array.length classes in
  let markings = Array.map (fun cl -> cl.cl_marking) classes in
  let envs = Array.map (fun cl -> cl.cl_env) classes in
  let succ = Array.make n [] in
  let pred = Array.make n [] in
  Array.iteri
    (fun i cl ->
      succ.(i) <-
        List.rev_map
          (fun (code, j) -> { e_from = i; e_label = label_of_code code; e_to = j })
          cl.cl_edges)
    classes;
  Array.iter
    (fun l -> List.iter (fun e -> pred.(e.e_to) <- e :: pred.(e.e_to)) l)
    succ;
  Boxed { markings; envs; succ; pred }

let count_edges classes =
  Array.fold_left (fun a cl -> a + List.length cl.cl_edges) 0 classes

let build_supervised ?(max_states = 50_000) ?jobs:_ ?(packed = false)
    ?(budget = Pnut_exec.Budget.none) net =
  Duration.check_net ~who:"Reach.Timed" net;
  let monitor = Pnut_exec.Supervisor.start budget in
  let monitored = Pnut_exec.Supervisor.active monitor in
  let max_states =
    match Pnut_exec.Supervisor.max_states monitor with
    | Some cap -> min cap max_states
    | None -> max_states
  in
  let kernel = Kernel.of_net net in
  let classes, n_vectors, truncated, budget_stop, frontier_left =
    build_serial ~max_states ~monitor ~monitored kernel net
  in
  let repr =
    if packed then Compact (assemble_store net classes)
    else assemble_boxed classes
  in
  let n = Array.length classes in
  let n_edges = count_edges classes in
  let sup_off, sup, iv_lo, iv_hi = assemble_domains classes in
  let complete = (not truncated) && budget_stop = None in
  let g =
    { net; repr; complete; n_edges; n_vectors; sup_off; sup; iv_lo; iv_hi }
  in
  match budget_stop with
  | Some reason ->
    Pnut_exec.Supervisor.Degraded
      {
        reason;
        partial = g;
        progress =
          Pnut_exec.Supervisor.snapshot monitor ~visited:n
            ~frontier:frontier_left;
      }
  | None ->
    if truncated then
      Pnut_exec.Supervisor.Degraded
        {
          reason = Pnut_exec.Supervisor.States n;
          partial = g;
          progress =
            Pnut_exec.Supervisor.snapshot monitor ~visited:n ~frontier:0;
        }
    else Pnut_exec.Supervisor.Complete g

let build ?max_states ?packed net =
  Pnut_exec.Supervisor.value (build_supervised ?max_states ?packed net)

let deadlocks g =
  let acc = ref [] in
  (match g.repr with
  | Boxed b ->
    for i = Array.length b.succ - 1 downto 0 do
      if b.succ.(i) = [] then acc := i :: !acc
    done
  | Compact st ->
    for i = Store.num_states st - 1 downto 0 do
      if Store.out_degree st i = 0 then acc := i :: !acc
    done);
  !acc

let max_tokens g p =
  match g.repr with
  | Boxed b -> Array.fold_left (fun acc m -> max acc m.(p)) 0 b.markings
  | Compact st ->
    let scratch = Array.make (Net.num_places g.net) 0 in
    let acc = ref 0 in
    for i = 0 to Store.num_states st - 1 do
      Store.marking_into st i scratch;
      if scratch.(p) > !acc then acc := scratch.(p)
    done;
    !acc

(* Earliest time before [tid] first starts firing: a uniform-cost
   search over normalized vectors where an edge costs its normalization
   shift (the folded Tick).  The class graph cannot answer this — it
   merges vectors reached at different times — so the search runs over
   the vector space directly. *)
let min_cycle_time ?(max_states = 50_000) net tid =
  Duration.check_net ~who:"Reach.Timed" net;
  let kernel = Kernel.of_net net in
  let module Pq = Set.Make (struct
    type t = float * int

    let compare = compare
  end) in
  let vkey marking flight pending env =
    Statekey.make ~clocks:(clocks_repr flight pending) marking env
  in
  let data = Hashtbl.create 256 in
  let seq = ref 0 in
  let pq = ref Pq.empty in
  let push d vec =
    let s = !seq in
    incr seq;
    Hashtbl.replace data s vec;
    pq := Pq.add (d, s) !pq
  in
  let settled = Statekey.Tbl.create 256 in
  let m0, flight0, pending0, env0, shift0 = initial_vector kernel net in
  push shift0 (m0, flight0, pending0, env0);
  let result = ref None in
  (try
     while not (Pq.is_empty !pq) do
       let ((d, s) as top) = Pq.min_elt !pq in
       pq := Pq.remove top !pq;
       let ((marking, flight, pending, env) as vec) = Hashtbl.find data s in
       Hashtbl.remove data s;
       let key = vkey marking flight pending env in
       if not (Statekey.Tbl.mem settled key) then begin
         Statekey.Tbl.replace settled key ();
         if Statekey.Tbl.length settled > max_states then raise_notrace Exit;
         if List.exists (fun (t, r) -> t = tid && Float.equal r 0.0) pending
         then begin
           result := Some d;
           raise_notrace Exit
         end;
         List.iter
           (fun c ->
             let k' = vkey c.c_marking c.c_flight c.c_pending c.c_env in
             if not (Statekey.Tbl.mem settled k') then
               push (d +. c.c_shift)
                 (c.c_marking, c.c_flight, c.c_pending, c.c_env))
           (successors_of kernel vec)
       end
     done
   with Exit -> ());
  !result

type cycle = {
  cy_transient : float;
  cy_period : float;
  cy_firings : int array;
}

(* Deterministic walk: complete the lowest-id finished firing, else fire
   the lowest-id fireable transition, else advance time by the minimum
   residual; detect a repeated (marking, in-flight, pending) state. *)
let steady_cycle ?(max_steps = 100_000) net =
  Duration.check_net ~who:"Reach.Timed" net;
  let kernel = Kernel.of_net net in
  let nt = Net.num_transitions net in
  let counts = Array.make nt 0 in
  let seen = Statekey.Tbl.create 256 in
  let env = Net.initial_env net in
  let marking = ref (Net.initial_marking net) in
  let in_flight = ref ([] : (int * float) list) in
  let pending = ref (refresh_pending kernel !marking env [] ~restart:[]) in
  let clock = ref 0.0 in
  let result = ref None in
  let step = ref 0 in
  (try
     while !result = None && !step < max_steps do
       incr step;
       let completable =
         List.filter (fun (_, r) -> Float.equal r 0.0) !in_flight
       in
       let fireable =
         List.filter
           (fun (tid, r) ->
             Float.equal r 0.0
             && Kernel.enabled (Kernel.transition kernel tid) !marking env)
           !pending
       in
       match completable, fireable with
       | (tid, _) :: _, _ ->
         let c = Kernel.transition kernel tid in
         Kernel.produce c !marking;
         let rec remove = function
           | [] -> []
           | (t, r) :: rest when t = tid && Float.equal r 0.0 -> rest
           | x :: rest -> x :: remove rest
         in
         in_flight := remove !in_flight;
         pending := refresh_pending kernel !marking env !pending ~restart:[]
       | [], (tid, _) :: _ ->
         let c = Kernel.transition kernel tid in
         Kernel.consume c !marking;
         counts.(tid) <- counts.(tid) + 1;
         let d = det_duration env c.Kernel.s_tr.Net.t_firing in
         if d > 0.0 then in_flight := (tid, d) :: !in_flight;
         pending := refresh_pending kernel !marking env !pending ~restart:[ tid ];
         if Float.equal d 0.0 then begin
           Kernel.produce c !marking;
           pending := refresh_pending kernel !marking env !pending ~restart:[ tid ]
         end
       | [], [] -> (
         let residuals =
           List.map snd !in_flight
           @ List.filter_map
               (fun (_, r) -> if r > 0.0 then Some r else None)
               !pending
         in
         match residuals with
         | [] -> raise Exit (* dead *)
         | first :: rest ->
           (* stable instant: check for a repeat before ticking *)
           let key =
             Statekey.make
               ~clocks:
                 (clocks_repr (sort_flight !in_flight) (sort_flight !pending))
               !marking env
           in
           (match Statekey.Tbl.find_opt seen key with
           | Some (t0, counts0) ->
             result :=
               Some
                 {
                   cy_transient = t0;
                   cy_period = !clock -. t0;
                   cy_firings =
                     Array.init nt (fun i -> counts.(i) - counts0.(i));
                 }
           | None ->
             Statekey.Tbl.replace seen key (!clock, Array.copy counts);
             let d = List.fold_left Float.min first rest in
             clock := !clock +. d;
             let tick l =
               List.map (fun (t, r) -> (t, Float.max 0.0 (r -. d))) l
             in
             in_flight := tick !in_flight;
             pending := tick !pending))
     done
   with Exit -> ());
  !result

let pp_summary ppf g =
  Format.fprintf ppf
    "@[<v>timed state-class graph of %s@,states: %d%s@,edges: %d@,residual \
     vectors: %d@,timed deadlocks: %d@]"
    (Net.name g.net) (num_states g)
    (if g.complete then "" else " (truncated)")
    (num_edges g) (num_vectors g)
    (List.length (deadlocks g))
