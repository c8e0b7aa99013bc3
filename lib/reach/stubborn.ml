(* Deadlock-preserving stubborn-set reduction.

   At a marking [m] a set S of transitions is stubborn when (D1) no
   sequence of transitions outside S can change whether or how a member
   fires — outside transitions commute with every member — and (D2)
   some enabled member stays enabled under any outside sequence.
   Firing only the enabled members of a stubborn set at every state
   then reaches exactly the deadlock markings of the full graph: any
   full run into a deadlock can be reordered, stubborn set by stubborn
   set, into a run the reduced graph contains.

   The static closure rules implement D1/D2 through the relations
   precomputed by {!Pnut_core.Incidence}:

   - an {e enabled} member pulls in its [conflicts] — every transition
     touching a common place.  Whatever is left outside S shares no
     place with any enabled member, so it can neither disable one
     (consume its inputs, feed its inhibitor places) nor race it to a
     shared place; the coarse any-shared-place relation additionally
     keeps both interleavings of every place-sharing pair, which is
     what preserves exact place bounds on terminating nets (see
     PERFORMANCE.md for what is and is not preserved).
   - a {e disabled} member pulls in the [enablers] of one insufficient
     input place, or the [consumers] of one over-threshold inhibitor
     place (the first such place in arc order — deterministic).  No
     outside sequence can then enable it, so it commutes vacuously.

   The seed is always enabled, giving D2's key transition.  Determinism
   matters more than cleverness here: the chosen set is a function of
   the marking alone (fixed seed candidates, fixed scapegoat choice,
   fixed iteration order), so every build — and the frozen boxed oracle
   the tests hold it against — computes the same reduced graph. *)

module Net = Pnut_core.Net
module Marking = Pnut_core.Marking
module Kernel = Pnut_core.Kernel
module Incidence = Pnut_core.Incidence

(* The reduction reasons about markings only, so anything that makes a
   firing visible beyond the marking — a predicate reading the
   environment, an action writing it, or declared variables/tables that
   become part of state identity — is out of fragment. *)
let unsupported net =
  let carries tr feature =
    Some
      (Printf.sprintf
         "partial-order reduction: transition %s carries %s, which makes \
          firings visible beyond the marking; rerun with --por off"
         tr.Net.t_name feature)
  in
  if Net.variables net <> [] || Net.tables net <> [] then
    Some
      "partial-order reduction: the net declares variables or tables, which \
       make state identity richer than the marking; rerun with --por off"
  else
    Array.find_map
      (fun tr ->
        if tr.Net.t_predicate <> None then carries tr "a predicate"
        else if tr.Net.t_action <> [] then carries tr "an action"
        else None)
      (Net.transitions net)

type t = {
  trans : Kernel.ctrans array;
  nt : int;
  conflicts : int array array;
  producers : int array array;  (* per place: net-delta > 0 *)
  consumers : int array array;  (* per place: net-delta < 0 *)
  reduces : bool;
}

(* The static no-reduction test.  Whatever the marking, a member [v] of
   a closure pushes either [conflicts.(v)] (enabled) or the relation of
   one of its input or inhibitor places (disabled: only those arcs can
   disable it in {!Kernel.token_enabled}), so it always pushes at least
   their intersection A(v).  When the digraph v -> A(v) is strongly
   connected, every closure captures every transition, the first seed's
   set holds every enabled transition, and [fired] returns the full
   enabled set at every marking.  O(sum of the relation sizes). *)
let irreducible t =
  let owner = Array.make t.nt (-1) and hits = Array.make t.nt 0 in
  let succ = Array.make t.nt [] and pred = Array.make t.nt [] in
  Array.iteri
    (fun v (c : Kernel.ctrans) ->
      let rels =
        Array.append
          (Array.map (fun p -> t.producers.(p)) c.Kernel.s_in_place)
          (Array.map (fun q -> t.consumers.(q)) c.Kernel.s_inh_place)
      in
      Array.iter (fun u -> owner.(u) <- v; hits.(u) <- 0) t.conflicts.(v);
      Array.iteri
        (fun k -> Array.iter (fun u ->
             if owner.(u) = v && hits.(u) = k then hits.(u) <- k + 1))
        rels;
      Array.iter
        (fun u -> if hits.(u) = Array.length rels then begin
             succ.(v) <- u :: succ.(v);
             pred.(u) <- v :: pred.(u)
           end)
        t.conflicts.(v))
    t.trans;
  let reaches_all adj =
    let seen = Array.make t.nt false in
    let rec go = function
      | [] -> ()
      | v :: rest when seen.(v) -> go rest
      | v :: rest -> seen.(v) <- true; go (List.rev_append adj.(v) rest)
    in
    go [ 0 ];
    Array.for_all Fun.id seen
  in
  t.nt <= 1 || (reaches_all succ && reaches_all pred)

let create kernel =
  let net = Kernel.net kernel in
  Option.iter invalid_arg (unsupported net);
  let t =
    {
      trans = Kernel.transitions kernel;
      nt = Kernel.num_transitions kernel;
      conflicts = Incidence.conflicts net;
      producers = Incidence.enablers net;
      consumers = Incidence.consumers net;
      reduces = true;
    }
  in
  { t with reduces = not (irreducible t) }

let reduces t = t.reduces

(* Mutable per-worker workspace.  Closures stamp membership with a round
   counter instead of clearing, so one [fired] call is O(|S| + |E|)
   beyond the enabling scan, and nothing but the returned array is
   allocated: the stack pointer and the running counts live here, not
   in boxed refs or per-call closures. *)
type scratch = {
  enabled : int array;  (* enabled tids, ascending, prefix of length ne *)
  is_enabled : bool array;  (* per tid, from this call's enabling scan *)
  stamp : int array;    (* stamp.(t) = round when t joined that round's S *)
  tried : int array;    (* tried.(t) = call when t was this call's seed *)
  stack : int array;    (* closure worklist; each tid pushed once per round *)
  mutable ne : int;      (* length of the [enabled] prefix *)
  mutable sp : int;
  mutable round : int;
  mutable call : int;
  mutable captured : int;  (* enabled members of the current round's S *)
  mutable hit_seed : bool; (* the current round captured an earlier seed *)
}

let scratch t =
  let n = max 1 t.nt in
  { enabled = Array.make n 0; is_enabled = Array.make n false;
    stamp = Array.make n 0; tried = Array.make n 0; stack = Array.make n 0;
    ne = 0; sp = 0; round = 0; call = 0; captured = 0; hit_seed = false }

(* The disabling condition the closure commits to for a disabled
   transition: the first insufficient input place in arc order, else the
   first over-threshold inhibitor place.  One of the two exists, or the
   transition would be enabled. *)
let scapegoat_relation t (c : Kernel.ctrans) m =
  let places = c.Kernel.s_in_place and weights = c.Kernel.s_in_weight in
  let n = Array.length places in
  let i = ref 0 in
  while !i < n && Marking.get m places.(!i) >= weights.(!i) do
    incr i
  done;
  if !i < n then t.producers.(places.(!i))
  else begin
    let places = c.Kernel.s_inh_place and weights = c.Kernel.s_inh_weight in
    let n = Array.length places in
    let i = ref 0 in
    while !i < n && Marking.get m places.(!i) < weights.(!i) do
      incr i
    done;
    if !i < n then t.consumers.(places.(!i)) else [||]
  end

let push sc tid =
  if sc.stamp.(tid) <> sc.round then begin
    sc.stamp.(tid) <- sc.round;
    if sc.is_enabled.(tid) then sc.captured <- sc.captured + 1;
    if sc.tried.(tid) = sc.call then sc.hit_seed <- true;
    sc.stack.(sc.sp) <- tid;
    sc.sp <- sc.sp + 1
  end

let push_all sc rel =
  for k = 0 to Array.length rel - 1 do
    push sc rel.(k)
  done

(* Close [seed] under the relations in a fresh round and return how many
   enabled transitions its stubborn set captured — or [max_int] as soon
   as it is known not to beat [best]: it captured [best] enabled
   transitions, or an earlier seed of this call.  In the latter case the
   earlier seed's set is a subset of this one (the rules applied to a
   member depend on the member and the marking only, so the closure of
   any member lies inside the closure), and every seed tried so far
   counts at least [best].  Only a strictly smaller count replaces the
   best set, so stopping early never changes the chosen set. *)
let close t sc m seed ~best =
  sc.round <- sc.round + 1;
  sc.sp <- 0;
  sc.captured <- 0;
  sc.hit_seed <- false;
  push sc seed;
  sc.tried.(seed) <- sc.call;
  while sc.sp > 0 && sc.captured < best && not sc.hit_seed do
    sc.sp <- sc.sp - 1;
    let tid = sc.stack.(sc.sp) in
    if sc.is_enabled.(tid) then push_all sc t.conflicts.(tid)
    else push_all sc (scapegoat_relation t t.trans.(tid) m)
  done;
  if sc.captured >= best || sc.hit_seed then max_int else sc.captured

let fired t sc m =
  let ne = ref 0 in
  for tid = 0 to t.nt - 1 do
    let en = Kernel.token_enabled t.trans.(tid) m in
    sc.is_enabled.(tid) <- en;
    if en then begin
      sc.enabled.(!ne) <- tid;
      incr ne
    end
  done;
  let ne = !ne in
  sc.ne <- ne;
  if ne <= 1 || not t.reduces then Array.sub sc.enabled 0 ne
  else begin
    (* Smallest-result heuristic over a few spread-out seeds, each tried
       once (for ne = 2 the positions collide); stop early on a
       singleton, the best any stubborn set can do. *)
    sc.call <- sc.call + 1;
    let best_cnt = ref max_int in
    let best_seed = ref (-1) in
    let best_round = ref 0 in
    let seeds = if ne > 3 then 4 else 3 in
    for k = 0 to seeds - 1 do
      let i = match k with 0 -> 0 | 1 -> ne - 1 | 2 -> ne / 2 | _ -> ne / 4 in
      let seed = sc.enabled.(i) in
      if !best_cnt > 1 && sc.tried.(seed) <> sc.call then begin
        let cnt = close t sc m seed ~best:!best_cnt in
        if cnt < !best_cnt then begin
          best_cnt := cnt;
          best_seed := seed;
          best_round := sc.round
        end
      end
    done;
    if !best_cnt >= ne then Array.sub sc.enabled 0 ne
    else begin
      (* Later closures stamped over earlier rounds, so unless the
         winner was the last round its membership must be recomputed:
         re-close the best seed (deterministic, same count; a new call
         number so earlier seeds do not stop it) and collect that
         round's stamps. *)
      if !best_round <> sc.round then begin
        sc.call <- sc.call + 1;
        let cnt = close t sc m !best_seed ~best:max_int in
        assert (cnt = !best_cnt)
      end;
      let round = sc.round in
      let out = Array.make !best_cnt 0 in
      let k = ref 0 in
      for i = 0 to ne - 1 do
        let tid = sc.enabled.(i) in
        if sc.stamp.(tid) = round then begin
          out.(!k) <- tid;
          incr k
        end
      done;
      out
    end
  end

let enabled_count sc = sc.ne
