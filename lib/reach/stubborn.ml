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
   fixed iteration order), so the boxed and packed builders compute the
   same reduced graph. *)

module Net = Pnut_core.Net
module Marking = Pnut_core.Marking
module Kernel = Pnut_core.Kernel
module Incidence = Pnut_core.Incidence

type unsupported_feature =
  | Predicate
  | Action
  | Variables

type rejection = {
  r_transition : string option;
  r_feature : unsupported_feature;
}

exception Unsupported of rejection

let feature_name = function
  | Predicate -> "a predicate"
  | Action -> "an action"
  | Variables -> "variables or tables"

let rejection_message r =
  match r.r_transition with
  | Some t ->
    Printf.sprintf
      "partial-order reduction: transition %s carries %s, which makes \
       firings visible beyond the marking; rerun with --por off"
      t (feature_name r.r_feature)
  | None ->
    Printf.sprintf
      "partial-order reduction: the net declares %s, which make state \
       identity richer than the marking; rerun with --por off"
      (feature_name r.r_feature)

(* The reduction reasons about markings only, so anything that makes a
   firing visible beyond the marking — a predicate reading the
   environment, an action writing it, or declared variables/tables that
   become part of state identity — is out of fragment. *)
let unsupported net =
  if Net.variables net <> [] || Net.tables net <> [] then
    Some { r_transition = None; r_feature = Variables }
  else
    Array.fold_left
      (fun acc tr ->
        match acc with
        | Some _ -> acc
        | None ->
          if tr.Net.t_predicate <> None then
            Some { r_transition = Some tr.Net.t_name; r_feature = Predicate }
          else if tr.Net.t_action <> [] then
            Some { r_transition = Some tr.Net.t_name; r_feature = Action }
          else None)
      None (Net.transitions net)

type t = {
  trans : Kernel.ctrans array;
  nt : int;
  conflicts : int array array;
  producers : int array array;  (* per place: net-delta > 0 *)
  consumers : int array array;  (* per place: net-delta < 0 *)
}

let create kernel =
  let net = Kernel.net kernel in
  (match unsupported net with
  | None -> ()
  | Some r -> raise (Unsupported r));
  {
    trans = Kernel.transitions kernel;
    nt = Kernel.num_transitions kernel;
    conflicts = Incidence.conflicts net;
    producers = Incidence.enablers net;
    consumers = Incidence.consumers net;
  }

(* Mutable per-worker workspace: closures stamp membership with a round
   counter instead of clearing, so one [fired] call is O(|S| + |E|)
   beyond the enabling scan. *)
type scratch = {
  enabled : int array;  (* enabled tids, ascending, prefix of length n *)
  stamp : int array;    (* stamp.(t) = round when t joined that round's S *)
  stack : int array;    (* closure worklist; each tid pushed once per round *)
  mutable round : int;
}

let scratch t =
  let n = max 1 t.nt in
  { enabled = Array.make n 0; stamp = Array.make n 0; stack = Array.make n 0;
    round = 0 }

(* The disabling condition the closure commits to for a disabled
   transition: the first insufficient input place in arc order, else the
   first over-threshold inhibitor place.  One of the two exists, or the
   transition would be enabled. *)
let scapegoat_relation t (c : Kernel.ctrans) m =
  let n = Array.length c.Kernel.s_in_place in
  let rec inputs i =
    if i >= n then inhibitors 0
    else if Marking.get m c.Kernel.s_in_place.(i) < c.Kernel.s_in_weight.(i)
    then t.producers.(c.Kernel.s_in_place.(i))
    else inputs (i + 1)
  and inhibitors i =
    if i >= Array.length c.Kernel.s_inh_place then [||]
    else if Marking.get m c.Kernel.s_inh_place.(i) >= c.Kernel.s_inh_weight.(i)
    then t.consumers.(c.Kernel.s_inh_place.(i))
    else inhibitors (i + 1)
  in
  inputs 0

let fired t sc m =
  let ne = ref 0 in
  for tid = 0 to t.nt - 1 do
    if Kernel.token_enabled t.trans.(tid) m then begin
      sc.enabled.(!ne) <- tid;
      incr ne
    end
  done;
  let ne = !ne in
  if ne <= 1 then Array.sub sc.enabled 0 ne
  else begin
    (* Close one seed under the relations; returns how many enabled
       transitions its stubborn set captured.  Membership in round [r]
       is [stamp.(tid) = r], so successive closures need no clearing. *)
    let closure seed =
      sc.round <- sc.round + 1;
      let round = sc.round in
      let sp = ref 0 in
      let push tid =
        if sc.stamp.(tid) <> round then begin
          sc.stamp.(tid) <- round;
          sc.stack.(!sp) <- tid;
          incr sp
        end
      in
      push seed;
      while !sp > 0 do
        decr sp;
        let tid = sc.stack.(!sp) in
        let c = t.trans.(tid) in
        if Kernel.token_enabled c m then Array.iter push t.conflicts.(tid)
        else Array.iter push (scapegoat_relation t c m)
      done;
      let cnt = ref 0 in
      for i = 0 to ne - 1 do
        if sc.stamp.(sc.enabled.(i)) = round then incr cnt
      done;
      !cnt
    in
    (* Smallest-result heuristic over a few spread-out seeds; stop early
       on a singleton, the best any stubborn set can do. *)
    let best_cnt = ref max_int in
    let best_seed = ref (-1) in
    let try_seed i =
      if !best_cnt > 1 then begin
        let seed = sc.enabled.(i) in
        let cnt = closure seed in
        if cnt < !best_cnt then begin
          best_cnt := cnt;
          best_seed := seed
        end
      end
    in
    try_seed 0;
    try_seed (ne - 1);
    try_seed (ne / 2);
    if ne > 3 then try_seed (ne / 4);
    if !best_cnt >= ne then Array.sub sc.enabled 0 ne
    else begin
      (* Later closures stamped over earlier rounds, so membership of
         the winning set must be recomputed: re-close the best seed
         (deterministic, same count) and collect that round's stamps. *)
      let cnt = closure !best_seed in
      assert (cnt = !best_cnt);
      let round = sc.round in
      let out = Array.make cnt 0 in
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
