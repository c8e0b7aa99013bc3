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
     class identity only needs the in-flight multiset on top of
     (marking, env); all vectors of a class agree on both supports and
     differ only in residual values.  A vector is identified by those
     values bit for bit, and the successor class of a class along an
     edge label is fixed, so the kernel fires once per class edge and a
     vector only moves residuals between flat arrays.
   - Reachable (marking, env) pairs, the deadlock set and per-place
     bounds all coincide with the explicit expansion's (a class is dead
     iff it has no timers and nothing enabled, which is a per-class
     property, not a per-vector one).  Per-path time is the one thing
     folded away; {!min_cycle_time} recovers it with a uniform-cost
     search over normalized vectors where the edge weight is the
     normalization shift.

   One index identifies the classes: the packed {!Store}, created with
   the exploration and filled during the sweep.  A class is its marking
   fields plus an extra id interning (env, in-flight rendering), so a
   class id is its store index from the first edge on, and assembly
   only closes the CSR.  Builds run under {!Pnut_exec.Supervisor}
   budgets.  The old explicit expansion is frozen in the test-only
   oracle library as the differential reference.

   The residual vectors, not the classes, hold most of a build's memory
   (200,959 vectors close the 8,610 classes of the memory-50 pipeline).
   They live in one byte arena, each a span that starts with its class
   id and goes on with its exact residuals, so a vector needs no side
   array for its class and dedup compares one span; its offset and its
   dedup slot are 4-byte entries in [Bytes] the GC never scans.  The
   arena is also the sweep's FIFO. *)

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

(* Classes live in the packed {!Store} arena with CSR edges, as in
   {!Graph}.  The timer supports and interval envelopes live in flat
   side arrays, filled as classes are created (they are small — one
   slot per timer per class — and have no packed encoding). *)
type t = {
  net : Net.t;
  store : Store.t;
  complete : bool;
  n_vectors : int;  (* residual vectors explored to close the classes *)
  sup_off : int array;  (* class -> start into sup/iv; length n+1 *)
  sup : int array;  (* 2*tid = in-flight slot, 2*tid+1 = pending slot *)
  iv_lo : float array;
  iv_hi : float array;
}

let net g = g.net
let complete g = g.complete
let num_vectors g = g.n_vectors
let num_edges g = Store.num_edges g.store

let num_states g = Store.num_states g.store

(* Fire and Complete edges share the store's transition-id field:
   even codes fire, odd codes complete. *)
let label_of_code c = if c land 1 = 0 then Fire (c asr 1) else Complete (c asr 1)

let state g i =
  let codec = Store.codec g.store in
  let marking = Array.make (Packed.places (Packed.layout codec)) 0 in
  Store.marking_into g.store i marking;
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
    ts_env = Packed.extra_bindings codec (Store.extra g.store i);
  }

let initial _ = 0

let successors g i =
  List.map
    (fun (code, tgt) -> { e_from = i; e_label = label_of_code code; e_to = tgt })
    (Store.successors g.store i)

let predecessors g j =
  List.map
    (fun (src, code) -> { e_from = src; e_label = label_of_code code; e_to = j })
    (Store.predecessors g.store j)

let packed_bytes_per_state g = Some (Store.bytes_per_state g.store)

let domain_arrays g = (g.sup_off, g.sup, g.iv_lo, g.iv_hi)

(* -- shared timed-semantics helpers (Razouk's two-phase rule) -- *)

(* The firing time of [tr] if [firing], else its enabling time. *)
let det_duration env (tr : Net.transition) ~firing =
  Duration.det env
    (if firing then tr.Net.t_firing else tr.Net.t_enabling)
    ~who:(fun () ->
      Printf.sprintf "Reach.Timed: %s time of transition %s"
        (if firing then "firing" else "enabling")
        tr.Net.t_name)

(* -- exact residual vectors --

   A class fixes its timer layout: the sorted in-flight tid multiset is
   part of its identity and the pending tids are a function of (marking,
   env).  Inside a class a vector is therefore identified by its
   residual values alone, and every vector of a build is written back to
   back into one byte arena as one span: the LEB128 varint of its class
   id, then its residuals.  A residual that is a non-negative integer
   below 2^40 is the LEB128 varint of [2n] (low bit 0); anything else is
   a [0x01] tag byte followed by its 8-byte IEEE pattern.  Every float
   has exactly one encoding, so two spans are equal iff they belong to
   the same class and their residuals are bit-identical — no rounding
   ever merges two vectors, and no two classes share a vector.  An
   open-addressing table of vector ids, hashed on the span, dedups them.

   The span offsets and the dedup slots are unsigned 4-byte entries in
   [Bytes], which the GC never scans (a heap budget still counts them);
   each grows by one doubling copy.  The widths are fixed when a table
   is allocated: the slots are 8 bytes only past 2^32 slots, as
   {!Store}'s index, and the offsets switch once to 8 bytes when the
   residual bytes outgrow 2^32 - 1.  The accesses are this module's own
   primitives on flat tables, the sweep's hottest loads: {!Store}'s
   paged, bounds-checked tables, inlined here by the release build, ran
   [reach --timed] on the memory-50 pipeline slower in 7 of 8 paired
   runs (median 0.153 against 0.145 s). *)

external get32u : Bytes.t -> int -> int32 = "%caml_bytes_get32u"
external get64u : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set32u : Bytes.t -> int -> int32 -> unit = "%caml_bytes_set32u"
external set64u : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

(* Entry [k] of a table of 4-byte (or, [wide], 8-byte) unsigned
   entries; the caller keeps [k] inside the table. *)
let[@inline] entry b ~wide k =
  if wide then Int64.to_int (get64u b (k lsl 3))
  else Int32.to_int (get32u b (k lsl 2)) land 0xFFFF_FFFF

let[@inline] set_entry b ~wide k v =
  if wide then set64u b (k lsl 3) (Int64.of_int v)
  else set32u b (k lsl 2) (Int32.of_int v)

let entry_bytes wide = if wide then 8 else 4

type arena = {
  mutable bytes : Bytes.t;
  mutable fill : int;  (* committed vectors plus the candidate being written *)
  mutable off : Bytes.t;  (* vector v is bytes off[v] .. off[v+1]-1 *)
  mutable off_wide : bool;
  mutable count : int;
  mutable slots : Bytes.t;  (* vector id + 1; 0 = empty *)
  mutable slots_wide : bool;
  mutable slot_mask : int;
}

let slots_wide n = n > 1 lsl 32

let new_slots n = Bytes.make (n * entry_bytes (slots_wide n)) '\000'

let arena_create () =
  {
    bytes = Bytes.create 4096;
    fill = 0;
    off = Bytes.make (1024 * 4) '\000';
    off_wide = false;
    count = 0;
    slots = new_slots 2048;
    slots_wide = slots_wide 2048;
    slot_mask = 2047;
  }

let[@inline] off a v = entry a.off ~wide:a.off_wide v
let[@inline] slot a i = entry a.slots ~wide:a.slots_wide i

(* Once, when the arena outgrows 4-byte offsets. *)
let widen_off a =
  let n = Bytes.length a.off / 4 in
  let b = Bytes.create (8 * n) in
  for v = 0 to n - 1 do
    set64u b (v lsl 3) (Int64.of_int (entry a.off ~wide:false v))
  done;
  a.off <- b;
  a.off_wide <- true

(* Room for [n] more bytes.  Offsets range up to the arena's length, so
   the doubling that takes it past 2^32 - 1 widens them. *)
let reserve_bytes a n =
  if a.fill + n > Bytes.length a.bytes then begin
    let b = Bytes.create (2 * Bytes.length a.bytes) in
    Bytes.blit a.bytes 0 b 0 a.fill;
    a.bytes <- b;
    if Bytes.length b > 0xFFFF_FFFF && not a.off_wide then widen_off a
  end

let put_varint a n =
  let b = a.bytes in
  let n = ref n and i = ref a.fill in
  while !n >= 0x80 do
    Bytes.unsafe_set b !i (Char.unsafe_chr (!n land 0x7f lor 0x80));
    n := !n lsr 7;
    incr i
  done;
  Bytes.unsafe_set b !i (Char.unsafe_chr !n);
  a.fill <- !i + 1

let small_residual = 0x1p40

let put_residual a r =
  reserve_bytes a 9;
  if Float.is_integer r && r < small_residual && not (Float.sign_bit r) then
    put_varint a (Float.to_int r lsl 1)
  else begin
    Bytes.unsafe_set a.bytes a.fill '\001';
    Bytes.set_int64_le a.bytes (a.fill + 1) (Int64.bits_of_float r);
    a.fill <- a.fill + 9
  end

(* The class of vector [v]: the varint its span starts with. *)
let class_of a v =
  let b = a.bytes in
  let i = ref (off a v) and n = ref 0 and shift = ref 0 and byte = ref 0x80 in
  while !byte >= 0x80 do
    byte := Char.code (Bytes.unsafe_get b !i);
    n := !n lor ((!byte land 0x7f) lsl !shift);
    shift := !shift + 7;
    incr i
  done;
  !n

(* Decode the residuals of vector [v] into [dst.(0 ..)]. *)
let get_residuals a v dst =
  let b = a.bytes in
  let i = ref (off a v) and k = ref 0 in
  let stop = off a (v + 1) in
  while Char.code (Bytes.unsafe_get b !i) >= 0x80 do incr i done;
  incr i;
  while !i < stop do
    let c = Char.code (Bytes.unsafe_get b !i) in
    if c land 1 = 1 then begin
      dst.(!k) <- Int64.float_of_bits (Bytes.get_int64_le b (!i + 1));
      i := !i + 9
    end
    else begin
      let n = ref (c land 0x7f) and shift = ref 7 and byte = ref c in
      incr i;
      while !byte >= 0x80 do
        byte := Char.code (Bytes.unsafe_get b !i);
        n := !n lor ((!byte land 0x7f) lsl !shift);
        shift := !shift + 7;
        incr i
      done;
      dst.(!k) <- Float.of_int (!n lsr 1)
    end;
    incr k
  done

let hash_span b lo hi =
  let h = ref 1 in
  for i = lo to hi - 1 do
    h := (!h * 31) + Char.code (Bytes.unsafe_get b i)
  done;
  let h = !h * 0x2545F4914F6CDD1D in
  (h lxor (h lsr 29)) land max_int

let rehash a =
  let n = 2 * (a.slot_mask + 1) in
  let wide = slots_wide n and mask = n - 1 in
  let slots = new_slots n in
  for v = 0 to a.count - 1 do
    let i = ref (hash_span a.bytes (off a v) (off a (v + 1)) land mask) in
    while entry slots ~wide !i <> 0 do
      i := (!i + 1) land mask
    done;
    set_entry slots ~wide !i (v + 1)
  done;
  a.slots <- slots;
  a.slots_wide <- wide;
  a.slot_mask <- mask

let rec same_span b i j len =
  len = 0
  || Bytes.unsafe_get b i = Bytes.unsafe_get b j
     && same_span b (i + 1) (j + 1) (len - 1)

(* Intern the candidate span written since the last commit, probing
   from slot [i]: its id.  A duplicate drops the candidate bytes; a new
   vector is committed. *)
let rec intern_vector a i =
  let s = slot a i in
  if s = 0 then begin
    let v = a.count in
    if (v + 2) * entry_bytes a.off_wide > Bytes.length a.off then
      a.off <- Bytes.extend a.off 0 (Bytes.length a.off);
    set_entry a.slots ~wide:a.slots_wide i (v + 1);
    set_entry a.off ~wide:a.off_wide (v + 1) a.fill;
    a.count <- v + 1;
    if 2 * a.count > a.slot_mask + 1 then rehash a;
    v
  end
  else begin
    let v = s - 1 in
    let lo = off a a.count in
    let len = a.fill - lo in
    let vlo = off a v in
    if off a (v + 1) - vlo = len && same_span a.bytes vlo lo len then begin
      a.fill <- lo;
      v
    end
    else intern_vector a ((i + 1) land a.slot_mask)
  end

(* -- classes and their edges -- *)

(* What the hot loop needs of a class; its marking, env and interval
   domain live in the store and the space's flat arrays. *)
type cls = {
  cl_index : int;  (* store index *)
  cl_flight : int array;  (* in-flight tid multiset, sorted *)
  cl_pending : int array;  (* enabled tids, ascending *)
  mutable cl_edges : step list;  (* one per edge code, reverse emission order *)
}

(* A class edge with what a vector needs to cross it.  The target is a
   function of (source class, code): marking, env and in-flight
   multiset all follow from the class, so the kernel runs once per edge,
   not once per vector.  Per vector only the residuals move: the
   in-flight entry of a completion is dropped, a firing with a non-zero
   firing time inserts [st_delay], and each target pending slot either
   keeps a source pending residual or restarts at its enabling delay. *)
and step = {
  st_code : int;
  st_target : cls;
  st_delay : float;  (* firing time of a Fire edge; 0 for completions *)
  st_keep : int array;  (* per target pending slot: source pending slot, or -1 *)
  st_fresh : float array;  (* enabling delay of the slots with st_keep = -1 *)
}

(* Canonical rendering of the in-flight tid multiset — the clock
   component of class identity, under which the class's env is
   interned into the packed extra table.  Built once per edge, never
   per vector. *)
let flight_repr flight =
  let buf = Buffer.create 16 in
  Array.iter
    (fun t ->
      Buffer.add_string buf (string_of_int t);
      Buffer.add_char buf ';')
    flight;
  Buffer.contents buf

(* One exploration: the class index (the packed store), the flat
   interval domains, the vector arena and the scratch buffers of
   successor construction. *)
type space = {
  kernel : Kernel.t;
  codec : Packed.t;
  store : Store.t;
  mutable classes : cls array;  (* by store index *)
  mutable dom_off : int array;  (* class -> start into sup/lo/hi *)
  mutable sup : int array;  (* 2*tid = in-flight slot, 2*tid+1 = pending slot *)
  mutable lo : float array;
  mutable hi : float array;
  cap : int;
  mutable truncated : bool;
  arena : arena;
  mutable src : float array;  (* the vector being expanded *)
  mutable dst : float array;  (* the successor being built *)
  mark : int array;  (* per transition: last stamp it was re-tested *)
  mutable stamp : int;
}

let space_create net ~cap =
  let kernel = Kernel.of_net net in
  let codec = Packed.create ~with_extra:true net in
  {
    kernel;
    codec;
    store =
      Store.create codec ~num_transitions:(2 * max 1 (Net.num_transitions net));
    classes = [||];
    dom_off = [| 0 |];
    sup = [||];
    lo = [||];
    hi = [||];
    cap;
    truncated = false;
    arena = arena_create ();
    src = Array.make 16 0.0;
    dst = Array.make 16 0.0;
    mark = Array.make (Kernel.num_transitions kernel) 0;
    stamp = 0;
  }

(* [a] with room for [n] entries: doubled, padded with [x], when short. *)
let room a n x =
  if n <= Array.length a then a
  else begin
    let b = Array.make (max n (2 * Array.length a)) x in
    Array.blit a 0 b 0 (Array.length a);
    b
  end

(* Find or create the class of (marking, env, in-flight multiset) in
   the store; [None] when it would be fresh beyond the cap — the caller
   drops the edge and the graph is flagged incomplete (edges into
   existing classes are still recorded at the cap).  A new class
   appends its timer support and an empty domain to the flat arrays. *)
let find_class sp marking env ~flight ~pending =
  let extra = Packed.intern_extra sp.codec ~clocks:(flight_repr flight) env in
  let known = Store.num_states sp.store in
  let i = Store.intern_index sp.store marking ~extra ~max_states:sp.cap in
  if i < 0 then begin
    sp.truncated <- true;
    None
  end
  else if i < known then Some sp.classes.(i)
  else begin
    let cl =
      { cl_index = i; cl_flight = flight; cl_pending = pending; cl_edges = [] }
    in
    sp.classes <- room sp.classes (i + 1) cl;
    sp.classes.(i) <- cl;
    let nf = Array.length flight in
    let base = sp.dom_off.(i) in
    let stop = base + nf + Array.length pending in
    sp.dom_off <- room sp.dom_off (i + 2) 0;
    sp.dom_off.(i + 1) <- stop;
    sp.sup <- room sp.sup stop 0;
    (* the padding is the empty domain: no slot past a class is written *)
    sp.lo <- room sp.lo stop infinity;
    sp.hi <- room sp.hi stop neg_infinity;
    Array.iteri (fun k t -> sp.sup.(base + k) <- 2 * t) flight;
    Array.iteri (fun k t -> sp.sup.(base + nf + k) <- (2 * t) + 1) pending;
    Some cl
  end

let reserve sp n =
  if n > Array.length sp.src then begin
    sp.src <- Array.make (2 * n) 0.0;
    sp.dst <- Array.make (2 * n) 0.0
  end

(* Write [r.(0 .. n-1)] into the arena and intern it in class [cl]:
   its id.  A new vector widens the class's interval domain in place. *)
let add_vector sp cl r n =
  let a = sp.arena in
  let lo = a.fill in
  reserve_bytes a 10;
  put_varint a cl.cl_index;
  for k = 0 to n - 1 do
    put_residual a r.(k)
  done;
  let before = a.count in
  let v = intern_vector a (hash_span a.bytes lo a.fill land a.slot_mask) in
  if a.count > before then begin
    let base = sp.dom_off.(cl.cl_index) in
    for k = 0 to n - 1 do
      if r.(k) < sp.lo.(base + k) then sp.lo.(base + k) <- r.(k);
      if r.(k) > sp.hi.(base + k) then sp.hi.(base + k) <- r.(k)
    done
  end;
  v

(* Load vector [v] into [sp.src]; its class. *)
let load sp v =
  let cl = sp.classes.(class_of sp.arena v) in
  (* room for any successor too: one more flight entry, every
     transition pending *)
  reserve sp (Array.length cl.cl_flight + 1 + Kernel.num_transitions sp.kernel);
  get_residuals sp.arena v sp.src;
  cl

(* The enabled tids after a state change, from the enabled tids
   [pending] before it: only the readers of the [touched] places, the
   predicated transitions when the env changed, and the [restart]ed
   transition can change, so only they are re-tested. *)
let next_pending sp pending marking env ~touched ~env_changed ~restart =
  sp.stamp <- sp.stamp + 1;
  let stamp = sp.stamp in
  let retest = ref [] in
  let touch t =
    if sp.mark.(t) <> stamp then begin
      sp.mark.(t) <- stamp;
      retest := t :: !retest
    end
  in
  let readers = Kernel.readers sp.kernel in
  List.iter (Array.iter (fun p -> Array.iter touch readers.(p))) touched;
  if env_changed then Array.iter touch (Kernel.predicated sp.kernel);
  if restart >= 0 then touch restart;
  let kept = List.filter (fun t -> sp.mark.(t) <> stamp) (Array.to_list pending) in
  let now =
    List.filter
      (fun t -> Kernel.enabled (Kernel.transition sp.kernel t) marking env)
      !retest
  in
  Array.of_list (List.sort compare (kept @ now))

(* How the residuals of [next] (the enabled tids after the change)
   derive from those of [pending]: enabled transitions keep their old
   residual, newly enabled ones start at their full enabling delay,
   [restart] (the just-fired transition) restarts regardless.  Identical
   to the frozen oracle's rule — the differential suite depends on
   it. *)
let pending_plan sp ~pending ~next env ~restart =
  let keep =
    Array.map
      (fun t ->
        if t = restart then -1
        else
          let rec find k =
            if k = Array.length pending then -1
            else if pending.(k) = t then k
            else find (k + 1)
          in
          find 0)
      next
  in
  let fresh =
    Array.mapi
      (fun k t ->
        if keep.(k) >= 0 then 0.0
        else
          det_duration env (Kernel.transition sp.kernel t).Kernel.s_tr
            ~firing:false)
      next
  in
  (keep, fresh)

(* Insert [tid] into a sorted tid multiset; drop one [tid] from it. *)
let insert_tid tid a =
  let k = ref 0 in
  while !k < Array.length a && a.(!k) <= tid do incr k done;
  Array.concat [ Array.sub a 0 !k; [| tid |]; Array.sub a !k (Array.length a - !k) ]

let remove_tid tid a =
  let k = ref 0 in
  while a.(!k) <> tid do incr k done;
  Array.append (Array.sub a 0 !k) (Array.sub a (!k + 1) (Array.length a - !k - 1))

(* Build the edge of class [cl] labelled [code]: the one place the
   kernel fires.  [None] when the target class is capped. *)
let make_step sp cl code =
  let tid = code asr 1 in
  let c = Kernel.transition sp.kernel tid in
  let counts = Array.make (Net.num_places (Kernel.net sp.kernel)) 0 in
  Store.marking_into sp.store cl.cl_index counts;
  let m' = Marking.unsafe_wrap counts in
  let env = Packed.extra_env sp.codec (Store.extra sp.store cl.cl_index) in
  let act () =
    if c.Kernel.s_has_action then begin
      let env' = Env.copy env in
      Kernel.run_action env' c;
      env'
    end
    else env
  in
  let flight, env', touched, restart, delay =
    if code land 1 = 1 then begin
      Kernel.produce c m';
      (remove_tid tid cl.cl_flight, act (), [ c.Kernel.s_out_place ], -1, 0.0)
    end
    else begin
      Kernel.consume c m';
      let d = det_duration env c.Kernel.s_tr ~firing:true in
      if Float.equal d 0.0 then begin
        Kernel.produce c m';
        ( cl.cl_flight, act (),
          [ c.Kernel.s_in_place; c.Kernel.s_out_place ], tid, d )
      end
      else (insert_tid tid cl.cl_flight, env, [ c.Kernel.s_in_place ], tid, d)
    end
  in
  let next =
    next_pending sp cl.cl_pending m' env' ~touched ~env_changed:(env' != env)
      ~restart
  in
  match find_class sp counts env' ~flight ~pending:next with
  | None -> None
  | Some target ->
    let keep, fresh = pending_plan sp ~pending:cl.cl_pending ~next env' ~restart in
    Some { st_code = code; st_target = target; st_delay = delay;
           st_keep = keep; st_fresh = fresh }

(* Shift-normalize [r.(0 .. n-1)] (flight slots first): when no clock is
   at zero, subtract the minimum residual from every clock — the
   oracle's Tick, performed eagerly with the same float operations so
   residual values match it bit for bit.  Returns the shift (the Tick
   duration folded into the incoming edge); 0 when the vector was
   already normal. *)
let normalize r ~nf n =
  let has_zero = ref false in
  for k = 0 to n - 1 do
    if Float.equal r.(k) 0.0 then has_zero := true
  done;
  if !has_zero then 0.0
  else begin
    let d = ref 0.0 and any = ref false in
    for k = 0 to n - 1 do
      let x = r.(k) in
      if k < nf || x > 0.0 then
        if !any then d := Float.min !d x
        else begin
          d := x;
          any := true
        end
    done;
    if not !any then 0.0
    else begin
      let d = !d in
      for k = 0 to n - 1 do
        r.(k) <- Float.max 0.0 (r.(k) -. d)
      done;
      d
    end
  end

(* Carry the loaded vector of class [cl] across [st] into the target
   class; [emit code v shift] sees the edge code, the successor's vector
   id and its normalization shift. *)
let cross sp cl st emit =
  let src = sp.src in
  let nf = Array.length cl.cl_flight in
  let tgt = st.st_target in
  let nf' = Array.length tgt.cl_flight in
  let n' = nf' + Array.length tgt.cl_pending in
  let dst = sp.dst in
  let tid = st.st_code asr 1 in
  if st.st_code land 1 = 1 then begin
    (* completion: drop the first zero entry of [tid] *)
    let j = ref 0 and dropped = ref false in
    for k = 0 to nf - 1 do
      if (not !dropped) && cl.cl_flight.(k) = tid && Float.equal src.(k) 0.0
      then dropped := true
      else begin
        dst.(!j) <- src.(k);
        incr j
      end
    done
  end
  else if Float.equal st.st_delay 0.0 then Array.blit src 0 dst 0 nf
  else begin
    (* firing: insert [(tid, delay)] before the first entry not below
       it, where a stable sort of the prepended entry would put it *)
    let d = st.st_delay in
    let j = ref 0 and placed = ref false in
    for k = 0 to nf - 1 do
      let t = cl.cl_flight.(k) in
      if (not !placed) && (t > tid || (t = tid && Float.compare src.(k) d >= 0))
      then begin
        dst.(!j) <- d;
        incr j;
        placed := true
      end;
      dst.(!j) <- src.(k);
      incr j
    done;
    if not !placed then dst.(!j) <- d
  end;
  for k = 0 to Array.length st.st_keep - 1 do
    let g = st.st_keep.(k) in
    dst.(nf' + k) <- (if g >= 0 then src.(nf + g) else st.st_fresh.(k))
  done;
  let shift = normalize dst ~nf:nf' n' in
  emit st.st_code (add_vector sp tgt dst n') shift

(* Cross the edge of [cl] labelled [code], building it on first use. *)
let rec follow sp cl code emit = function
  | st :: rest ->
    if st.st_code = code then cross sp cl st emit
    else follow sp cl code emit rest
  | [] -> (
    match make_step sp cl code with
    | Some st ->
      cl.cl_edges <- st :: cl.cl_edges;
      cross sp cl st emit
    | None -> ())

(* All successor vectors of the loaded vector of class [cl], in the
   fixed completion-then-firing order.  Normal vectors always have a
   zero clock (or none at all), so the oracle's third branch — the
   explicit tick — never applies here; it is absorbed into
   [normalize]. *)
let expand sp cl emit =
  let nf = Array.length cl.cl_flight in
  let last = ref (-1) in
  for k = 0 to nf - 1 do
    let tid = cl.cl_flight.(k) in
    if tid <> !last && Float.equal sp.src.(k) 0.0 then begin
      last := tid;
      follow sp cl ((2 * tid) + 1) emit cl.cl_edges
    end
  done;
  for k = 0 to Array.length cl.cl_pending - 1 do
    if Float.equal sp.src.(nf + k) 0.0 then
      follow sp cl (2 * cl.cl_pending.(k)) emit cl.cl_edges
  done

(* The initial vector: empty flight, full enabling delays pending,
   normalized (the oracle reaches the same point through leading
   Ticks).  Its id (always 0: every cap is at least 1) and
   normalization shift. *)
let initial_vector sp net =
  let m0 = Net.initial_marking net in
  let env0 = Net.initial_env net in
  let enabled =
    List.filter
      (fun c -> Kernel.enabled c m0 env0)
      (Array.to_list (Kernel.transitions sp.kernel))
  in
  let pending = Array.of_list (List.map (fun c -> c.Kernel.s_id) enabled) in
  let n = Array.length pending in
  reserve sp (n + 1);
  List.iteri
    (fun k c -> sp.dst.(k) <- det_duration env0 c.Kernel.s_tr ~firing:false)
    enabled;
  let shift = normalize sp.dst ~nf:0 n in
  let cl = find_class sp (Marking.to_array m0) env0 ~flight:[||] ~pending in
  (add_vector sp (Option.get cl) sp.dst n, shift)

(* -- serial class fixpoint: a FIFO over residual vectors.  Vectors are
      numbered in discovery order, so the FIFO is the arena itself and
      the frontier is every vector past the cursor. -- *)

let sweep sp ~monitor net =
  ignore (initial_vector sp net : int * float);
  Pnut_exec.Supervisor.sweep monitor
    ~length:(fun () -> sp.arena.count)
    (fun next -> expand sp (load sp next) (fun _ _ _ -> ()))

(* -- assembly: the classes are already stored, so only the CSR is
      closed, from each class's steps in emission order. -- *)

let close_edges sp =
  for i = 0 to Store.num_states sp.store - 1 do
    Store.begin_source sp.store i;
    List.iter
      (fun st ->
        Store.add_edge sp.store ~tid:st.st_code ~target:st.st_target.cl_index)
      (List.rev sp.classes.(i).cl_edges)
  done;
  Store.finalize sp.store

let build_supervised ?(max_states = 50_000) ?jobs:_ ?packed:_
    ?(budget = Pnut_exec.Budget.none) net =
  Duration.check_net ~who:"Reach.Timed" net;
  let monitor = Pnut_exec.Supervisor.start budget in
  let max_states = Pnut_exec.Supervisor.cap ~who:"Reach.Timed" max_states in
  let sp = space_create net ~cap:max_states in
  let stop =
    match sweep sp ~monitor net with
    | None when sp.truncated ->
      Some (Pnut_exec.Supervisor.States (Store.num_states sp.store), 0)
    | stop -> stop
  in
  close_edges sp;
  let n = Store.num_states sp.store in
  let m = sp.dom_off.(n) in
  Pnut_exec.Supervisor.finish monitor ~visited:n stop
    {
      net;
      store = sp.store;
      complete = Option.is_none stop;
      n_vectors = sp.arena.count;
      sup_off = Array.sub sp.dom_off 0 (n + 1);
      sup = Array.sub sp.sup 0 m;
      iv_lo = Array.sub sp.lo 0 m;
      iv_hi = Array.sub sp.hi 0 m;
    }

let build ?max_states net =
  Pnut_exec.Supervisor.value (build_supervised ?max_states net)

let deadlocks (g : t) = Store.deadlocks g.store
let max_tokens (g : t) p = Store.max_tokens g.store p

(* Earliest time before [tid] first starts firing: a uniform-cost
   search over normalized vectors where an edge costs its normalization
   shift (the folded Tick).  The class graph cannot answer this — it
   merges vectors reached at different times — so the search runs over
   the vector space directly, on the builder's exact vector ids. *)
let min_cycle_time ?(max_states = 50_000) net tid =
  if max_states < 1 then
    invalid_arg "Reach.Timed: max_states must be positive";
  Duration.check_net ~who:"Reach.Timed" net;
  let sp = space_create net ~cap:max_int in
  (* (distance, push sequence, vector id): the sequence breaks ties *)
  let module Pq = Set.Make (struct
    type t = float * int * int

    let compare = compare
  end) in
  let seq = ref 0 in
  let pq = ref Pq.empty in
  let push d v =
    pq := Pq.add (d, !seq, v) !pq;
    incr seq
  in
  let settled = Hashtbl.create 256 in
  let v0, shift0 = initial_vector sp net in
  push shift0 v0;
  let result = ref None in
  (try
     while not (Pq.is_empty !pq) do
       let ((d, _, v) as top) = Pq.min_elt !pq in
       pq := Pq.remove top !pq;
       if not (Hashtbl.mem settled v) then begin
         Hashtbl.replace settled v ();
         if Hashtbl.length settled > max_states then raise_notrace Exit;
         let cl = load sp v in
         let nf = Array.length cl.cl_flight in
         Array.iteri
           (fun k t ->
             if t = tid && Float.equal sp.src.(nf + k) 0.0 then begin
               result := Some d;
               raise_notrace Exit
             end)
           cl.cl_pending;
         expand sp cl (fun _ v' shift ->
             if not (Hashtbl.mem settled v') then push (d +. shift) v')
       end
     done
   with Exit -> ());
  !result

type cycle = {
  cy_transient : float;
  cy_period : float;
  cy_firings : int array;
}

(* One deterministic execution over the class graph's own successor
   relation: from each vector take the first successor [expand] emits —
   the lowest-id completion, else the lowest-id firing.  A positive
   normalization shift is a tick, so the vector just before it is a
   stable instant; stable instants are keyed on (vector after the tick,
   shift) with the clock and firing counts before the tick, and the walk
   stops at the first repeat.  Between ticks every vector is recorded
   the same way: the walk is deterministic, so a vector met twice
   without a tick is a zero-time livelock, a cycle of period 0. *)
let steady_cycle ?(max_steps = 100_000) net =
  Duration.check_net ~who:"Reach.Timed" net;
  let sp = space_create net ~cap:max_int in
  let counts = Array.make (Net.num_transitions net) 0 in
  let seen = Hashtbl.create 256 in
  let since_tick = Hashtbl.create 64 in
  let clock = ref 0.0 in
  (* Arrive at [v] after a tick of [shift]: the cycle closed by a
     repeated stable instant or a zero-time loop, if any. *)
  let arrive v shift =
    let stable =
      if shift > 0.0 then begin
        Hashtbl.reset since_tick;
        match Hashtbl.find_opt seen (v, shift) with
        | Some _ as first -> first
        | None ->
          Hashtbl.replace seen (v, shift) (!clock, Array.copy counts);
          clock := !clock +. shift;
          None
      end
      else None
    in
    match stable, Hashtbl.find_opt since_tick v with
    | Some (t0, counts0), _ | None, Some (t0, counts0) ->
      Some
        {
          cy_transient = t0;
          cy_period = !clock -. t0;
          cy_firings = Array.mapi (fun t n -> n - counts0.(t)) counts;
        }
    | None, None ->
      Hashtbl.replace since_tick v (!clock, Array.copy counts);
      None
  in
  let exception First of int * int * float in
  let rec walk v steps =
    if steps >= max_steps then None
    else
      match
        expand sp (load sp v) (fun code v' shift ->
            raise_notrace (First (code, v', shift)))
      with
      | () -> None (* dead *)
      | exception First (code, v', shift) -> (
        if code land 1 = 0 then counts.(code asr 1) <- counts.(code asr 1) + 1;
        match arrive v' shift with
        | Some _ as cycle -> cycle
        | None -> walk v' (steps + 1))
  in
  let v0, shift0 = initial_vector sp net in
  match arrive v0 shift0 with Some _ as cycle -> cycle | None -> walk v0 0

let pp_summary ppf g =
  Format.fprintf ppf
    "@[<v>timed state-class graph of %s@,states: %d%s@,edges: %d@,residual \
     vectors: %d@,timed deadlocks: %d@]"
    (Net.name g.net) (num_states g)
    (if g.complete then "" else " (truncated)")
    (num_edges g) (num_vectors g)
    (List.length (deadlocks g))
