(* Arena-backed compact state store: packed markings in int-array
   pages, an open-addressing index over state indices (no per-state
   boxes; 4-byte slots, released at [finalize]) whose slots carry a
   fragment of their state's hash in the bits the index does not need,
   so a probe reads the arena only for slots that may match, and
   successor edges in CSR form built in one pass.
   BFS interns states in ascending order and expands them in ascending
   order, so the store is its own frontier: the sweep walks a cursor
   over state indices, everything past it is still unexpanded, and no
   queue holds a second copy of them.  The successor offsets are
   appended as the sweep runs; predecessors are a counting sort over
   the finished successor entries, built on first use (CTL and
   {!predecessors} only). *)

(* Unsigned words in byte pages: the CSR offsets, the edge words
   [(target lsl t_bits) lor tid] (a source in place of the target in
   the predecessor CSR), the intern index and the reversibility DFS
   tables.  Entries are 4 bytes, in pages of [page_len]; the CSR tables
   are appended as the sweep runs, so there is no doubling copy of what
   is stored and no trim at finalize; only page 0 starts small and
   doubles up to [page_len], which keeps tiny graphs tiny.  The GC never
   scans [Bytes], yet they count in the major heap, so a heap budget
   still covers them.  The first word that does not fit 32 bits re-encodes
   every page once to 8-byte entries, the way {!Packed.widen} re-lays
   the arena; entries keep their page and slot, only the page bytes
   double.  Tables of a known size and widest value (the index, the
   DFS tables, the predecessor CSR) pick their width up front. *)
module Pages = struct
  let page_bits = 16
  let page_len = 1 lsl page_bits
  let page_mask = page_len - 1

  type t = {
    mutable pages : Bytes.t array;
    mutable n_pages : int;
    mutable cap : int;  (* entries the pages hold *)
    mutable wide : bool;  (* 8-byte entries *)
    mutable len : int;
  }

  let entry_bytes p = if p.wide then 8 else 4
  let fits32 v = v lsr 32 = 0

  let grow p =
    if p.cap < page_len then begin
      let cap = min page_len (2 * p.cap) in
      p.pages.(0) <- Bytes.extend p.pages.(0) 0 ((cap - p.cap) * entry_bytes p);
      p.cap <- cap
    end
    else begin
      if p.n_pages = Array.length p.pages then begin
        let a = Array.make (2 * p.n_pages) Bytes.empty in
        Array.blit p.pages 0 a 0 p.n_pages;
        p.pages <- a
      end;
      p.pages.(p.n_pages) <- Bytes.create (page_len * entry_bytes p);
      p.n_pages <- p.n_pages + 1;
      p.cap <- p.cap + page_len
    end

  (* [len] entries of room up front (the predecessor CSR's size is
     known before it is filled); [zero] fills them with 0 (an empty
     index, unvisited DFS ranks) *)
  let create ?(len = 0) ?(zero = false) ~wide () =
    let cap = min page_len (max 256 len) in
    let eb = if wide then 8 else 4 in
    let p =
      { pages = [| Bytes.create (cap * eb) |]; n_pages = 1; cap; wide; len }
    in
    while p.cap < len do
      grow p
    done;
    if zero then
      for i = 0 to p.n_pages - 1 do
        Bytes.fill p.pages.(i) 0 (Bytes.length p.pages.(i)) '\000'
      done;
    p

  (* Native-endian and unchecked: the bytes never leave the process,
     and [k < cap] bounds both the page number and the offset in its
     page, so one check replaces the array's and the page's. *)
  external get32u : Bytes.t -> int -> int32 = "%caml_bytes_get32u"
  external get64u : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
  external set32u : Bytes.t -> int -> int32 -> unit = "%caml_bytes_set32u"
  external set64u : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

  let[@inline] get p k =
    if k < 0 || k >= p.cap then invalid_arg "Store.Pages.get";
    let pg = Array.unsafe_get p.pages (k lsr page_bits) in
    let e = k land page_mask in
    if p.wide then Int64.to_int (get64u pg (e lsl 3))
    else Int32.to_int (get32u pg (e lsl 2)) land 0xFFFF_FFFF

  let[@inline] set p k v =
    if k < 0 || k >= p.cap then invalid_arg "Store.Pages.set";
    let pg = Array.unsafe_get p.pages (k lsr page_bits) in
    let e = k land page_mask in
    if p.wide then set64u pg (e lsl 3) (Int64.of_int v)
    else set32u pg (e lsl 2) (Int32.of_int v)

  let widen p =
    for i = 0 to p.n_pages - 1 do
      let narrow = p.pages.(i) in
      let entries = Bytes.length narrow / 4 in
      let pg = Bytes.create (entries * 8) in
      for e = 0 to entries - 1 do
        let v = Int32.to_int (get32u narrow (e lsl 2)) in
        set64u pg (e lsl 3) (Int64.of_int (v land 0xFFFF_FFFF))
      done;
      p.pages.(i) <- pg
    done;
    p.wide <- true

  let push p v =
    if not (p.wide || fits32 v) then widen p;
    let k = p.len in
    if k = p.cap then grow p;
    set p k v;
    p.len <- k + 1
end

(* The arena is an array of int-array pages of [arena_page] states
   each, so it grows without copying what is stored; only page 0 starts
   small and doubles up to that size, which keeps tiny graphs tiny. *)
let arena_page_bits = 16
let arena_page = 1 lsl arena_page_bits
let arena_page_mask = arena_page - 1

type t = {
  codec : Packed.t;
  np : int;
  mutable words : int;
  mutable arena : int array array;
  mutable cap_states : int;
  mutable n : int;
  mutable index : Pages.t;
      (* [tag lor (state index + 1)] per slot, 0 = empty; released at
         finalize *)
  mutable index_mask : int;  (* slots - 1, kept after the release *)
  mutable key_buf : int array;  (* candidate scratch, [words] long *)
  t_bits : int;
  t_mask : int;
  succ_off : Pages.t;  (* state -> its first edge; [n + 1] entries *)
  succ_dat : Pages.t;  (* (target lsl t_bits) lor tid *)
  mutable last_src : int;
  mutable finalized : bool;
  mutable pred : (int array * Pages.t) option;
      (* offsets and (source lsl t_bits) lor tid, built on first use *)
}

let bits_for v =
  let rec go w = if v lsr w = 0 then w else go (w + 1) in
  max 1 (go 0)

(* Every stored [i + 1] is below the slot count (the load factor stays
   under 0.7), so the slots are 4 bytes until there are more than 2^32
   of them, and [i + 1] needs only the low [log2 slots] bits of its
   slot.  The bits above hold a tag: the same bits of the state's
   {!Packed.hash}, whose low bits pick the home slot.  A probe compares
   the tag before it reads the arena, so of the slots on its chain that
   hold other states only about one in [2^tag_bits] reaches
   {!Packed.equal}.  The tag is [32 - log2 slots] bits wide on 4-byte
   slots (11 at 2^21 slots; 0 at 2^32, where every slot is compared
   again), and [62 - log2 slots] on the 8-byte slots past 2^32, the
   hash's 62 bits less the index's; never negative. *)
let index_wide slots = slots > 1 lsl 32
let new_index slots =
  Pages.create ~len:slots ~zero:true ~wide:(index_wide slots) ()
let tag_mask slots =
  (if index_wide slots then max_int else 0xFFFF_FFFF) land lnot (slots - 1)

let create codec ~num_transitions =
  let lay = Packed.layout codec in
  let words = Packed.words lay in
  let t_bits = bits_for (max 0 (num_transitions - 1)) in
  {
    codec;
    np = Packed.places lay;
    words;
    arena = [| Array.make (256 * words) 0 |];
    cap_states = 256;
    n = 0;
    index = new_index 1024;
    index_mask = 1023;
    key_buf = Array.make words 0;
    t_bits;
    t_mask = (1 lsl t_bits) - 1;
    succ_off = Pages.create ~wide:false ();
    succ_dat = Pages.create ~wide:false ();
    last_src = -1;
    finalized = false;
    pred = None;
  }

let codec st = st.codec
let num_states st = st.n
let num_edges st = st.succ_dat.Pages.len

(* state [i]'s words start at [pos_of st i] in [page_of st i] *)
let[@inline] page_of st i = st.arena.(i lsr arena_page_bits)
let[@inline] pos_of st i = (i land arena_page_mask) * st.words

let rehash st =
  let idx = new_index (st.index_mask + 1) in
  let lay = Packed.layout st.codec in
  let mask = st.index_mask in
  let tags = tag_mask (mask + 1) in
  for i = 0 to st.n - 1 do
    let h = Packed.hash lay (page_of st i) ~pos:(pos_of st i) in
    let s = ref (h land mask) in
    while Pages.get idx !s <> 0 do
      s := (!s + 1) land mask
    done;
    Pages.set idx !s ((h land tags) lor (i + 1))
  done;
  st.index <- idx

let grow_index st =
  st.index_mask <- (2 * (st.index_mask + 1)) - 1;
  rehash st

(* A field overflowed its width: install a wider layout and re-encode
   every packed state under it (the old layout still decodes the
   existing words), then rebuild the index — hashes depend on the
   words. *)
let widen st ~field ~value =
  let old = Packed.widen st.codec ~field ~value in
  let lay = Packed.layout st.codec in
  let ow = Packed.words old in
  let nw = Packed.words lay in
  let tmp = Array.make st.np 0 in
  st.arena <-
    Array.mapi
      (fun p page ->
        let states =
          if p = 0 then min st.cap_states arena_page else arena_page
        in
        let page' = Array.make (states * nw) 0 in
        for j = 0 to min states (st.n - (p lsl arena_page_bits)) - 1 do
          Packed.decode_into old page ~pos:(j * ow) tmp;
          let ex = Packed.extra_of old page ~pos:(j * ow) in
          Packed.encode lay page' ~pos:(j * nw) tmp ~extra:ex
        done;
        page')
      st.arena;
  st.words <- nw;
  st.key_buf <- Array.make nw 0;
  rehash st

let ensure_arena st =
  if st.n >= st.cap_states then begin
    if st.cap_states < arena_page then begin
      let cap = 2 * st.cap_states in
      let page = Array.make (cap * st.words) 0 in
      Array.blit st.arena.(0) 0 page 0 (st.n * st.words);
      st.arena.(0) <- page;
      st.cap_states <- cap
    end
    else begin
      st.arena <-
        Array.append st.arena [| Array.make (arena_page * st.words) 0 |];
      st.cap_states <- st.cap_states + arena_page
    end
  end

(* Look up the packed key in [key_buf], inserting it when fresh: the
   state index, or -1 when the key is fresh and the store already holds
   [max_states] states.  No boxed result, so the sweep's per-edge intern
   allocates nothing. *)
let intern_key st ~max_states =
  let lay = Packed.layout st.codec in
  let h = Packed.hash lay st.key_buf ~pos:0 in
  let idx = st.index and mask = st.index_mask in
  let tag = h land tag_mask (mask + 1) in
  let s = ref (h land mask) in
  let found = ref (-1) in
  let e = ref (Pages.get idx !s) in
  while !e <> 0 && !found < 0 do
    let i = (!e land mask) - 1 in
    (* the slot's tag is [tag] exactly when only index bits differ *)
    if !e lxor tag <= mask
       && Packed.equal lay (page_of st i) ~pos:(pos_of st i) st.key_buf 0
    then found := i
    else begin
      s := (!s + 1) land mask;
      e := Pages.get idx !s
    end
  done;
  if !found >= 0 then !found
  else if st.n >= max_states then -1
  else begin
    let i = st.n in
    ensure_arena st;
    Array.blit st.key_buf 0 (page_of st i) (pos_of st i) st.words;
    Pages.set idx !s (tag lor (i + 1));
    st.n <- i + 1;
    (* keep the load factor under 0.7 — linear probing stays short and
       the slots cost stays well inside the bytes/state budget *)
    if (st.n + 1) * 10 > (mask + 1) * 7 then grow_index st;
    i
  end

(* [finalize] releases the index, so nothing interns after it. *)
let check_open st =
  if st.finalized then invalid_arg "Store: intern after finalize"

let rec intern_index st marking ~extra ~max_states =
  check_open st;
  let lay = Packed.layout st.codec in
  match Packed.encode lay st.key_buf ~pos:0 marking ~extra with
  | exception Packed.Field_overflow { field; value } ->
    widen st ~field ~value;
    intern_index st marking ~extra ~max_states
  | () -> intern_key st ~max_states

let intern st marking ~extra ~max_states =
  let n0 = st.n in
  match intern_index st marking ~extra ~max_states with
  | -1 -> `Capped
  | i when i >= n0 -> `Added i
  | i -> `Found i

let intern_delta st ~src delta ~max_states =
  check_open st;
  let page = page_of st src and base = pos_of st src in
  for k = 0 to st.words - 1 do
    st.key_buf.(k) <- page.(base + k) + delta.(k)
  done;
  intern_key st ~max_states

let marking_into st i dst =
  Packed.decode_into (Packed.layout st.codec) (page_of st i) ~pos:(pos_of st i)
    dst

let extra st i =
  Packed.extra_of (Packed.layout st.codec) (page_of st i) ~pos:(pos_of st i)

(* -- CSR successors, appended in sweep order -- *)

let begin_source st i =
  if i <= st.last_src then invalid_arg "Store.begin_source: not ascending";
  for _ = st.last_src + 1 to i do
    Pages.push st.succ_off (num_edges st)
  done;
  st.last_src <- i

let add_edge st ~tid ~target =
  Pages.push st.succ_dat ((target lsl st.t_bits) lor tid)

let finalize st =
  if not st.finalized then begin
    for _ = st.last_src + 1 to st.n do
      Pages.push st.succ_off (num_edges st)
    done;
    st.last_src <- st.n;
    st.finalized <- true;
    st.index <- Pages.create ~wide:false ()
  end

let[@inline] first_edge st i = Pages.get st.succ_off i
let out_degree st i = first_edge st (i + 1) - first_edge st i

let deadlocks st =
  let acc = ref [] in
  for i = st.n - 1 downto 0 do
    if out_degree st i = 0 then acc := i :: !acc
  done;
  !acc

let max_tokens st p =
  let scratch = Array.make (Packed.places (Packed.layout st.codec)) 0 in
  let acc = ref 0 in
  for i = 0 to st.n - 1 do
    marking_into st i scratch;
    if scratch.(p) > !acc then acc := scratch.(p)
  done;
  !acc

let successors st i =
  let acc = ref [] in
  for k = first_edge st (i + 1) - 1 downto first_edge st i do
    let v = Pages.get st.succ_dat k in
    acc := (v land st.t_mask, v lsr st.t_bits) :: !acc
  done;
  !acc

let iter_edges st f =
  for i = 0 to st.n - 1 do
    for k = first_edge st i to first_edge st (i + 1) - 1 do
      let v = Pages.get st.succ_dat k in
      f i (v land st.t_mask) (v lsr st.t_bits)
    done
  done

(* -- predecessor CSR: counting sort over the successor entries, stable
      in sweep order so per-target slices match the frozen boxed
      oracle's traversal -- *)

let build_pred st =
  match st.pred with
  | Some p -> p
  | None ->
    let n = st.n in
    let n_edges = num_edges st in
    let off = Array.make (n + 1) 0 in
    for k = 0 to n_edges - 1 do
      let tgt = Pages.get st.succ_dat k lsr st.t_bits in
      off.(tgt + 1) <- off.(tgt + 1) + 1
    done;
    for i = 1 to n do
      off.(i) <- off.(i) + off.(i - 1)
    done;
    let cursor = Array.sub off 0 n in
    let widest = (max 0 (n - 1) lsl st.t_bits) lor st.t_mask in
    let dat = Pages.create ~len:n_edges ~wide:(not (Pages.fits32 widest)) () in
    for src = 0 to n - 1 do
      for k = first_edge st src to first_edge st (src + 1) - 1 do
        let v = Pages.get st.succ_dat k in
        let tgt = v lsr st.t_bits in
        Pages.set dat cursor.(tgt) ((src lsl st.t_bits) lor (v land st.t_mask));
        cursor.(tgt) <- cursor.(tgt) + 1
      done
    done;
    st.pred <- Some (off, dat);
    (off, dat)

(* Reverse sweep order, matching the frozen boxed oracle (which
   prepends while walking sources ascending). *)
let predecessors st j =
  let off, dat = build_pred st in
  let acc = ref [] in
  for k = off.(j) to off.(j + 1) - 1 do
    let v = Pages.get dat k in
    acc := (v lsr st.t_bits, v land st.t_mask) :: !acc
  done;
  !acc

(* One sequential sweep over the CSR rows of states [1 .. n-1], in
   ascending or descending order: an unmarked state whose successor is
   marked gets marked, and the scan of its edges stops at the first
   marked successor.  A state marked earlier in the sweep counts at once.
   Returns how many states the sweep marked. *)
let mark_pass st mark ~descending =
  let n = st.n in
  let added = ref 0 in
  for j = 1 to n - 1 do
    let v = if descending then n - j else j in
    if Bytes.get mark v = '\000' then begin
      let k = ref (first_edge st v) and k_end = first_edge st (v + 1) in
      while !k < k_end do
        if Bytes.get mark (Pages.get st.succ_dat !k lsr st.t_bits) <> '\000'
        then begin
          Bytes.set mark v '\001';
          incr added;
          k := k_end
        end
        else incr k
      done
    end
  done;
  !added

(* Strong connectivity of the recorded graph, when the passes below
   leave it open: an iterative depth-first search from state 0 with
   Pearce's one-array lowlinks ("A space-efficient algorithm for
   finding strongly connected components", IPL 2016), stopped at the
   first component it closes.
   Every recorded state is reachable from 0, so the graph is one SCC
   exactly when that first component is rooted at 0.

   Until a component closes, every visited state is still open: no
   state waits off the path for its root and no component id is
   stored.  [rank] at [v] is 0 while [v] is unvisited, else the lowest
   rank [v] has reached.  A path frame packs the state, its edge cursor
   (relative to its first edge) and a "root" bit (no edge has yet
   reached a lower rank).  Both tables are {!Pages}, 4 bytes an entry
   unless the widest possible value (the state count, a frame of the
   last state at the largest degree) needs 8. *)
let strongly_connected_dfs st =
  let n = st.n in
  n > 0 &&
  let max_degree = ref 0 in
  for v = 0 to n - 1 do
    let d = first_edge st (v + 1) - first_edge st v in
    if d > !max_degree then max_degree := d
  done;
  let d_bits = bits_for !max_degree in
  let d_mask = (1 lsl d_bits) - 1 in
  let rank = Pages.create ~len:n ~zero:true ~wide:(not (Pages.fits32 n)) () in
  let widest_frame = (((max 0 (n - 1) lsl d_bits) lor d_mask) lsl 1) lor 1 in
  let path = Pages.create ~len:n ~wide:(not (Pages.fits32 widest_frame)) () in
  let depth = ref 0 (* frames in path entries 0 .. depth - 1 *) in
  let next_rank = ref 1 in
  (* the frame of the state being explored lives in these refs: state
     [v] with its rank [rv] (as in [rank]), first edge [k0], next edge
     [k], edges end at [k_end], root bit [root] *)
  let v = ref 0 and rv = ref 1 and root = ref true in
  let k0 = ref (first_edge st 0) in
  let k = ref !k0 in
  let k_end = ref (first_edge st 1) in
  Pages.set rank 0 1;
  let rec go () =
    if !k < !k_end then begin
      let w = Pages.get st.succ_dat !k lsr st.t_bits in
      let rw = Pages.get rank w in
      if rw = 0 then begin
        (* descend, parking [v] with its cursor on this edge *)
        Pages.set path !depth
          ((((!v lsl d_bits) lor (!k - !k0)) lsl 1) lor Bool.to_int !root);
        incr depth;
        incr next_rank;
        v := w;
        rv := !next_rank;
        root := true;
        k0 := first_edge st w;
        k := !k0;
        k_end := first_edge st (w + 1);
        Pages.set rank w !rv
      end
      else begin
        if rw < !rv then begin
          rv := rw;
          Pages.set rank !v rw;
          root := false
        end;
        incr k
      end;
      go ()
    end
    else if !root then
      (* [v] closes the first component.  State 0 holds the lowest
         rank, so it is always a root and the path never runs dry. *)
      !v = 0
    else begin
      (* back in the parent, on its edge to [v]: now that [v] is done,
         the next turn finishes that edge *)
      decr depth;
      let frame = Pages.get path !depth in
      let u = frame lsr (d_bits + 1) in
      v := u;
      rv := Pages.get rank u;
      root := frame land 1 = 1;
      k0 := first_edge st u;
      k := !k0 + ((frame lsr 1) land d_mask);
      k_end := first_edge st (u + 1);
      go ()
    end
  in
  go ()

(* Every recorded state is reachable from 0, so the graph is one SCC
   exactly when every state reaches 0.  The marks grow towards the
   states that do, one byte each, from state 0 alone: every marked state
   reaches 0 through a marked successor.  Each of at most two passes
   reads the CSR rows in index order, one sequential sweep, where the
   DFS above visits them in an order unrelated to the numbering and
   pays a cache miss per row; the only random reads are of the marks,
   a byte per state.  When a pass has marked every state, the answer is true.
   When a pass marked nothing, no unmarked state has a marked successor,
   so the marks are the least fixpoint — exactly the states that reach
   0 — and some state does not: the answer is false.  Otherwise the DFS
   decides. *)
let strongly_connected st =
  let n = st.n in
  n > 0 &&
  let mark = Bytes.make n '\000' in
  Bytes.set mark 0 '\001';
  let rec passes marked = function
    | [] -> strongly_connected_dfs st
    | descending :: rest ->
      let added = mark_pass st mark ~descending in
      if marked + added = n then true
      else if added = 0 then false
      else passes (marked + added) rest
  in
  passes 1 [ false; true ]

let edge_bytes st = Pages.entry_bytes st.succ_dat

(* The index slots count at their width even after [finalize] released
   them: the figure is what interning held. *)
let bytes_per_state st =
  if st.n = 0 then 0.0
  else
    let slots = st.index_mask + 1 in
    let bytes =
      (st.n * st.words * (Sys.word_size / 8))
      + (slots * if index_wide slots then 8 else 4)
    in
    float_of_int bytes /. float_of_int st.n
