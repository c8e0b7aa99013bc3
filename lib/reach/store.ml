module Binary = Pnut_trace.Binary

(* Arena-backed compact state store: packed markings in one flat int
   array, an open-addressing index over arena offsets (no per-state
   boxes, no stored hashes — they are recomputed from the arena when
   the table grows), and successor/predecessor edges in CSR form built
   in one pass.  BFS interns states in ascending order and expands them
   in ascending order, so the successor offsets can be appended as the
   sweep runs; predecessors are a counting sort over the finished
   successor array, built on first use. *)

(* FIFO of state indices with a bounded in-memory footprint: indices
   accumulate in fixed-size chunks, and once the buffered middle chunks
   exceed the byte threshold, full chunks are written to an anonymous
   temp file as delta varints (ascending BFS indices make the deltas
   tiny).  Head and tail chunks always stay in memory, so the floor is
   two chunks regardless of threshold. *)
module Frontier = struct
  type chunk =
    | Mem of int array
    | Disk of { off : int; bytes : int; count : int }

  type t = {
    threshold : int;
    chunk_ints : int;
    mutable head : int array;
    mutable head_pos : int;
    mutable head_len : int;
    middle : chunk Queue.t;
    mutable mem_bytes : int;  (* bytes of Mem chunks in [middle] *)
    mutable tail : int array;
    mutable tail_len : int;
    mutable count : int;
    mutable file : (string * out_channel * in_channel) option;
    mutable file_end : int;
    mutable spilled : int;
    buf : Buffer.t;
  }

  let create ~threshold () =
    if threshold < 0 then invalid_arg "Frontier.create: negative threshold";
    let chunk_ints = max 16 (min 8192 (threshold / 32)) in
    {
      threshold;
      chunk_ints;
      head = [||];
      head_pos = 0;
      head_len = 0;
      middle = Queue.create ();
      mem_bytes = 0;
      tail = Array.make chunk_ints 0;
      tail_len = 0;
      count = 0;
      file = None;
      file_end = 0;
      spilled = 0;
      buf = Buffer.create 256;
    }

  let length t = t.count
  let is_empty t = t.count = 0
  let spilled_chunks t = t.spilled

  let channels t =
    match t.file with
    | Some (_, oc, ic) -> (oc, ic)
    | None ->
      let path = Filename.temp_file "pnut-frontier" ".spill" in
      let oc = open_out_bin path in
      let ic = open_in_bin path in
      t.file <- Some (path, oc, ic);
      (oc, ic)

  let spill_tail t =
    let oc, _ = channels t in
    Buffer.clear t.buf;
    Binary.add_varint t.buf t.tail.(0);
    for k = 1 to t.tail_len - 1 do
      Binary.add_varint t.buf (Binary.zigzag (t.tail.(k) - t.tail.(k - 1)))
    done;
    let bytes = Buffer.length t.buf in
    Buffer.output_buffer oc t.buf;
    flush oc;
    Queue.add (Disk { off = t.file_end; bytes; count = t.tail_len }) t.middle;
    t.file_end <- t.file_end + bytes;
    t.spilled <- t.spilled + 1

  let flush_tail t =
    if t.tail_len > 0 then begin
      if t.mem_bytes + (t.tail_len * 8) > t.threshold then spill_tail t
      else begin
        Queue.add (Mem (Array.sub t.tail 0 t.tail_len)) t.middle;
        t.mem_bytes <- t.mem_bytes + (t.tail_len * 8)
      end;
      t.tail_len <- 0
    end

  let push t v =
    if v < 0 then invalid_arg "Frontier.push: negative index";
    if t.tail_len >= t.chunk_ints then flush_tail t;
    t.tail.(t.tail_len) <- v;
    t.tail_len <- t.tail_len + 1;
    t.count <- t.count + 1

  let read_chunk t ~off ~bytes ~count =
    let _, ic = channels t in
    seek_in ic off;
    let s = really_input_string ic bytes in
    let a = Array.make count 0 in
    let pos = ref 0 in
    a.(0) <- Binary.get_varint s ~pos;
    for k = 1 to count - 1 do
      a.(k) <- a.(k - 1) + Binary.unzigzag (Binary.get_varint s ~pos)
    done;
    a

  let pop t =
    if t.count = 0 then invalid_arg "Frontier.pop: empty";
    if t.head_pos >= t.head_len then begin
      match Queue.take_opt t.middle with
      | Some (Mem a) ->
        t.head <- a;
        t.head_pos <- 0;
        t.head_len <- Array.length a;
        t.mem_bytes <- t.mem_bytes - (8 * Array.length a)
      | Some (Disk { off; bytes; count }) ->
        t.head <- read_chunk t ~off ~bytes ~count;
        t.head_pos <- 0;
        t.head_len <- count
      | None ->
        t.head <- t.tail;
        t.head_pos <- 0;
        t.head_len <- t.tail_len;
        t.tail <- Array.make t.chunk_ints 0;
        t.tail_len <- 0
    end;
    let v = t.head.(t.head_pos) in
    t.head_pos <- t.head_pos + 1;
    t.count <- t.count - 1;
    v

  let close t =
    match t.file with
    | None -> ()
    | Some (path, oc, ic) ->
      t.file <- None;
      close_out_noerr oc;
      close_in_noerr ic;
      (try Sys.remove path with Sys_error _ -> ())
end

type t = {
  codec : Packed.t;
  np : int;
  mutable words : int;
  mutable arena : int array;
  mutable cap_states : int;
  mutable n : int;
  mutable index : int array;  (* state index + 1; 0 = empty *)
  mutable index_mask : int;
  mutable key_buf : int array;  (* candidate scratch, [words] long *)
  t_bits : int;
  t_mask : int;
  mutable succ_off : int array;
  mutable succ_dat : int array;  (* (target lsl t_bits) lor tid *)
  mutable n_edges : int;
  mutable last_src : int;
  mutable finalized : bool;
  mutable pred_off : int array;
  mutable pred_dat : int array;
  mutable pred_built : bool;
}

let bits_for v =
  let rec go w = if v lsr w = 0 then w else go (w + 1) in
  max 1 (go 0)

let create codec ~num_transitions =
  let lay = Packed.layout codec in
  let words = Packed.words lay in
  let t_bits = bits_for (max 0 (num_transitions - 1)) in
  {
    codec;
    np = Packed.places lay;
    words;
    arena = Array.make (256 * words) 0;
    cap_states = 256;
    n = 0;
    index = Array.make 1024 0;
    index_mask = 1023;
    key_buf = Array.make words 0;
    t_bits;
    t_mask = (1 lsl t_bits) - 1;
    succ_off = Array.make 256 0;
    succ_dat = Array.make 256 0;
    n_edges = 0;
    last_src = -1;
    finalized = false;
    pred_off = [||];
    pred_dat = [||];
    pred_built = false;
  }

let codec st = st.codec
let num_states st = st.n
let num_edges st = st.n_edges

let rehash st =
  let size = st.index_mask + 1 in
  let idx = Array.make size 0 in
  let lay = Packed.layout st.codec in
  let mask = st.index_mask in
  for i = 0 to st.n - 1 do
    let h = Packed.hash lay st.arena ~pos:(i * st.words) in
    let s = ref (h land mask) in
    while idx.(!s) <> 0 do
      s := (!s + 1) land mask
    done;
    idx.(!s) <- i + 1
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
  let arena' = Array.make (st.cap_states * nw) 0 in
  for i = 0 to st.n - 1 do
    Packed.decode_into old st.arena ~pos:(i * ow) tmp;
    let ex = Packed.extra_of old st.arena ~pos:(i * ow) in
    Packed.encode lay arena' ~pos:(i * nw) tmp ~extra:ex
  done;
  st.arena <- arena';
  st.words <- nw;
  st.key_buf <- Array.make nw 0;
  rehash st

let ensure_arena st =
  if st.n >= st.cap_states then begin
    let cap = 2 * st.cap_states in
    let arena = Array.make (cap * st.words) 0 in
    Array.blit st.arena 0 arena 0 (st.n * st.words);
    st.arena <- arena;
    st.cap_states <- cap
  end

(* Look up the packed key in [key_buf], inserting it when fresh: the
   state index, or -1 when the key is fresh and the store already holds
   [max_states] states.  No boxed result, so the sweep's per-edge intern
   allocates nothing. *)
let intern_key st ~max_states =
  let lay = Packed.layout st.codec in
  let h = Packed.hash lay st.key_buf ~pos:0 in
  let mask = st.index_mask in
  let s = ref (h land mask) in
  let found = ref (-1) in
  let e = ref st.index.(!s) in
  while !e <> 0 && !found < 0 do
    let i = !e - 1 in
    if Packed.equal lay st.arena ~pos:(i * st.words) st.key_buf 0 then
      found := i
    else begin
      s := (!s + 1) land mask;
      e := st.index.(!s)
    end
  done;
  if !found >= 0 then !found
  else if st.n >= max_states then -1
  else begin
    let i = st.n in
    ensure_arena st;
    Array.blit st.key_buf 0 st.arena (i * st.words) st.words;
    st.index.(!s) <- i + 1;
    st.n <- i + 1;
    (* keep the load factor under 0.7 — linear probing stays short and
       the slots cost stays well inside the bytes/state budget *)
    if (st.n + 1) * 10 > (mask + 1) * 7 then grow_index st;
    i
  end

let rec intern_index st marking ~extra ~max_states =
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
  let w = st.words in
  let base = src * w in
  for k = 0 to w - 1 do
    st.key_buf.(k) <- st.arena.(base + k) + delta.(k)
  done;
  intern_key st ~max_states

let marking_into st i dst =
  Packed.decode_into (Packed.layout st.codec) st.arena ~pos:(i * st.words) dst

let extra st i =
  Packed.extra_of (Packed.layout st.codec) st.arena ~pos:(i * st.words)

(* -- CSR successors, appended in sweep order -- *)

let ensure_succ_off st upto =
  if upto >= Array.length st.succ_off then begin
    let cap = max (upto + 1) (2 * Array.length st.succ_off) in
    let a = Array.make cap 0 in
    Array.blit st.succ_off 0 a 0 (st.last_src + 1);
    st.succ_off <- a
  end

let begin_source st i =
  if i <= st.last_src then invalid_arg "Store.begin_source: not ascending";
  ensure_succ_off st i;
  for j = st.last_src + 1 to i do
    st.succ_off.(j) <- st.n_edges
  done;
  st.last_src <- i

let add_edge st ~tid ~target =
  if st.n_edges >= Array.length st.succ_dat then begin
    let a = Array.make (2 * Array.length st.succ_dat) 0 in
    Array.blit st.succ_dat 0 a 0 st.n_edges;
    st.succ_dat <- a
  end;
  st.succ_dat.(st.n_edges) <- (target lsl st.t_bits) lor tid;
  st.n_edges <- st.n_edges + 1

let finalize st =
  if not st.finalized then begin
    ensure_succ_off st st.n;
    for j = st.last_src + 1 to st.n do
      st.succ_off.(j) <- st.n_edges
    done;
    st.last_src <- st.n;
    st.succ_off <- Array.sub st.succ_off 0 (st.n + 1);
    st.succ_dat <- Array.sub st.succ_dat 0 st.n_edges;
    if st.n * st.words < Array.length st.arena then begin
      st.arena <- Array.sub st.arena 0 (st.n * st.words);
      st.cap_states <- st.n
    end;
    st.finalized <- true
  end

let out_degree st i = st.succ_off.(i + 1) - st.succ_off.(i)

let successors st i =
  let acc = ref [] in
  for k = st.succ_off.(i + 1) - 1 downto st.succ_off.(i) do
    let v = st.succ_dat.(k) in
    acc := (v land st.t_mask, v lsr st.t_bits) :: !acc
  done;
  !acc

let iter_edges st f =
  for i = 0 to st.n - 1 do
    for k = st.succ_off.(i) to st.succ_off.(i + 1) - 1 do
      let v = st.succ_dat.(k) in
      f i (v land st.t_mask) (v lsr st.t_bits)
    done
  done

(* -- predecessor CSR: counting sort over the successor array, stable
      in sweep order so per-target slices match the frozen boxed
      oracle's traversal -- *)

let build_pred st =
  if not st.pred_built then begin
    let n = st.n in
    let off = Array.make (n + 1) 0 in
    for k = 0 to st.n_edges - 1 do
      let tgt = st.succ_dat.(k) lsr st.t_bits in
      off.(tgt + 1) <- off.(tgt + 1) + 1
    done;
    for i = 1 to n do
      off.(i) <- off.(i) + off.(i - 1)
    done;
    let cursor = Array.sub off 0 n in
    let dat = Array.make st.n_edges 0 in
    for src = 0 to n - 1 do
      for k = st.succ_off.(src) to st.succ_off.(src + 1) - 1 do
        let v = st.succ_dat.(k) in
        let tgt = v lsr st.t_bits in
        dat.(cursor.(tgt)) <- (src lsl st.t_bits) lor (v land st.t_mask);
        cursor.(tgt) <- cursor.(tgt) + 1
      done
    done;
    st.pred_off <- off;
    st.pred_dat <- dat;
    st.pred_built <- true
  end

(* Reverse sweep order, matching the frozen boxed oracle (which
   prepends while walking sources ascending). *)
let predecessors st j =
  build_pred st;
  let acc = ref [] in
  for k = st.pred_off.(j) to st.pred_off.(j + 1) - 1 do
    let v = st.pred_dat.(k) in
    acc := (v lsr st.t_bits, v land st.t_mask) :: !acc
  done;
  !acc

let iter_pred_sources st j f =
  build_pred st;
  for k = st.pred_off.(j) to st.pred_off.(j + 1) - 1 do
    f (st.pred_dat.(k) lsr st.t_bits)
  done

let store_words st = (Array.length st.arena, Array.length st.index)

let bytes_per_state st =
  if st.n = 0 then 0.0
  else
    let arena, index = store_words st in
    float_of_int ((arena + index) * (Sys.word_size / 8)) /. float_of_int st.n
