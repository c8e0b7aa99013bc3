(* Indexed binary min-heap over transition ids keyed by enabling
   deadline.  The [pos] array maps each id to its heap slot, so the
   engine can delete or move an arbitrary transition's deadline in
   O(log n) when an incremental refresh disables it — the operation the
   plain event queue cannot do.  Capacity is fixed at creation (one slot
   per transition), so no operation allocates.

   Ties between equal keys are broken arbitrarily: the engine only ever
   reads the minimum *key* (next_instant) or drains every entry up to a
   time bound, and re-sorts the drained ids itself. *)

type t = {
  mutable size : int;
  keys : float array;  (* keys.(i): key at heap slot i, i < size *)
  ids : int array;     (* ids.(i): transition at heap slot i *)
  pos : int array;     (* pos.(id): heap slot of id, or -1 *)
}

let create n =
  { size = 0; keys = Array.make (max n 1) 0.0; ids = Array.make (max n 1) (-1);
    pos = Array.make (max n 1) (-1) }

let is_empty h = h.size = 0

let mem h id = h.pos.(id) >= 0

let min_key h = if h.size = 0 then infinity else h.keys.(0)

let place h slot id key =
  h.keys.(slot) <- key;
  h.ids.(slot) <- id;
  h.pos.(id) <- slot

let rec sift_up h slot =
  if slot > 0 then begin
    let parent = (slot - 1) / 2 in
    if h.keys.(slot) < h.keys.(parent) then begin
      let k = h.keys.(slot) and id = h.ids.(slot) in
      place h slot h.ids.(parent) h.keys.(parent);
      place h parent id k;
      sift_up h parent
    end
  end

let rec sift_down h slot =
  let l = (2 * slot) + 1 in
  let r = l + 1 in
  let smallest = ref slot in
  if l < h.size && h.keys.(l) < h.keys.(!smallest) then smallest := l;
  if r < h.size && h.keys.(r) < h.keys.(!smallest) then smallest := r;
  if !smallest <> slot then begin
    let s = !smallest in
    let k = h.keys.(slot) and id = h.ids.(slot) in
    place h slot h.ids.(s) h.keys.(s);
    place h s id k;
    sift_down h s
  end

let insert h id key =
  if h.pos.(id) >= 0 then invalid_arg "Dheap.insert: id already present";
  let slot = h.size in
  h.size <- slot + 1;
  place h slot id key;
  sift_up h slot

let remove h id =
  let slot = h.pos.(id) in
  if slot < 0 then invalid_arg "Dheap.remove: id not present";
  h.pos.(id) <- -1;
  h.size <- h.size - 1;
  let last = h.size in
  if slot <> last then begin
    place h slot h.ids.(last) h.keys.(last);
    sift_down h slot;
    sift_up h slot
  end

let pop_min h =
  if h.size = 0 then invalid_arg "Dheap.pop_min: empty heap";
  let id = h.ids.(0) in
  remove h id;
  id
