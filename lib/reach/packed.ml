module Net = Pnut_core.Net
module Marking = Pnut_core.Marking
module Env = Pnut_core.Env
module Incidence = Pnut_core.Incidence

(* Bit-packed state encoding: every bounded place becomes a fixed-width
   bitfield in a small run of 63-bit words, sized from
   {!Incidence.place_bounds} (declared capacities tightened by
   P-invariants).  Fields never straddle words, so encode/decode is a
   shift and a mask per place.  Everything that is not a token count —
   the environment and, for completeness, a clock rendering — is
   interned once in a side table and referenced by a small id field;
   variable-free nets get no id field at all and pay zero env bytes per
   state.

   Bounds are advisory: a declared capacity may lie, and unbounded
   places start at a guessed width.  Overflowing a field raises
   {!Field_overflow}; the store catches it, widens the layout and
   re-encodes its arena, so packing is never unsound. *)

type layout = {
  l_word : int array;   (* word holding each place's field *)
  l_shift : int array;
  l_mask : int array;   (* (1 lsl width) - 1 *)
  l_extra : (int * int * int) option;  (* (word, shift, mask) of the id field *)
  l_words : int;        (* words per state, >= 1 *)
}

exception Field_overflow of { field : int; value : int }

let places lay = Array.length lay.l_word
let words lay = lay.l_words

(* Width in bits to hold every value in 0..v; capped by callers at 62
   (the widest field a 63-bit word can carry with room to spare). *)
let bits_needed v =
  let rec go w = if v lsr w = 0 then w else go (w + 1) in
  max 1 (go 0)

let max_width = 62

let make_layout widths extra_width =
  let np = Array.length widths in
  let word = Array.make np 0 in
  let shift = Array.make np 0 in
  let mask = Array.make np 0 in
  let w = ref 0 and bit = ref 0 in
  let alloc width =
    if width > max_width then
      invalid_arg "Packed: field width exceeds 62 bits";
    if !bit + width > 63 then begin
      incr w;
      bit := 0
    end;
    let slot = (!w, !bit) in
    bit := !bit + width;
    slot
  in
  for p = 0 to np - 1 do
    let wd, sh = alloc widths.(p) in
    word.(p) <- wd;
    shift.(p) <- sh;
    mask.(p) <- (1 lsl widths.(p)) - 1
  done;
  let extra =
    match extra_width with
    | None -> None
    | Some ew ->
      let wd, sh = alloc ew in
      Some (wd, sh, (1 lsl ew) - 1)
  in
  { l_word = word; l_shift = shift; l_mask = mask; l_extra = extra;
    l_words = (if np = 0 && extra = None then 1 else !w + 1) }

(* The side table keys on (hash, clocks, env), the hash computed once
   per [intern_extra]; an action-free edge hands back the stored env
   itself, so [==] settles the common hit without a binding walk. *)
module Extra_tbl = Hashtbl.Make (struct
  type t = int * string * Env.t

  let equal (h, c, e) (h', c', e') =
    h = h' && String.equal c c' && (e == e' || Env.equal e e')

  let hash (h, _, _) = h
end)

type t = {
  mutable lay : layout;
  extra_index : int Extra_tbl.t;  (* (env, clocks) -> id *)
  mutable extra_envs : Env.t array;
  mutable n_extra : int;
}

let layout t = t.lay

let create ?bounds ?with_extra net =
  let np = Net.num_places net in
  let bounds =
    match bounds with Some b -> b | None -> Incidence.place_bounds net
  in
  if Array.length bounds <> np then
    invalid_arg "Packed.create: bounds length does not match the net";
  let m0 = Marking.to_array (Net.initial_marking net) in
  let widths =
    Array.init np (fun p ->
        match bounds.(p) with
        | Some b -> min max_width (bits_needed (max b m0.(p)))
        | None ->
          (* no bound known: start at the initial count (at least 4
             bits) and rely on the checked widen path *)
          min max_width (max (bits_needed m0.(p)) 4))
  in
  let with_extra =
    match with_extra with
    | Some b -> b
    | None -> Net.variables net <> [] || Net.tables net <> []
  in
  let extra_width = if with_extra then Some 10 else None in
  {
    lay = make_layout widths extra_width;
    extra_index = Extra_tbl.create 16;
    extra_envs = [||];
    n_extra = 0;
  }

let bounds_known net =
  Array.for_all Option.is_some (Incidence.place_bounds net)

(* -- side table -- *)

let intern_extra t ?(clocks = "") env =
  let k = (Env.hash env lxor Hashtbl.hash clocks, clocks, env) in
  match Extra_tbl.find_opt t.extra_index k with
  | Some id -> id
  | None ->
    let id = t.n_extra in
    if id >= Array.length t.extra_envs then begin
      let envs = Array.make (max 16 (2 * id)) env in
      Array.blit t.extra_envs 0 envs 0 id;
      t.extra_envs <- envs
    end;
    t.extra_envs.(id) <- env;
    Extra_tbl.replace t.extra_index k id;
    t.n_extra <- id + 1;
    id

let extra_env t id = t.extra_envs.(id)
let extra_bindings t id = Env.bindings (extra_env t id)

(* -- codec over an explicit layout (the store re-encodes with the old
      layout during a widen, so these do not read [t.lay]) -- *)

let encode lay dst ~pos marking ~extra =
  let np = Array.length lay.l_word in
  for i = 0 to lay.l_words - 1 do
    dst.(pos + i) <- 0
  done;
  for p = 0 to np - 1 do
    let v = marking.(p) in
    if v < 0 || v > lay.l_mask.(p) then
      raise (Field_overflow { field = p; value = v });
    dst.(pos + lay.l_word.(p)) <-
      dst.(pos + lay.l_word.(p)) lor (v lsl lay.l_shift.(p))
  done;
  match lay.l_extra with
  | None -> if extra <> 0 then raise (Field_overflow { field = -1; value = extra })
  | Some (w, s, m) ->
    if extra > m then raise (Field_overflow { field = -1; value = extra });
    dst.(pos + w) <- dst.(pos + w) lor (extra lsl s)

let decode_into lay src ~pos dst =
  let np = Array.length lay.l_word in
  for p = 0 to np - 1 do
    dst.(p) <- (src.(pos + lay.l_word.(p)) lsr lay.l_shift.(p)) land lay.l_mask.(p)
  done

let decode lay src ~pos =
  let dst = Array.make (Array.length lay.l_word) 0 in
  decode_into lay src ~pos dst;
  dst

let extra_of lay src ~pos =
  match lay.l_extra with
  | None -> 0
  | Some (w, s, m) -> (src.(pos + w) lsr s) land m

(* FNV-1a over the state's words with a final avalanche; equal packed
   states hash equal by construction.  The store keeps no whole hash:
   an index slot tags its state with the hash bits above the slot mask,
   and the index recomputes hashes from the arena when it grows. *)
let fnv_prime = 0x100000001b3

let hash lay src ~pos =
  let h = ref 0x3ade68b1 in
  for i = pos to pos + lay.l_words - 1 do
    h := (!h lxor src.(i)) * fnv_prime
  done;
  let h = !h lxor (!h lsr 29) in
  (h * fnv_prime) land max_int

let equal lay a ~pos b pos2 =
  let i = ref 0 in
  while !i < lay.l_words && a.(pos + !i) = b.(pos2 + !i) do
    incr i
  done;
  !i = lay.l_words

(* -- word deltas: an action-free firing changes a packed state by a
      constant amount per word (fields are disjoint, arithmetic wraps
      modulo the word), valid whenever every changed field stays inside
      its width -- *)

let word_delta lay places weights =
  let d = Array.make lay.l_words 0 in
  for k = 0 to Array.length places - 1 do
    let p = places.(k) in
    let w = lay.l_word.(p) in
    d.(w) <- d.(w) + (weights.(k) lsl lay.l_shift.(p))
  done;
  d

let delta_fits lay marking places weights =
  let ok = ref true in
  let k = ref 0 in
  while !ok && !k < Array.length places do
    let p = places.(!k) in
    let v = marking.(p) + weights.(!k) in
    if v < 0 || v > lay.l_mask.(p) then ok := false;
    incr k
  done;
  !ok

(* Widen the overflowing field to fit [value] and rebuild the layout;
   returns the previous layout so the caller can still decode states
   encoded under it. *)
let widen t ~field ~value =
  let old = t.lay in
  let np = Array.length old.l_mask in
  let widths = Array.init np (fun p -> bits_needed old.l_mask.(p)) in
  let extra_width =
    match old.l_extra with
    | Some (_, _, m) -> Some (bits_needed m)
    | None -> None
  in
  let extra_width =
    if field < 0 then
      Some
        (min max_width
           (max (bits_needed value)
              (match extra_width with Some w -> w + 1 | None -> 10)))
    else extra_width
  in
  if field >= 0 then begin
    let needed = bits_needed value in
    if needed > max_width then
      invalid_arg "Packed.widen: token count exceeds 62 bits";
    widths.(field) <- max (widths.(field) + 1) needed;
    widths.(field) <- min max_width widths.(field)
  end;
  t.lay <- make_layout widths extra_width;
  old
