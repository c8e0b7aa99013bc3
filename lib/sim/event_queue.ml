type t = {
  mutable time : float array;
  mutable seq : int array;
  mutable transition : int array;
  mutable firing : int array;
  mutable size : int;
  mutable next_seq : int;
}

let create () =
  { time = [||]; seq = [||]; transition = [||]; firing = [||]; size = 0;
    next_seq = 0 }

let is_empty q = q.size = 0

let min_time q = if q.size = 0 then infinity else q.time.(0)

let top_transition q = q.transition.(0)

let top_firing q = q.firing.(0)

let before q i j =
  q.time.(i) < q.time.(j)
  || (Float.equal q.time.(i) q.time.(j) && q.seq.(i) < q.seq.(j))

let move q ~src ~dst =
  q.time.(dst) <- q.time.(src);
  q.seq.(dst) <- q.seq.(src);
  q.transition.(dst) <- q.transition.(src);
  q.firing.(dst) <- q.firing.(src)

let swap q i j =
  let t = q.time.(i) and s = q.seq.(i) in
  let tr = q.transition.(i) and f = q.firing.(i) in
  move q ~src:j ~dst:i;
  q.time.(j) <- t;
  q.seq.(j) <- s;
  q.transition.(j) <- tr;
  q.firing.(j) <- f

let rec sift_up q i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    if before q i parent then begin
      swap q i parent;
      sift_up q parent
    end
  end

let rec sift_down q i =
  let l = (2 * i) + 1 in
  let r = l + 1 in
  let smallest = if l < q.size && before q l i then l else i in
  let smallest = if r < q.size && before q r smallest then r else smallest in
  if smallest <> i then begin
    swap q i smallest;
    sift_down q smallest
  end

let grow q =
  let capacity = max 16 (2 * q.size) in
  let extend a fill =
    let b = Array.make capacity fill in
    Array.blit a 0 b 0 q.size;
    b
  in
  q.time <- extend q.time 0.0;
  q.seq <- extend q.seq 0;
  q.transition <- extend q.transition 0;
  q.firing <- extend q.firing 0

let push q time ~transition ~firing =
  if q.size = Array.length q.time then grow q;
  let i = q.size in
  q.time.(i) <- time;
  q.seq.(i) <- q.next_seq;
  q.transition.(i) <- transition;
  q.firing.(i) <- firing;
  q.next_seq <- q.next_seq + 1;
  q.size <- i + 1;
  sift_up q i

let drop q =
  if q.size = 0 then invalid_arg "Event_queue.drop: empty queue";
  q.size <- q.size - 1;
  if q.size > 0 then begin
    move q ~src:q.size ~dst:0;
    sift_down q 0
  end

let to_sorted_list q =
  let slots = Array.init q.size Fun.id in
  Array.sort (fun i j -> if before q i j then -1 else 1) slots;
  Array.to_list
    (Array.map (fun i -> (q.time.(i), q.transition.(i), q.firing.(i))) slots)
