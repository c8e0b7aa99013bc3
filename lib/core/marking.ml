type t = int array

let create n =
  if n < 0 then invalid_arg "Marking.create: negative size";
  Array.make n 0

let of_array counts =
  Array.iter
    (fun c -> if c < 0 then invalid_arg "Marking.of_array: negative count")
    counts;
  Array.copy counts

let to_array m = Array.copy m

let size = Array.length

let get m p = m.(p)

let set m p count =
  if count < 0 then invalid_arg "Marking.set: negative count";
  m.(p) <- count

let add m p k =
  let c = m.(p) in
  (* Two large positives wrap negative under native addition, which used
     to surface as a bogus "would hold -N tokens"; test the overflow on
     the operands instead, before any arithmetic. *)
  if k > 0 && c > max_int - k then
    invalid_arg
      (Printf.sprintf
         "Marking.add: place %d token count overflows max_int (%d + %d)" p c k);
  let count = c + k in
  if count < 0 then
    invalid_arg
      (Printf.sprintf "Marking.add: place %d would hold %d tokens" p count);
  m.(p) <- count

let copy = Array.copy

let unsafe_wrap (a : int array) : t = a

(* Monomorphic element loop: the generic [caml_compare] walk costs a C
   call per comparison on the exploration hot paths. *)
let equal (a : t) b =
  a == b
  || (Array.length a = Array.length b
     &&
     let n = Array.length a in
     let rec go i = i >= n || (a.(i) = b.(i) && go (i + 1)) in
     go 0)

let compare (a : t) b = Stdlib.compare a b

(* Fold over every place: [Hashtbl.hash] only samples a prefix of the
   array, which collides badly on large nets during state-space
   exploration. *)
let hash (m : t) =
  let h = ref (Array.length m) in
  Array.iter (fun c -> h := (!h * 31) + c) m;
  !h land max_int

let total m = Array.fold_left ( + ) 0 m

let pp ppf m =
  Format.fprintf ppf "[%a]"
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.pp_print_string ppf " ")
       Format.pp_print_int)
    (Array.to_list m)
