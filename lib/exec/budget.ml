type token = bool Atomic.t

let token () = Atomic.make false
let cancel t = Atomic.set t true
let cancelled t = Atomic.get t

type t = {
  wall_s : float option;
  heap_words : int option;
  max_states : int option;
  max_events : int option;
  cancel : token option;
}

let none =
  { wall_s = None; heap_words = None; max_states = None; max_events = None;
    cancel = None }

let words_of_mb mb = mb * 1024 * 1024 / (Sys.word_size / 8)

let positive what = function
  | Some v when v <= 0 ->
    invalid_arg (Printf.sprintf "Budget: %s must be positive" what)
  | o -> o

let positive_f what = function
  | Some v when v <= 0.0 ->
    invalid_arg (Printf.sprintf "Budget: %s must be positive" what)
  | o -> o

let make ?wall_s ?heap_mb ?heap_words ?max_states ?max_events ?cancel () =
  let heap_words =
    match heap_mb with
    | Some mb -> Some (words_of_mb mb)
    | None -> heap_words
  in
  {
    wall_s = positive_f "wall_s" wall_s;
    heap_words = positive "heap_words" heap_words;
    max_states = positive "max_states" max_states;
    max_events = positive "max_events" max_events;
    cancel;
  }

let is_none b =
  b.wall_s = None && b.heap_words = None && b.max_states = None
  && b.max_events = None && b.cancel = None
