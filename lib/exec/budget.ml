type token = bool Atomic.t

let token () = Atomic.make false
let cancel t = Atomic.set t true
let cancelled t = Atomic.get t

type t = {
  wall_s : float option;
  heap_words : int option;
  cancel : token option;
}

let none = { wall_s = None; heap_words = None; cancel = None }

let words_of_mb mb = mb * 1024 * 1024 / (Sys.word_size / 8)

let positive what zero = function
  | Some v when v <= zero ->
    invalid_arg (Printf.sprintf "Budget: %s must be positive" what)
  | o -> o

let make ?wall_s ?heap_mb ?cancel () =
  {
    wall_s = positive "wall_s" 0.0 wall_s;
    heap_words = positive "heap_words" 0 (Option.map words_of_mb heap_mb);
    cancel;
  }

let is_none b = b.wall_s = None && b.heap_words = None && b.cancel = None
