let max_workers = 64

let env_jobs () =
  match Sys.getenv_opt "PNUT_JOBS" with
  | None -> None
  | Some s -> (
    match int_of_string_opt (String.trim s) with
    | Some n when n >= 1 -> Some n
    | Some _ | None -> None)

let cores () = max 1 (Domain.recommended_domain_count ())

(* Auto-detection never oversubscribes: [PNUT_JOBS] is clamped to the
   machine whether it arrives through [auto] ([jobs = Some 0]) or
   through the [None] library default — the environment variable is
   auto-detection, not an explicit override.  Only an explicit [?jobs]
   count above the core count is honoured (tests deliberately run 4
   workers on 1 core to exercise scheduling), and oversubscription is
   worth a warning — domains are real OS threads and contention makes
   runs slower, not faster. *)
let auto () =
  match env_jobs () with Some n -> min n (cores ()) | None -> cores ()

let warning_printer = ref (fun msg -> Printf.eprintf "%s\n%!" msg)
let set_warning_printer f = warning_printer := f

(* The oversubscription latch is per-resolved-count, not a process-wide
   one-shot: with a persistent pool a process can first resolve 4
   workers and later 8, and the larger request deserves its own
   warning.  The latch keeps the largest count already warned about, so
   repeating a count (or shrinking) stays quiet while growing warns
   again. *)
let warned_up_to = Atomic.make 0

let reset_oversubscription_latch () = Atomic.set warned_up_to 0

let warn_if_oversubscribed n =
  let c = cores () in
  if n > c then begin
    let rec latch () =
      let prev = Atomic.get warned_up_to in
      if n <= prev then false
      else if Atomic.compare_and_set warned_up_to prev n then true
      else latch ()
    in
    if latch () then
      !warning_printer
        (Printf.sprintf
           "pnut: warning: %d jobs requested but only %d core%s available; \
            extra workers will contend for CPU"
           n c
           (if c = 1 then "" else "s"))
  end

let resolve ?jobs () =
  let n =
    match jobs with
    | Some n when n >= 1 -> n
    | Some 0 -> auto ()
    | Some n -> invalid_arg (Printf.sprintf "Pool: jobs must be >= 0, got %d" n)
    | None -> ( match env_jobs () with Some n -> min n (cores ()) | None -> 1)
  in
  let n = min n max_workers in
  warn_if_oversubscribed n;
  n

(* -- the persistent pool --

   Worker domains are spawned once per process, lazily, and parked on a
   condition variable between batches.  A batch's tasks [0..n-1] are
   claimed in chunks off a shared atomic cursor by up to [b_limit]
   participants (the calling domain plus however many parked workers
   wake in time) — dynamic load balance, still deterministic because
   task [i]'s result lands in slot [i] whoever computes it.

   [b_attempt] never raises (callers wrap task bodies), so a worker's
   loop is total and the pool never loses a domain.  Completion is a
   per-batch done-counter: the participant finishing the last task
   broadcasts [idle] and the caller, waiting under the same mutex,
   wakes.  Atomic increments publish the slot writes (the OCaml memory
   model orders plain writes before a subsequent atomic that another
   domain reads). *)

type batch = {
  b_n : int;
  b_chunk : int;
  b_limit : int;  (* max participants, caller included *)
  b_attempt : int -> unit;  (* must not raise *)
  b_next : int Atomic.t;
  b_done : int Atomic.t;
  mutable b_joined : int;  (* under [mutex] *)
}

type pool = {
  mutex : Mutex.t;
  work : Condition.t;
  idle : Condition.t;
  mutable batch : batch option;
  mutable generation : int;
  mutable size : int;  (* persistent workers spawned so far *)
  mutable domains : unit Domain.t list;  (* handles, for [quiesce] *)
  mutable quit : bool;  (* workers retire on wake; set by [quiesce] *)
}

let pool =
  {
    mutex = Mutex.create ();
    work = Condition.create ();
    idle = Condition.create ();
    batch = None;
    generation = 0;
    size = 0;
    domains = [];
    quit = false;
  }

(* One batch in flight at a time; a nested or concurrent [init] (a task
   that itself fans out, or a second embedder domain) falls back to
   inline serial execution instead of corrupting the shared batch. *)
let busy = Atomic.make false

let signal_done () =
  Mutex.lock pool.mutex;
  Condition.broadcast pool.idle;
  Mutex.unlock pool.mutex

let finish_task (b : batch) =
  if Atomic.fetch_and_add b.b_done 1 = b.b_n - 1 then signal_done ()

let run_chunks (b : batch) =
  let continue_ = ref true in
  while !continue_ do
    let start = Atomic.fetch_and_add b.b_next b.b_chunk in
    if start >= b.b_n then continue_ := false
    else
      for i = start to min b.b_n (start + b.b_chunk) - 1 do
        b.b_attempt i;
        finish_task b
      done
  done

(* A worker parks between batches and joins one while participant slots
   remain. *)
let worker_loop () =
  Mutex.lock pool.mutex;
  (* A batch may have been published between this worker's spawn and its
     first lock of the mutex; starting from a sentinel generation makes
     the worker examine the in-flight batch immediately instead of
     parking until the next one. *)
  let my_gen = ref (-1) in
  let running = ref true in
  while !running do
    while pool.generation = !my_gen && not pool.quit do
      Condition.wait pool.work pool.mutex
    done;
    if pool.quit then running := false
    else begin
      my_gen := pool.generation;
      match pool.batch with
      | Some b when b.b_joined < b.b_limit ->
        b.b_joined <- b.b_joined + 1;
        Mutex.unlock pool.mutex;
        run_chunks b;
        Mutex.lock pool.mutex
      | Some _ | None -> ()
    end
  done;
  Mutex.unlock pool.mutex

(* Spawn persistent workers until [k] exist (or spawning fails — the
   pool then simply runs with fewer); returns the current size. *)
let ensure_workers k =
  let k = min k (max_workers - 1) in
  Mutex.lock pool.mutex;
  (try
     while (not pool.quit) && pool.size < k do
       let d = Domain.spawn worker_loop in
       pool.domains <- d :: pool.domains;
       pool.size <- pool.size + 1
     done
   with _ -> ());
  let n = pool.size in
  Mutex.unlock pool.mutex;
  n

(* Publish a batch, participate from the calling domain, then wait for
   the done-counter under the mutex.  The caller re-checks the counter
   before every wait, so a completion signalled before it parks is
   never missed. *)
let run_batch b =
  Mutex.lock pool.mutex;
  pool.batch <- Some b;
  pool.generation <- pool.generation + 1;
  Condition.broadcast pool.work;
  Mutex.unlock pool.mutex;
  run_chunks b;
  Mutex.lock pool.mutex;
  while Atomic.get b.b_done < b.b_n do
    Condition.wait pool.idle pool.mutex
  done;
  pool.batch <- None;
  Mutex.unlock pool.mutex

(* Chunk size: small enough for dynamic balance across uneven tasks,
   large enough to amortize the shared-cursor fetch-and-add. *)
let chunk_for workers n = max 1 (min 32 (n / (workers * 8)))

let init_outcomes ~jobs n f =
  let slots = Array.make n None in
  let attempt i =
    match f i with
    | v -> slots.(i) <- Some (Ok v)
    | exception e ->
      slots.(i) <- Some (Error (e, Printexc.get_raw_backtrace ()))
  in
  let inline () =
    for i = 0 to n - 1 do
      if slots.(i) = None then attempt i
    done
  in
  (if jobs > 1 && n >= 2 then begin
     let workers = min jobs (1 + ensure_workers (jobs - 1)) in
     if workers > 1 && not (Atomic.exchange busy true) then
       Fun.protect
         ~finally:(fun () -> Atomic.set busy false)
         (fun () ->
           run_batch
             {
               b_n = n;
               b_chunk = chunk_for workers n;
               b_limit = workers;
               b_attempt = attempt;
               b_next = Atomic.make 0;
               b_done = Atomic.make 0;
               b_joined = 1;
             })
   end);
  (* Serial fallback doubles as a safety net: any slot not filled by the
     parallel batch (pool busy, no workers, or nothing ran) is computed
     inline, so the result is complete and deterministic regardless. *)
  inline ();
  Array.map
    (function Some o -> o | None -> assert false (* filled above *))
    slots

let init ?jobs n f =
  if n < 0 then invalid_arg "Pool.init: negative size";
  let jobs = min (resolve ?jobs ()) (max 1 n) in
  (* slots are read in index order, so the lowest-numbered failure
     wins, re-raised with its original backtrace *)
  Array.map
    (function
      | Ok v -> v
      | Error (exn, backtrace) -> Printexc.raise_with_backtrace exn backtrace)
    (init_outcomes ~jobs n f)

(* Retiring the pool matters on OCaml 5 because *every* live domain
   participates in every stop-the-world minor collection: a process
   that finished its parallel phase and entered a long serial,
   allocation-heavy phase pays a cross-domain synchronization per
   minor GC for workers that are doing nothing — measured at ~2x on
   serial simulation throughput on a single-core container.  The next
   parallel call simply respawns the workers. *)
let quiesce () =
  if not (Atomic.exchange busy true) then
    Fun.protect
      ~finally:(fun () -> Atomic.set busy false)
      (fun () ->
        Mutex.lock pool.mutex;
        let ds = pool.domains in
        pool.domains <- [];
        pool.size <- 0;
        pool.quit <- true;
        Condition.broadcast pool.work;
        Mutex.unlock pool.mutex;
        List.iter Domain.join ds;
        Mutex.lock pool.mutex;
        pool.quit <- false;
        Mutex.unlock pool.mutex)
