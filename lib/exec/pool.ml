let max_workers = 64

let env_jobs () =
  match Sys.getenv_opt "PNUT_JOBS" with
  | None -> None
  | Some s -> (
    match int_of_string_opt (String.trim s) with
    | Some n when n >= 1 -> Some n
    | Some _ | None -> None)

let cores () = max 1 (Domain.recommended_domain_count ())

(* [PNUT_JOBS] is auto-detection, so it is clamped to the machine on
   both paths ([Some 0] and the [None] default); only an explicit count
   may oversubscribe. *)
let resolve ?jobs () =
  let env_or default =
    match env_jobs () with Some n -> min n (cores ()) | None -> default
  in
  let n =
    match jobs with
    | Some n when n >= 1 -> n
    | Some 0 -> env_or (cores ())
    | Some n -> invalid_arg (Printf.sprintf "Pool: jobs must be >= 0, got %d" n)
    | None -> env_or 1
  in
  min n max_workers

(* Every participant claims task indices off one cursor, and task [i]'s
   outcome lands in slot [i] whoever computes it, so the result does
   not depend on scheduling.  A worker that fails to spawn is simply
   missing: the caller keeps claiming until the cursor runs out.  More
   workers than cores is worth a warning: domains are OS threads, and
   contention makes runs slower, not faster. *)
let init ?jobs n f =
  if n < 0 then invalid_arg "Pool.init: negative size";
  let jobs = min (resolve ?jobs ()) (max 1 n) and c = cores () in
  if jobs > c then
    Printf.eprintf
      "pnut: warning: %d jobs requested but only %d core%s available; extra \
       workers will contend for CPU\n%!"
      jobs c (if c = 1 then "" else "s");
  let slots = Array.make n None and next = Atomic.make 0 in
  let rec work () =
    let i = Atomic.fetch_and_add next 1 in
    if i < n then begin
      slots.(i) <-
        Some
          (match f i with
          | v -> Ok v
          | exception e -> Error (e, Printexc.get_raw_backtrace ()));
      work ()
    end
  in
  let spawn _ = try Some (Domain.spawn work) with _ -> None in
  let workers = List.init (jobs - 1) spawn in
  work ();
  List.iter (Option.iter Domain.join) workers;
  (* read in index order: the lowest-numbered failure wins *)
  Array.map
    (function
      | Some (Ok v) -> v
      | Some (Error (e, bt)) -> Printexc.raise_with_backtrace e bt
      | None -> assert false)
    slots

let quiesce () = ()
