(* Tests for the deterministic worker pool. *)

module Pool = Pnut_exec.Pool

let test_resolve () =
  Alcotest.(check int) "explicit count" 3 (Pool.resolve ~jobs:3 ());
  Alcotest.(check bool) "auto is at least 1" true (Pool.resolve ~jobs:0 () >= 1);
  Alcotest.(check int) "capped at 64" 64 (Pool.resolve ~jobs:1000 ());
  Alcotest.check_raises "negative rejected"
    (Invalid_argument "Pool: jobs must be >= 0, got -2") (fun () ->
      ignore (Pool.resolve ~jobs:(-2) ()))

let test_init_matches_serial () =
  let f i = (i * i) + 1 in
  let expected = Array.init 100 f in
  List.iter
    (fun jobs ->
      Alcotest.(check (array int))
        (Printf.sprintf "jobs=%d" jobs)
        expected
        (Pool.init ~jobs 100 f))
    [ 1; 2; 4; 7 ]

let test_init_edges () =
  Alcotest.(check (array int)) "empty" [||] (Pool.init ~jobs:4 0 (fun i -> i));
  Alcotest.(check (array int)) "single" [| 0 |]
    (Pool.init ~jobs:4 1 (fun i -> i));
  Alcotest.check_raises "negative size"
    (Invalid_argument "Pool.init: negative size") (fun () ->
      ignore (Pool.init ~jobs:1 (-1) (fun i -> i)))

let test_lowest_index_error () =
  (* several tasks fail; the exception of the lowest-numbered one must
     surface, whatever worker hit it first *)
  List.iter
    (fun jobs ->
      Alcotest.check_raises
        (Printf.sprintf "jobs=%d" jobs)
        (Failure "task 5")
        (fun () ->
          ignore
            (Pool.init ~jobs 32 (fun i ->
                 if i >= 5 && i mod 3 = 2 then
                   failwith (Printf.sprintf "task %d" i);
                 i))))
    [ 1; 2; 4 ]

let test_workers_really_cover_all_tasks () =
  (* a non-trivial fold over the results catches any dropped stripe *)
  let n = 1000 in
  let sum =
    Array.fold_left ( + ) 0 (Pool.init ~jobs:4 n (fun i -> i))
  in
  Alcotest.(check int) "sum 0..999" (n * (n - 1) / 2) sum

let cores () = max 1 (Domain.recommended_domain_count ())

let with_env name value f =
  let old = Sys.getenv_opt name in
  Unix.putenv name value;
  Fun.protect
    ~finally:(fun () ->
      (* the empty string parses as unset on the PNUT_JOBS path *)
      Unix.putenv name (Option.value old ~default:""))
    f

let test_env_jobs_clamped () =
  (* PNUT_JOBS is auto-detection on both resolution paths, so a value
     above the core count must be clamped on both — only an explicit
     ?jobs override may oversubscribe *)
  with_env "PNUT_JOBS" "64" (fun () ->
      let c = cores () in
      Alcotest.(check int) "default (None) clamps the env value"
        (min 64 c) (Pool.resolve ());
      Alcotest.(check int) "auto (Some 0) clamps the env value"
        (min 64 c) (Pool.resolve ~jobs:0 ());
      Alcotest.(check int) "explicit override is honoured" 64
        (Pool.resolve ~jobs:64 ()))

(* Domain ids that ran the tasks of one [jobs]-wide batch.  Every task
   waits (up to 5 s) until a second domain has joined, so a batch always
   reaches a worker when one exists. *)
let batch_domains ~jobs =
  let seen = Atomic.make [] in
  let rec note id =
    let l = Atomic.get seen in
    if not (List.mem id l || Atomic.compare_and_set seen l (id :: l)) then
      note id
  in
  Pool.init ~jobs (2 * jobs) (fun _ ->
      let id = (Domain.self () :> int) in
      note id;
      let t0 = Unix.gettimeofday () in
      while
        List.length (Atomic.get seen) < 2 && Unix.gettimeofday () -. t0 < 5.0
      do
        Domain.cpu_relax ()
      done;
      id)
  |> Array.to_list |> List.sort_uniq compare

let test_fresh_domains () =
  let me = (Domain.self () :> int) in
  let workers ids = List.filter (fun id -> id <> me) ids in
  let w1 = workers (batch_domains ~jobs:3) in
  let w2 = workers (batch_domains ~jobs:3) in
  if w1 = [] || w2 = [] then
    Alcotest.(check bool) "skipped: no worker domain joined" true true
  else
    (* workers are joined before [init] returns and domain ids are never
       reused, so the second call runs on fresh domains *)
    Alcotest.(check bool) "disjoint worker domains across calls" true
      (List.for_all (fun id -> not (List.mem id w1)) w2)

let () =
  Alcotest.run "pool"
    [
      ( "pool",
        [
          Alcotest.test_case "resolve" `Quick test_resolve;
          Alcotest.test_case "init matches serial" `Quick
            test_init_matches_serial;
          Alcotest.test_case "edge cases" `Quick test_init_edges;
          Alcotest.test_case "lowest-index error wins" `Quick
            test_lowest_index_error;
          Alcotest.test_case "full coverage" `Quick
            test_workers_really_cover_all_tasks;
          Alcotest.test_case "PNUT_JOBS clamped to cores" `Quick
            test_env_jobs_clamped;
        ] );
      ( "workers",
        [
          Alcotest.test_case "fresh domains per call" `Quick
            test_fresh_domains;
        ] );
    ]
