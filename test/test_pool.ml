(* Tests for Etx_util.Pool, the domain pool behind every experiment
   sweep.  The contract: [map] and [run] preserve input order for any
   domain count, cancel promptly and re-raise the lowest-index exception,
   and [map] degrades to a plain sequential map when [domains <= 1]. *)

module Pool = Etx_util.Pool

let test_empty () =
  Alcotest.(check (list int)) "empty" [] (Pool.map ~domains:4 (fun x -> x) [])

let test_singleton () =
  Alcotest.(check (list int)) "singleton" [ 9 ] (Pool.map ~domains:4 (fun x -> x * x) [ 3 ])

let test_order_preserved () =
  let xs = List.init 100 (fun i -> i) in
  let f x = (x * 7919) mod 101 in
  let expected = List.map f xs in
  List.iter
    (fun domains ->
      Alcotest.(check (list int))
        (Printf.sprintf "domains=%d" domains)
        expected
        (Pool.map ~domains f xs))
    [ 1; 2; 3; 4; 8 ]

let test_sequential_fallback () =
  (* domains <= 1 must not spawn: the unsynchronized trace stays safe
     and left-to-right *)
  let trace = ref [] in
  let result =
    Pool.map ~domains:1
      (fun x ->
        trace := x :: !trace;
        x + 1)
      [ 1; 2; 3 ]
  in
  Alcotest.(check (list int)) "result" [ 2; 3; 4 ] result;
  Alcotest.(check (list int)) "left-to-right" [ 3; 2; 1 ] !trace;
  Alcotest.(check (list int)) "domains=0" [ 2; 3; 4 ]
    (Pool.map ~domains:0 (fun x -> x + 1) [ 1; 2; 3 ])

let test_exception_lowest_index () =
  (* indices 2 and 4 both fail; the pool must surface index 2 *)
  List.iter
    (fun domains ->
      match
        Pool.map ~domains
          (fun x -> if x >= 20 then failwith (string_of_int x) else x)
          [ 0; 1; 25; 3; 42; 5 ]
      with
      | _ -> Alcotest.fail "expected an exception"
      | exception Failure payload ->
        Alcotest.(check string) (Printf.sprintf "domains=%d" domains) "25" payload)
    [ 1; 2; 4 ]

let test_default_domains_positive () =
  Alcotest.(check bool) "positive" true (Pool.default_domains () >= 1)

let test_cancellation_prompt () =
  (* index 0 fails immediately; with 10k elements pending, the pool must
     stop handing out work rather than drain the whole list *)
  let started = Atomic.make 0 in
  (match
     Pool.map ~domains:2
       (fun x ->
         ignore (Atomic.fetch_and_add started 1);
         if x = 0 then failwith "boom";
         x)
       (List.init 10_000 (fun i -> i))
   with
  | _ -> Alcotest.fail "expected an exception"
  | exception Failure _ -> ());
  Alcotest.(check bool) "remaining work cancelled" true (Atomic.get started < 10_000)

let outcome_testable =
  let pp ppf = function
    | Pool.Completed x -> Format.fprintf ppf "Completed %d" x
    | Pool.Crashed e -> Format.fprintf ppf "Crashed(%s)" (Printexc.to_string e.Pool.exn)
  in
  Alcotest.testable pp ( = )

let test_map_result_all_complete () =
  List.iter
    (fun domains ->
      let xs = List.init 50 (fun i -> i) in
      Alcotest.(check (list outcome_testable))
        (Printf.sprintf "domains=%d" domains)
        (List.map (fun x -> Pool.Completed (x * 3)) xs)
        (Pool.map ~domains (Pool.attempt ~retries:0 (fun x -> x * 3)) xs))
    [ 1; 4 ]

let test_map_result_survives_crashes () =
  List.iter
    (fun domains ->
      let outcomes =
        Pool.map ~domains
          (Pool.attempt ~retries:0 (fun x ->
               if x mod 3 = 0 then failwith (string_of_int x) else x * 10))
          [ 0; 1; 2; 3; 4 ]
      in
      let describe = function
        | Pool.Completed v -> Printf.sprintf "ok:%d" v
        | Pool.Crashed { exn = Failure payload; attempts; _ } ->
          Printf.sprintf "crash:%s/%d" payload attempts
        | Pool.Crashed _ -> "crash:?"
      in
      Alcotest.(check (list string))
        (Printf.sprintf "domains=%d" domains)
        [ "crash:0/1"; "ok:10"; "ok:20"; "crash:3/1"; "ok:40" ]
        (List.map describe outcomes))
    [ 1; 2; 4 ]

let test_map_result_retries () =
  (* each element succeeds only on its third attempt *)
  let table = Array.make 5 0 in
  let flaky x =
    table.(x) <- table.(x) + 1;
    if table.(x) < 3 then failwith "flaky";
    x
  in
  Array.fill table 0 5 0;
  let outcomes = Pool.map ~domains:1 (Pool.attempt ~retries:2 flaky) [ 0; 1; 2; 3; 4 ] in
  Alcotest.(check (list outcome_testable)) "all recovered"
    (List.init 5 (fun i -> Pool.Completed i))
    outcomes;
  Alcotest.(check (array int)) "three attempts each" [| 3; 3; 3; 3; 3 |] table;
  (* one retry is not enough: crashes carry the full attempt count *)
  Array.fill table 0 5 0;
  (match Pool.map ~domains:1 (Pool.attempt ~retries:1 flaky) [ 0 ] with
  | [ Pool.Crashed { attempts; exn = Failure payload; backtrace } ] ->
    Alcotest.(check string) "payload" "flaky" payload;
    Alcotest.(check int) "attempts" 2 attempts;
    ignore (Printexc.raw_backtrace_to_string backtrace)
  | _ -> Alcotest.fail "expected a crash with attempts=2");
  match Pool.map (Pool.attempt ~retries:(-1) (fun x -> x)) [ 1 ] with
  | _ -> Alcotest.fail "negative retries accepted"
  | exception Invalid_argument _ -> ()

(* - persistent pool (create / run / shutdown) - *)

let test_run_matches_map () =
  List.iter
    (fun domains ->
      let pool = Pool.create ~domains () in
      Fun.protect
        ~finally:(fun () -> Pool.shutdown pool)
        (fun () ->
          let xs = List.init 40 (fun i -> i) in
          let f x = (x * 17) + 3 in
          Alcotest.(check (list int))
            (Printf.sprintf "domains=%d" domains)
            (List.map f xs) (Pool.run pool f xs);
          Alcotest.(check (list int)) "empty" [] (Pool.run pool f []);
          Alcotest.(check (list int)) "singleton" [ f 5 ] (Pool.run pool f [ 5 ])))
    [ 1; 2; 4 ]

let test_run_reusable () =
  (* one pool, many runs: the whole point of the persistent variant *)
  let pool = Pool.create ~domains:2 () in
  Fun.protect
    ~finally:(fun () -> Pool.shutdown pool)
    (fun () ->
      for round = 1 to 5 do
        let xs = List.init 20 (fun i -> i * round) in
        Alcotest.(check (list int))
          (Printf.sprintf "round %d" round)
          (List.map succ xs) (Pool.run pool succ xs)
      done)

let test_run_exception_lowest_index () =
  let pool = Pool.create ~domains:3 () in
  Fun.protect
    ~finally:(fun () -> Pool.shutdown pool)
    (fun () ->
      match
        Pool.run pool
          (fun x -> if x >= 20 then failwith (string_of_int x) else x)
          [ 0; 1; 25; 3; 42; 5 ]
      with
      | _ -> Alcotest.fail "expected an exception"
      | exception Failure payload -> Alcotest.(check string) "lowest index" "25" payload)

let test_run_cancellation_prompt () =
  (* the persistent pool keeps map's promise: once index 0 raises, the
     queued remainder of 10k elements never starts.  One worker claims
     the elements one at a time, so exactly index 0 has started when it
     raises; with two the count would depend on scheduling. *)
  let run_failing pool started =
    Pool.run pool
      (fun x ->
        ignore (Atomic.fetch_and_add started 1);
        if x = 0 then failwith "boom";
        x)
      (List.init 10_000 (fun i -> i))
  in
  Pool.with_pool ~domains:1 (fun pool ->
      let started = Atomic.make 0 in
      (match run_failing pool started with
      | _ -> Alcotest.fail "expected an exception"
      | exception Failure payload -> Alcotest.(check string) "index 0" "boom" payload);
      Alcotest.(check int) "only index 0 started" 1 (Atomic.get started));
  Pool.with_pool ~domains:2 (fun pool ->
      (match run_failing pool (Atomic.make 0) with
      | _ -> Alcotest.fail "expected an exception"
      | exception Failure payload -> Alcotest.(check string) "index 0" "boom" payload);
      (* a cancelled run leaves the pool fully usable *)
      Alcotest.(check (list int)) "next run" [ 2; 3 ] (Pool.run pool succ [ 1; 2 ]))

let test_shutdown_idempotent () =
  let pool = Pool.create ~domains:2 () in
  Pool.shutdown pool;
  Pool.shutdown pool;
  Pool.shutdown pool

let test_run_after_shutdown () =
  let pool = Pool.create ~domains:2 () in
  Pool.shutdown pool;
  match Pool.run pool succ [ 1; 2 ] with
  | _ -> Alcotest.fail "run accepted after shutdown"
  | exception Invalid_argument _ -> ()

let test_with_pool () =
  let escaped = ref None in
  let result =
    Pool.with_pool ~domains:2 (fun pool ->
        escaped := Some pool;
        Pool.run pool (fun x -> x * x) [ 1; 2; 3 ])
  in
  Alcotest.(check (list int)) "result" [ 1; 4; 9 ] result;
  (* the pool is shut down on the way out, even though it escaped *)
  (match !escaped with
  | None -> Alcotest.fail "callback not called"
  | Some pool -> (
    match Pool.run pool succ [ 1 ] with
    | _ -> Alcotest.fail "pool still open after with_pool"
    | exception Invalid_argument _ -> ()));
  (* shutdown also happens when the callback raises *)
  (match
     Pool.with_pool ~domains:2 (fun pool ->
         escaped := Some pool;
         failwith "boom")
   with
  | () -> Alcotest.fail "expected an exception"
  | exception Failure _ -> ());
  match !escaped with
  | Some pool -> (
    match Pool.run pool succ [ 1 ] with
    | _ -> Alcotest.fail "pool leaked after raising callback"
    | exception Invalid_argument _ -> ())
  | None -> Alcotest.fail "callback not called"

let test_size () =
  let pool = Pool.create ~domains:3 () in
  Fun.protect
    ~finally:(fun () -> Pool.shutdown pool)
    (fun () -> Alcotest.(check int) "size" 3 (Pool.size pool))

let prop_map_result_matches_map =
  QCheck.Test.make ~count:100
    ~name:"pool: map_result = Completed of List.map when nothing raises"
    QCheck.(pair (small_list small_int) (int_range 1 6))
    (fun (xs, domains) ->
      let f x = (x * 13) - 5 in
      Pool.map ~domains (Pool.attempt ~retries:0 f) xs
      = List.map (fun x -> Pool.Completed (f x)) xs)

let prop_matches_list_map =
  QCheck.Test.make ~count:100 ~name:"pool: map = List.map for any domain count"
    QCheck.(pair (small_list small_int) (int_range 1 6))
    (fun (xs, domains) ->
      let f x = (x * 31) + 7 in
      Pool.map ~domains f xs = List.map f xs)

let suite =
  [
    ( "util/pool",
      [
        Alcotest.test_case "empty list" `Quick test_empty;
        Alcotest.test_case "singleton" `Quick test_singleton;
        Alcotest.test_case "order preserved" `Quick test_order_preserved;
        Alcotest.test_case "sequential fallback" `Quick test_sequential_fallback;
        Alcotest.test_case "lowest-index exception" `Quick test_exception_lowest_index;
        Alcotest.test_case "default domains" `Quick test_default_domains_positive;
        Alcotest.test_case "prompt cancellation" `Quick test_cancellation_prompt;
        Alcotest.test_case "map_result all complete" `Quick test_map_result_all_complete;
        Alcotest.test_case "map_result survives crashes" `Quick
          test_map_result_survives_crashes;
        Alcotest.test_case "map_result retries" `Quick test_map_result_retries;
        Alcotest.test_case "persistent run = map" `Quick test_run_matches_map;
        Alcotest.test_case "persistent run reusable" `Quick test_run_reusable;
        Alcotest.test_case "persistent run exceptions" `Quick
          test_run_exception_lowest_index;
        Alcotest.test_case "persistent run cancels promptly" `Quick
          test_run_cancellation_prompt;
        Alcotest.test_case "shutdown idempotent" `Quick test_shutdown_idempotent;
        Alcotest.test_case "run after shutdown" `Quick test_run_after_shutdown;
        Alcotest.test_case "with_pool lifecycle" `Quick test_with_pool;
        Alcotest.test_case "size" `Quick test_size;
        QCheck_alcotest.to_alcotest prop_matches_list_map;
        QCheck_alcotest.to_alcotest prop_map_result_matches_map;
      ] );
  ]
