(* Tests for lib/service: the LRU result cache, request parsing, and the
   server's batch semantics — admission control, priority ordering,
   deduplication, and bit-identical cached replays. *)

module Json = Etx_util.Json
module Cache = Etx_service.Cache
module Request = Etx_service.Request
module Server = Etx_service.Server
module Handlers = Etx_service.Handlers

(* - cache - *)

let test_cache_basics () =
  let c = Cache.create ~capacity:4 in
  Alcotest.(check (option int)) "empty miss" None (Cache.find c "a");
  Cache.add c "a" 1;
  Alcotest.(check (option int)) "hit" (Some 1) (Cache.find c "a");
  Cache.add c "a" 2;
  Alcotest.(check (option int)) "overwrite" (Some 2) (Cache.find c "a");
  Alcotest.(check int) "length" 1 (Cache.length c);
  Alcotest.(check int) "hits" 2 (Cache.hits c);
  Alcotest.(check int) "misses" 1 (Cache.misses c)

let test_cache_lru_eviction () =
  let c = Cache.create ~capacity:2 in
  Cache.add c "a" 1;
  Cache.add c "b" 2;
  (* touch a so b is the least recently used *)
  ignore (Cache.find c "a");
  Cache.add c "c" 3;
  Alcotest.(check int) "bounded" 2 (Cache.length c);
  Alcotest.(check int) "one eviction" 1 (Cache.evictions c);
  Alcotest.(check (option int)) "lru evicted" None (Cache.find c "b");
  Alcotest.(check (option int)) "recent kept" (Some 1) (Cache.find c "a");
  Alcotest.(check (option int)) "new kept" (Some 3) (Cache.find c "c")

let test_cache_disabled_and_invalid () =
  let c = Cache.create ~capacity:0 in
  Cache.add c "a" 1;
  Alcotest.(check (option int)) "storage disabled" None (Cache.find c "a");
  Alcotest.(check int) "nothing stored" 0 (Cache.length c);
  match Cache.create ~capacity:(-1) with
  | _ -> Alcotest.fail "negative capacity accepted"
  | exception Invalid_argument _ -> ()

(* - requests - *)

let test_request_parsing () =
  (match Request.of_line {|{"scenario":"simulate","id":7,"priority":2}|} with
  | Ok
      {
        id = Json.Int 7;
        priority = 2;
        deadline_ms = None;
        client = "";
        trace_id = None;
        body = Request.Scenario (Request.Simulate p);
      } ->
    Alcotest.(check int) "default mesh" 6 p.Request.mesh_size;
    Alcotest.(check string) "default policy" "ear" p.Request.policy
  | _ -> Alcotest.fail "simulate defaults");
  (match Request.of_line {|{"scenario":"fig7","params":{"sizes":[4,5]}}|} with
  | Ok { body = Request.Scenario (Request.Fig7 { sizes; _ }); _ } ->
    Alcotest.(check (list int)) "sizes" [ 4; 5 ] sizes
  | _ -> Alcotest.fail "fig7 params");
  (match Request.of_line {|{"scenario":"shutdown"}|} with
  | Ok { body = Request.Control Request.Shutdown; id = Json.Null; priority = 0; _ } ->
    ()
  | _ -> Alcotest.fail "shutdown control")

let test_request_errors () =
  let code line =
    match Request.of_line line with
    | Ok _ -> Alcotest.failf "accepted: %s" line
    | Error e -> e.Request.error_code
  in
  Alcotest.(check string) "bad json" "parse_error" (code "{nope");
  Alcotest.(check string) "non-object" "invalid_request" (code "[1,2]");
  Alcotest.(check string) "unknown scenario" "invalid_request"
    (code {|{"scenario":"warp"}|});
  Alcotest.(check string) "typed field" "invalid_request"
    (code {|{"scenario":"simulate","params":{"mesh_size":"big"}}|});
  (* the id survives a shape error so the response stays correlatable *)
  match Request.of_line {|{"scenario":"warp","id":9}|} with
  | Error { Request.error_id = Json.Int 9; _ } -> ()
  | _ -> Alcotest.fail "id lost on invalid request"

let test_fingerprint_canonicalization () =
  let fp line =
    match Request.of_line line with
    | Ok { body = Request.Scenario s; _ } -> (
      match Handlers.fingerprint s with
      | Ok fp -> fp
      | Error m -> Alcotest.failf "fingerprint failed: %s" m)
    | _ -> Alcotest.failf "not a scenario: %s" line
  in
  (* spelling out the defaults, reordering fields, adding unknown keys:
     same computation, same content address *)
  let a = fp {|{"scenario":"simulate"}|} in
  let b = fp {|{"scenario":"simulate","params":{"seed":1,"mesh_size":6},"id":3}|} in
  let c = fp {|{"scenario":"simulate","params":{"mesh_size":6,"future_knob":true}}|} in
  Alcotest.(check string) "defaults spelled out" a b;
  Alcotest.(check string) "field order and unknown keys" a c;
  let d = fp {|{"scenario":"simulate","params":{"seed":2}}|} in
  Alcotest.(check bool) "different seed, different address" true (a <> d)

(* - server batches - *)

let config ?(queue_depth = 8) ?(cache_capacity = 16) ?store_dir () =
  {
    Server.default_config with
    Server.queue_depth;
    cache_capacity;
    store_dir;
  }

let with_server ?queue_depth ?cache_capacity ?store_dir ?now f =
  let server = Server.create ?now (config ?queue_depth ?cache_capacity ?store_dir ()) in
  Fun.protect ~finally:(fun () -> Server.shutdown server) (fun () -> f server)

let parse_response line =
  match Json.parse_result line with
  | Ok j -> j
  | Error m -> Alcotest.failf "bad response %s: %s" line m

let str_member key j =
  match Option.bind (Json.member key j) Json.to_str with
  | Some s -> s
  | None -> Alcotest.failf "missing %S in %s" key (Json.to_string j)

let result_bytes j =
  match Json.member "result" j with
  | Some r -> Json.to_string r
  | None -> Alcotest.failf "missing result in %s" (Json.to_string j)

let elapsed_ms j =
  match Option.bind (Json.member "elapsed_ms" j) Json.to_float with
  | Some f -> f
  | None -> Alcotest.failf "missing elapsed_ms in %s" (Json.to_string j)

let simulate_line = {|{"scenario":"simulate","params":{"mesh_size":4},"id":1}|}

let test_miss_then_hit_bit_identical () =
  with_server (fun server ->
      let miss =
        match Server.handle_batch server [ simulate_line ] with
        | [ r ] -> parse_response r
        | _ -> Alcotest.fail "one response expected"
      in
      let hit =
        match Server.handle_batch server [ simulate_line ] with
        | [ r ] -> parse_response r
        | _ -> Alcotest.fail "one response expected"
      in
      Alcotest.(check string) "first computes" "miss" (str_member "cache" miss);
      Alcotest.(check string) "second replays" "hit" (str_member "cache" hit);
      Alcotest.(check string) "bit-identical result" (result_bytes miss)
        (result_bytes hit);
      Alcotest.(check bool) "hit is faster" true (elapsed_ms hit <= elapsed_ms miss);
      (* the stats request confirms the counter moved *)
      match Server.handle_batch server [ {|{"scenario":"stats"}|} ] with
      | [ r ] ->
        let stats = parse_response r in
        let cache_hits =
          Option.bind (Json.member "result" stats) (fun result ->
              Option.bind (Json.member "cache" result) (fun c ->
                  Option.bind (Json.member "hits" c) Json.to_int))
        in
        Alcotest.(check (option int)) "hit counted" (Some 1) cache_hits
      | _ -> Alcotest.fail "stats response expected")

let test_queue_full_burst () =
  with_server ~queue_depth:2 (fun server ->
      let line seed =
        Printf.sprintf
          {|{"scenario":"simulate","params":{"mesh_size":4,"seed":%d},"id":%d}|} seed
          seed
      in
      let responses =
        Server.handle_batch server [ line 1; line 2; line 3; line 4 ]
        |> List.map parse_response
      in
      let statuses = List.map (str_member "status") responses in
      Alcotest.(check (list string)) "two served, two rejected"
        [ "ok"; "ok"; "error"; "error" ] statuses;
      List.iteri
        (fun i r ->
          if i >= 2 then
            Alcotest.(check string)
              (Printf.sprintf "rejection %d is structured" i)
              "queue_full" (str_member "error" r))
        responses;
      (* ids echo in arrival order even for rejections *)
      Alcotest.(check (list int)) "arrival order kept" [ 1; 2; 3; 4 ]
        (List.map
           (fun r ->
             Option.get (Option.bind (Json.member "id" r) Json.to_int))
           responses);
      (* the server survives the burst and keeps serving *)
      match Server.handle_batch server [ line 3 ] with
      | [ r ] ->
        Alcotest.(check string) "still alive" "ok"
          (str_member "status" (parse_response r))
      | _ -> Alcotest.fail "one response expected")

let test_in_batch_coalescing () =
  (* caching disabled: duplicates must still compute only once *)
  with_server ~cache_capacity:0 (fun server ->
      let responses =
        Server.handle_batch server [ simulate_line; simulate_line ]
        |> List.map parse_response
      in
      match responses with
      | [ first; second ] ->
        Alcotest.(check string) "first computes" "miss" (str_member "cache" first);
        Alcotest.(check string) "duplicate coalesced" "coalesced"
          (str_member "cache" second);
        Alcotest.(check string) "same bytes" (result_bytes first)
          (result_bytes second)
      | _ -> Alcotest.fail "two responses expected")

let test_priority_ordering () =
  (* a stats request observes the counters at its own execution slot:
     with higher priority it runs before the scenario, with lower
     priority after — which pins the execution order *)
  let served_total_seen ~stats_priority server =
    let batch =
      [
        {|{"scenario":"simulate","params":{"mesh_size":4},"priority":0,"id":1}|};
        Printf.sprintf {|{"scenario":"stats","priority":%d,"id":2}|} stats_priority;
      ]
    in
    match Server.handle_batch server batch |> List.map parse_response with
    | [ _; stats ] ->
      Option.get
        (Option.bind (Json.member "result" stats) (fun r ->
             Option.bind (Json.member "served_total" r) Json.to_int))
    | _ -> Alcotest.fail "two responses expected"
  in
  with_server (fun server ->
      Alcotest.(check int) "stats first under high priority" 0
        (served_total_seen ~stats_priority:5 server));
  with_server (fun server ->
      Alcotest.(check int) "stats last under low priority" 1
        (served_total_seen ~stats_priority:(-5) server))

let test_error_responses () =
  with_server (fun server ->
      let response line =
        match Server.handle_batch server [ line ] with
        | [ r ] -> parse_response r
        | _ -> Alcotest.fail "one response expected"
      in
      let check_error name line code =
        let r = response line in
        Alcotest.(check string) (name ^ " status") "error" (str_member "status" r);
        Alcotest.(check string) (name ^ " code") code (str_member "error" r)
      in
      check_error "malformed" "{oops" "parse_error";
      check_error "unknown scenario" {|{"scenario":"warp"}|} "invalid_request";
      check_error "bad field type"
        {|{"scenario":"simulate","params":{"seed":"one"}}|}
        "invalid_request";
      check_error "semantic validation"
        {|{"scenario":"simulate","params":{"policy":"quantum"}}|}
        "invalid_request";
      check_error "negative mesh"
        {|{"scenario":"simulate","params":{"mesh_size":-4}}|}
        "invalid_request";
      (* audit cadence is only validated at execution time, after the
         fingerprint: the structured failure path *)
      check_error "execution failure" {|{"scenario":"audit","params":{"every":0}}|}
        "failed")

let test_lru_bound_end_to_end () =
  with_server ~cache_capacity:1 (fun server ->
      let line seed =
        Printf.sprintf {|{"scenario":"simulate","params":{"mesh_size":4,"seed":%d}}|}
          seed
      in
      ignore (Server.handle_batch server [ line 1 ]);
      ignore (Server.handle_batch server [ line 2 ]);
      (* seed 1 was evicted by seed 2: recomputed, not replayed *)
      match Server.handle_batch server [ line 1 ] with
      | [ r ] ->
        Alcotest.(check string) "evicted entry recomputes" "miss"
          (str_member "cache" (parse_response r))
      | _ -> Alcotest.fail "one response expected")

let test_stats_shape () =
  with_server (fun server ->
      ignore (Server.handle_batch server [ simulate_line ]);
      match Server.handle_batch server [ {|{"scenario":"stats","id":"s"}|} ] with
      | [ r ] ->
        let stats = parse_response r in
        let result = Option.get (Json.member "result" stats) in
        List.iter
          (fun key ->
            Alcotest.(check bool) (key ^ " present") true
              (Json.member key result <> None))
          [
            "queue_depth";
            "admitted_total";
            "rejected_total";
            "served_total";
            "errors_total";
            "pool_domains";
            "cache";
            "scenarios";
          ];
        let simulate =
          Option.bind (Json.member "scenarios" result) (Json.member "simulate")
        in
        (match simulate with
        | None -> Alcotest.fail "simulate latency bucket missing"
        | Some bucket ->
          List.iter
            (fun key ->
              Alcotest.(check bool) (key ^ " present") true
                (Json.member key bucket <> None))
            [ "count"; "mean_ms"; "p50_ms"; "p90_ms"; "p99_ms"; "max_ms" ])
      | _ -> Alcotest.fail "stats response expected")

(* Percentiles cover the newest 512 samples only.  On an injected clock
   that advances [step] per reading, a one-request batch takes exactly
   [step]: 600 requests of 1 s fill and wrap the ring, then 512 more of
   1..512 ms must push every slow sample out. *)
let test_latency_window_recency () =
  let time = ref 0. and step = ref 1. in
  let now () =
    let t = !time in
    time := t +. !step;
    t
  in
  with_server ~now (fun server ->
      let serve () = ignore (Server.handle_batch server [ simulate_line ]) in
      for _ = 1 to 600 do
        serve ()
      done;
      for ms = 1 to 512 do
        step := float_of_int ms /. 1000.;
        serve ()
      done;
      match Server.handle_batch server [ {|{"scenario":"stats"}|} ] with
      | [ r ] ->
        let bucket =
          Option.bind (Json.member "result" (parse_response r)) (fun result ->
              Option.bind (Json.member "scenarios" result) (Json.member "simulate"))
          |> Option.get
        in
        let field key = Option.get (Option.bind (Json.member key bucket) Json.to_float) in
        let recent = List.init 512 (fun i -> float_of_int (i + 1)) in
        List.iter
          (fun (key, p) ->
            Alcotest.(check (float 1e-6)) key (Etx_util.Stats.percentile recent ~p)
              (field key))
          [ ("p50_ms", 0.5); ("p90_ms", 0.9); ("p99_ms", 0.99) ];
        Alcotest.(check (float 1e-6)) "max_ms stays all-time" 1000. (field "max_ms");
        Alcotest.(check (option int)) "count stays all-time" (Some 1112)
          (Option.bind (Json.member "count" bucket) Json.to_int)
      | _ -> Alcotest.fail "stats response expected")

let test_shutdown_request () =
  with_server (fun server ->
      Alcotest.(check bool) "running" false (Server.stopped server);
      (match Server.handle_batch server [ {|{"scenario":"shutdown"}|} ] with
      | [ r ] ->
        Alcotest.(check string) "acknowledged" "ok"
          (str_member "status" (parse_response r))
      | _ -> Alcotest.fail "one response expected");
      Alcotest.(check bool) "stopping" true (Server.stopped server))

let test_create_validation () =
  List.iter
    (fun (name, cfg) ->
      match Server.create cfg with
      | server ->
        Server.shutdown server;
        Alcotest.failf "%s accepted" name
      | exception Invalid_argument _ -> ())
    [
      ("zero queue depth", { Server.default_config with queue_depth = 0 });
      ("negative cache", { Server.default_config with cache_capacity = -1 });
      ("zero domains", { Server.default_config with domains = 0 });
    ]

let suite =
  [
    ( "service/cache",
      [
        Alcotest.test_case "basics" `Quick test_cache_basics;
        Alcotest.test_case "lru eviction" `Quick test_cache_lru_eviction;
        Alcotest.test_case "disabled and invalid" `Quick test_cache_disabled_and_invalid;
      ] );
    ( "service/request",
      [
        Alcotest.test_case "parsing" `Quick test_request_parsing;
        Alcotest.test_case "errors" `Quick test_request_errors;
        Alcotest.test_case "fingerprint canonicalization" `Quick
          test_fingerprint_canonicalization;
      ] );
    ( "service/server",
      [
        Alcotest.test_case "miss then hit, bit-identical" `Quick
          test_miss_then_hit_bit_identical;
        Alcotest.test_case "queue_full burst" `Quick test_queue_full_burst;
        Alcotest.test_case "in-batch coalescing" `Quick test_in_batch_coalescing;
        Alcotest.test_case "priority ordering" `Quick test_priority_ordering;
        Alcotest.test_case "error responses" `Quick test_error_responses;
        Alcotest.test_case "lru bound end to end" `Quick test_lru_bound_end_to_end;
        Alcotest.test_case "stats shape" `Quick test_stats_shape;
        Alcotest.test_case "latency window keeps the newest 512" `Quick
          test_latency_window_recency;
        Alcotest.test_case "shutdown request" `Quick test_shutdown_request;
        Alcotest.test_case "create validation" `Quick test_create_validation;
      ] );
  ]
