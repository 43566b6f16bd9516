(* Tests for lib/service: the LRU result cache, request parsing, and the
   server's batch semantics — admission control, priority ordering,
   deduplication, and bit-identical cached replays. *)

module Json = Etx_util.Json
module Cache = Etx_service.Cache
module Request = Etx_service.Request
module Server = Etx_service.Server
module Handlers = Etx_service.Handlers
module Names = Etx_service.Names
module Obs = Etx_obs.Obs

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

let fp line =
  match Request.of_line line with
  | Ok { body = Request.Scenario s; _ } -> (
    match Handlers.fingerprint s with
    | Ok fp -> fp
    | Error m -> Alcotest.failf "fingerprint of %s failed: %s" line m)
  | _ -> Alcotest.failf "not a scenario: %s" line

let test_fingerprint_canonicalization () =
  (* spelling out the defaults, reordering fields, adding unknown keys:
     same computation, same content address *)
  let a = fp {|{"scenario":"simulate"}|} in
  let b = fp {|{"scenario":"simulate","params":{"seed":1,"mesh_size":6},"id":3}|} in
  let c = fp {|{"scenario":"simulate","params":{"mesh_size":6,"future_knob":true}}|} in
  Alcotest.(check string) "defaults spelled out" a b;
  Alcotest.(check string) "field order and unknown keys" a c;
  let d = fp {|{"scenario":"simulate","params":{"seed":2}}|} in
  Alcotest.(check bool) "different seed, different address" true (a <> d)

(* - the name table - *)

let scenario_of line =
  match Request.of_line line with
  | Ok { body = Request.Scenario s; _ } -> s
  | _ -> Alcotest.failf "not a scenario: %s" line

(* the registry is process-wide: arm it from a clean slate and leave it
   that way *)
let with_obs f =
  Obs.disarm ();
  Obs.reset ();
  Obs.arm ();
  Fun.protect
    ~finally:(fun () ->
      Obs.disarm ();
      Obs.reset ())
    f

let name table line =
  match Names.fingerprint table (scenario_of line) with
  | Ok fp -> fp
  | Error m -> Alcotest.failf "naming %s failed: %s" line m

let test_names_share_entries () =
  with_obs (fun () ->
      let table = Names.create () in
      let reused = Obs.counter "etx_names_reused_total" in
      let lines =
        [
          {|{"scenario":"simulate","params":{"mesh_size":4,"seed":3},"id":1}|};
          {| { "id" : "x" , "params" : { "seed" : 3 , "mesh_size" : 4 } , "scenario" : "simulate" } |};
          {|{"params":{"seed":3,"policy":"ear","mesh_size":4},"scenario":"simulate","id":[2]}|};
        ]
      in
      let direct = fp (List.hd lines) in
      List.iter
        (fun line -> Alcotest.(check string) line direct (name table line))
        lines;
      Alcotest.(check int) "one entry" 1 (Names.length table);
      Alcotest.(check int) "named once, reused twice" 2 (Obs.counter_value reused))

(* floats are keyed by their bits: -0.0 and 0.0 name two runs *)
let test_names_signed_zero () =
  let table = Names.create () in
  let line ber =
    Printf.sprintf {|{"scenario":"simulate","params":{"mesh_size":4,"ber":%s,"wearout":1e-4}}|}
      ber
  in
  let neg = name table (line "-0.0") and pos = name table (line "0.0") in
  Alcotest.(check bool) "two names" true (neg <> pos);
  Alcotest.(check string) "-0.0 as named directly" (fp (line "-0.0")) neg;
  Alcotest.(check string) "0.0 as named directly" (fp (line "0.0")) pos;
  Alcotest.(check int) "two entries" 2 (Names.length table);
  Alcotest.(check string) "-0.0 again" neg (name table (line "-0.0"))

let test_names_refused_not_stored () =
  let table = Names.create () in
  let refused = scenario_of {|{"scenario":"simulate","params":{"policy":"warp"}}|} in
  for _ = 1 to 2 do
    match Names.fingerprint table refused with
    | Error m -> Alcotest.(check bool) "names the policy" true (Astring_contains.contains m "warp")
    | Ok fp -> Alcotest.failf "refused request named %s" fp
  done;
  Alcotest.(check int) "nothing stored" 0 (Names.length table);
  ignore (name table {|{"scenario":"fig7","params":{"sizes":[4]}}|});
  Alcotest.(check int) "sweeps are named directly" 0 (Names.length table)

let test_names_bounded () =
  let table = Names.create () in
  for seed = 1 to Names.capacity + 16 do
    let line =
      Printf.sprintf {|{"scenario":"simulate","params":{"mesh_size":3,"seed":%d}}|} seed
    in
    Alcotest.(check string) line (fp line) (name table line);
    if Names.length table > Names.capacity then
      Alcotest.failf "%d names held, bound %d" (Names.length table) Names.capacity
  done;
  Alcotest.(check int) "full" Names.capacity (Names.length table)

(* - spliced replies - *)

let prop_ok_line_splices =
  let gen =
    QCheck.Gen.(
      pair
        (triple Test_json.gen_json
           (opt (oneofl [ "miss"; "hit"; "store"; "coalesced" ]))
           (string_size ~gen:printable (int_bound 10)))
        (pair (float_bound_inclusive 1e4) Test_json.gen_json))
  in
  QCheck.Test.make ~count:300
    ~name:"ok_line = to_string (ok_response …) for random results"
    (QCheck.make gen ~print:(fun ((id, _, scenario), (_, r)) ->
         Printf.sprintf "id %s, scenario %S, result %s" (Json.to_string id) scenario
           (Json.to_string r)))
    (fun ((id, cache, scenario), (elapsed_ms, r)) ->
      Request.ok_line ?cache ~scenario ~elapsed_ms id (Json.to_string r)
      = Json.to_string (Request.ok_response ?cache ~scenario ~elapsed_ms id r))

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

(* a sweep whose params break a declared bound is turned away before it
   is fingerprinted or queued, not run to an execution failure *)
let test_sweep_bounds_at_front_door () =
  with_server (fun server ->
      List.iter
        (fun line ->
          match Server.handle_batch server [ line ] with
          | [ r ] ->
            Alcotest.(check string) line "invalid_request"
              (str_member "error" (parse_response r))
          | _ -> Alcotest.fail "one response expected")
        [
          {|{"scenario":"fig7","params":{"sizes":[1]},"id":4}|};
          {|{"scenario":"resilience","params":{"bit_error_rates":[0,-1e-4]}}|};
          {|{"scenario":"audit","params":{"sizes":[4],"every":0}}|};
          {|{"scenario":"upper-bound","params":{"sizes":[4,1]}}|};
        ])

(* the simulate content address is injective in the fault rates: rates
   equal to six significant digits still name different runs, while a
   rate whose short form reads back exactly keeps the form it always had *)
let test_fingerprint_exact_rates () =
  Alcotest.(check bool) "rates equal to six digits differ" true
    (fp {|{"scenario":"simulate","params":{"ber":0.0001}}|}
    <> fp {|{"scenario":"simulate","params":{"ber":0.00010000001}}|});
  Alcotest.(check string) "round-tripping rates keep their short form"
    "simulate;etsim-ckpt-v1;n=25;m=3;edges=80;policy=EAR(q=2)/8;seed=1;frame=800;\
     max=50000000;jobs=1;batt=thin-film/60000/0.1;wl=aes-128-encrypt;\
     fault=seed=7,wear=1e-05/2,ber=0.0002,brown=0/2000/preserve,up=0,down=0;retx=3;\
     ack=25;sched=0"
    (fp
       {|{"scenario":"simulate","params":{"mesh_size":5,"ber":2e-4,"fault_seed":7,"wearout":1e-5}}|});
  Alcotest.(check string) "a default audit keeps its fingerprint"
    "audit;sizes=4,5,6,7,8;seeds=1,2,3,4,5;every=1"
    (fp {|{"scenario":"audit","params":{"retries":3,"ber":0}}|})

(* only the configs whose tables moved to the exact search kernel carry
   the routing-kernel tag: maximin's (off its lexicographic
   Floyd-Warshall) and inverse-level's (whole factors, so exact ties no
   longer split on rounding); every other fingerprint keeps its form *)
let test_fingerprint_routing_kernel_tag () =
  let simulate policy =
    fp (Printf.sprintf {|{"scenario":"simulate","params":{"mesh_size":4,"policy":%S}}|} policy)
  in
  let expected policy tag =
    Printf.sprintf
      "simulate;etsim-ckpt-v1;n=16;m=3;edges=48;policy=%s/8;seed=1;frame=800;\
       max=50000000;jobs=1;batt=thin-film/60000/0.1;wl=aes-128-encrypt;fault=none;retx=3;\
       ack=25;sched=0%s"
      policy tag
  in
  Alcotest.(check string) "maximin is tagged" (expected "MAXMIN" ";rk=2") (simulate "maximin");
  Alcotest.(check string) "inverse is tagged" (expected "INV(floor=0.5)" ";rk=2")
    (simulate "inverse");
  Alcotest.(check string) "ear is not" (expected "EAR(q=2)" "") (simulate "ear");
  Alcotest.(check string) "sdr is not" (expected "SDR" "") (simulate "sdr");
  List.iter
    (fun policy ->
      Alcotest.(check bool) (policy ^ " is not") false
        (Astring_contains.contains
           (fp (Printf.sprintf {|{"scenario":"simulate","params":{"policy":%S}}|} policy))
           "rk="))
    [ "ear"; "sdr"; "ear2"; "linear" ]

(* Every declared param of every scenario, through the wire: spelling
   out the default is omitting it, another in-bounds value is another
   result, and a value below the bound (or an unknown name) is turned
   away as invalid_request. *)
let json_of (type a) (kind : a Request.kind) (v : a) =
  match kind with
  | Request.Int -> Json.Int v
  | Request.Float -> Json.Float v
  | Request.String -> Json.String v
  | Request.Ints -> Json.List (List.map (fun n -> Json.Int n) v)
  | Request.Floats -> Json.List (List.map (fun x -> Json.Float x) v)

let other_value (type a) (p : a Request.param) : a =
  match p.kind with
  | Request.Int -> p.default + 1
  | Request.Float -> p.default +. 0.05
  | Request.Ints -> List.map succ p.default
  | Request.Floats -> List.map (fun x -> x +. 1e-5) p.default
  | Request.String -> (
    match p.key with
    | "policy" -> "sdr"
    | "battery" -> "ideal"
    | "workload" -> "decrypt"
    | key -> Alcotest.failf "no alternative value for %S" key)

let out_of_bounds (type a) (p : a Request.param) : a option =
  match (p.kind, p.at_least) with
  | Request.String, _ -> Some "no-such-name"
  | _, None -> None
  | Request.Int, Some lo -> Some (lo - 1)
  | Request.Float, Some lo -> Some (float_of_int lo -. 1.)
  | Request.Ints, Some lo -> Some [ lo - 1 ]
  | Request.Floats, Some lo -> Some [ float_of_int lo -. 1. ]

let test_schema_fingerprint_property () =
  with_server (fun server ->
      let line name params =
        Json.to_string
          (Json.Obj [ ("scenario", Json.String name); ("params", Json.Obj params) ])
      in
      let fp name params = fp (line name params) in
      let checked = ref 0 in
      List.iter
        (fun (name, spec) ->
          List.iter
            (fun (Request.Any p) ->
              let what = Printf.sprintf "%s %s" name p.key in
              (* a fault seed or brown-out duration only shapes a run with
                 some fault rate on, so faulted scenarios are probed with one *)
              let base =
                if not (List.mem name [ "simulate"; "audit" ]) then []
                else if p.key = "ber" then [ ("wearout", Json.Float 1e-5) ]
                else [ ("ber", Json.Float 1e-4) ]
              in
              let with_value v = base @ [ (p.key, json_of p.kind v) ] in
              Alcotest.(check bool) (what ^ ": default within bound") true
                (Request.check p p.default = Ok ());
              Alcotest.(check string) (what ^ ": default spelled out") (fp name base)
                (fp name (with_value p.default));
              Alcotest.(check bool) (what ^ ": other value, other fingerprint") true
                (fp name base <> fp name (with_value (other_value p)));
              (match out_of_bounds p with
              | None -> ()
              | Some v -> (
                match Server.handle_batch server [ line name (with_value v) ] with
                | [ r ] ->
                  Alcotest.(check string) (what ^ ": out of bounds")
                    "invalid_request" (str_member "error" (parse_response r))
                | _ -> Alcotest.fail "one response expected"));
              incr checked)
            (Request.fields spec))
        Request.scenarios;
      Alcotest.(check int) "every declared param visited" 35 !checked)

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
      (* the audit cadence's declared bound runs at decoding, before the
         fingerprint and any compute *)
      check_error "audit cadence" {|{"scenario":"audit","params":{"every":0}}|}
        "invalid_request")

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
        Alcotest.test_case "fingerprint exact rates" `Quick test_fingerprint_exact_rates;
        Alcotest.test_case "fingerprint routing-kernel tag" `Quick
          test_fingerprint_routing_kernel_tag;
        Alcotest.test_case "schema fingerprint property" `Quick
          test_schema_fingerprint_property;
      ] );
    ( "service/names",
      [
        Alcotest.test_case "one entry per decoded request" `Quick test_names_share_entries;
        Alcotest.test_case "floats keyed by their bits" `Quick test_names_signed_zero;
        Alcotest.test_case "refused requests not stored" `Quick
          test_names_refused_not_stored;
        Alcotest.test_case "bounded" `Quick test_names_bounded;
        QCheck_alcotest.to_alcotest prop_ok_line_splices;
      ] );
    ( "service/server",
      [
        Alcotest.test_case "miss then hit, bit-identical" `Quick
          test_miss_then_hit_bit_identical;
        Alcotest.test_case "queue_full burst" `Quick test_queue_full_burst;
        Alcotest.test_case "in-batch coalescing" `Quick test_in_batch_coalescing;
        Alcotest.test_case "priority ordering" `Quick test_priority_ordering;
        Alcotest.test_case "error responses" `Quick test_error_responses;
        Alcotest.test_case "sweep bounds at the front door" `Quick
          test_sweep_bounds_at_front_door;
        Alcotest.test_case "lru bound end to end" `Quick test_lru_bound_end_to_end;
        Alcotest.test_case "stats shape" `Quick test_stats_shape;
        Alcotest.test_case "latency window keeps the newest 512" `Quick
          test_latency_window_recency;
        Alcotest.test_case "shutdown request" `Quick test_shutdown_request;
        Alcotest.test_case "create validation" `Quick test_create_validation;
      ] );
  ]
