(* Unit tests for the cluster layer: backoff pacing, the consistent-hash
   ring, the breaker state machine and the liveness view derived from it, the durable result store (every
   corruption mode must be a miss, never an error), deadline and client
   fields on the wire, and the router's failover/shedding logic driven
   through an injected rpc and clock — no sockets, no real time. *)

module Json = Etx_util.Json
module Backoff = Etx_util.Backoff
module Ring = Etx_service.Ring
module Breaker = Etx_service.Breaker
module Store = Etx_service.Store
module Request = Etx_service.Request
module Server = Etx_service.Server
module Cluster = Etx_service.Cluster
module Obs = Etx_obs.Obs

(* - helpers - *)

let temp_dir =
  let counter = ref 0 in
  fun () ->
    incr counter;
    let dir =
      Filename.concat
        (Filename.get_temp_dir_name ())
        (Printf.sprintf "etx-test-cluster-%d-%d" (Unix.getpid ()) !counter)
    in
    (try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
    dir

let parse line =
  match Json.parse_result line with
  | Ok j -> j
  | Error m -> Alcotest.failf "bad response %s: %s" line m

let str_member key j =
  match Option.bind (Json.member key j) Json.to_str with
  | Some s -> s
  | None -> Alcotest.failf "missing %s in %s" key (Json.to_string j)

let int_member key j =
  match Option.bind (Json.member key j) Json.to_int with
  | Some n -> n
  | None -> Alcotest.failf "missing %s in %s" key (Json.to_string j)

(* - backoff - *)

let test_backoff_bounds () =
  let b = Backoff.create ~base_ms:10. ~cap_ms:100. ~seed:7 () in
  let previous = ref 10. in
  for i = 1 to 50 do
    let d = Backoff.next b in
    if d < 10. || d > 100. then
      Alcotest.failf "delay %f outside [base, cap] at draw %d" d i;
    if d > Float.min 100. (3. *. !previous) +. 1e-9 then
      Alcotest.failf "delay %f exceeds 3x previous %f" d !previous;
    previous := d
  done;
  Alcotest.(check int) "attempts counted" 50 (Backoff.attempts b);
  Backoff.reset b;
  Alcotest.(check int) "reset clears attempts" 0 (Backoff.attempts b);
  (* after reset the range is [base, 3*base] again, not 3x the last draw *)
  let d = Backoff.next b in
  if d > 30. +. 1e-9 then Alcotest.failf "post-reset delay %f not de-escalated" d

let test_backoff_deterministic () =
  let a = Backoff.create ~base_ms:5. ~cap_ms:500. ~seed:42 () in
  let b = Backoff.create ~base_ms:5. ~cap_ms:500. ~seed:42 () in
  for _ = 1 to 20 do
    Alcotest.(check (float 0.)) "same seed, same delays" (Backoff.next a)
      (Backoff.next b)
  done;
  match Backoff.create ~base_ms:0. ~cap_ms:10. ~seed:1 () with
  | _ -> Alcotest.fail "zero base accepted"
  | exception Invalid_argument _ -> ()

(* - consistent-hash ring - *)

let keys = List.init 200 (fun i -> Printf.sprintf "fingerprint-%d" i)

let test_ring_lookup () =
  let members = [ "a.sock"; "b.sock"; "c.sock" ] in
  let ring = Ring.create members in
  List.iter
    (fun key ->
      match Ring.lookup ring key with
      | None -> Alcotest.fail "lookup on non-empty ring"
      | Some owner ->
        Alcotest.(check bool) "owner is a member" true (List.mem owner members);
        let ordered = Ring.ordered ring key in
        Alcotest.(check int) "ordered covers all members" 3 (List.length ordered);
        Alcotest.(check (list string))
          "ordered is distinct" (List.sort_uniq compare ordered)
          (List.sort compare ordered);
        Alcotest.(check string) "owner heads the failover order" owner
          (List.hd ordered))
    keys;
  (* each backend owns a non-trivial share: 64 replicas spread 200 keys *)
  List.iter
    (fun m ->
      let owned =
        List.length (List.filter (fun k -> Ring.lookup ring k = Some m) keys)
      in
      if owned = 0 then Alcotest.failf "member %s owns nothing" m)
    members

let test_ring_affinity_across_membership () =
  let ring = Ring.create [ "a.sock"; "b.sock"; "c.sock" ] in
  let owner k = Option.get (Ring.lookup ring k) in
  let before = List.map (fun k -> (k, owner k)) keys in
  Ring.remove ring "b.sock";
  List.iter
    (fun (k, was) ->
      if was <> "b.sock" then
        Alcotest.(check string)
          (Printf.sprintf "key %s keeps its backend when b leaves" k)
          was (owner k)
      else if owner k = "b.sock" then
        Alcotest.fail "removed member still owns keys")
    before;
  Ring.add ring "b.sock";
  List.iter
    (fun (k, was) ->
      Alcotest.(check string) "rejoining restores every original owner" was
        (owner k))
    before

(* - liveness, derived from the breaker - *)

(* The retired per-backend Health tracker, kept here as the reference:
   up until [threshold] consecutive failures, back up on one success. *)
type health_model = { mutable up : bool; mutable streak : int; mutable flips : int }

let health_model_step threshold m = function
  | `Success ->
    m.streak <- 0;
    if not m.up then begin
      m.up <- true;
      m.flips <- m.flips + 1
    end
  | `Failure ->
    m.streak <- m.streak + 1;
    if m.up && m.streak >= threshold then begin
      m.up <- false;
      m.flips <- m.flips + 1
    end
  | `Allow | `Advance _ -> ()

let print_health_op = function
  | `Success -> "success"
  | `Failure -> "failure"
  | `Allow -> "allow"
  | `Advance dt -> Printf.sprintf "advance %.2f" dt

(* random outcomes, half-open probe grants and clock steps across the
   cooldown: the breaker's health, streak and flips match the model
   after every step *)
let prop_health_transitions =
  let op =
    QCheck.Gen.(
      frequency
        [
          (3, return `Success);
          (4, return `Failure);
          (2, return `Allow);
          (2, map (fun dt -> `Advance dt) (float_range 0. 4.));
        ])
  in
  let ops =
    QCheck.make
      ~print:(fun (threshold, ops) ->
        Printf.sprintf "threshold %d: %s" threshold
          (String.concat ", " (List.map print_health_op ops)))
      QCheck.Gen.(pair (int_range 1 4) (list_size (int_range 0 60) op))
  in
  QCheck.Test.make ~name:"health transitions" ~count:300 ops
    (fun (threshold, ops) ->
      let time = ref 0. in
      let b =
        Breaker.create ~failure_threshold:threshold ~cooldown_s:2.
          ~now:(fun () -> !time) ()
      in
      let m = { up = true; streak = 0; flips = 0 } in
      List.for_all
        (fun op ->
          (match op with
          | `Success -> Breaker.record_success b
          | `Failure -> Breaker.record_failure b
          | `Allow -> ignore (Breaker.allow b)
          | `Advance dt -> time := !time +. dt);
          health_model_step threshold m op;
          Breaker.health_name b = (if m.up then "up" else "down")
          && Breaker.consecutive_failures b = m.streak
          && Breaker.health_transitions b = m.flips)
        ops)

(* - circuit breaker - *)

let test_breaker_state_machine () =
  let time = ref 0. in
  let b = Breaker.create ~failure_threshold:3 ~cooldown_s:5. ~now:(fun () -> !time) () in
  Alcotest.(check bool) "closed allows" true (Breaker.allow b);
  Breaker.record_failure b;
  Breaker.record_failure b;
  Alcotest.(check bool) "still closed below threshold" true (Breaker.allow b);
  Breaker.record_failure b;
  Alcotest.(check bool) "tripped open refuses" false (Breaker.allow b);
  Alcotest.(check string) "state is open" "open" (Breaker.state_name (Breaker.state b));
  time := 4.9;
  Alcotest.(check bool) "cooldown not elapsed" false (Breaker.allow b);
  time := 5.1;
  Alcotest.(check bool) "half-open grants one probe" true (Breaker.allow b);
  Alcotest.(check bool) "second probe refused" false (Breaker.allow b);
  Breaker.record_failure b;
  Alcotest.(check bool) "half-open failure re-opens" false (Breaker.allow b);
  time := 11.;
  Alcotest.(check bool) "second cooldown, new probe" true (Breaker.allow b);
  Breaker.record_success b;
  Alcotest.(check string) "probe success closes" "closed"
    (Breaker.state_name (Breaker.state b));
  Alcotest.(check bool) "closed again allows" true (Breaker.allow b);
  Alcotest.(check int) "both trips counted" 2 (Breaker.opened_total b)

(* - durable store - *)

let test_store_roundtrip () =
  let dir = temp_dir () in
  let s = Store.open_dir dir in
  Alcotest.(check (option string)) "empty store misses" None (Store.find s "k1");
  Store.add s "k1" {|{"rows":[1,2,3]}|};
  Alcotest.(check (option string)) "written entry found" (Some {|{"rows":[1,2,3]}|})
    (Store.find s "k1");
  Alcotest.(check int) "one entry on disk" 1 (Store.length s);
  (* a different handle on the same directory sees the entry: this is
     exactly the cluster's shared-store / restart-warm property *)
  let s2 = Store.open_dir dir in
  Alcotest.(check (option string)) "durable across re-open" (Some {|{"rows":[1,2,3]}|})
    (Store.find s2 "k1");
  Store.add s2 "k1" {|{"rows":[1,2,3]}|};
  Alcotest.(check int) "re-adding the same key keeps one file" 1 (Store.length s2);
  Alcotest.(check int) "hits counted" 1 (Store.hits s2);
  Alcotest.(check int) "misses counted" 1 (Store.misses s)

let clobber path f =
  let data = In_channel.with_open_bin path In_channel.input_all in
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc (f data))

let test_store_corruption_is_a_miss () =
  let check_corruption name corrupt =
    let dir = temp_dir () in
    let s = Store.open_dir dir in
    Store.add s "key" "value-bytes";
    let path = Store.filename s "key" in
    corrupt path;
    (match Store.find s "key" with
    | None -> ()
    | Some v -> Alcotest.failf "%s: served corrupt data %S" name v);
    Alcotest.(check bool)
      (name ^ ": offending file dropped")
      false
      (Sys.file_exists path);
    Alcotest.(check int) (name ^ ": drop counted") 1 (Store.corrupt_dropped s);
    (* the slot is reusable after the drop *)
    Store.add s "key" "value-bytes";
    Alcotest.(check (option string))
      (name ^ ": rewrite recovers")
      (Some "value-bytes") (Store.find s "key")
  in
  check_corruption "truncated" (fun path ->
      clobber path (fun data -> String.sub data 0 (String.length data / 2)));
  check_corruption "empty file" (fun path -> clobber path (fun _ -> ""));
  check_corruption "wrong magic" (fun path ->
      clobber path (fun data -> "XXXSTOR9" ^ String.sub data 8 (String.length data - 8)));
  check_corruption "flipped payload byte (crc mismatch)" (fun path ->
      clobber path (fun data ->
          let b = Bytes.of_string data in
          let i = String.length data / 2 in
          Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0x41));
          Bytes.to_string b));
  check_corruption "garbage payload" (fun path ->
      clobber path (fun data -> String.map (fun _ -> 'z') data))

let test_store_key_collision_is_a_miss () =
  let dir = temp_dir () in
  let s = Store.open_dir dir in
  Store.add s "key-a" "value-of-a";
  (* simulate a filename-hash collision: key-b's slot holds a frame
     whose stored key says key-a; the read must verify and miss, never
     serve a's bytes for b *)
  let rename_target = Store.filename s "key-b" in
  Sys.rename (Store.filename s "key-a") rename_target;
  Alcotest.(check (option string)) "foreign key is a miss" None (Store.find s "key-b")

let test_store_sweeps_temp_files () =
  let dir = temp_dir () in
  let s = Store.open_dir dir in
  Store.add s "keep" "kept";
  (* a mid-write crash leaves a temp file behind *)
  let tmp = Filename.concat dir "0123456789abcdef-000004.etxr.tmp" in
  Out_channel.with_open_bin tmp (fun oc -> Out_channel.output_string oc "partial");
  let s2 = Store.open_dir dir in
  Alcotest.(check bool) "leftover temp file swept" false (Sys.file_exists tmp);
  Alcotest.(check (option string)) "real entries survive the sweep" (Some "kept")
    (Store.find s2 "keep")

(* - wire protocol: deadline_ms and client fields - *)

let test_deadline_field_parsing () =
  (match Request.of_line {|{"scenario":"ping","deadline_ms":250,"client":"ops"}|} with
  | Ok req ->
    Alcotest.(check (option int)) "deadline parsed" (Some 250) req.Request.deadline_ms;
    Alcotest.(check string) "client parsed" "ops" req.Request.client
  | Error e -> Alcotest.failf "valid deadline rejected: %s" e.Request.reason);
  (match Request.of_line {|{"scenario":"ping"}|} with
  | Ok req ->
    Alcotest.(check (option int)) "absent deadline is None" None
      req.Request.deadline_ms;
    Alcotest.(check string) "absent client is anonymous" "" req.Request.client
  | Error _ -> Alcotest.fail "plain request rejected");
  let rejected line =
    match Request.of_line line with
    | Ok _ -> Alcotest.failf "accepted: %s" line
    | Error e -> Alcotest.(check string) "code" "invalid_request" e.Request.error_code
  in
  rejected {|{"scenario":"ping","deadline_ms":-1}|};
  rejected {|{"scenario":"ping","deadline_ms":2.5}|};
  rejected {|{"scenario":"ping","deadline_ms":"100"}|};
  rejected {|{"scenario":"ping","client":7}|}

let test_server_sheds_expired_deadlines () =
  (* the clock advances 50 ms per reading, so by the time the batch's
     second request reaches its execution slot its 10 ms budget is gone *)
  let time = ref 0. in
  let now () =
    let t = !time in
    time := t +. 0.05;
    t
  in
  let server =
    Server.create ~now
      {
        Server.default_config with
        Server.queue_depth = 8;
        cache_capacity = 16;
      }
  in
  Fun.protect
    ~finally:(fun () -> Server.shutdown server)
    (fun () ->
      match
        Server.handle_batch server
          [
            {|{"id":1,"scenario":"simulate","params":{"mesh_size":4},"deadline_ms":60000}|};
            {|{"id":2,"scenario":"simulate","params":{"mesh_size":4,"seed":9},"deadline_ms":10}|};
          ]
      with
      | [ first; second ] ->
        Alcotest.(check string) "roomy deadline served" "ok"
          (str_member "status" (parse first));
        let j = parse second in
        Alcotest.(check string) "expired deadline shed" "error"
          (str_member "status" j);
        Alcotest.(check string) "code is deadline_exceeded" "deadline_exceeded"
          (str_member "error" j)
      | other -> Alcotest.failf "expected 2 responses, got %d" (List.length other))

let test_server_store_tier () =
  let dir = temp_dir () in
  let line = {|{"id":1,"scenario":"simulate","params":{"mesh_size":4,"seed":3}}|} in
  let cfg store_dir =
    {
      Server.default_config with
      Server.queue_depth = 8;
      cache_capacity = 16;
      store_dir;
    }
  in
  (* every reply is served from stored bytes, yet reads exactly as the
     printed tree of the same response *)
  let canonical response =
    Alcotest.(check string) "reply prints as its own tree"
      (Json.to_string (parse response)) response;
    parse response
  in
  let serve ?(times = 1) config =
    let server = Server.create config in
    Fun.protect
      ~finally:(fun () -> Server.shutdown server)
      (fun () ->
        List.init times (fun _ ->
            match Server.handle_batch server [ line ] with
            | [ response ] -> canonical response
            | _ -> Alcotest.fail "one response expected"))
  in
  let first, hit =
    match serve ~times:2 (cfg (Some dir)) with
    | [ first; hit ] -> (first, hit)
    | _ -> assert false
  in
  Alcotest.(check string) "first sight computes" "miss" (str_member "cache" first);
  Alcotest.(check string) "then the LRU answers" "hit" (str_member "cache" hit);
  (* a brand-new server process (cold LRU) sharing the directory *)
  let second = List.hd (serve (cfg (Some dir))) in
  Alcotest.(check string) "restart serves from the durable store" "store"
    (str_member "cache" second);
  List.iter
    (fun (what, reply) ->
      Alcotest.(check string) (what ^ " is bit-identical")
        (Json.to_string (Option.get (Json.member "result" first)))
        (Json.to_string (Option.get (Json.member "result" reply))))
    [ ("LRU replay", hit); ("store replay", second) ];
  (* without the store, a cold server recomputes *)
  let fresh = List.hd (serve (cfg None)) in
  Alcotest.(check string) "no store, cold miss" "miss" (str_member "cache" fresh)

(* - the router, driven through a fake transport - *)

let cluster_cfg backends =
  {
    (Cluster.default_config ~backends) with
    Cluster.health_period_s = 1000.;
    (* static test clock: keep startup probes from re-firing *)
    failure_threshold = 3;
    breaker_cooldown_s = 5.;
    attempts = 3;
  }

(* an rpc whose behavior is a per-path function; records every call *)
let fake_rpc calls behavior : Cluster.rpc =
 fun ~path ~timeout_s:_ line ->
  calls := (path, line) :: !calls;
  behavior ~path ~line

let scenario_line i =
  Printf.sprintf {|{"id":%d,"scenario":"simulate","params":{"mesh_size":4,"seed":%d}}|} i i

let test_cluster_affinity_and_verbatim_forwarding () =
  let calls = ref [] in
  let reply ~path ~line:_ = Ok (Printf.sprintf "verbatim-from-%s" path) in
  let time = ref 0. in
  let cluster =
    Cluster.create
      ~now:(fun () -> !time)
      ~sleep:(fun _ -> ())
      ~rpc:(fake_rpc calls reply)
      (cluster_cfg [ "a.sock"; "b.sock"; "c.sock" ])
  in
  let route i =
    match Cluster.handle_batch cluster [ scenario_line i ] with
    | [ response ] -> response
    | _ -> Alcotest.fail "one response expected"
  in
  let first = List.init 5 route in
  (* a forwarded response is the backend's line, byte-for-byte *)
  List.iter
    (fun r ->
      if not (String.length r > 14 && String.sub r 0 14 = "verbatim-from-") then
        Alcotest.failf "response not forwarded verbatim: %s" r)
    first;
  let again = List.init 5 route in
  Alcotest.(check (list string))
    "same fingerprints route to the same backends every time" first again;
  Alcotest.(check bool) "sharding uses more than one backend" true
    (List.length (List.sort_uniq compare first) > 1)

let test_cluster_failover () =
  let calls = ref [] in
  let time = ref 0. in
  (* find which backend owns request 1, then fail exactly that one *)
  let probe_cluster =
    Cluster.create
      ~now:(fun () -> !time)
      ~sleep:(fun _ -> ())
      ~rpc:(fake_rpc (ref []) (fun ~path ~line:_ -> Ok ("from-" ^ path)))
      (cluster_cfg [ "a.sock"; "b.sock"; "c.sock" ])
  in
  let owner =
    match Cluster.handle_batch probe_cluster [ scenario_line 1 ] with
    | [ r ] -> String.sub r 5 (String.length r - 5)
    | _ -> Alcotest.fail "one response expected"
  in
  let reply ~path ~line =
    if path = owner && line = scenario_line 1 then Error "connection refused"
    else Ok ("from-" ^ path)
  in
  let slept = ref [] in
  let cluster =
    Cluster.create
      ~now:(fun () -> !time)
      ~sleep:(fun s -> slept := s :: !slept)
      ~rpc:(fake_rpc calls reply)
      (cluster_cfg [ "a.sock"; "b.sock"; "c.sock" ])
  in
  (match Cluster.handle_batch cluster [ scenario_line 1 ] with
  | [ r ] ->
    Alcotest.(check bool) "failover answered from another backend" true
      (String.length r > 5 && String.sub r 0 5 = "from-" && r <> "from-" ^ owner)
  | _ -> Alcotest.fail "one response expected");
  Alcotest.(check bool) "the retry was paced by a backoff sleep" true
    (List.length !slept >= 1);
  let stats =
    match Cluster.handle_batch cluster [ {|{"scenario":"stats"}|} ] with
    | [ r ] -> parse r
    | _ -> Alcotest.fail "one response expected"
  in
  let result = Option.get (Json.member "result" stats) in
  Alcotest.(check int) "failover counted" 1 (int_member "failover_total" result);
  let backend_stats =
    Option.get (Json.member owner (Option.get (Json.member "backends" result)))
  in
  Alcotest.(check int) "transport failure attributed to the dead backend" 1
    (int_member "transport_failures" backend_stats)

let test_cluster_breaker_and_recovery () =
  let time = ref 0. in
  let down = ref true in
  let rpc_calls = ref [] in
  let reply ~path:_ ~line:_ = if !down then Error "refused" else Ok "pong-line" in
  let cluster =
    Cluster.create
      ~now:(fun () -> !time)
      ~sleep:(fun _ -> ())
      ~rpc:(fake_rpc rpc_calls reply)
      { (cluster_cfg [ "only.sock" ]) with Cluster.attempts = 3; failure_threshold = 3 }
  in
  (* batch 1: startup probe fails once, then dispatch fails twice more —
     threshold reached, breaker opens; response is an explicit degraded *)
  (match Cluster.handle_batch cluster [ scenario_line 1 ] with
  | [ r ] ->
    let j = parse r in
    Alcotest.(check string) "degraded, not silence" "degraded" (str_member "error" j);
    Alcotest.(check bool) "carries retry_after_ms" true
      (int_member "retry_after_ms" j >= 0)
  | _ -> Alcotest.fail "one response expected");
  let calls_before = List.length !rpc_calls in
  (* breaker is open: another batch must refuse instantly, no transport use *)
  (match Cluster.handle_batch cluster [ scenario_line 2 ] with
  | [ r ] ->
    Alcotest.(check string) "open breaker answers degraded" "degraded"
      (str_member "error" (parse r))
  | _ -> Alcotest.fail "one response expected");
  Alcotest.(check int) "open breaker pays no transport timeouts" calls_before
    (List.length !rpc_calls);
  (* backend comes back; after the cooldown the half-open probe re-admits *)
  down := false;
  time := !time +. 10.;
  (match Cluster.handle_batch cluster [ scenario_line 3 ] with
  | [ r ] ->
    Alcotest.(check string) "half-open probe restored service" "pong-line" r
  | _ -> Alcotest.fail "one response expected")

let test_cluster_fair_shedding () =
  let cluster =
    Cluster.create
      ~now:(fun () -> 0.)
      ~sleep:(fun _ -> ())
      ~rpc:(fake_rpc (ref []) (fun ~path:_ ~line:_ -> Ok "served"))
      { (cluster_cfg [ "a.sock" ]) with Cluster.queue_depth = 2 }
  in
  let req id client =
    Printf.sprintf
      {|{"id":%d,"client":%S,"scenario":"simulate","params":{"mesh_size":4,"seed":%d}}|}
      id client id
  in
  (* greedy client A sends three, quiet client B sends one, depth is 2:
     fairness admits one from each, shedding A's surplus — arrival order
     would have admitted A twice and starved B *)
  match
    Cluster.handle_batch cluster [ req 1 "A"; req 2 "A"; req 3 "A"; req 4 "B" ]
  with
  | [ a1; a2; a3; b1 ] ->
    Alcotest.(check string) "A's first admitted" "served" a1;
    Alcotest.(check string) "B admitted despite arriving last" "served" b1;
    List.iter
      (fun r ->
        let j = parse r in
        Alcotest.(check string) "surplus shed as degraded" "degraded"
          (str_member "error" j);
        Alcotest.(check bool) "shed response says when to retry" true
          (int_member "retry_after_ms" j > 0))
      [ a2; a3 ]
  | other -> Alcotest.failf "expected 4 responses, got %d" (List.length other)

let test_cluster_deadline_and_controls () =
  let calls = ref [] in
  let cluster =
    Cluster.create
      ~now:(fun () -> 0.)
      ~sleep:(fun _ -> ())
      ~rpc:(fake_rpc calls (fun ~path:_ ~line:_ -> Ok "served"))
      (cluster_cfg [ "a.sock" ])
  in
  (* a zero deadline has expired by the time routing starts: shed before
     any transport work, with the explicit code *)
  (match
     Cluster.handle_batch cluster
       [ {|{"id":9,"scenario":"simulate","params":{"mesh_size":4},"deadline_ms":0}|} ]
   with
  | [ r ] ->
    Alcotest.(check string) "deadline_exceeded code" "deadline_exceeded"
      (str_member "error" (parse r))
  | _ -> Alcotest.fail "one response expected");
  Alcotest.(check bool) "expired request never reached a backend" true
    (List.for_all (fun (_, line) -> line = {|{"scenario":"ping"}|}) !calls);
  (* controls are answered by the router itself *)
  match Cluster.handle_batch cluster [ {|{"scenario":"ping"}|}; {|{"scenario":"stats"}|} ] with
  | [ ping; stats ] ->
    Alcotest.(check string) "router answers ping locally" "pong"
      (str_member "result" (parse ping));
    Alcotest.(check string) "stats names the role" "cluster-router"
      (str_member "role" (Option.get (Json.member "result" (parse stats))))
  | _ -> Alcotest.fail "two responses expected"

(* a sweep breaking a declared bound is answered invalid_request by the
   router itself: no backend ever sees it *)
let test_cluster_rejects_out_of_bounds_locally () =
  let calls = ref [] in
  let cluster =
    Cluster.create
      ~now:(fun () -> 0.)
      ~sleep:(fun _ -> ())
      ~rpc:(fake_rpc calls (fun ~path:_ ~line:_ -> Ok "served"))
      (cluster_cfg [ "a.sock"; "b.sock" ])
  in
  (match
     Cluster.handle_batch cluster [ {|{"scenario":"fig7","params":{"sizes":[1]},"id":4}|} ]
   with
  | [ r ] ->
    Alcotest.(check string) "invalid_request" "invalid_request"
      (str_member "error" (parse r))
  | _ -> Alcotest.fail "one response expected");
  Alcotest.(check bool) "never forwarded" true
    (List.for_all (fun (_, line) -> line = {|{"scenario":"ping"}|}) !calls)

let test_cluster_error_counter_matches_stats () =
  (* every error path (malformed, invalid, shed) must bump the registry
     counter exactly as it bumps stats.errors_total *)
  Obs.disarm ();
  Obs.reset ();
  Obs.arm ();
  Fun.protect
    ~finally:(fun () ->
      Obs.disarm ();
      Obs.reset ())
    (fun () ->
      let cluster =
        Cluster.create
          ~now:(fun () -> 0.)
          ~sleep:(fun _ -> ())
          ~rpc:(fake_rpc (ref []) (fun ~path:_ ~line:_ -> Ok "served"))
          { (cluster_cfg [ "a.sock" ]) with Cluster.queue_depth = 2 }
      in
      let req id client params =
        Printf.sprintf {|{"id":%d,"client":%S,"scenario":"simulate","params":%s}|} id
          client params
      in
      (match
         Cluster.handle_batch cluster
           [
             "not json";
             req 2 "B" {|{"mesh_size":4,"policy":"bogus"}|};
             req 3 "A" {|{"mesh_size":4,"seed":3}|};
             req 4 "A" {|{"mesh_size":4,"seed":4}|};
             req 5 "A" {|{"mesh_size":4,"seed":5}|};
           ]
       with
      | [ malformed; invalid; ok; ok'; shed ] ->
        (* the invalid request takes no admission slot: both slots go
           to client A's first two requests *)
        Alcotest.(check string) "malformed" "error" (str_member "status" (parse malformed));
        Alcotest.(check string) "invalid" "invalid_request" (str_member "error" (parse invalid));
        Alcotest.(check string) "ok" "served" ok;
        Alcotest.(check string) "ok'" "served" ok';
        Alcotest.(check string) "shed" "degraded" (str_member "error" (parse shed))
      | other -> Alcotest.failf "expected 5 responses, got %d" (List.length other));
      let stats =
        match Cluster.handle_batch cluster [ {|{"scenario":"stats"}|} ] with
        | [ r ] -> Option.get (Json.member "result" (parse r))
        | _ -> Alcotest.fail "one response expected"
      in
      Alcotest.(check int) "three errors in stats" 3 (int_member "errors_total" stats);
      Alcotest.(check int) "registry counter equals stats.errors_total"
        (int_member "errors_total" stats)
        (Obs.counter_value (Obs.counter "etx_cluster_errors_total")))

let test_cluster_rejects_bad_config () =
  let check name cfg =
    match Cluster.create ~rpc:(fun ~path:_ ~timeout_s:_ _ -> Ok "") cfg with
    | _ -> Alcotest.failf "%s accepted" name
    | exception Invalid_argument _ -> ()
  in
  check "empty backends" (Cluster.default_config ~backends:[]);
  check "duplicate backends"
    (Cluster.default_config ~backends:[ "a.sock"; "a.sock" ]);
  check "zero attempts"
    { (Cluster.default_config ~backends:[ "a.sock" ]) with Cluster.attempts = 0 };
  check "zero timeout"
    {
      (Cluster.default_config ~backends:[ "a.sock" ]) with
      Cluster.request_timeout_s = 0.;
    }

(* - edges: empty ring, single-backend failover, breaker relapse - *)

let test_ring_empty () =
  let ring = Ring.create [] in
  Alcotest.(check (list string)) "no members" [] (Ring.members ring);
  Alcotest.(check (option string)) "lookup on empty ring" None
    (Ring.lookup ring "fingerprint-1");
  Alcotest.(check (list string)) "ordered on empty ring" []
    (Ring.ordered ring "fingerprint-1");
  Ring.add ring "a.sock";
  Alcotest.(check (option string)) "lookup after add" (Some "a.sock")
    (Ring.lookup ring "fingerprint-1");
  Ring.remove ring "a.sock";
  Alcotest.(check (option string)) "empty again after remove" None
    (Ring.lookup ring "fingerprint-1")

let test_cluster_single_backend_failover () =
  (* with one backend there is nowhere to fail over: every attempt must
     land on that backend, paced by backoff, and the first success wins *)
  let calls = ref [] in
  let failures_left = ref 2 in
  (* only scenario dispatches fail: the startup health probe (a fresh
     backend is pinged immediately) must not consume the budget *)
  let reply ~path ~line =
    if line = scenario_line 1 && !failures_left > 0 then begin
      decr failures_left;
      Error "connection refused"
    end
    else Ok ("from-" ^ path)
  in
  let time = ref 0. in
  let slept = ref [] in
  let cluster =
    Cluster.create
      ~now:(fun () -> !time)
      ~sleep:(fun s -> slept := s :: !slept)
      ~rpc:(fake_rpc calls reply)
      (cluster_cfg [ "only.sock" ])
  in
  (match Cluster.handle_batch cluster [ scenario_line 1 ] with
  | [ r ] ->
    Alcotest.(check string) "third attempt answered" "from-only.sock" r
  | _ -> Alcotest.fail "one response expected");
  let paths =
    List.rev_map fst (List.filter (fun (_, l) -> l = scenario_line 1) !calls)
  in
  Alcotest.(check (list string))
    "every attempt targeted the only backend, in order"
    [ "only.sock"; "only.sock"; "only.sock" ]
    paths;
  Alcotest.(check int) "each retry paced by one backoff sleep" 2
    (List.length !slept)

let test_breaker_relapse_restarts_cooldown () =
  let time = ref 0. in
  let b =
    Breaker.create ~failure_threshold:1 ~cooldown_s:5. ~now:(fun () -> !time) ()
  in
  Breaker.record_failure b;
  Alcotest.(check string) "tripped open" "open"
    (Breaker.state_name (Breaker.state b));
  time := 5.;
  Alcotest.(check bool) "probe granted after cooldown" true (Breaker.allow b);
  (* relapse at t=5: the cooldown must restart from the relapse, not
     keep amortizing the original trip time *)
  Breaker.record_failure b;
  Alcotest.(check string) "half-open failure re-opens" "open"
    (Breaker.state_name (Breaker.state b));
  time := 9.9;
  Alcotest.(check bool) "old cooldown origin would have allowed this" false
    (Breaker.allow b);
  time := 10.;
  Alcotest.(check string) "half-open once the relapse cooldown elapses"
    "half_open"
    (Breaker.state_name (Breaker.state b));
  Alcotest.(check bool) "new probe at relapse + cooldown" true (Breaker.allow b);
  Breaker.record_success b;
  Alcotest.(check string) "probe success closes" "closed"
    (Breaker.state_name (Breaker.state b));
  Alcotest.(check int) "both openings counted" 2 (Breaker.opened_total b)

let suite =
  [
    ( "cluster",
      [
        Alcotest.test_case "backoff bounds" `Quick test_backoff_bounds;
        Alcotest.test_case "backoff determinism" `Quick test_backoff_deterministic;
        Alcotest.test_case "ring lookup" `Quick test_ring_lookup;
        Alcotest.test_case "ring affinity across membership" `Quick
          test_ring_affinity_across_membership;
        QCheck_alcotest.to_alcotest prop_health_transitions;
        Alcotest.test_case "breaker state machine" `Quick test_breaker_state_machine;
        Alcotest.test_case "store roundtrip" `Quick test_store_roundtrip;
        Alcotest.test_case "store corruption is a miss" `Quick
          test_store_corruption_is_a_miss;
        Alcotest.test_case "store key collision is a miss" `Quick
          test_store_key_collision_is_a_miss;
        Alcotest.test_case "store sweeps temp files" `Quick
          test_store_sweeps_temp_files;
        Alcotest.test_case "deadline field parsing" `Quick test_deadline_field_parsing;
        Alcotest.test_case "server sheds expired deadlines" `Quick
          test_server_sheds_expired_deadlines;
        Alcotest.test_case "server durable store tier" `Quick test_server_store_tier;
        Alcotest.test_case "affinity and verbatim forwarding" `Quick
          test_cluster_affinity_and_verbatim_forwarding;
        Alcotest.test_case "failover" `Quick test_cluster_failover;
        Alcotest.test_case "breaker trip and recovery" `Quick
          test_cluster_breaker_and_recovery;
        Alcotest.test_case "fair shedding" `Quick test_cluster_fair_shedding;
        Alcotest.test_case "deadlines and controls" `Quick
          test_cluster_deadline_and_controls;
        Alcotest.test_case "out-of-bounds params answered locally" `Quick
          test_cluster_rejects_out_of_bounds_locally;
        Alcotest.test_case "error counter matches stats" `Quick
          test_cluster_error_counter_matches_stats;
        Alcotest.test_case "config validation" `Quick test_cluster_rejects_bad_config;
        Alcotest.test_case "empty ring" `Quick test_ring_empty;
        Alcotest.test_case "single-backend failover order" `Quick
          test_cluster_single_backend_failover;
        Alcotest.test_case "breaker relapse restarts cooldown" `Quick
          test_breaker_relapse_restarts_cooldown;
      ] );
  ]
