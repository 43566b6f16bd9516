(* The chaos property, as a QCheck property over the schedule seed.

   Each trial spawns a real 3-backend supervised cluster sharing a
   durable store, routes a request stream through the router while a
   seeded schedule kills and hangs (SIGSTOP) backends mid-batch and the
   supervisor heals them, rolls a graceful restart through the fleet
   under a second stream, and then cold-restarts everything.  The
   properties:

   - no accepted request is lost (degraded responses retried, bounded);
   - every response's result bytes are bit-identical to a single
     in-process daemon's;
   - the rolling restart completes its stream and no drain escalates
     to SIGKILL;
   - after the full cold restart, every fingerprint from both streams
     is served from the durable store without recomputation.

   A failing seed is printed by QCheck as the counterexample — replay
   it with `etx chaos --seed N` and the reported shape.  Trials cost
   seconds each (real processes, real signals), so the count is small;
   the seed generator still varies the schedule across runs of the
   suite's lifetime. *)

module Chaos = Etx_service.Chaos
module Cluster = Etx_service.Cluster

let exe = "../bin/etx_main.exe"

let scratch seed =
  Filename.concat
    (Filename.get_temp_dir_name ())
    (Printf.sprintf "etx-chaos-test-%d-%d" (Unix.getpid ()) seed)

let rec remove_tree path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun e -> remove_tree (Filename.concat path e)) (Sys.readdir path);
    (try Unix.rmdir path with Unix.Unix_error _ -> ())
  | _ -> ( try Sys.remove path with Sys_error _ -> ())
  | exception Unix.Unix_error _ -> ()

(* one harness run of the given shape; true iff every request of both
   streams is accounted for and no property was violated *)
let chaos_run ~requests ~events seed =
  (* each shape gets its own scratch tree, so the two properties never
     share sockets or a store even when QCheck draws the same seed *)
  let dir = scratch ((1_000 * requests) + seed) in
  remove_tree dir;
  Fun.protect
    ~finally:(fun () -> remove_tree dir)
    (fun () ->
      let outcome =
        Chaos.run (Chaos.config ~backends:3 ~requests ~events ~seed ~exe ~dir ())
      in
      match outcome.Chaos.violations with
      | [] ->
        outcome.Chaos.completed = requests
        && outcome.Chaos.rolling_completed = requests
        && outcome.Chaos.store_served_after_restart = 2 * requests
      | violations ->
        QCheck.Test.fail_reportf
          "chaos violations for seed %d, %d requests, %d events (replay: etx \
           chaos --seed %d --requests %d --events %d):\n%s"
          seed requests events seed requests events
          (String.concat "\n" violations))

(* two stream shapes, each with every check above: the longer, busier
   schedule and the shorter one *)
let chaos_survives_seeded_faults =
  QCheck.Test.make ~count:2 ~name:"cluster survives seeded kill/hang/restart chaos"
    QCheck.(int_range 1 1000)
    (chaos_run ~requests:6 ~events:4)

let supervised_cluster_heals_and_rolls =
  QCheck.Test.make ~count:2
    ~name:"supervised cluster self-heals and survives a rolling restart"
    QCheck.(int_range 1 1000)
    (chaos_run ~requests:5 ~events:3)

(* the router's degraded reply must read as retryable: its code travels
   under "error", as every daemon error does *)
let test_classify_router_degraded () =
  let cluster =
    Cluster.create ~sleep:ignore
      ~rpc:(fun ~path:_ ~timeout_s:_ _ -> Error "backend unreachable")
      (Cluster.default_config ~backends:[ "b0"; "b1" ])
  in
  let reply =
    match
      Cluster.handle_batch cluster
        [ {|{"id":1,"scenario":"simulate","params":{"mesh_size":4}}|} ]
    with
    | [ reply ] -> reply
    | replies -> Alcotest.failf "expected one reply, got %d" (List.length replies)
  in
  match Chaos.classify reply with
  | Chaos.Refused "degraded" -> ()
  | Chaos.Refused code -> Alcotest.failf "degraded reply read as code %S: %s" code reply
  | Chaos.Served _ -> Alcotest.failf "degraded reply read as served: %s" reply
  | Chaos.Garbled what -> Alcotest.failf "degraded reply unreadable: %s" what

let suite =
  [
    ( "chaos",
      [
        Alcotest.test_case "router degraded reply is retryable" `Quick
          test_classify_router_degraded;
        QCheck_alcotest.to_alcotest chaos_survives_seeded_faults;
        QCheck_alcotest.to_alcotest supervised_cluster_heals_and_rolls;
      ] );
  ]

let () = Alcotest.run "cluster-chaos" suite
