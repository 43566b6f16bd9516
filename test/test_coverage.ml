(* Edge-case and rendering coverage across the libraries: behaviours the
   main suites do not reach (pretty-printers, degenerate inputs, less
   common configuration paths). *)

module Topology = Etx_graph.Topology
module Digraph = Etx_graph.Digraph
module Engine = Etx_etsim.Engine
module Metrics = Etx_etsim.Metrics
module Config = Etx_etsim.Config
module Trace = Etx_etsim.Trace
module Timeline = Etx_etsim.Timeline
module Battery = Etx_battery.Battery

let contains = Astring_contains.contains
let format_to_string pp value = Format.asprintf "%a" pp value

(* - pretty printers - *)

let test_trace_event_printers () =
  let events =
    [
      (Trace.Job_launched { job = 1; entry = 2; cycle = 3 }, "launched");
      (Trace.Act_completed { job = 1; node = 2; module_index = 0; cycle = 3 }, "module 1");
      (Trace.Packet_sent { job = 1; src = 2; dst = 3; cycle = 4 }, "packet");
      (Trace.Job_completed { job = 1; cycle = 2; verified = true }, "verified");
      (Trace.Job_completed { job = 1; cycle = 2; verified = false }, "FAILED");
      (Trace.Job_lost { job = 1; node = 2; cycle = 3 }, "lost");
      (Trace.Node_death { node = 1; cycle = 2 }, "died");
      (Trace.Frame_run { cycle = 1; recomputed = true }, "recomputed");
      (Trace.Frame_run { cycle = 1; recomputed = false }, "frame");
      (Trace.Deadlock_report { node = 1; hop = 2; cycle = 3 }, "deadlock");
      (Trace.Controller_failover { survivors = 1; cycle = 2 }, "failover");
      (Trace.System_death { cycle = 1; reason = "the reason" }, "the reason");
      (Trace.Link_wearout { a = 1; b = 2; cycle = 3 }, "wore out");
      (Trace.Packet_corrupted { job = 1; src = 2; dst = 3; attempt = 1; cycle = 4 }, "corrupted");
      (Trace.Retransmission { job = 1; src = 2; dst = 3; attempt = 2; cycle = 4 }, "retransmit");
      (Trace.Packet_dropped { job = 1; src = 2; dst = 3; cycle = 4 }, "retries exhausted");
      (Trace.Node_brownout { node = 1; until = 900; cycle = 4 }, "browned out");
      (Trace.Upload_dropped { node = 1; cycle = 2 }, "upload");
      (Trace.Download_dropped { cycle = 2 }, "stale");
    ]
  in
  List.iter
    (fun (event, needle) ->
      let rendered = format_to_string Trace.pp_event event in
      Alcotest.(check bool) needle true (contains rendered needle))
    events

let test_trace_pp_notes_drops () =
  let t = Trace.create ~capacity:1 in
  Trace.record t (Trace.Node_death { node = 0; cycle = 0 });
  Trace.record t (Trace.Node_death { node = 1; cycle = 1 });
  Alcotest.(check bool) "mentions dropped" true
    (contains (format_to_string Trace.pp t) "dropped")

let test_timeline_pp_sparkline () =
  let t = Timeline.create () in
  Timeline.record t
    {
      Timeline.cycle = 0;
      jobs_completed = 0;
      jobs_in_flight = 1;
      alive_nodes = 4;
      mean_soc = 1.0;
      min_soc = 1.0;
      total_remaining_pj = 100.;
      deadlocked_ports = 0;
    };
  let rendered = format_to_string Timeline.pp t in
  Alcotest.(check bool) "frame count" true (contains rendered "1 frames");
  Alcotest.(check bool) "sparkline rows" true (contains rendered "mean soc")

let test_metrics_pp () =
  let m =
    Engine.simulate
      (Etextile.Calibration.config ~mesh_size:4 ~seed:1 ()
      |> fun c -> { c with Config.max_jobs = Some 3 })
  in
  let rendered = format_to_string Metrics.pp m in
  Alcotest.(check bool) "jobs line" true (contains rendered "jobs completed: 3");
  Alcotest.(check bool) "energy line" true (contains rendered "energy (pJ)")

let test_matrix_pp () =
  let m = Etx_util.Matrix.create ~dim:2 ~init:infinity in
  Etx_util.Matrix.set m 0 0 0.;
  let rendered = format_to_string Etx_util.Matrix.pp m in
  Alcotest.(check bool) "inf rendered" true (contains rendered "inf");
  let mi = Etx_util.Matrix.Int.create ~dim:2 ~init:(-1) in
  Alcotest.(check bool) "int matrix" true
    (contains (format_to_string Etx_util.Matrix.Int.pp mi) "-1")

let test_digraph_pp () =
  let g = Digraph.create ~node_count:2 in
  Digraph.add_edge g ~src:0 ~dst:1 ~length:2.5;
  let rendered = format_to_string Digraph.pp g in
  Alcotest.(check bool) "edge listed" true (contains rendered "0 -> 1")

let test_units_pp () =
  Alcotest.(check string) "pJ" "500.000 pJ"
    (format_to_string Etx_util.Units.pp_picojoules 500.);
  Alcotest.(check string) "nJ" "1.500 nJ"
    (format_to_string Etx_util.Units.pp_picojoules 1500.);
  Alcotest.(check string) "uJ" "2.000 uJ"
    (format_to_string Etx_util.Units.pp_picojoules 2e6)

let test_routing_table_pp () =
  let t = Etx_routing.Routing_table.create ~node_count:2 ~module_count:1 in
  Etx_routing.Routing_table.set t ~node:0 ~module_index:0
    (Etx_routing.Routing_table.Forward { next_hop = 1; destination = 1 });
  let rendered = format_to_string Etx_routing.Routing_table.pp t in
  Alcotest.(check bool) "forward entry" true (contains rendered "->1");
  Alcotest.(check bool) "unreachable entry" true (contains rendered "unreachable")

let test_topology_pp_kind () =
  Alcotest.(check string) "torus" "4x4 torus"
    (format_to_string Topology.pp_kind (Topology.torus ~rows:4 ~cols:4 ()).Topology.kind)

(* - degenerate inputs - *)

let test_fw_single_node () =
  let w = Etx_util.Matrix.create ~dim:1 ~init:0. in
  let result = Etx_graph.Floyd_warshall.run w in
  Alcotest.(check (float 1e-9)) "self" 0.
    (Etx_graph.Floyd_warshall.distance result ~src:0 ~dst:0)

let test_topology_node_of_coord_missing () =
  let t = Topology.square_mesh ~size:3 () in
  Alcotest.check_raises "missing" Not_found (fun () ->
      ignore (Topology.node_of_coord t ~x:9 ~y:9))

let test_stats_merge_two_empty () =
  let merged = Etx_util.Stats.merge (Etx_util.Stats.create ()) (Etx_util.Stats.create ()) in
  Alcotest.(check int) "still empty" 0 (Etx_util.Stats.count merged)

let test_mesh_minimum_size () =
  let t = Topology.mesh ~rows:1 ~cols:2 () in
  Alcotest.(check int) "two nodes" 2 (Topology.node_count t);
  Alcotest.(check int) "one bidirectional link" 2 (Digraph.edge_count t.Topology.graph)

let test_heatmap_without_legend () =
  let t = Topology.square_mesh ~size:2 () in
  let rendered =
    Etextile.Heatmap.render ~topology:t ~values:(Array.make 4 0.5) ~legend:false ()
  in
  Alcotest.(check bool) "no legend" false (contains rendered "tenths")

let test_workload_plan_copy_isolated () =
  let w = Etx_etsim.Workload.aes_encrypt ~key_hex:"000102030405060708090a0b0c0d0e0f" in
  let plan = Etx_etsim.Workload.plan w in
  plan.(0) <- { Etx_etsim.Workload.module_index = 0; tag = 99 };
  Alcotest.(check bool) "internal plan untouched" true
    (match Etx_etsim.Workload.act_at w ~step:0 with
    | Some act -> act.Etx_etsim.Workload.module_index = 2
    | None -> false)

(* - engine configuration paths - *)

let calibrated ?policy ~seed size = Etextile.Calibration.config ?policy ~mesh_size:size ~seed ()

let test_engine_fixed_entry_runs () =
  let base = Etextile.Calibration.config ~mesh_size:4 ~seed:1 () in
  let config = { base with Config.job_source = Config.Fixed_entry 5 } in
  let m = Engine.simulate config in
  Alcotest.(check bool) "completes jobs" true (m.Metrics.jobs_completed > 10)

let test_engine_wider_levels_policy () =
  let m =
    Engine.simulate
      (calibrated ~policy:(Etx_routing.Policy.ear ~levels:16 ()) ~seed:1 4)
  in
  Alcotest.(check bool) "still works" true (m.Metrics.jobs_completed > 20)

let test_engine_torus_platform () =
  (* wrap-around links give the corner entry more neighbours *)
  let topology = Topology.torus ~rows:4 ~cols:4 () in
  let config =
    Config.make ~topology ~policy:(Etx_routing.Policy.ear ())
      ~frame_period_cycles:800 ~reception_energy_fraction:0.8
      ~job_source:Config.Round_robin_entry ~seed:1 ()
  in
  let m = Engine.simulate config in
  Alcotest.(check bool) "torus runs" true (m.Metrics.jobs_completed > 10);
  Alcotest.(check int) "verified" m.jobs_completed m.jobs_verified

let test_engine_latency_metrics_consistent () =
  let m = Engine.simulate (calibrated ~seed:1 4) in
  Alcotest.(check bool) "mean <= max" true
    (m.Metrics.job_latency_mean_cycles <= float_of_int m.Metrics.job_latency_max_cycles);
  Alcotest.(check bool) "max <= lifetime" true
    (m.Metrics.job_latency_max_cycles <= m.Metrics.lifetime_cycles)

let test_engine_hops_per_act_band () =
  let m = Engine.simulate (calibrated ~seed:1 6) in
  let hops = Metrics.mean_hops_per_act m in
  (* checkerboard meshes route most acts over 1-2 hops *)
  Alcotest.(check bool) "in band" true (hops >= 1. && hops <= 2.)

let test_engine_controller_metrics_exposed () =
  let config =
    { (calibrated ~seed:1 4) with
      Config.controllers = Config.Battery_controllers { count = 2 } }
  in
  let m = Engine.simulate config in
  Alcotest.(check bool) "controller energy metered" true
    (m.Metrics.controller_compute_energy_pj > 0.);
  Alcotest.(check bool) "stranded + residual controllers accounted" true
    (m.Metrics.stranded_controller_energy_pj +. m.residual_controller_energy_pj >= 0.)

let test_death_reason_strings () =
  List.iter
    (fun (reason, needle) ->
      Alcotest.(check bool) needle true
        (contains (Metrics.death_reason_string reason) needle))
    [
      (Metrics.Job_lost_to_node_death { node = 3; job = 7 }, "node 3");
      (Metrics.Module_unreachable { module_index = 1; from_node = 2 }, "module 2");
      (Metrics.Entry_node_dead { node = 0 }, "entry");
      (Metrics.Controllers_exhausted, "controller");
      (Metrics.Cycle_limit, "cycle");
      (Metrics.Job_limit, "cap");
      (Metrics.Job_lost_to_brownout { node = 4; job = 9 }, "browned out");
    ]

(* - analysis/report coverage - *)

let test_predictions_report_renders () =
  let rendered =
    Etextile.Report.predictions
      (Etextile.Experiments.predictions ~sizes:[ 4 ] ~seeds:[ 1 ] ())
  in
  Alcotest.(check bool) "has error column" true (contains rendered "error");
  Alcotest.(check bool) "mesh row" true (contains rendered "4x4")

let test_calibration_failure_schedule_passthrough () =
  let topology = Topology.square_mesh ~size:4 () in
  let schedule =
    Etextile.Experiments.random_failure_schedule ~topology ~count:2 ~before_cycle:100
      ~seed:1
  in
  let config =
    Etextile.Calibration.config ~link_failure_schedule:schedule ~mesh_size:4 ~seed:1 ()
  in
  Alcotest.(check int) "schedule kept" 2 (List.length config.Config.link_failure_schedule)

let suite =
  [
    ( "coverage/printers",
      [
        Alcotest.test_case "trace events" `Quick test_trace_event_printers;
        Alcotest.test_case "trace drop note" `Quick test_trace_pp_notes_drops;
        Alcotest.test_case "timeline sparkline" `Quick test_timeline_pp_sparkline;
        Alcotest.test_case "metrics report" `Quick test_metrics_pp;
        Alcotest.test_case "matrices" `Quick test_matrix_pp;
        Alcotest.test_case "digraph" `Quick test_digraph_pp;
        Alcotest.test_case "units" `Quick test_units_pp;
        Alcotest.test_case "routing table" `Quick test_routing_table_pp;
        Alcotest.test_case "topology kind" `Quick test_topology_pp_kind;
        Alcotest.test_case "death reasons" `Quick test_death_reason_strings;
      ] );
    ( "coverage/degenerate",
      [
        Alcotest.test_case "single-node Floyd-Warshall" `Quick test_fw_single_node;
        Alcotest.test_case "missing coordinate" `Quick test_topology_node_of_coord_missing;
        Alcotest.test_case "merge two empty stats" `Quick test_stats_merge_two_empty;
        Alcotest.test_case "1xN mesh" `Quick test_mesh_minimum_size;
        Alcotest.test_case "heatmap without legend" `Quick test_heatmap_without_legend;
        Alcotest.test_case "workload plan copies" `Quick test_workload_plan_copy_isolated;
      ] );
    ( "coverage/engine-configs",
      [
        Alcotest.test_case "fixed entry" `Quick test_engine_fixed_entry_runs;
        Alcotest.test_case "finer battery levels" `Quick test_engine_wider_levels_policy;
        Alcotest.test_case "torus platform" `Quick test_engine_torus_platform;
        Alcotest.test_case "latency metrics consistent" `Quick
          test_engine_latency_metrics_consistent;
        Alcotest.test_case "hops per act band" `Quick test_engine_hops_per_act_band;
        Alcotest.test_case "controller metrics" `Quick test_engine_controller_metrics_exposed;
      ] );
    ( "coverage/reporting",
      [
        Alcotest.test_case "predictions table" `Slow test_predictions_report_renders;
        Alcotest.test_case "failure schedule passthrough" `Quick
          test_calibration_failure_schedule_passthrough;
      ] );
  ]
