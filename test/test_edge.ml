(* A further round of edge cases across the stack: structures at their
   size limits, parameter extremes, and cross-module consistency checks
   not covered by the per-module suites. *)

module Topology = Etx_graph.Topology
module Digraph = Etx_graph.Digraph
module Dijkstra = Etx_graph.Dijkstra
module Fw = Etx_graph.Floyd_warshall
module Battery = Etx_battery.Battery
module Profile = Etx_battery.Profile
module Weight = Etx_routing.Weight
module Router = Etx_routing.Router
module Mapping = Etx_routing.Mapping
module Analysis = Etx_routing.Analysis
module Maximin = Etx_routing.Maximin
module Config = Etx_etsim.Config
module Engine = Etx_etsim.Engine
module Metrics = Etx_etsim.Metrics
module Workload = Etx_etsim.Workload

let check_float = Alcotest.(check (float 1e-9))

(* - graph structures at their limits - *)

let test_dijkstra_heap_growth () =
  (* a dense graph: the source's relaxations put every other node on the
     indexed heap at once, and later relaxations are decrease-keys *)
  let n = 40 in
  let g = Digraph.create ~node_count:n in
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      if i <> j then Digraph.add_edge g ~src:i ~dst:j ~length:(float_of_int ((i + j) mod 7) +. 1.)
    done
  done;
  let result = Dijkstra.run (Digraph.adjacency_matrix g) ~src:0 in
  for j = 1 to n - 1 do
    Alcotest.(check bool) "all reachable" true (result.Dijkstra.distances.(j) < infinity)
  done

let test_fw_asymmetric_graph () =
  (* directions can have different distances *)
  let g = Digraph.create ~node_count:3 in
  Digraph.add_edge g ~src:0 ~dst:1 ~length:1.;
  Digraph.add_edge g ~src:1 ~dst:2 ~length:1.;
  Digraph.add_edge g ~src:2 ~dst:0 ~length:10.;
  let r = Fw.run (Digraph.adjacency_matrix g) in
  check_float "forward" 2. (Fw.distance r ~src:0 ~dst:2);
  check_float "backward" 10. (Fw.distance r ~src:2 ~dst:0)

let test_torus_shortens_hop_counts () =
  (* wrap links span the fabric so the physical distance is unchanged,
     but corner-to-corner needs far fewer hops *)
  let hops topology =
    let n = Etx_graph.Topology.node_count topology in
    let w =
      Etx_util.Matrix.init ~dim:n ~f:(fun i j -> if i = j then 0. else infinity)
    in
    Digraph.iter_edges topology.Topology.graph ~f:(fun ~src ~dst ~length:_ ->
        Etx_util.Matrix.set w src dst 1.);
    Fw.distance (Fw.run w) ~src:0 ~dst:(n - 1)
  in
  let mesh_hops = hops (Topology.square_mesh ~size:6 ()) in
  let torus_hops = hops (Topology.torus ~rows:6 ~cols:6 ()) in
  Alcotest.(check (float 1e-9)) "mesh corner distance" 10. mesh_hops;
  Alcotest.(check (float 1e-9)) "torus corner distance" 2. torus_hops

let test_torus_small_has_no_wrap () =
  (* a 2-wide torus would duplicate existing links; the generator skips
     the wrap in that dimension *)
  let t = Topology.torus ~rows:2 ~cols:2 () in
  Alcotest.(check int) "same as the mesh" (Digraph.edge_count (Topology.mesh ~rows:2 ~cols:2 ()).Topology.graph)
    (Digraph.edge_count t.Topology.graph)

(* - battery and profile extremes - *)

let test_profile_constant_soc_at_voltage () =
  let p = Profile.constant ~volts:3.5 in
  check_float "never drops below smaller" 0. (Profile.soc_at_voltage p ~volts:3.0);
  check_float "always below bigger" 1. (Profile.soc_at_voltage p ~volts:4.0)

let test_battery_thin_film_level_tracks_total_charge () =
  let b =
    Battery.create ~kind:(Battery.Thin_film Battery.default_thin_film) ~capacity_pj:8000.
  in
  Alcotest.(check int) "full" 7 (Battery.level b ~levels:8);
  (* two 2000 pJ draws with rests: draining the whole available well at
     once would collapse the cell (tested elsewhere) *)
  ignore (Battery.draw b ~energy_pj:2000.);
  Battery.tick b ~cycles:100_000;
  ignore (Battery.draw b ~energy_pj:2000.);
  Battery.tick b ~cycles:100_000 (* let wells equalize *);
  Alcotest.(check bool) "alive at half charge" true (not (Battery.is_dead b));
  Alcotest.(check bool) "half-ish" true
    (let l = Battery.level b ~levels:8 in
     l >= 3 && l <= 4)

let test_battery_zero_energy_draw () =
  let b = Battery.create ~kind:Battery.Ideal ~capacity_pj:10. in
  Alcotest.(check bool) "free draw ok" true (Battery.draw b ~energy_pj:0.);
  check_float "nothing taken" 10. (Battery.remaining_pj b)

let test_battery_tick_validation () =
  let b = Battery.create ~kind:Battery.Ideal ~capacity_pj:10. in
  Alcotest.check_raises "negative" (Invalid_argument "Battery.tick: negative cycles")
    (fun () -> Battery.tick b ~cycles:(-1))

(* - routing-layer extremes - *)

let test_weight_two_levels () =
  (* the coarsest quantization the policy layer allows *)
  let w = Weight.Exponential { q = 2. } in
  check_float "full" 1. (Weight.battery_factor w ~level:1 ~levels:2);
  check_float "drained" 2. (Weight.battery_factor w ~level:0 ~levels:2)

let test_weight_q_below_one_inverts () =
  (* q < 1 would PREFER drained nodes; the policy constructor allows any
     positive q, and the weight algebra stays consistent *)
  let w = Weight.Exponential { q = 0.5 } in
  Alcotest.(check bool) "factor below one" true
    (Weight.battery_factor w ~level:0 ~levels:8 < 1.)

let test_router_on_line_topology () =
  let line = Topology.line ~length:6 () in
  let assignment = [| 0; 2; 1; 2; 0; 2 |] in
  let mapping = Mapping.custom ~assignment ~module_count:3 in
  let snapshot = Router.full_snapshot ~node_count:6 ~levels:8 in
  let table =
    Router.compute ~graph:line.Topology.graph ~mapping ~module_count:3
      ~weight:Weight.Shortest_distance snapshot
  in
  (* from the left end, module 2 (index 1) sits at node 2 *)
  Alcotest.(check (option int)) "next hop" (Some 1)
    (Etx_routing.Routing_table.next_hop table ~node:0 ~module_index:1);
  Alcotest.(check (option int)) "destination" (Some 2)
    (Etx_routing.Routing_table.destination table ~node:0 ~module_index:1)

let test_maximin_failed_links_respected () =
  let line = Topology.line ~length:3 () in
  let snapshot =
    { (Router.full_snapshot ~node_count:3 ~levels:8) with
      Router.failed_links = [ (0, 1); (1, 0) ] }
  in
  let value, hop = Maximin.widest_path ~graph:line.Topology.graph ~snapshot ~src:0 ~dst:2 in
  Alcotest.(check int) "cut" (-1) value.Maximin.width;
  Alcotest.(check (option int)) "no hop" None hop

let test_analysis_reception_parameter_matters () =
  let problem = Etextile.Calibration.problem ~mesh_size:4 in
  let topology = Topology.square_mesh ~size:4 () in
  let mapping = Mapping.checkerboard topology in
  let jobs fraction =
    (Analysis.predict ~problem ~topology ~mapping
       ~module_sequence:Etextile.Experiments.aes_module_sequence
       ~reception_fraction:fraction ())
      .Analysis.predicted_jobs
  in
  Alcotest.(check bool) "free reception predicts more" true (jobs 0. > jobs 1.)

let test_analysis_usable_fraction_scales () =
  let problem = Etextile.Calibration.problem ~mesh_size:4 in
  let topology = Topology.square_mesh ~size:4 () in
  let mapping = Mapping.checkerboard topology in
  let jobs fraction =
    (Analysis.predict ~problem ~topology ~mapping
       ~module_sequence:Etextile.Experiments.aes_module_sequence
       ~usable_fraction:fraction ())
      .Analysis.predicted_jobs
  in
  Alcotest.(check (float 1e-6)) "linear in usable charge" (2. *. jobs 0.4) (jobs 0.8)

(* - engine parameter extremes - *)

let quick_config ?(size = 4) changes =
  changes (Etextile.Calibration.config ~mesh_size:size ~seed:1 ())

let test_engine_zero_reception () =
  let config = quick_config (fun c -> { c with Config.reception_energy_fraction = 0. }) in
  let m = Engine.simulate config in
  Alcotest.(check bool) "more jobs with free reception" true (m.Metrics.jobs_completed > 61)

let test_engine_tiny_battery_dies_fast () =
  let config = quick_config (fun c -> { c with Config.battery_capacity_pj = 5000. }) in
  let m = Engine.simulate config in
  Alcotest.(check bool) "very short life" true (m.Metrics.jobs_completed < 10)

let test_engine_huge_frame_period_starves_routing () =
  (* with one frame per 40k cycles, tables go stale and throughput
     suffers relative to the calibrated 800 *)
  let slow = quick_config (fun c -> { c with Config.frame_period_cycles = 40_000 }) in
  let fast = quick_config Fun.id in
  let jobs c = (Engine.simulate c).Metrics.jobs_completed in
  Alcotest.(check bool) "stale tables cost jobs" true (jobs slow <= jobs fast)

let test_engine_all_links_failed_dies_structurally () =
  let topology = Topology.square_mesh ~size:3 () in
  let all_links =
    Digraph.fold_edges topology.Topology.graph ~init:[] ~f:(fun acc ~src ~dst ~length:_ ->
        if src < dst then (0, src, dst) :: acc else acc)
  in
  let config =
    Etx_etsim.Config.make ~topology ~link_failure_schedule:all_links
      ~frame_period_cycles:800 ~job_source:Config.Round_robin_entry ~seed:1 ()
  in
  let m = Engine.simulate config in
  Alcotest.(check int) "no job can even start" 0 m.Metrics.jobs_completed;
  match m.death_reason with
  | Metrics.Module_unreachable _ -> ()
  | other -> Alcotest.failf "expected unreachable, got %s" (Metrics.death_reason_string other)

let test_engine_single_controller_equivalence () =
  (* a bank of controller cells that outlives the platform behaves like
     the infinite controller: failover hands over within a frame *)
  let finite =
    quick_config (fun c ->
        { c with Config.controllers = Config.Battery_controllers { count = 10 } })
  in
  let infinite = quick_config Fun.id in
  let m = Engine.simulate finite in
  Alcotest.(check bool) "failover happened" true (m.Metrics.controller_deaths >= 1);
  Alcotest.(check bool) "the bank outlived the platform" true
    (m.Metrics.controller_deaths < 10);
  Alcotest.(check int) "same jobs" (Engine.simulate infinite).Metrics.jobs_completed
    m.Metrics.jobs_completed

let test_workload_single_module_plan () =
  let w = Workload.synthetic ~acts_per_job:[| 4 |] () in
  Alcotest.(check int) "four acts" 4 (Workload.plan_length w);
  (* only one module: repeats are unavoidable and allowed *)
  Array.iter
    (fun act -> Alcotest.(check int) "module 0" 0 act.Workload.module_index)
    (Workload.plan w)

let test_engine_single_module_workload () =
  (* a one-module application: every act is Deliver_here after the first
     routing step; the platform still works *)
  let topology = Topology.square_mesh ~size:3 () in
  let workload = Workload.synthetic ~acts_per_job:[| 12 |] () in
  let config =
    Etx_etsim.Config.make ~topology
      ~computation:(Etx_energy.Computation.custom ~energies_pj:[| 120. |])
      ~computation_cycles:[| 2 |]
      ~mapping:(Mapping.custom ~assignment:(Array.make 9 0) ~module_count:1)
      ~workloads:[ workload ] ~frame_period_cycles:800
      ~job_source:Config.Round_robin_entry ~seed:1 ()
  in
  let m = Engine.simulate config in
  Alcotest.(check bool) "completes" true (m.Metrics.jobs_completed > 20);
  Alcotest.(check int) "verified" m.jobs_completed m.jobs_verified

let suite =
  [
    ( "edge/graph",
      [
        Alcotest.test_case "dijkstra heap growth" `Quick test_dijkstra_heap_growth;
        Alcotest.test_case "asymmetric distances" `Quick test_fw_asymmetric_graph;
        Alcotest.test_case "torus shortens hop counts" `Quick test_torus_shortens_hop_counts;
        Alcotest.test_case "tiny torus has no wrap" `Quick test_torus_small_has_no_wrap;
      ] );
    ( "edge/battery",
      [
        Alcotest.test_case "constant profile inverse" `Quick test_profile_constant_soc_at_voltage;
        Alcotest.test_case "thin-film level tracking" `Quick
          test_battery_thin_film_level_tracks_total_charge;
        Alcotest.test_case "zero-energy draw" `Quick test_battery_zero_energy_draw;
        Alcotest.test_case "tick validation" `Quick test_battery_tick_validation;
      ] );
    ( "edge/routing",
      [
        Alcotest.test_case "two-level weights" `Quick test_weight_two_levels;
        Alcotest.test_case "q below one" `Quick test_weight_q_below_one_inverts;
        Alcotest.test_case "router on a line" `Quick test_router_on_line_topology;
        Alcotest.test_case "maximin failed links" `Quick test_maximin_failed_links_respected;
        Alcotest.test_case "analysis reception knob" `Quick
          test_analysis_reception_parameter_matters;
        Alcotest.test_case "analysis usable fraction" `Quick test_analysis_usable_fraction_scales;
      ] );
    ( "edge/engine",
      [
        Alcotest.test_case "zero reception" `Quick test_engine_zero_reception;
        Alcotest.test_case "tiny battery" `Quick test_engine_tiny_battery_dies_fast;
        Alcotest.test_case "huge frame period" `Quick
          test_engine_huge_frame_period_starves_routing;
        Alcotest.test_case "all links failed" `Quick
          test_engine_all_links_failed_dies_structurally;
        Alcotest.test_case "big finite controller = infinite" `Quick
          test_engine_single_controller_equivalence;
        Alcotest.test_case "one-module workload plan" `Quick test_workload_single_module_plan;
        Alcotest.test_case "one-module platform" `Quick test_engine_single_module_workload;
      ] );
  ]
