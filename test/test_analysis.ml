(* Tests for the analysis extensions: max-min residual routing, the
   static lifetime predictor, and the placement optimizer. *)

module Maximin = Etx_routing.Maximin
module Analysis = Etx_routing.Analysis
module Placement = Etx_routing.Placement
module Router = Etx_routing.Router
module Mapping = Etx_routing.Mapping
module Routing_table = Etx_routing.Routing_table
module Topology = Etx_graph.Topology
module Policy = Etx_routing.Policy
module Engine = Etx_etsim.Engine
module Metrics = Etx_etsim.Metrics

let aes_sequence = Etextile.Experiments.aes_module_sequence

(* - Maximin - *)

let test_maximin_better_ordering () =
  let open Maximin in
  Alcotest.(check bool) "wider wins" true
    (better { width = 5; distance = 9. } { width = 4; distance = 1. });
  Alcotest.(check bool) "same width, shorter wins" true
    (better { width = 4; distance = 1. } { width = 4; distance = 2. });
  Alcotest.(check bool) "equal is not better" false
    (better { width = 4; distance = 1. } { width = 4; distance = 1. })

let test_maximin_widest_on_line () =
  (* line 0-1-2 with levels 7, 2, 5: path 0 -> 2 has width min(2, 5) = 2 *)
  let line = Topology.line ~length:3 () in
  let snapshot = Router.full_snapshot ~node_count:3 ~levels:8 in
  snapshot.Router.battery_level.(1) <- 2;
  snapshot.Router.battery_level.(2) <- 5;
  let value, hop = Maximin.widest_path ~graph:line.Topology.graph ~snapshot ~src:0 ~dst:2 in
  Alcotest.(check int) "bottleneck" 2 value.Maximin.width;
  Alcotest.(check (float 1e-9)) "distance" 2. value.Maximin.distance;
  Alcotest.(check (option int)) "successor" (Some 1) hop

let test_maximin_prefers_wide_detour () =
  (* diamond: 0 -> 3 via 1 (level 1) or via 2 (level 6): widest path goes
     through 2 even though ids tie-break would pick 1 *)
  let topology =
    Topology.custom ~name:"diamond" ~node_count:4
      ~coords:[| (1, 1); (2, 1); (2, 2); (3, 1) |]
      ~links:[ (0, 1, 1.); (0, 2, 1.); (1, 3, 1.); (2, 3, 1.) ]
  in
  let snapshot = Router.full_snapshot ~node_count:4 ~levels:8 in
  snapshot.Router.battery_level.(1) <- 1;
  snapshot.Router.battery_level.(2) <- 6;
  let value, hop = Maximin.widest_path ~graph:topology.Topology.graph ~snapshot ~src:0 ~dst:3 in
  Alcotest.(check int) "width through node 2" 6 value.Maximin.width;
  Alcotest.(check (option int)) "detours" (Some 2) hop

(* Shortest-widest is not isotone.  Node 0 reaches node 3 through node
   1 (level 3, 2 cm) or node 2 (level 7, 10 cm), and node 4 (level 2)
   hangs off node 3.  Every route to node 4 is 2 wide, so the shortest,
   through node 1, is optimal (3 cm).  A lexicographic Floyd-Warshall
   keeps the wider 0 -> 3 sub-path through node 2 and forwards there,
   11 cm; the per-level kernel must not. *)
let test_maximin_drops_wider_longer_detour () =
  let t =
    Topology.custom ~name:"detour" ~node_count:5
      ~coords:[| (1, 2); (2, 1); (2, 3); (3, 2); (4, 2) |]
      ~links:[ (0, 1, 1.); (1, 3, 1.); (0, 2, 5.); (2, 3, 5.); (3, 4, 1.) ]
  in
  let graph = t.Topology.graph in
  let snapshot = Router.full_snapshot ~node_count:5 ~levels:8 in
  snapshot.Router.battery_level.(1) <- 3;
  snapshot.Router.battery_level.(4) <- 2;
  let mapping = Mapping.custom ~module_count:2 ~assignment:[| 0; 0; 0; 0; 1 |] in
  let table = Maximin.compute ~graph ~mapping ~module_count:2 snapshot in
  Alcotest.(check (option int)) "short hop" (Some 1)
    (Routing_table.next_hop table ~node:0 ~module_index:1);
  Alcotest.(check (option int)) "destination" (Some 4)
    (Routing_table.destination table ~node:0 ~module_index:1);
  let value, hop = Maximin.widest_path ~graph ~snapshot ~src:0 ~dst:4 in
  Alcotest.(check int) "width" 2 value.Maximin.width;
  Alcotest.(check (float 0.)) "distance" 3. value.Maximin.distance;
  Alcotest.(check (option int)) "first hop" (Some 1) hop;
  (* node 3 alone is still best reached through the wide detour *)
  let value, hop = Maximin.widest_path ~graph ~snapshot ~src:0 ~dst:3 in
  Alcotest.(check int) "sub-path width" 7 value.Maximin.width;
  Alcotest.(check (option int)) "sub-path hop" (Some 2) hop

let mesh4_with_mapping () =
  let t = Topology.square_mesh ~size:4 () in
  (t, Mapping.checkerboard t)

let test_maximin_tables_terminate () =
  let t, mapping = mesh4_with_mapping () in
  let prng = Etx_util.Prng.create ~seed:5 in
  for _ = 1 to 20 do
    let snapshot = Router.full_snapshot ~node_count:16 ~levels:8 in
    for i = 0 to 15 do
      snapshot.Router.battery_level.(i) <- Etx_util.Prng.int prng ~bound:8
    done;
    let table = Maximin.compute ~graph:t.Topology.graph ~mapping ~module_count:3 snapshot in
    for node = 0 to 15 do
      for module_index = 0 to 2 do
        let rec follow current steps =
          if steps > 16 then Alcotest.failf "maximin loop from node %d" node
          else
            match Routing_table.get table ~node:current ~module_index with
            | Routing_table.Deliver_here ->
              Alcotest.(check int) "right module" module_index
                (Mapping.module_of_node mapping ~node:current)
            | Routing_table.Forward { next_hop; _ } -> follow next_hop (steps + 1)
            | Routing_table.Unreachable -> Alcotest.failf "unreachable on live mesh"
        in
        follow node 0
      done
    done
  done

let test_maximin_avoids_drained_duplicate () =
  let t, mapping = mesh4_with_mapping () in
  let snapshot = Router.full_snapshot ~node_count:16 ~levels:8 in
  (* node 0's two adjacent module-3 duplicates: 1 (drained) and 4 (full) *)
  snapshot.Router.battery_level.(1) <- 0;
  let table = Maximin.compute ~graph:t.Topology.graph ~mapping ~module_count:3 snapshot in
  Alcotest.(check (option int)) "goes to the full one" (Some 4)
    (Routing_table.next_hop table ~node:0 ~module_index:2)

let test_maximin_respects_locked_ports () =
  let t, mapping = mesh4_with_mapping () in
  let snapshot =
    { (Router.full_snapshot ~node_count:16 ~levels:8) with Router.locked_ports = [ (0, 1) ] }
  in
  let table = Maximin.compute ~graph:t.Topology.graph ~mapping ~module_count:3 snapshot in
  Alcotest.(check (option int)) "detours around the lock" (Some 4)
    (Routing_table.next_hop table ~node:0 ~module_index:2)

let test_maximin_workspace_matches_fresh_compute () =
  (* a degraded snapshot exercising every fast-path structure: drained
     batteries, a dead node, locked ports, failed links *)
  let t, mapping = mesh4_with_mapping () in
  let graph = t.Topology.graph in
  let full = Router.full_snapshot ~node_count:16 ~levels:8 in
  let degraded = Router.full_snapshot ~node_count:16 ~levels:8 in
  degraded.Router.battery_level.(5) <- 1;
  degraded.Router.battery_level.(10) <- 2;
  degraded.Router.alive.(15) <- false;
  let degraded =
    {
      degraded with
      Router.locked_ports = [ (0, 1); (5, 6) ];
      failed_links = [ (1, 2); (2, 1); (9, 10) ];
    }
  in
  let fresh snapshot = Maximin.compute ~graph ~mapping ~module_count:3 snapshot in
  let workspace = Maximin.create_workspace () in
  let reused snapshot =
    Maximin.compute ~workspace ~graph ~mapping ~module_count:3 snapshot
  in
  Alcotest.(check bool) "degraded snapshot" true
    (Routing_table.equal (fresh degraded) (reused degraded));
  (* the same workspace across changing snapshots (cached candidate
     arrays, refilled hash sets): no state may leak between computes *)
  Alcotest.(check bool) "full snapshot after reuse" true
    (Routing_table.equal (fresh full) (reused full));
  Alcotest.(check bool) "degraded again" true
    (Routing_table.equal (fresh degraded) (reused degraded));
  (* the rotating table pair: a returned table must survive exactly one
     further compute, the lifetime Controller.diff_count relies on *)
  let first = reused degraded in
  let second = reused full in
  Alcotest.(check bool) "previous table intact after one recompute" true
    (Routing_table.equal (fresh degraded) first);
  Alcotest.(check bool) "current table correct" true
    (Routing_table.equal (fresh full) second)

let prop_maximin_workspace_equivalence =
  (* one long-lived workspace against fresh computes over random
     degraded snapshots: alive flags, battery levels, failed links and
     locked ports all drawn at random *)
  let workspace = Maximin.create_workspace () in
  QCheck.Test.make ~name:"maximin: workspace compute equals fresh compute" ~count:60
    QCheck.(pair (int_range 3 6) (int_range 0 1000))
    (fun (size, seed) ->
      let t = Topology.square_mesh ~size () in
      let mapping = Mapping.checkerboard t in
      let graph = t.Topology.graph in
      let n = size * size in
      let prng = Etx_util.Prng.create ~seed in
      let snapshot = Router.full_snapshot ~node_count:n ~levels:8 in
      for i = 0 to n - 1 do
        snapshot.Router.battery_level.(i) <- Etx_util.Prng.int prng ~bound:8;
        if Etx_util.Prng.int prng ~bound:8 = 0 then snapshot.Router.alive.(i) <- false
      done;
      let failed = ref [] and locked = ref [] in
      Etx_graph.Digraph.iter_edges graph ~f:(fun ~src ~dst ~length:_ ->
          if Etx_util.Prng.int prng ~bound:10 = 0 then failed := (src, dst) :: !failed;
          if Etx_util.Prng.int prng ~bound:12 = 0 then locked := (src, dst) :: !locked);
      snapshot.Router.failed_links <- List.sort compare !failed;
      snapshot.Router.locked_ports <- List.sort compare !locked;
      let fresh = Maximin.compute ~graph ~mapping ~module_count:3 snapshot in
      let reused = Maximin.compute ~workspace ~graph ~mapping ~module_count:3 snapshot in
      Routing_table.equal fresh reused)

let test_maximin_policy_in_engine () =
  let config =
    Etextile.Calibration.config ~policy:(Policy.maximin ()) ~mesh_size:4 ~seed:1 ()
  in
  let m = Engine.simulate config in
  Alcotest.(check bool) "competitive with EAR" true (m.Metrics.jobs_completed > 30);
  Alcotest.(check int) "verified" m.jobs_completed m.jobs_verified

let test_maximin_beats_sdr () =
  let jobs policy =
    (Engine.simulate (Etextile.Calibration.config ~policy ~mesh_size:4 ~seed:1 ()))
      .Metrics.jobs_completed
  in
  Alcotest.(check bool) "battery awareness pays" true
    (jobs (Policy.maximin ()) > 3 * jobs (Policy.sdr ()))

let test_maximin_full_battery_picks_nearest () =
  (* with all levels equal, widths tie everywhere and the distance
     tie-break must select the same destinations as SDR *)
  let t, mapping = mesh4_with_mapping () in
  let snapshot = Router.full_snapshot ~node_count:16 ~levels:8 in
  let maximin = Maximin.compute ~graph:t.Topology.graph ~mapping ~module_count:3 snapshot in
  let sdr =
    Router.compute ~graph:t.Topology.graph ~mapping ~module_count:3
      ~weight:Etx_routing.Weight.Shortest_distance snapshot
  in
  let fw =
    Router.shortest_paths ~graph:t.Topology.graph
      ~weight:Etx_routing.Weight.Shortest_distance snapshot
  in
  for node = 0 to 15 do
    for module_index = 0 to 2 do
      match
        ( Routing_table.destination maximin ~node ~module_index,
          Routing_table.destination sdr ~node ~module_index )
      with
      | Some a, Some b ->
        (* both choices must sit at the same (minimal) distance *)
        let d x = Etx_graph.Floyd_warshall.distance fw ~src:node ~dst:x in
        Alcotest.(check (float 1e-9)) "equally near destinations" (d b) (d a)
      | None, None -> ()
      | _ -> Alcotest.fail "entry kinds disagree"
    done
  done

let test_maximin_policy_metadata () =
  let p = Policy.maximin () in
  Alcotest.(check bool) "battery aware" true (Policy.is_battery_aware p);
  Alcotest.(check string) "name" "MAXMIN" p.Policy.name

(* - Analysis - *)

let predict ?mapping size =
  let problem = Etextile.Calibration.problem ~mesh_size:size in
  let topology = Topology.square_mesh ~size () in
  let mapping =
    match mapping with Some m -> m | None -> Mapping.checkerboard topology
  in
  Analysis.predict ~problem ~topology ~mapping ~module_sequence:aes_sequence ()

let test_analysis_transition_structure () =
  let p = predict 4 in
  let find a b =
    List.find
      (fun (t : Analysis.transition) -> t.from_module = a && t.to_module = b)
      p.Analysis.transitions
  in
  Alcotest.(check int) "ARK -> SS x10" 10 (find 2 0).acts;
  Alcotest.(check int) "SS -> MC x9" 9 (find 0 1).acts;
  Alcotest.(check int) "MC -> ARK x9" 9 (find 1 2).acts;
  Alcotest.(check int) "SS -> ARK x1" 1 (find 0 2).acts;
  Alcotest.(check int) "egress x1" 1 (find 2 (-1)).acts;
  let total =
    List.fold_left (fun acc (t : Analysis.transition) -> acc + t.acts) 0 p.transitions
  in
  Alcotest.(check int) "30 acts total" 30 total

let test_analysis_hop_expectations () =
  let p = predict 4 in
  (* on the checkerboard, module 1 and module 2 are never adjacent *)
  let ss_to_mc =
    List.find
      (fun (t : Analysis.transition) -> t.from_module = 0 && t.to_module = 1)
      p.Analysis.transitions
  in
  Alcotest.(check (float 1e-9)) "1 -> 2 needs two hops" 2. ss_to_mc.mean_hops;
  Alcotest.(check bool) "overall hops/act sensible" true
    (p.mean_hops_per_act > 1. && p.mean_hops_per_act < 2.)

let test_analysis_matches_simulation () =
  List.iter
    (fun size ->
      let prediction = (predict size).Analysis.predicted_jobs in
      let simulated =
        float_of_int
          (Engine.simulate (Etextile.Calibration.config ~mesh_size:size ~seed:1 ()))
            .Metrics.jobs_completed
      in
      let error = Float.abs (prediction -. simulated) /. simulated in
      if error > 0.30 then
        Alcotest.failf "%dx%d: predicted %.1f vs simulated %.1f (%.0f%% off)" size size
          prediction simulated (100. *. error))
    [ 4; 5; 6 ]

let test_analysis_linear_in_budget () =
  let problem = Etextile.Calibration.problem ~mesh_size:4 in
  let doubled = { problem with Etx_routing.Problem.battery_budget_pj = 120000. } in
  let topology = Topology.square_mesh ~size:4 () in
  let mapping = Mapping.checkerboard topology in
  let base =
    Analysis.predict ~problem ~topology ~mapping ~module_sequence:aes_sequence ()
  in
  let big =
    Analysis.predict ~problem:doubled ~topology ~mapping ~module_sequence:aes_sequence ()
  in
  Alcotest.(check (float 1e-6)) "doubling B doubles jobs"
    (2. *. base.Analysis.predicted_jobs) big.Analysis.predicted_jobs

let test_analysis_validation () =
  let problem = Etextile.Calibration.problem ~mesh_size:4 in
  let topology = Topology.square_mesh ~size:4 () in
  let mapping = Mapping.checkerboard topology in
  Alcotest.check_raises "empty" (Invalid_argument "Analysis.predict: empty sequence")
    (fun () ->
      ignore (Analysis.predict ~problem ~topology ~mapping ~module_sequence:[] ()));
  Alcotest.check_raises "range"
    (Invalid_argument "Analysis.predict: module index out of range") (fun () ->
      ignore (Analysis.predict ~problem ~topology ~mapping ~module_sequence:[ 7 ] ()))

let test_analysis_summary_renders () =
  let s = Analysis.summary (predict 4) in
  Alcotest.(check bool) "mentions bottleneck" true (Astring_contains.contains s "bottleneck");
  Alcotest.(check bool) "mentions prediction" true
    (Astring_contains.contains s "predicted jobs")

let test_analysis_pool_jobs_bound_by_capacity () =
  let p = predict 6 in
  Array.iteri
    (fun i jobs ->
      Alcotest.(check bool) "consistent" true
        (Float.abs ((jobs *. p.Analysis.per_job_pool_cost_pj.(i)) -. p.pool_capacity_pj.(i))
        < 1e-6))
    p.Analysis.pool_jobs

(* - Placement - *)

let optimize ?iterations ?seed size =
  let problem = Etextile.Calibration.problem ~mesh_size:size in
  let topology = Topology.square_mesh ~size () in
  Placement.optimize ~problem ~topology ~module_sequence:aes_sequence ?iterations ?seed ()

let test_placement_never_worsens () =
  let r = optimize ~iterations:200 5 in
  Alcotest.(check bool) "monotone improvement" true
    (r.Placement.prediction.Analysis.predicted_jobs >= r.initial_jobs -. 1e-9)

let test_placement_preserves_pool_sizes () =
  let r = optimize ~iterations:200 5 in
  let counts = Mapping.duplicates r.Placement.mapping ~module_count:3 in
  Alcotest.(check int) "covers the mesh" 25 (counts.(0) + counts.(1) + counts.(2));
  Array.iter (fun n -> Alcotest.(check bool) "nonempty pools" true (n > 0)) counts

let test_placement_deterministic () =
  let a = optimize ~iterations:150 ~seed:9 5 in
  let b = optimize ~iterations:150 ~seed:9 5 in
  Alcotest.(check (float 1e-9)) "same outcome"
    a.Placement.prediction.Analysis.predicted_jobs
    b.Placement.prediction.Analysis.predicted_jobs;
  Alcotest.(check bool) "same mapping" true
    (Mapping.assignment a.Placement.mapping = Mapping.assignment b.Placement.mapping)

let test_placement_improves_odd_mesh_in_simulation () =
  let r = optimize ~iterations:400 5 in
  let simulate ?mapping () =
    (Engine.simulate (Etextile.Calibration.config ?mapping ~mesh_size:5 ~seed:1 ()))
      .Metrics.jobs_completed
  in
  Alcotest.(check bool) "beats the checkerboard on 5x5" true
    (simulate ~mapping:r.Placement.mapping () > simulate ())

let test_placement_accepts_initial () =
  let problem = Etextile.Calibration.problem ~mesh_size:4 in
  let topology = Topology.square_mesh ~size:4 () in
  let initial = Mapping.checkerboard topology in
  let r =
    Placement.optimize ~problem ~topology ~module_sequence:aes_sequence ~initial
      ~iterations:50 ()
  in
  Alcotest.(check bool) "counts evolve from the checkerboard" true
    (Array.fold_left ( + ) 0 (Mapping.duplicates r.Placement.mapping ~module_count:3) = 16)

let test_placement_validation () =
  let problem = Etextile.Calibration.problem ~mesh_size:4 in
  let topology = Topology.square_mesh ~size:4 () in
  Alcotest.check_raises "iterations"
    (Invalid_argument "Placement.optimize: negative iterations") (fun () ->
      ignore
        (Placement.optimize ~problem ~topology ~module_sequence:aes_sequence
           ~iterations:(-1) ()))

let suite =
  [
    ( "routing/maximin",
      [
        Alcotest.test_case "value ordering" `Quick test_maximin_better_ordering;
        Alcotest.test_case "widest path on a line" `Quick test_maximin_widest_on_line;
        Alcotest.test_case "prefers wide detour" `Quick test_maximin_prefers_wide_detour;
        Alcotest.test_case "drops a wider but longer detour" `Quick
          test_maximin_drops_wider_longer_detour;
        Alcotest.test_case "tables terminate" `Quick test_maximin_tables_terminate;
        Alcotest.test_case "avoids drained duplicate" `Quick
          test_maximin_avoids_drained_duplicate;
        Alcotest.test_case "respects locked ports" `Quick test_maximin_respects_locked_ports;
        Alcotest.test_case "workspace matches fresh compute" `Quick
          test_maximin_workspace_matches_fresh_compute;
        QCheck_alcotest.to_alcotest prop_maximin_workspace_equivalence;
        Alcotest.test_case "runs in the engine" `Quick test_maximin_policy_in_engine;
        Alcotest.test_case "beats SDR" `Quick test_maximin_beats_sdr;
        Alcotest.test_case "policy metadata" `Quick test_maximin_policy_metadata;
        Alcotest.test_case "full battery picks nearest" `Quick
          test_maximin_full_battery_picks_nearest;
      ] );
    ( "routing/analysis",
      [
        Alcotest.test_case "transition structure" `Quick test_analysis_transition_structure;
        Alcotest.test_case "hop expectations" `Quick test_analysis_hop_expectations;
        Alcotest.test_case "matches simulation within 30%" `Slow
          test_analysis_matches_simulation;
        Alcotest.test_case "linear in budget" `Quick test_analysis_linear_in_budget;
        Alcotest.test_case "validation" `Quick test_analysis_validation;
        Alcotest.test_case "summary renders" `Quick test_analysis_summary_renders;
        Alcotest.test_case "pool arithmetic" `Quick test_analysis_pool_jobs_bound_by_capacity;
      ] );
    ( "routing/placement",
      [
        Alcotest.test_case "never worsens" `Quick test_placement_never_worsens;
        Alcotest.test_case "preserves pool sizes" `Quick test_placement_preserves_pool_sizes;
        Alcotest.test_case "deterministic" `Quick test_placement_deterministic;
        Alcotest.test_case "improves odd mesh (simulated)" `Slow
          test_placement_improves_odd_mesh_in_simulation;
        Alcotest.test_case "accepts an initial mapping" `Quick test_placement_accepts_initial;
        Alcotest.test_case "validation" `Quick test_placement_validation;
      ] );
  ]
