(* Tests for etx_routing: the problem formulation, Theorem 1, mappings,
   weight functions, and the three-phase EAR/SDR router of Sec 6. *)

module Problem = Etx_routing.Problem
module Upper_bound = Etx_routing.Upper_bound
module Mapping = Etx_routing.Mapping
module Weight = Etx_routing.Weight
module Router = Etx_routing.Router
module Routing_table = Etx_routing.Routing_table
module Policy = Etx_routing.Policy
module Topology = Etx_graph.Topology
module Digraph = Etx_graph.Digraph
module Maximin = Etx_routing.Maximin

let check_float = Alcotest.(check (float 1e-9))
let check_float_eps eps = Alcotest.(check (float eps))

let aes_problem k = Problem.aes ~node_budget:k ()

(* - Problem - *)

let test_problem_aes_parameters () =
  let p = aes_problem 16 in
  Alcotest.(check int) "p" 3 p.Problem.module_count;
  Alcotest.(check (array int)) "f" [| 10; 9; 11 |] p.acts_per_job;
  check_float "E1" 120.1 p.computation_energy_pj.(0);
  check_float "B" 60000. p.battery_budget_pj;
  check_float_eps 1e-6 "c = one 1cm hop of 261 bits" 116.7192
    p.communication_energy_pj.(0)

let test_problem_normalized_energy () =
  let p = aes_problem 16 in
  check_float_eps 1e-6 "H1" (10. *. (120.1 +. 116.7192))
    (Problem.normalized_energy p ~module_index:0);
  check_float_eps 1e-6 "H3" (11. *. (176.55 +. 116.7192))
    (Problem.normalized_energy p ~module_index:2);
  check_float_eps 1e-6 "sum H"
    (Problem.normalized_energy p ~module_index:0
    +. Problem.normalized_energy p ~module_index:1
    +. Problem.normalized_energy p ~module_index:2)
    (Problem.total_normalized_energy p)

let test_problem_validation () =
  Alcotest.check_raises "empty" (Invalid_argument "Problem.make: no modules") (fun () ->
      ignore
        (Problem.make ~acts_per_job:[||] ~computation_energy_pj:[||]
           ~communication_energy_pj:[||] ~battery_budget_pj:1. ~node_budget:1));
  Alcotest.check_raises "mismatch" (Invalid_argument "Problem.make: array length mismatch")
    (fun () ->
      ignore
        (Problem.make ~acts_per_job:[| 1; 2 |] ~computation_energy_pj:[| 1. |]
           ~communication_energy_pj:[| 1.; 2. |] ~battery_budget_pj:1. ~node_budget:2));
  Alcotest.check_raises "node budget"
    (Invalid_argument "Problem.make: node budget smaller than the module count") (fun () ->
      ignore
        (Problem.make ~acts_per_job:[| 1; 1 |] ~computation_energy_pj:[| 1.; 1. |]
           ~communication_energy_pj:[| 1.; 1. |] ~battery_budget_pj:1. ~node_budget:1))

(* - Theorem 1 - *)

let test_upper_bound_matches_table2 () =
  (* J* column of Table 2, the analytic anchor of the whole calibration *)
  let expect = [ (16, 131.42); (25, 205.35); (36, 295.70); (49, 402.48); (64, 525.69) ] in
  List.iter
    (fun (k, j_star) ->
      check_float_eps 0.005 (Printf.sprintf "J* for K=%d" k) j_star
        (Upper_bound.jobs (aes_problem k)))
    expect
(* note: the paper prints 205.25 for 5x5; every other row and the exact
   formula give 205.35, so 205.25 is a typo in the paper *)

let test_optimal_duplicates_sum_to_k () =
  List.iter
    (fun k ->
      let n_star = Upper_bound.optimal_duplicates (aes_problem k) in
      check_float_eps 1e-9 "sums to K" (float_of_int k)
        (Array.fold_left ( +. ) 0. n_star))
    [ 16; 25; 36; 49; 64 ]

let test_optimal_duplicates_ordering () =
  (* module 3 has the highest normalized energy, module 2 the lowest:
     the paper's design rule says replication follows that order *)
  let n_star = Upper_bound.optimal_duplicates (aes_problem 16) in
  Alcotest.(check bool) "n3 > n1 > n2" true (n_star.(2) > n_star.(0) && n_star.(0) > n_star.(1))

let test_optimal_duplicates_4x4_values () =
  let n_star = Upper_bound.optimal_duplicates (aes_problem 16) in
  check_float_eps 0.01 "n1*" 5.19 n_star.(0);
  check_float_eps 0.01 "n2*" 3.75 n_star.(1);
  check_float_eps 0.01 "n3*" 7.07 n_star.(2)

let test_jobs_for_duplicates () =
  let p = aes_problem 16 in
  (* the checkerboard (4, 4, 8): bottleneck is module 1's 4 nodes *)
  let bound = Upper_bound.jobs_for_duplicates p ~duplicates:[| 4; 4; 8 |] in
  check_float_eps 1e-6 "min pool"
    (4. *. 60000. /. Problem.normalized_energy p ~module_index:0)
    bound;
  Alcotest.(check int) "bottleneck is module 1" 0
    (Upper_bound.bottleneck_module p ~duplicates:[| 4; 4; 8 |]);
  (* any integer mapping is dominated by the real-valued optimum *)
  Alcotest.(check bool) "<= J*" true (bound <= Upper_bound.jobs p)

let test_jobs_for_duplicates_validation () =
  let p = aes_problem 16 in
  Alcotest.check_raises "arity" (Invalid_argument "Upper_bound: duplicates arity mismatch")
    (fun () -> ignore (Upper_bound.jobs_for_duplicates p ~duplicates:[| 1; 2 |]));
  Alcotest.check_raises "zero" (Invalid_argument "Upper_bound: every module needs a node")
    (fun () -> ignore (Upper_bound.jobs_for_duplicates p ~duplicates:[| 0; 8; 8 |]))

let prop_integer_mapping_below_j_star =
  QCheck.Test.make ~name:"thm1: every integer mapping bound <= J*" ~count:200
    QCheck.(triple (int_range 1 30) (int_range 1 30) (int_range 1 30))
    (fun (n1, n2, n3) ->
      let k = n1 + n2 + n3 in
      let p = aes_problem k in
      Upper_bound.jobs_for_duplicates p ~duplicates:[| n1; n2; n3 |]
      <= Upper_bound.jobs p +. 1e-6)

let prop_optimal_duplicates_equalize_pools =
  QCheck.Test.make ~name:"thm1: n_i* equalizes pool lifetimes" ~count:50
    (QCheck.int_range 10 200) (fun k ->
      let p = aes_problem k in
      let n_star = Upper_bound.optimal_duplicates p in
      let pool i =
        n_star.(i) *. p.Problem.battery_budget_pj
        /. Problem.normalized_energy p ~module_index:i
      in
      Float.abs (pool 0 -. pool 1) < 1e-6 && Float.abs (pool 1 -. pool 2) < 1e-6)

(* - Mapping - *)

let test_checkerboard_4x4 () =
  (* the Fig 3(b) mapping: odd-odd -> module 1, even-even -> module 2,
     mixed -> module 3; counts (4, 4, 8) on a 4x4 *)
  let t = Topology.square_mesh ~size:4 () in
  let m = Mapping.checkerboard t in
  Alcotest.(check (array int)) "counts" [| 4; 4; 8 |] (Mapping.duplicates m ~module_count:3);
  let id x y = Topology.node_of_coord t ~x ~y in
  Alcotest.(check int) "(1,1) -> module 1" 0 (Mapping.module_of_node m ~node:(id 1 1));
  Alcotest.(check int) "(2,2) -> module 2" 1 (Mapping.module_of_node m ~node:(id 2 2));
  Alcotest.(check int) "(2,1) -> module 3" 2 (Mapping.module_of_node m ~node:(id 2 1));
  Alcotest.(check int) "(1,2) -> module 3" 2 (Mapping.module_of_node m ~node:(id 1 2))

let test_checkerboard_all_sizes () =
  List.iter
    (fun size ->
      let m = Mapping.checkerboard (Topology.square_mesh ~size ()) in
      let counts = Mapping.duplicates m ~module_count:3 in
      Alcotest.(check int) "covers the mesh" (size * size)
        (counts.(0) + counts.(1) + counts.(2));
      Array.iter (fun n -> Alcotest.(check bool) "every module present" true (n > 0)) counts)
    [ 4; 5; 6; 7; 8 ]

let test_nodes_of_module () =
  let t = Topology.square_mesh ~size:4 () in
  let m = Mapping.checkerboard t in
  let module1 = Mapping.nodes_of_module m ~module_index:0 in
  Alcotest.(check int) "4 module-1 nodes" 4 (List.length module1);
  List.iter
    (fun node -> Alcotest.(check int) "consistent" 0 (Mapping.module_of_node m ~node))
    module1

let test_proportional_mapping () =
  let p = aes_problem 36 in
  let m = Mapping.proportional ~problem:p ~node_count:36 in
  let counts = Mapping.duplicates m ~module_count:3 in
  Alcotest.(check int) "covers" 36 (counts.(0) + counts.(1) + counts.(2));
  Array.iter (fun n -> Alcotest.(check bool) "every module present" true (n > 0)) counts;
  (* replication ordering follows Theorem 1: n3 >= n1 >= n2 *)
  Alcotest.(check bool) "ordering" true (counts.(2) >= counts.(0) && counts.(0) >= counts.(1))

let test_proportional_interleaves () =
  (* the first few node ids should not all belong to one module *)
  let p = aes_problem 36 in
  let m = Mapping.proportional ~problem:p ~node_count:36 in
  let first_six = List.init 6 (fun node -> Mapping.module_of_node m ~node) in
  Alcotest.(check bool) "mixed prefix" true (List.sort_uniq compare first_six |> List.length > 1)

let test_custom_mapping_validation () =
  Alcotest.check_raises "missing module"
    (Invalid_argument "Mapping.custom: module 1 has no node") (fun () ->
      ignore (Mapping.custom ~assignment:[| 0; 0; 2 |] ~module_count:3))

let prop_proportional_counts_near_optimal =
  QCheck.Test.make ~name:"mapping: proportional counts within 1 of n_i*" ~count:100
    (QCheck.int_range 6 120) (fun k ->
      let p = aes_problem k in
      let m = Mapping.proportional ~problem:p ~node_count:k in
      let counts = Mapping.duplicates m ~module_count:3 in
      let n_star = Upper_bound.optimal_duplicates p in
      let ok = ref true in
      Array.iteri
        (fun i n ->
          if Float.abs (float_of_int n -. n_star.(i)) > 1.5 then ok := false)
        counts;
      !ok)

(* - Weight - *)

let test_weight_full_battery_is_neutral () =
  (* f(top level) = 1 for the exponential families: EAR = SDR on a fresh
     platform *)
  List.iter
    (fun w ->
      check_float "factor 1 at full"
        1.
        (Weight.battery_factor w ~level:7 ~levels:8))
    [ Weight.Shortest_distance; Weight.Exponential { q = 2. };
      Weight.Exponential_squared { q = 2. }; Weight.Linear_drain { slope = 1. } ]

let test_weight_exponential_growth () =
  let w = Weight.Exponential { q = 2. } in
  check_float "one level down doubles" 2. (Weight.battery_factor w ~level:6 ~levels:8);
  check_float "empty level" 128. (Weight.battery_factor w ~level:0 ~levels:8);
  let w2 = Weight.Exponential_squared { q = 2. } in
  check_float "squared exponent" 4. (Weight.battery_factor w2 ~level:6 ~levels:8)

let test_weight_sdr_constant () =
  for level = 0 to 7 do
    check_float "SDR ignores battery" 1.
      (Weight.battery_factor Weight.Shortest_distance ~level ~levels:8)
  done

(* Phase one forms each edge's weight as the target's factor times the
   link length, here a 3 cm link into a node one level down. *)
let test_weight_edge_weight () =
  let t =
    Topology.custom ~name:"pair" ~node_count:2 ~coords:[| (1, 1); (2, 1) |]
      ~links:[ (0, 1, 3.); (1, 0, 3.) ]
  in
  let snapshot = Router.full_snapshot ~node_count:2 ~levels:8 in
  snapshot.Router.battery_level.(1) <- 6;
  let w =
    Router.weight_matrix ~graph:t.Topology.graph ~weight:(Weight.Exponential { q = 2. }) snapshot
  in
  check_float "weight = factor * length" 6. (Etx_util.Matrix.get w 0 1);
  check_float "full target: the length" 3. (Etx_util.Matrix.get w 1 0)

(* Inverse-level's factors are N_B / (level + 0.5) scaled by
   lcm(1, 3, ..., 2 N_B - 1), 45,045 at N_B = 8: whole numbers. *)
let test_weight_inverse_level_whole () =
  for level = 0 to 7 do
    let f = Weight.battery_factor Weight.Inverse_level ~level ~levels:8 in
    check_float "scaled hyperbola" (45045. *. 8. /. (float_of_int level +. 0.5)) f;
    Alcotest.(check bool) "whole" true (Float.is_integer f)
  done;
  check_float "two levels" 12. (Weight.battery_factor Weight.Inverse_level ~level:0 ~levels:2);
  Alcotest.(check string) "printed name unchanged" "INV(floor=0.5)"
    (Weight.name Weight.Inverse_level)

let test_weight_validation () =
  Alcotest.check_raises "level range"
    (Invalid_argument "Weight.battery_factor: level 8 outside [0, 8)") (fun () ->
      ignore (Weight.battery_factor Weight.Shortest_distance ~level:8 ~levels:8))

let test_weight_names_and_awareness () =
  Alcotest.(check bool) "sdr unaware" false (Weight.is_battery_aware Weight.Shortest_distance);
  Alcotest.(check bool) "ear aware" true
    (Weight.is_battery_aware (Weight.Exponential { q = 2. }));
  Alcotest.(check string) "sdr name" "SDR" (Weight.name Weight.Shortest_distance)

let prop_weight_monotone_in_drain =
  QCheck.Test.make ~name:"weight: factor non-increasing in level" ~count:200
    QCheck.(pair (int_range 2 16) (int_range 0 3))
    (fun (levels, which) ->
      let w =
        match which with
        | 0 -> Weight.Exponential { q = 2. }
        | 1 -> Weight.Exponential_squared { q = 1.5 }
        | 2 -> Weight.Inverse_level
        | _ -> Weight.Linear_drain { slope = 2. }
      in
      let ok = ref true in
      for level = 0 to levels - 2 do
        if
          Weight.battery_factor w ~level ~levels
          < Weight.battery_factor w ~level:(level + 1) ~levels -. 1e-9
        then ok := false
      done;
      !ok)

(* - Routing table - *)

let test_routing_table_basics () =
  let t = Routing_table.create ~node_count:4 ~module_count:2 in
  Alcotest.(check int) "nodes" 4 (Routing_table.node_count t);
  Alcotest.(check int) "modules" 2 (Routing_table.module_count t);
  Alcotest.(check bool) "starts unreachable" true
    (Routing_table.get t ~node:0 ~module_index:0 = Routing_table.Unreachable);
  Routing_table.set t ~node:0 ~module_index:1
    (Routing_table.Forward { next_hop = 2; destination = 3 });
  Alcotest.(check (option int)) "next hop" (Some 2)
    (Routing_table.next_hop t ~node:0 ~module_index:1);
  Alcotest.(check (option int)) "destination" (Some 3)
    (Routing_table.destination t ~node:0 ~module_index:1)

let test_routing_table_diff () =
  let a = Routing_table.create ~node_count:2 ~module_count:2 in
  let b = Routing_table.create ~node_count:2 ~module_count:2 in
  Alcotest.(check int) "identical" 0 (Routing_table.diff_count a b);
  Routing_table.set b ~node:1 ~module_index:0 Routing_table.Deliver_here;
  Alcotest.(check int) "one change" 1 (Routing_table.diff_count a b);
  Alcotest.(check bool) "equal" false (Routing_table.equal a b);
  (* Forward entries compare by field, not by physical identity *)
  let forward next_hop destination = Routing_table.Forward { next_hop; destination } in
  Routing_table.set a ~node:1 ~module_index:0 Routing_table.Deliver_here;
  Routing_table.set a ~node:0 ~module_index:1 (forward 1 3);
  Routing_table.set b ~node:0 ~module_index:1 (forward 1 3);
  Alcotest.(check bool) "equal forwards" true (Routing_table.equal a b);
  Routing_table.set b ~node:0 ~module_index:1 (forward 1 2);
  Alcotest.(check int) "destination differs" 1 (Routing_table.diff_count a b);
  Routing_table.set b ~node:0 ~module_index:1 (forward 0 3);
  Alcotest.(check int) "next hop differs" 1 (Routing_table.diff_count a b);
  Alcotest.(check bool) "dimensions differ" false
    (Routing_table.equal a (Routing_table.create ~node_count:2 ~module_count:3))

(* - Router (phases 1-3) - *)

let mesh4 () =
  let t = Topology.square_mesh ~size:4 () in
  (t, Mapping.checkerboard t)

let test_router_weight_matrix_masks_dead () =
  let t, _ = mesh4 () in
  let snapshot = Router.full_snapshot ~node_count:16 ~levels:8 in
  snapshot.Router.alive.(1) <- false;
  let w = Router.weight_matrix ~graph:t.Topology.graph ~weight:Weight.Shortest_distance snapshot in
  check_float "edge into dead node cut" infinity (Etx_util.Matrix.get w 0 1);
  check_float "edge out of dead node cut" infinity (Etx_util.Matrix.get w 1 0);
  check_float "living edge kept" 1. (Etx_util.Matrix.get w 0 4)

let test_router_ear_weights_scale_with_level () =
  let t, _ = mesh4 () in
  let snapshot = Router.full_snapshot ~node_count:16 ~levels:8 in
  snapshot.Router.battery_level.(1) <- 4;
  let w =
    Router.weight_matrix ~graph:t.Topology.graph
      ~weight:(Weight.Exponential { q = 2. })
      snapshot
  in
  check_float "drained destination costs 2^3" 8. (Etx_util.Matrix.get w 0 1);
  check_float "full destination costs 1" 1. (Etx_util.Matrix.get w 1 0)

let test_router_deliver_here () =
  let t, mapping = mesh4 () in
  let snapshot = Router.full_snapshot ~node_count:16 ~levels:8 in
  let table =
    Router.compute ~graph:t.Topology.graph ~mapping ~module_count:3
      ~weight:Weight.Shortest_distance snapshot
  in
  (* node 0 = (1,1) hosts module 1 *)
  Alcotest.(check bool) "deliver here" true
    (Routing_table.get table ~node:0 ~module_index:0 = Routing_table.Deliver_here)

let test_router_forward_reaches_destination () =
  let t, mapping = mesh4 () in
  let snapshot = Router.full_snapshot ~node_count:16 ~levels:8 in
  let table =
    Router.compute ~graph:t.Topology.graph ~mapping ~module_count:3
      ~weight:Weight.Shortest_distance snapshot
  in
  (* following the table from any node for any module terminates on a
     host of that module *)
  for node = 0 to 15 do
    for module_index = 0 to 2 do
      let rec follow current steps =
        if steps > 16 then Alcotest.failf "routing loop from %d" node
        else
          match Routing_table.get table ~node:current ~module_index with
          | Routing_table.Deliver_here ->
            Alcotest.(check int) "terminates on the right module" module_index
              (Mapping.module_of_node mapping ~node:current)
          | Routing_table.Forward { next_hop; _ } -> follow next_hop (steps + 1)
          | Routing_table.Unreachable -> Alcotest.failf "unreachable on a live mesh"
      in
      follow node 0
    done
  done

let test_router_ear_equals_sdr_when_full () =
  (* with every battery at the top level the exponential factor is 1, so
     the two algorithms must produce identical tables *)
  let t, mapping = mesh4 () in
  let snapshot = Router.full_snapshot ~node_count:16 ~levels:8 in
  let sdr =
    Router.compute ~graph:t.Topology.graph ~mapping ~module_count:3
      ~weight:Weight.Shortest_distance snapshot
  in
  let ear =
    Router.compute ~graph:t.Topology.graph ~mapping ~module_count:3
      ~weight:(Weight.Exponential { q = 2. })
      snapshot
  in
  Alcotest.(check bool) "identical tables" true (Routing_table.equal sdr ear)

let test_router_steers_around_drained_node () =
  (* two module-3 candidates at equal distance: EAR must pick the one
     with the fuller battery, SDR the one with the smaller id *)
  let t, mapping = mesh4 () in
  let snapshot = Router.full_snapshot ~node_count:16 ~levels:8 in
  (* node 0 = (1,1): neighbours 1 = (2,1) and 4 = (1,2), both module 3 *)
  snapshot.Router.battery_level.(1) <- 0;
  let sdr =
    Router.compute ~graph:t.Topology.graph ~mapping ~module_count:3
      ~weight:Weight.Shortest_distance snapshot
  in
  let ear =
    Router.compute ~graph:t.Topology.graph ~mapping ~module_count:3
      ~weight:(Weight.Exponential { q = 2. })
      snapshot
  in
  Alcotest.(check (option int)) "SDR ignores the battery" (Some 1)
    (Routing_table.next_hop sdr ~node:0 ~module_index:2);
  Alcotest.(check (option int)) "EAR avoids the drained node" (Some 4)
    (Routing_table.next_hop ear ~node:0 ~module_index:2)

let test_router_unreachable_when_pool_dead () =
  let t, mapping = mesh4 () in
  let snapshot = Router.full_snapshot ~node_count:16 ~levels:8 in
  (* kill every module-2 node *)
  List.iter
    (fun node -> snapshot.Router.alive.(node) <- false)
    (Mapping.nodes_of_module mapping ~module_index:1);
  let table =
    Router.compute ~graph:t.Topology.graph ~mapping ~module_count:3
      ~weight:Weight.Shortest_distance snapshot
  in
  Alcotest.(check bool) "module 2 unreachable" true
    (Routing_table.get table ~node:0 ~module_index:1 = Routing_table.Unreachable);
  Alcotest.(check bool) "module 3 still routable" true
    (Routing_table.get table ~node:0 ~module_index:2 <> Routing_table.Unreachable)

let test_router_dead_nodes_get_no_entries () =
  let t, mapping = mesh4 () in
  let snapshot = Router.full_snapshot ~node_count:16 ~levels:8 in
  snapshot.Router.alive.(5) <- false;
  let table =
    Router.compute ~graph:t.Topology.graph ~mapping ~module_count:3
      ~weight:Weight.Shortest_distance snapshot
  in
  for module_index = 0 to 2 do
    Alcotest.(check bool) "dead node unreachable" true
      (Routing_table.get table ~node:5 ~module_index = Routing_table.Unreachable)
  done

let test_router_locked_port_avoidance () =
  (* node 0's deadlocked port towards 1 forces the detour via 4 for
     module 3, even though 1 is the nearer tie-break *)
  let t, mapping = mesh4 () in
  let snapshot =
    { (Router.full_snapshot ~node_count:16 ~levels:8) with Router.locked_ports = [ (0, 1) ] }
  in
  let table =
    Router.compute ~graph:t.Topology.graph ~mapping ~module_count:3
      ~weight:Weight.Shortest_distance snapshot
  in
  Alcotest.(check (option int)) "detours around the lock" (Some 4)
    (Routing_table.next_hop table ~node:0 ~module_index:2)

let test_router_locked_port_fallback () =
  (* when every viable first hop is locked, the lock is overridden
     rather than declaring the module unreachable *)
  let line = Topology.line ~length:3 () in
  let mapping = Mapping.custom ~assignment:[| 0; 1; 2 |] ~module_count:3 in
  let snapshot =
    { (Router.full_snapshot ~node_count:3 ~levels:8) with Router.locked_ports = [ (0, 1) ] }
  in
  let table =
    Router.compute ~graph:line.Topology.graph ~mapping ~module_count:3
      ~weight:Weight.Shortest_distance snapshot
  in
  Alcotest.(check (option int)) "takes the only path anyway" (Some 1)
    (Routing_table.next_hop table ~node:0 ~module_index:2)

let test_router_workspace_matches_fresh_compute () =
  (* a degraded snapshot exercising every membership set on the fast
     path: drained batteries, a dead node, locked ports, failed links *)
  let t, mapping = mesh4 () in
  let graph = t.Topology.graph in
  let weight = Weight.Exponential { q = 2. } in
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
  let fresh snapshot =
    Router.compute ~graph ~mapping ~module_count:3 ~weight snapshot
  in
  let workspace = Router.create_workspace () in
  let reused snapshot =
    Router.compute ~workspace ~graph ~mapping ~module_count:3 ~weight snapshot
  in
  Alcotest.(check bool) "degraded snapshot" true
    (Routing_table.equal (fresh degraded) (reused degraded));
  (* the same workspace across changing snapshots: no state may leak *)
  Alcotest.(check bool) "full snapshot after reuse" true
    (Routing_table.equal (fresh full) (reused full));
  Alcotest.(check bool) "degraded again" true
    (Routing_table.equal (fresh degraded) (reused degraded));
  (* and the broken 1 -> 2 interconnect is never used as a next hop *)
  let table = reused degraded in
  for module_index = 0 to 2 do
    match Routing_table.next_hop table ~node:1 ~module_index with
    | Some 2 -> Alcotest.failf "module %d routed over the failed 1 -> 2 link" module_index
    | Some _ | None -> ()
  done

let test_router_snapshot_validation () =
  let t, mapping = mesh4 () in
  let snapshot = Router.full_snapshot ~node_count:4 ~levels:8 in
  Alcotest.check_raises "arity" (Invalid_argument "Router: snapshot arity differs from the graph")
    (fun () ->
      ignore
        (Router.compute ~graph:t.Topology.graph ~mapping ~module_count:3
           ~weight:Weight.Shortest_distance snapshot))

let prop_router_tables_terminate =
  (* on random live meshes with random levels, following any table entry
     terminates on a correct host *)
  QCheck.Test.make ~name:"router: tables always terminate on the right module" ~count:50
    QCheck.(pair (int_range 3 6) (int_range 0 1000))
    (fun (size, seed) ->
      let t = Topology.square_mesh ~size () in
      let mapping = Mapping.checkerboard t in
      let n = size * size in
      let prng = Etx_util.Prng.create ~seed in
      let snapshot = Router.full_snapshot ~node_count:n ~levels:8 in
      for i = 0 to n - 1 do
        snapshot.Router.battery_level.(i) <- Etx_util.Prng.int prng ~bound:8
      done;
      let table =
        Router.compute ~graph:t.Topology.graph ~mapping ~module_count:3
          ~weight:(Weight.Exponential { q = 2. })
          snapshot
      in
      let ok = ref true in
      for node = 0 to n - 1 do
        for module_index = 0 to 2 do
          let rec follow current steps =
            if steps > n then ok := false
            else
              match Routing_table.get table ~node:current ~module_index with
              | Routing_table.Deliver_here ->
                if Mapping.module_of_node mapping ~node:current <> module_index then
                  ok := false
              | Routing_table.Forward { next_hop; _ } -> follow next_hop (steps + 1)
              | Routing_table.Unreachable -> ok := false
          in
          follow node 0
        done
      done;
      !ok)

let prop_sdr_ignores_level_moves =
  (* the invariant the controller's SDR table reuse rests on: with alive
     flags, locked ports and failed links fixed, no change of reported
     levels moves a single SDR table entry *)
  QCheck.Test.make ~name:"router: SDR table unmoved by levels-only changes" ~count:100
    QCheck.(pair (int_range 3 6) (int_range 0 1000))
    (fun (size, seed) ->
      let t = Topology.square_mesh ~size () in
      let graph = t.Topology.graph in
      let mapping = Mapping.checkerboard t in
      let n = size * size in
      let prng = Etx_util.Prng.create ~seed in
      let pick () = Etx_util.Prng.int prng ~bound:n in
      let snapshot = Router.full_snapshot ~node_count:n ~levels:8 in
      for i = 0 to n - 1 do
        snapshot.Router.battery_level.(i) <- Etx_util.Prng.int prng ~bound:8;
        if Etx_util.Prng.int prng ~bound:8 = 0 then snapshot.Router.alive.(i) <- false
      done;
      let edge () =
        let src = pick () in
        match Digraph.successors graph src with
        | [] -> (src, src)
        | succs ->
          (src, fst (List.nth succs (Etx_util.Prng.int prng ~bound:(List.length succs))))
      in
      snapshot.Router.locked_ports <- List.sort_uniq compare [ edge (); edge () ];
      snapshot.Router.failed_links <- List.sort_uniq compare [ edge () ];
      let workspace = Router.create_workspace () in
      let compute () =
        Router.compute ~workspace ~graph ~mapping ~module_count:3
          ~weight:Weight.Shortest_distance snapshot
      in
      let before = compute () in
      for _ = 1 to 1 + Etx_util.Prng.int prng ~bound:n do
        snapshot.Router.battery_level.(pick ()) <- Etx_util.Prng.int prng ~bound:8
      done;
      Routing_table.equal before (compute ()))

(* Phase three (Fig 6) as a plain list walk through the public
   Floyd_warshall accessors, the oracle for the router's flat kernel:
   for node [n] and module [i], the living duplicate at minimum weighted
   distance, skipping candidates whose first hop is a locked port when
   possible, else the locked path, else [Unreachable]. *)
let choose_entry ~paths ~(snapshot : Router.snapshot) ~locked_set ~node ~candidates =
  let open Etx_graph in
  let consider ~respect_locks =
    let best = ref None in
    let try_candidate j =
      if snapshot.alive.(j) then begin
        let dist = Floyd_warshall.distance paths ~src:node ~dst:j in
        if dist < infinity then begin
          if j = node then begin
            match !best with
            | Some (0., _) -> ()
            | _ -> best := Some (0., Routing_table.Deliver_here)
          end
          else
            match Floyd_warshall.successor paths ~src:node ~dst:j with
            | None -> ()
            | Some hop ->
              if (not respect_locks) || not (Hashtbl.mem locked_set (node, hop)) then begin
                let better =
                  match !best with Some (d, _) -> dist < d | None -> true
                in
                if better then
                  best :=
                    Some (dist, Routing_table.Forward { next_hop = hop; destination = j })
              end
        end
      end
    in
    List.iter try_candidate candidates;
    !best
  in
  match consider ~respect_locks:true with
  | Some (_, entry) -> entry
  | None -> begin
    match consider ~respect_locks:false with
    | Some (_, entry) -> entry
    | None -> Routing_table.Unreachable
  end

let oracle_table ~graph ~mapping ~module_count ~weight (snapshot : Router.snapshot) =
  let node_count = Digraph.node_count graph in
  let paths = Router.shortest_paths ~graph ~weight snapshot in
  let locked_set = Hashtbl.create 16 in
  List.iter (fun pair -> Hashtbl.replace locked_set pair ()) snapshot.locked_ports;
  let table = Routing_table.create ~node_count ~module_count in
  for node = 0 to node_count - 1 do
    if snapshot.alive.(node) then
      for module_index = 0 to module_count - 1 do
        Routing_table.set table ~node ~module_index
          (choose_entry ~paths ~snapshot ~locked_set ~node
             ~candidates:(Mapping.nodes_of_module mapping ~module_index))
      done
  done;
  table

(* A random degraded snapshot of a square mesh: random levels, dead
   nodes, failed links, locked ports, and sometimes every port of a node
   locked so phase three must fall back to a locked path. *)
let random_snapshot prng ~graph ~levels =
  let n = Digraph.node_count graph in
  let chance p = Etx_util.Prng.float prng ~bound:1. < p in
  let snapshot = Router.full_snapshot ~node_count:n ~levels in
  for i = 0 to n - 1 do
    snapshot.Router.battery_level.(i) <- Etx_util.Prng.int prng ~bound:levels;
    if chance 0.1 then snapshot.Router.alive.(i) <- false
  done;
  let edges = Digraph.fold_edges graph ~init:[] ~f:(fun acc ~src ~dst ~length:_ -> (src, dst) :: acc) in
  snapshot.Router.failed_links <- List.filter (fun _ -> chance 0.08) edges;
  let fully_locked = List.filter (fun _ -> chance 0.1) (List.init n Fun.id) in
  snapshot.Router.locked_ports <-
    List.filter (fun (src, _) -> List.mem src fully_locked || chance 0.15) edges;
  snapshot

(* Every weight family, with parameters whose weights are exact (the
   router routes them) and non-dyadic (the router refuses them). *)
let weight_families =
  [|
    (Weight.Shortest_distance, `Exact);
    (Weight.Exponential { q = 2. }, `Exact);
    (Weight.Exponential { q = 1.7 }, `Refused);
    (Weight.Exponential_squared { q = 2. }, `Exact);
    (Weight.Exponential_squared { q = 1.3 }, `Refused);
    (Weight.Inverse_level, `Exact);
    (Weight.Linear_drain { slope = 1. }, `Exact);
    (Weight.Linear_drain { slope = 0.7 }, `Refused);
  |]

let refused f = match f () with exception Invalid_argument _ -> true | _ -> false

let prop_router_phase_three_matches_oracle =
  QCheck.Test.make ~name:"router: flat phase three = list-walking choose_entry" ~count:200
    QCheck.(pair (int_range 2 12) (int_range 0 1_000_000))
    (fun (size, seed) ->
      let prng = Etx_util.Prng.create ~seed in
      (* tori add wrap links [size - 1] times longer than the others *)
      let t =
        if size >= 3 && Etx_util.Prng.int prng ~bound:4 = 0 then
          Topology.torus ~rows:size ~cols:size ()
        else Topology.square_mesh ~size ()
      in
      let graph = t.Topology.graph in
      let n = size * size in
      let module_count = 3 in
      let mapping =
        if Etx_util.Prng.bool prng then Mapping.checkerboard t
        else
          (* every module keeps a host; the rest are random, ids shuffled *)
          let assignment =
            Array.init n (fun i ->
                if i < module_count then i else Etx_util.Prng.int prng ~bound:module_count)
          in
          Etx_util.Prng.shuffle prng assignment;
          Mapping.custom ~module_count ~assignment
      in
      let weight, kind =
        weight_families.(Etx_util.Prng.int prng ~bound:(Array.length weight_families))
      in
      (* inverse-level's whole factors outgrow the gate on a 12x12 torus
         from N_B = 16; the policies report 8 levels *)
      let levels =
        2 + Etx_util.Prng.int prng ~bound:(if weight = Weight.Inverse_level then 13 else 15)
      in
      let workspace = Router.create_workspace () in
      (* two snapshots through one workspace: the second reuses every
         cached buffer, the candidate arrays included *)
      List.for_all
        (fun () ->
          let snapshot = random_snapshot prng ~graph ~levels in
          let compute ?workspace () =
            Router.compute ?workspace ~graph ~mapping ~module_count ~weight snapshot
          in
          match kind with
          | `Refused -> refused compute && refused (compute ~workspace)
          | `Exact ->
            let expected = oracle_table ~graph ~mapping ~module_count ~weight snapshot in
            Routing_table.equal expected (compute ())
            && Routing_table.equal expected (compute ~workspace ()))
        [ (); () ])

(* - The shortest-widest (maximin) kernel - *)

(* A random case for the widest kernel: a mesh or a torus, its node ids
   shuffled half the time (so ties fall on other ids), a checkerboard
   or random module assignment, and N_B in 2..16. *)
let random_widest_case prng ~size =
  let t =
    if size >= 3 && Etx_util.Prng.int prng ~bound:4 = 0 then
      Topology.torus ~rows:size ~cols:size ()
    else Topology.square_mesh ~size ()
  in
  let n = size * size in
  let module_count = 3 in
  let perm = Array.init n Fun.id in
  if Etx_util.Prng.bool prng then Etx_util.Prng.shuffle prng perm;
  let graph = Digraph.create ~node_count:n in
  Digraph.iter_edges t.Topology.graph ~f:(fun ~src ~dst ~length ->
      Digraph.add_edge graph ~src:perm.(src) ~dst:perm.(dst) ~length);
  let assignment =
    if n >= 4 && Etx_util.Prng.bool prng then begin
      let board = Mapping.assignment (Mapping.checkerboard t) in
      let assignment = Array.make n 0 in
      Array.iteri (fun node m -> assignment.(perm.(node)) <- m) board;
      assignment
    end
    else begin
      let assignment =
        Array.init n (fun i ->
            if i < module_count then i else Etx_util.Prng.int prng ~bound:module_count)
      in
      Etx_util.Prng.shuffle prng assignment;
      assignment
    end
  in
  let mapping = Mapping.custom ~module_count ~assignment in
  (graph, mapping, module_count, 2 + Etx_util.Prng.int prng ~bound:15)

(* The per-level recurrence that defines the widest kernel's table, as
   printed: for each level some living node reports, highest first,
   Fig 5's Floyd-Warshall over the edges into nodes at or above it, each
   pair keeping the first level that reaches it with that level's
   distance and successor; then Fig 6 per living node over the replicas
   in candidate order, preferring the earliest level, then the nearest,
   then the first on a tie, avoiding locked ports unless only locked
   paths remain. *)
let level_recurrence_table ~graph ~mapping ~module_count (snapshot : Router.snapshot) =
  let n = Digraph.node_count graph in
  let w = Router.weight_matrix ~graph ~weight:Weight.Shortest_distance snapshot in
  let reported l =
    let found = ref false in
    Array.iteri
      (fun node level -> if snapshot.alive.(node) && level = l then found := true)
      snapshot.battery_level;
    !found
  in
  let highest_first = List.init snapshot.levels (fun l -> snapshot.levels - 1 - l) in
  let cuts = List.filter reported highest_first in
  let first = Array.make_matrix n n None in
  List.iteri
    (fun pass cut ->
      let paths =
        Etx_graph.Floyd_warshall.run
          (Etx_util.Matrix.init ~dim:n ~f:(fun i j ->
               if i <> j && snapshot.battery_level.(j) < cut then infinity
               else Etx_util.Matrix.get w i j))
      in
      for i = 0 to n - 1 do
        for j = 0 to n - 1 do
          let d = Etx_graph.Floyd_warshall.distance paths ~src:i ~dst:j in
          if first.(i).(j) = None && d < infinity then
            first.(i).(j) <-
              Some (pass, d, Etx_graph.Floyd_warshall.successor paths ~src:i ~dst:j)
        done
      done)
    cuts;
  let table = Routing_table.create ~node_count:n ~module_count in
  for node = 0 to n - 1 do
    if snapshot.alive.(node) then
      for module_index = 0 to module_count - 1 do
        let choose ~respect_locks =
          List.fold_left
            (fun best j ->
              match first.(node).(j) with
              | Some (pass, d, hop)
                when snapshot.alive.(j)
                     && (j = node || (not respect_locks)
                        || not (List.mem (node, Option.get hop) snapshot.locked_ports)) -> begin
                match best with
                | Some (_, (p, bd, _)) when p < pass || (p = pass && bd <= d) -> best
                | Some _ | None -> Some (j, (pass, d, hop))
              end
              | Some _ | None -> best)
            None
            (Mapping.nodes_of_module mapping ~module_index)
        in
        let chosen =
          match choose ~respect_locks:true with
          | Some _ as found -> found
          | None -> choose ~respect_locks:false
        in
        Routing_table.set table ~node ~module_index
          (match chosen with
          | None -> Routing_table.Unreachable
          | Some (j, _) when j = node -> Routing_table.Deliver_here
          | Some (j, (_, _, hop)) ->
            Routing_table.Forward { next_hop = Option.get hop; destination = j })
      done
  done;
  table

let prop_widest_searches_match_level_recurrence =
  QCheck.Test.make ~name:"maximin: searches = per-level Floyd-Warshall, bit for bit"
    ~count:200
    QCheck.(pair (int_range 2 10) (int_range 0 1_000_000))
    (fun (size, seed) ->
      let prng = Etx_util.Prng.create ~seed in
      let graph, mapping, module_count, levels = random_widest_case prng ~size in
      let workspace = Maximin.create_workspace () in
      (* two snapshots through one workspace, as in the EAR property *)
      List.for_all
        (fun () ->
          let snapshot = random_snapshot prng ~graph ~levels in
          let expected = level_recurrence_table ~graph ~mapping ~module_count snapshot in
          Routing_table.equal expected
            (Maximin.compute ~graph ~mapping ~module_count snapshot)
          && Routing_table.equal expected
               (Maximin.compute ~workspace ~graph ~mapping ~module_count snapshot))
        [ (); () ])

(* - Row reuse across recomputes on one workspace - *)

(* One control frame's worth of change to [s], in place: levels fall
   and rise, nodes die and revive (a brown-out ending), links fail and
   heal, locks come and go, sometimes on every port of a node; some
   frames move nothing. *)
let perturb prng ~graph (s : Router.snapshot) =
  let n = Array.length s.alive in
  let int bound = Etx_util.Prng.int prng ~bound in
  let edges =
    Digraph.fold_edges graph ~init:[] ~f:(fun acc ~src ~dst ~length:_ -> (src, dst) :: acc)
  in
  let toggle pairs pair =
    if List.mem pair pairs then List.filter (fun p -> p <> pair) pairs
    else List.sort compare (pair :: pairs)
  in
  let edge () = List.nth edges (int (List.length edges)) in
  for _ = 1 to int 4 do
    match int 8 with
    | 0 ->
      let i = int n in
      s.battery_level.(i) <- max 0 (s.battery_level.(i) - 1 - int 2)
    | 1 -> s.battery_level.(int n) <- int s.levels
    | 2 -> s.alive.(int n) <- false
    | 3 -> s.alive.(int n) <- true
    | 4 -> s.failed_links <- toggle s.failed_links (edge ())
    | 5 -> s.locked_ports <- toggle s.locked_ports (edge ())
    | 6 ->
      let node = int n in
      let ports = List.filter (fun (src, _) -> src = node) edges in
      let locked = List.filter (fun p -> not (List.mem p ports)) s.locked_ports in
      s.locked_ports <-
        (if List.length locked = List.length s.locked_ports then
           List.sort compare (ports @ locked)
         else locked)
    | _ -> ()
  done

(* A workspace carried through a random walk of snapshots, as the
   controller carries one frame to frame: [check fresh table ~changed]
   sees each table the workspace returns, the table a fresh workspace
   returns for the same snapshot, and the workspace's changed-entry
   count.  The walk runs SDR, EAR, EAR2 or the widest kernel (whose
   pass count and live-level set move with the levels), and now and
   then another recompute runs on the same workspace in between, on
   another snapshot: the widest kernel, inverse-level, or a non-dyadic
   weight, which must be refused and leave the workspace as it was. *)
let reuse_walk ~check (size, seed) =
  let prng = Etx_util.Prng.create ~seed in
  let graph, mapping, module_count, levels = random_widest_case prng ~size in
  let levels = min levels (2 + Etx_util.Prng.int prng ~bound:4) in
  let snapshot = random_snapshot prng ~graph ~levels in
  let workspace = Router.create_workspace () in
  let compute ?workspace ~kind snapshot =
    match kind with
    | `Widest -> Router.compute_widest ?workspace ~graph ~mapping ~module_count snapshot
    | `Weighted weight ->
      Router.compute ?workspace ~graph ~mapping ~module_count ~weight snapshot
  in
  let kind =
    match Etx_util.Prng.int prng ~bound:4 with
    | 0 -> `Weighted Weight.Shortest_distance
    | 1 -> `Weighted (Weight.Exponential { q = 2. })
    | 2 -> `Weighted (Weight.Exponential_squared { q = 2. })
    | _ -> `Widest
  in
  let agrees ~kind snapshot =
    let fresh = compute ~kind snapshot in
    let table = compute ~workspace ~kind snapshot in
    check fresh table ~changed:(Router.changed_entries workspace)
  in
  let ok = ref (agrees ~kind snapshot) in
  for _ = 1 to 16 do
    if Etx_util.Prng.int prng ~bound:5 = 0 then begin
      let other = random_snapshot prng ~graph ~levels in
      if Etx_util.Prng.bool prng then ok := !ok && agrees ~kind:`Widest other
      else if Etx_util.Prng.bool prng then
        ok :=
          !ok
          && refused (fun () ->
                 compute ~workspace ~kind:(`Weighted (Weight.Exponential { q = 1.7 })) other)
      else ok := !ok && agrees ~kind:(`Weighted Weight.Inverse_level) other
    end;
    perturb prng ~graph snapshot;
    ok := !ok && agrees ~kind snapshot
  done;
  !ok

(* Whatever rows the workspace copies instead of searching are the rows
   the searches would give: every table equals a fresh workspace's, bit
   for bit. *)
let prop_row_reuse_matches_fresh =
  QCheck.Test.make ~name:"router: reused rows = fresh workspace, bit for bit" ~count:150
    QCheck.(pair (int_range 2 8) (int_range 0 1_000_000))
    (reuse_walk ~check:(fun fresh table ~changed:_ -> Routing_table.equal fresh table))

(* The count the router keeps while writing is the download volume the
   controller bills: the entries that differ from the table before,
   every entry for the first. *)
let prop_changed_entries_match_diff_count =
  QCheck.Test.make ~name:"router: changed entries = diff_count of consecutive tables"
    ~count:150
    QCheck.(pair (int_range 2 8) (int_range 0 1_000_000))
    (fun case ->
      let previous = ref None in
      reuse_walk case ~check:(fun _ table ~changed ->
          let expected =
            match !previous with
            | Some before -> Routing_table.diff_count before table
            | None -> Routing_table.node_count table * Routing_table.module_count table
          in
          previous := Some table;
          changed = expected))

(* Brute-force shortest-widest: for each threshold from the top level
   down, Bellman-Ford over the living, unfailed edges into nodes at or
   above it; the first threshold that reaches [dst] is the width. *)
let oracle_distances ~graph ~(snapshot : Router.snapshot) ~threshold ~src =
  let n = Digraph.node_count graph in
  let dist = Array.make n infinity in
  if snapshot.alive.(src) then dist.(src) <- 0.;
  let edges =
    Digraph.fold_edges graph ~init:[] ~f:(fun acc ~src ~dst ~length ->
        if
          snapshot.alive.(src) && snapshot.alive.(dst)
          && snapshot.battery_level.(dst) >= threshold
          && not (List.mem (src, dst) snapshot.failed_links)
        then (src, dst, length) :: acc
        else acc)
  in
  for _ = 1 to n do
    List.iter
      (fun (u, v, length) -> if dist.(u) +. length < dist.(v) then dist.(v) <- dist.(u) +. length)
      edges
  done;
  dist

let oracle_widest ~graph ~(snapshot : Router.snapshot) ~src ~dst =
  if src = dst then Some (max_int, 0.)
  else
    let rec sweep threshold =
      if threshold < 0 then None
      else
        let d = (oracle_distances ~graph ~snapshot ~threshold ~src).(dst) in
        if d < infinity then Some (threshold, d) else sweep (threshold - 1)
    in
    sweep (snapshot.levels - 1)

let prop_widest_tables_match_oracle =
  QCheck.Test.make ~name:"maximin: every entry is shortest-widest (brute force)" ~count:150
    QCheck.(pair (int_range 2 5) (int_range 0 1_000_000))
    (fun (size, seed) ->
      let prng = Etx_util.Prng.create ~seed in
      let graph, mapping, module_count, levels = random_widest_case prng ~size in
      let snapshot = random_snapshot prng ~graph ~levels in
      snapshot.Router.locked_ports <- [];
      let table = Maximin.compute ~graph ~mapping ~module_count snapshot in
      let n = Digraph.node_count graph in
      for node = 0 to n - 1 do
        if snapshot.alive.(node) then
          for module_index = 0 to module_count - 1 do
            let expect what cond =
              if not cond then
                QCheck.Test.fail_reportf "%s (node %d, module %d)" what node module_index
            in
            (* the best replica by width, then distance, then id *)
            let best =
              List.fold_left
                (fun best j ->
                  match (oracle_widest ~graph ~snapshot ~src:node ~dst:j, best) with
                  | None, _ -> best
                  | Some v, None -> Some (j, v)
                  | Some (w, d), Some (_, (bw, bd)) ->
                    if w > bw || (w = bw && d < bd) then Some (j, (w, d)) else best)
                None
                (List.filter
                   (fun j -> snapshot.alive.(j))
                   (Mapping.nodes_of_module mapping ~module_index))
            in
            match (best, Routing_table.get table ~node ~module_index) with
            | None, Routing_table.Unreachable -> ()
            | Some (j, _), Routing_table.Deliver_here -> expect "delivers at home" (j = node)
            | Some (j, (w, d)), Routing_table.Forward { next_hop; destination } ->
              expect "best replica" (destination = j);
              let value, hop = Maximin.widest_path ~graph ~snapshot ~src:node ~dst:j in
              expect "width" (value.Maximin.width = w);
              expect "distance" (value.Maximin.distance = d);
              expect "first hop" (hop = Some next_hop);
              (* the hop starts a shortest path within the width *)
              expect "hop within the width"
                (Digraph.mem_edge graph ~src:node ~dst:next_hop
                && snapshot.alive.(next_hop)
                && snapshot.battery_level.(next_hop) >= w
                && not (List.mem (node, next_hop) snapshot.failed_links));
              expect "hop on a shortest path"
                (Digraph.length graph ~src:node ~dst:next_hop
                 +. (oracle_distances ~graph ~snapshot ~threshold:w ~src:next_hop).(j)
                = d)
            | _ -> expect "entry kind" false
          done
      done;
      true)

(* The kernel's work is visible as a counter: one threshold search per
   living source and level it needed, none for EAR. *)
let test_widest_counters () =
  let module Obs = Etx_obs.Obs in
  let levels_run = Obs.counter "etx_routing_maximin_levels_total" in
  let was_armed = Obs.enabled () in
  Obs.arm ();
  Fun.protect
    ~finally:(fun () -> if not was_armed then Obs.disarm ())
    (fun () ->
      let t, mapping = mesh4 () in
      let graph = t.Topology.graph in
      let snapshot = Router.full_snapshot ~node_count:16 ~levels:8 in
      let searches () =
        let before = Obs.counter_value levels_run in
        ignore (Maximin.compute ~graph ~mapping ~module_count:3 snapshot);
        Obs.counter_value levels_run - before
      in
      Alcotest.(check int) "one level: one search per node" 16 (searches ());
      (* every host of module 2 a level down: the other 12 nodes search
         that level too, the 4 hosts find modules 1 and 3 at the top *)
      let hosts = Mapping.nodes_of_module mapping ~module_index:1 in
      List.iter (fun j -> snapshot.Router.battery_level.(j) <- 6) hosts;
      Alcotest.(check int) "four hosts" 4 (List.length hosts);
      Alcotest.(check int) "a second level for 12 nodes" 28 (searches ());
      let before = Obs.counter_value levels_run in
      ignore
        (Router.compute ~graph ~mapping ~module_count:3 ~weight:Weight.Shortest_distance
           snapshot);
      Alcotest.(check int) "EAR/SDR count none" before (Obs.counter_value levels_run))

(* Zero weights only come from a hand-built [Exponential { q = 0. }]
   (drained nodes cost nothing to enter), negative ones from a negative
   slope: the gate refuses both, whatever the snapshot. *)
let test_router_zero_and_negative_weights () =
  let t, mapping = mesh4 () in
  let graph = t.Topology.graph in
  let prng = Etx_util.Prng.create ~seed:5 in
  List.iter
    (fun weight ->
      let snapshot = random_snapshot prng ~graph ~levels:8 in
      Alcotest.(check bool) (Weight.name weight ^ " refused") true
        (refused (fun () -> Router.compute ~graph ~mapping ~module_count:3 ~weight snapshot)))
    [ Weight.Exponential { q = 0. }; Weight.Linear_drain { slope = -1. } ]

(* After warm-up a recompute on a workspace allocates a few words
   whatever the mesh size and weight: nothing per node, edge or table
   entry. *)
let test_router_workspace_recompute_allocation () =
  let t = Topology.square_mesh ~size:12 () in
  let graph = t.Topology.graph and mapping = Mapping.checkerboard t in
  let snapshot = random_snapshot (Etx_util.Prng.create ~seed:11) ~graph ~levels:8 in
  List.iter
    (fun weight ->
      let workspace = Router.create_workspace () in
      let compute () =
        ignore (Router.compute ~workspace ~graph ~mapping ~module_count:3 ~weight snapshot)
      in
      for _ = 1 to 3 do
        compute ()
      done;
      let before = Gc.minor_words () in
      compute ();
      let words = Gc.minor_words () -. before in
      if words > 64. then
        Alcotest.failf "%s recompute allocated %.0f words" (Weight.name weight) words)
    [ Weight.Exponential { q = 2. }; Weight.Inverse_level ]

(* A weight whose path sums could round is refused, through the
   library and through the engine (at its first frame, before any job
   completes).  Every policy the CLI and the wire name passes the gate
   on the calibrated meshes. *)
let test_router_refuses_non_exact_weights () =
  let t, mapping = mesh4 () in
  let snapshot = Router.full_snapshot ~node_count:16 ~levels:8 in
  let weight = Weight.Exponential { q = 1.7 } in
  Alcotest.(check bool) "Router.compute refuses q = 1.7" true
    (refused (fun () ->
         Router.compute ~graph:t.Topology.graph ~mapping ~module_count:3 ~weight snapshot));
  let config = Etextile.Calibration.config ~policy:(Policy.ear ~q:1.7 ()) ~mesh_size:4 () in
  Alcotest.(check bool) "Engine.simulate refuses q = 1.7" true
    (refused (fun () -> Etx_etsim.Engine.simulate config));
  let engine = Etx_etsim.Engine.create config in
  Alcotest.(check bool) "refused by the run" true
    (refused (fun () -> Etx_etsim.Engine.run engine));
  Alcotest.(check int) "at its first frame" 0 (Etx_etsim.Engine.cycle engine);
  List.iter
    (fun name ->
      let policy = Result.get_ok (Etx_service.Handlers.policy_of_string name) in
      for mesh_size = 4 to 20 do
        let config = Etextile.Calibration.config ~policy ~mesh_size () in
        let graph = config.Etx_etsim.Config.topology.Topology.graph in
        let mapping = config.Etx_etsim.Config.mapping in
        let module_count = config.Etx_etsim.Config.module_count in
        let snapshot =
          Router.full_snapshot ~node_count:(Digraph.node_count graph)
            ~levels:policy.Policy.levels
        in
        snapshot.Router.battery_level.(0) <- 0;
        match policy.Policy.algorithm with
        | Policy.Weighted weight ->
          ignore (Router.compute ~graph ~mapping ~module_count ~weight snapshot)
        | Policy.Maximin_residual ->
          ignore (Maximin.compute ~graph ~mapping ~module_count snapshot)
      done)
    [ "ear"; "sdr"; "ear2"; "inverse"; "linear"; "maximin" ]

(* So is a graph whose length sums could round: 0 -> 2 -> 1 -> 3 costs
   (0.1 + 0.2) + 0.3 = 0.6000000000000001 summed left to right, as a
   search would, but 0.1 + (0.2 + 0.3) = 0.6 as Fig 5's Floyd-Warshall
   forms it, which ties node 0's two routes to module 2 and hands it
   the first candidate, node 3; a search would pick node 4. *)
let test_router_refuses_last_bit_split () =
  let split =
    Topology.custom ~name:"split" ~node_count:5
      ~coords:[| (1, 1); (2, 1); (3, 1); (4, 1); (5, 1) |]
      ~links:[ (0, 2, 0.1); (2, 1, 0.2); (1, 3, 0.3); (0, 4, 0.6) ]
  in
  let graph = split.Topology.graph and module_count = 3 in
  let mapping = Mapping.custom ~module_count ~assignment:[| 0; 1; 0; 2; 2 |] in
  let weight = Weight.Shortest_distance in
  let snapshot = Router.full_snapshot ~node_count:5 ~levels:8 in
  Alcotest.(check (option int)) "Fig 5 splits the tie on the last bit" (Some 3)
    (Routing_table.destination
       (oracle_table ~graph ~mapping ~module_count ~weight snapshot)
       ~node:0 ~module_index:2);
  Alcotest.(check bool) "lengths whose sums round are refused" true
    (refused (fun () -> Router.compute ~graph ~mapping ~module_count ~weight snapshot));
  Alcotest.(check bool) "so is the widest kernel on them" true
    (refused (fun () -> Router.compute_widest ~graph ~mapping ~module_count snapshot))

(* Row reuse is visible as a counter: a recompute on an unchanged
   snapshot copies every living node's row, a fresh workspace copies
   none, and a calibrated 5x5 EAR run skips 381 of its ~1,100 searches
   while the engine still counts all 45 recomputes. *)
let test_router_reuse_counter () =
  let module Obs = Etx_obs.Obs in
  let reused = Obs.counter "etx_routing_searches_reused_total" in
  let recomputes = Obs.counter "etx_engine_recompute_total" in
  let was_armed = Obs.enabled () in
  Obs.arm ();
  Fun.protect
    ~finally:(fun () -> if not was_armed then Obs.disarm ())
    (fun () ->
      let t, mapping = mesh4 () in
      let graph = t.Topology.graph in
      let snapshot = Router.full_snapshot ~node_count:16 ~levels:8 in
      snapshot.Router.alive.(6) <- false;
      let weight = Weight.Exponential { q = 2. } in
      let delta f =
        let before = Obs.counter_value reused in
        f ();
        Obs.counter_value reused - before
      in
      let workspace = Router.create_workspace () in
      let compute ?workspace () =
        ignore (Router.compute ?workspace ~graph ~mapping ~module_count:3 ~weight snapshot)
      in
      Alcotest.(check int) "first recompute copies nothing" 0 (delta (compute ~workspace));
      Alcotest.(check int) "unchanged: every living row copied" 15
        (delta (compute ~workspace));
      Alcotest.(check int) "fresh workspace copies nothing" 0 (delta compute);
      let recomputed = Obs.counter_value recomputes in
      Alcotest.(check int) "5x5 EAR run" 381
        (delta (fun () ->
             ignore
               (Etx_etsim.Engine.simulate
                  (Etextile.Calibration.config ~policy:(Etextile.Calibration.ear ())
                     ~mesh_size:5 ()))));
      Alcotest.(check int) "every recompute still counted" 45
        (Obs.counter_value recomputes - recomputed))

(* A rise into a node a search labelled but did not settle leaves its
   row alone.  On a line 0-1-2-3-4-5 hosting modules 0 and 1
   alternately, each source settles itself and the neighbours at 1 cm,
   where it finds both modules, and stops before 2 cm: sources 1, 2 and
   3 settle node 2, while 0 and 4 only label it (5 never reaches it).
   Draining node 2 raises the weights into it and nothing else, so
   exactly sources 0, 4 and 5 keep their rows, and the table equals a
   fresh workspace's.  Refilling node 2 (a fall into it) and healing a
   failed link 3 -> 2 (a revival) each move source 3's row back to the
   replica at node 2, which only marking the tail, node 3, sees. *)
let test_router_reuse_skips_unsettled_rise () =
  let module Obs = Etx_obs.Obs in
  let reused = Obs.counter "etx_routing_searches_reused_total" in
  let was_armed = Obs.enabled () in
  Obs.arm ();
  Fun.protect
    ~finally:(fun () -> if not was_armed then Obs.disarm ())
    (fun () ->
      let graph = (Topology.line ~length:6 ()).Topology.graph in
      let mapping = Mapping.custom ~module_count:2 ~assignment:[| 0; 1; 0; 1; 0; 1 |] in
      let weight = Weight.Exponential { q = 2. } in
      let snapshot = Router.full_snapshot ~node_count:6 ~levels:8 in
      let workspace = Router.create_workspace () in
      let compute ?workspace () =
        Router.compute ?workspace ~graph ~mapping ~module_count:2 ~weight snapshot
      in
      ignore (compute ~workspace ());
      snapshot.Router.battery_level.(2) <- 3;
      let before = Obs.counter_value reused in
      let table = compute ~workspace () in
      Alcotest.(check int) "sources 0, 4 and 5 reused" 3 (Obs.counter_value reused - before);
      Alcotest.(check bool) "= fresh workspace" true
        (Routing_table.equal (compute ()) table);
      let check_frame name =
        let table = compute ~workspace () in
        Alcotest.(check (option int)) (name ^ ": source 3 forwards to 2") (Some 2)
          (Routing_table.destination table ~node:3 ~module_index:0);
        Alcotest.(check bool) (name ^ " = fresh workspace") true
          (Routing_table.equal (compute ()) table)
      in
      snapshot.Router.battery_level.(2) <- 7;
      check_frame "fall";
      snapshot.Router.failed_links <- [ (3, 2) ];
      ignore (compute ~workspace ());
      snapshot.Router.failed_links <- [];
      check_frame "revival")

(* - Policy - *)

let test_policy_constructors () =
  Alcotest.(check bool) "ear aware" true (Policy.is_battery_aware (Policy.ear ()));
  Alcotest.(check bool) "sdr unaware" false (Policy.is_battery_aware (Policy.sdr ()));
  Alcotest.(check int) "default levels" 8 (Policy.ear ()).Policy.levels;
  Alcotest.(check string) "sdr name" "SDR" (Policy.sdr ()).Policy.name

let test_policy_validation () =
  Alcotest.check_raises "q" (Invalid_argument "Policy.ear: Q must be positive") (fun () ->
      ignore (Policy.ear ~q:0. ()));
  Alcotest.check_raises "levels" (Invalid_argument "Policy: need at least two battery levels")
    (fun () -> ignore (Policy.sdr ~levels:1 ()))

let suite =
  [
    ( "routing/problem",
      [
        Alcotest.test_case "aes parameters" `Quick test_problem_aes_parameters;
        Alcotest.test_case "normalized energy" `Quick test_problem_normalized_energy;
        Alcotest.test_case "validation" `Quick test_problem_validation;
      ] );
    ( "routing/theorem1",
      [
        Alcotest.test_case "J* matches Table 2" `Quick test_upper_bound_matches_table2;
        Alcotest.test_case "n* sums to K" `Quick test_optimal_duplicates_sum_to_k;
        Alcotest.test_case "n* ordering" `Quick test_optimal_duplicates_ordering;
        Alcotest.test_case "n* 4x4 values" `Quick test_optimal_duplicates_4x4_values;
        Alcotest.test_case "mapping bound" `Quick test_jobs_for_duplicates;
        Alcotest.test_case "mapping bound validation" `Quick test_jobs_for_duplicates_validation;
        QCheck_alcotest.to_alcotest prop_integer_mapping_below_j_star;
        QCheck_alcotest.to_alcotest prop_optimal_duplicates_equalize_pools;
      ] );
    ( "routing/mapping",
      [
        Alcotest.test_case "checkerboard 4x4" `Quick test_checkerboard_4x4;
        Alcotest.test_case "checkerboard all sizes" `Quick test_checkerboard_all_sizes;
        Alcotest.test_case "nodes of module" `Quick test_nodes_of_module;
        Alcotest.test_case "proportional" `Quick test_proportional_mapping;
        Alcotest.test_case "proportional interleaves" `Quick test_proportional_interleaves;
        Alcotest.test_case "custom validation" `Quick test_custom_mapping_validation;
        QCheck_alcotest.to_alcotest prop_proportional_counts_near_optimal;
      ] );
    ( "routing/weight",
      [
        Alcotest.test_case "full battery neutral" `Quick test_weight_full_battery_is_neutral;
        Alcotest.test_case "exponential growth" `Quick test_weight_exponential_growth;
        Alcotest.test_case "SDR constant" `Quick test_weight_sdr_constant;
        Alcotest.test_case "edge weight" `Quick test_weight_edge_weight;
        Alcotest.test_case "inverse level: whole factors" `Quick
          test_weight_inverse_level_whole;
        Alcotest.test_case "validation" `Quick test_weight_validation;
        Alcotest.test_case "names and awareness" `Quick test_weight_names_and_awareness;
        QCheck_alcotest.to_alcotest prop_weight_monotone_in_drain;
      ] );
    ( "routing/table",
      [
        Alcotest.test_case "basics" `Quick test_routing_table_basics;
        Alcotest.test_case "diff count" `Quick test_routing_table_diff;
      ] );
    ( "routing/router",
      [
        Alcotest.test_case "weight matrix masks dead" `Quick test_router_weight_matrix_masks_dead;
        Alcotest.test_case "EAR weights scale" `Quick test_router_ear_weights_scale_with_level;
        Alcotest.test_case "deliver here" `Quick test_router_deliver_here;
        Alcotest.test_case "forwarding terminates correctly" `Quick
          test_router_forward_reaches_destination;
        Alcotest.test_case "EAR = SDR on full batteries" `Quick
          test_router_ear_equals_sdr_when_full;
        Alcotest.test_case "steers around drained node" `Quick
          test_router_steers_around_drained_node;
        Alcotest.test_case "unreachable when pool dead" `Quick
          test_router_unreachable_when_pool_dead;
        Alcotest.test_case "dead nodes get no entries" `Quick
          test_router_dead_nodes_get_no_entries;
        Alcotest.test_case "locked port avoidance" `Quick test_router_locked_port_avoidance;
        Alcotest.test_case "locked port fallback" `Quick test_router_locked_port_fallback;
        Alcotest.test_case "workspace matches fresh compute" `Quick
          test_router_workspace_matches_fresh_compute;
        Alcotest.test_case "snapshot validation" `Quick test_router_snapshot_validation;
        QCheck_alcotest.to_alcotest prop_router_tables_terminate;
        QCheck_alcotest.to_alcotest prop_sdr_ignores_level_moves;
        QCheck_alcotest.to_alcotest prop_router_phase_three_matches_oracle;
        Alcotest.test_case "zero and negative weights" `Quick
          test_router_zero_and_negative_weights;
        Alcotest.test_case "non-exact weights refused" `Quick
          test_router_refuses_non_exact_weights;
        Alcotest.test_case "last-bit split refused" `Quick
          test_router_refuses_last_bit_split;
        Alcotest.test_case "workspace recompute allocation" `Quick
          test_router_workspace_recompute_allocation;
        QCheck_alcotest.to_alcotest prop_row_reuse_matches_fresh;
        QCheck_alcotest.to_alcotest prop_changed_entries_match_diff_count;
        Alcotest.test_case "row reuse counter" `Quick test_router_reuse_counter;
        Alcotest.test_case "row reuse: rise, fall and revival" `Quick
          test_router_reuse_skips_unsettled_rise;
      ] );
    ( "routing/widest",
      [
        QCheck_alcotest.to_alcotest prop_widest_searches_match_level_recurrence;
        QCheck_alcotest.to_alcotest prop_widest_tables_match_oracle;
        Alcotest.test_case "level counters" `Quick test_widest_counters;
      ] );
    ( "routing/policy",
      [
        Alcotest.test_case "constructors" `Quick test_policy_constructors;
        Alcotest.test_case "validation" `Quick test_policy_validation;
      ] );
  ]
