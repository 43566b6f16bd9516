(* Tests for etx_graph: digraphs, topologies, shortest paths,
   connectivity.  Floyd-Warshall (the paper's Fig 5 algorithm) is
   cross-checked against an independent Dijkstra on random graphs. *)

module Digraph = Etx_graph.Digraph
module Topology = Etx_graph.Topology
module Fw = Etx_graph.Floyd_warshall
module Dijkstra = Etx_graph.Dijkstra
module Paths = Etx_graph.Paths
module Connectivity = Etx_graph.Connectivity
module Matrix = Etx_util.Matrix

let check_float = Alcotest.(check (float 1e-9))

(* - Digraph - *)

let triangle () =
  let g = Digraph.create ~node_count:3 in
  Digraph.add_edge g ~src:0 ~dst:1 ~length:1.;
  Digraph.add_edge g ~src:1 ~dst:2 ~length:2.;
  Digraph.add_edge g ~src:0 ~dst:2 ~length:5.;
  g

let test_digraph_basics () =
  let g = triangle () in
  Alcotest.(check int) "nodes" 3 (Digraph.node_count g);
  Alcotest.(check int) "edges" 3 (Digraph.edge_count g);
  Alcotest.(check bool) "mem" true (Digraph.mem_edge g ~src:0 ~dst:1);
  Alcotest.(check bool) "directed" false (Digraph.mem_edge g ~src:1 ~dst:0);
  check_float "length" 2. (Digraph.length g ~src:1 ~dst:2)

let test_digraph_update_edge () =
  let g = triangle () in
  Digraph.add_edge g ~src:0 ~dst:1 ~length:9.;
  Alcotest.(check int) "edge count unchanged" 3 (Digraph.edge_count g);
  check_float "length updated" 9. (Digraph.length g ~src:0 ~dst:1)

let test_digraph_rejects_self_loop () =
  let g = Digraph.create ~node_count:2 in
  Alcotest.check_raises "self loop" (Invalid_argument "Digraph.add_edge: self-loop")
    (fun () -> Digraph.add_edge g ~src:1 ~dst:1 ~length:1.)

let test_digraph_rejects_bad_length () =
  let g = Digraph.create ~node_count:2 in
  Alcotest.check_raises "non-positive length"
    (Invalid_argument "Digraph.add_edge: non-positive length") (fun () ->
      Digraph.add_edge g ~src:0 ~dst:1 ~length:0.)

let test_digraph_rejects_bad_node () =
  let g = Digraph.create ~node_count:2 in
  Alcotest.check_raises "range" (Invalid_argument "Digraph: destination node 5 out of range")
    (fun () -> Digraph.add_edge g ~src:0 ~dst:5 ~length:1.)

let test_digraph_successors_sorted () =
  let g = Digraph.create ~node_count:4 in
  Digraph.add_edge g ~src:0 ~dst:3 ~length:1.;
  Digraph.add_edge g ~src:0 ~dst:1 ~length:1.;
  Digraph.add_edge g ~src:0 ~dst:2 ~length:1.;
  Alcotest.(check (list int)) "sorted" [ 1; 2; 3 ]
    (List.map fst (Digraph.successors g 0))

let test_digraph_predecessors () =
  let g = triangle () in
  Alcotest.(check (list int)) "preds of 2" [ 0; 1 ]
    (List.map fst (Digraph.predecessors g 2))

let test_digraph_transpose () =
  let g = triangle () in
  let t = Digraph.transpose g in
  Alcotest.(check bool) "reversed" true (Digraph.mem_edge t ~src:1 ~dst:0);
  Alcotest.(check bool) "no forward" false (Digraph.mem_edge t ~src:0 ~dst:1);
  Alcotest.(check int) "same edge count" 3 (Digraph.edge_count t)

let test_digraph_adjacency_matrix () =
  let g = triangle () in
  let w = Digraph.adjacency_matrix g in
  check_float "diagonal" 0. (Matrix.get w 1 1);
  check_float "edge" 5. (Matrix.get w 0 2);
  check_float "no edge" infinity (Matrix.get w 2 0)

let test_digraph_bidirectional () =
  let g = Digraph.create ~node_count:2 in
  Digraph.add_bidirectional g ~a:0 ~b:1 ~length:3.;
  Alcotest.(check int) "two edges" 2 (Digraph.edge_count g);
  check_float "both ways" (Digraph.length g ~src:0 ~dst:1) (Digraph.length g ~src:1 ~dst:0)

let test_digraph_fold_edges () =
  let g = triangle () in
  let total =
    Digraph.fold_edges g ~init:0. ~f:(fun acc ~src:_ ~dst:_ ~length -> acc +. length)
  in
  check_float "total length" 8. total

(* - Topology - *)

let test_mesh_counts () =
  let t = Topology.mesh ~rows:3 ~cols:4 () in
  Alcotest.(check int) "nodes" 12 (Topology.node_count t);
  (* edges: horizontal 3*3, vertical 2*4, bidirectional *)
  Alcotest.(check int) "edges" (2 * ((3 * 3) + (2 * 4))) (Digraph.edge_count t.graph)

let test_mesh_coordinates () =
  let t = Topology.mesh ~rows:2 ~cols:3 () in
  Alcotest.(check (pair int int)) "node 0" (1, 1) t.coords.(0);
  Alcotest.(check (pair int int)) "node 5" (3, 2) t.coords.(5);
  Alcotest.(check int) "inverse" 5 (Topology.node_of_coord t ~x:3 ~y:2)

let test_mesh_adjacency_is_grid () =
  let t = Topology.square_mesh ~size:4 () in
  let id x y = Topology.node_of_coord t ~x ~y in
  Alcotest.(check bool) "right neighbour" true
    (Digraph.mem_edge t.graph ~src:(id 2 2) ~dst:(id 3 2));
  Alcotest.(check bool) "down neighbour" true
    (Digraph.mem_edge t.graph ~src:(id 2 2) ~dst:(id 2 3));
  Alcotest.(check bool) "no diagonal" false
    (Digraph.mem_edge t.graph ~src:(id 2 2) ~dst:(id 3 3))

let test_mesh_link_length () =
  let t = Topology.square_mesh ~link_length_cm:2.5 ~size:3 () in
  check_float "custom length" 2.5 (Digraph.length t.graph ~src:0 ~dst:1)

let test_torus_wraparound () =
  let t = Topology.torus ~rows:4 ~cols:4 () in
  let id x y = Topology.node_of_coord t ~x ~y in
  Alcotest.(check bool) "row wrap" true (Digraph.mem_edge t.graph ~src:(id 1 1) ~dst:(id 4 1));
  check_float "wrap length spans the fabric" 3.
    (Digraph.length t.graph ~src:(id 1 1) ~dst:(id 4 1))

let test_line_ring () =
  let line = Topology.line ~length:5 () in
  Alcotest.(check int) "line edges" 8 (Digraph.edge_count line.graph);
  let ring = Topology.ring ~length:5 () in
  Alcotest.(check int) "ring edges" 10 (Digraph.edge_count ring.graph);
  Alcotest.(check bool) "ring closes" true (Digraph.mem_edge ring.graph ~src:0 ~dst:4)

let test_star () =
  let t = Topology.star ~leaves:6 () in
  Alcotest.(check int) "nodes" 7 (Topology.node_count t);
  Alcotest.(check int) "edges" 12 (Digraph.edge_count t.graph);
  Alcotest.(check bool) "leaf-hub" true (Digraph.mem_edge t.graph ~src:3 ~dst:0);
  Alcotest.(check bool) "no leaf-leaf" false (Digraph.mem_edge t.graph ~src:1 ~dst:2)

let test_custom_arity_check () =
  Alcotest.check_raises "coords arity"
    (Invalid_argument "Topology.custom: coords arity differs from node_count") (fun () ->
      ignore (Topology.custom ~name:"bad" ~node_count:3 ~coords:[| (1, 1) |] ~links:[]))

let test_kind_names () =
  Alcotest.(check string) "mesh name" "4x4 mesh"
    (Topology.kind_name (Topology.square_mesh ~size:4 ()).kind);
  Alcotest.(check string) "ring name" "ring-5"
    (Topology.kind_name (Topology.ring ~length:5 ()).kind)

(* - Floyd-Warshall - *)

let test_fw_triangle () =
  let result = Fw.run (Digraph.adjacency_matrix (triangle ())) in
  check_float "direct beats detour? no: 1+2 < 5" 3. (Fw.distance result ~src:0 ~dst:2);
  Alcotest.(check (option int)) "successor goes via 1" (Some 1)
    (Fw.successor result ~src:0 ~dst:2)

let test_fw_unreachable () =
  let g = Digraph.create ~node_count:3 in
  Digraph.add_edge g ~src:0 ~dst:1 ~length:1.;
  let result = Fw.run (Digraph.adjacency_matrix g) in
  check_float "unreachable" infinity (Fw.distance result ~src:1 ~dst:0);
  Alcotest.(check (option int)) "no successor" None (Fw.successor result ~src:1 ~dst:0)

let test_fw_self () =
  let result = Fw.run (Digraph.adjacency_matrix (triangle ())) in
  check_float "self distance" 0. (Fw.distance result ~src:2 ~dst:2);
  Alcotest.(check (option int)) "self successor" None (Fw.successor result ~src:2 ~dst:2)

let test_fw_rejects_negative () =
  let w = Matrix.create ~dim:2 ~init:(-1.) in
  Alcotest.check_raises "negative"
    (Invalid_argument "Floyd_warshall.run: negative weight at (0, 0)") (fun () ->
      ignore (Fw.run w))

let test_fw_mesh_manhattan () =
  let t = Topology.square_mesh ~size:5 () in
  let result = Fw.run (Digraph.adjacency_matrix t.graph) in
  let id x y = Topology.node_of_coord t ~x ~y in
  (* on a unit mesh, shortest distance = Manhattan distance *)
  check_float "corner to corner" 8. (Fw.distance result ~src:(id 1 1) ~dst:(id 5 5));
  check_float "adjacent" 1. (Fw.distance result ~src:(id 2 2) ~dst:(id 2 3))

let random_graph prng ~nodes ~edge_probability =
  let g = Digraph.create ~node_count:nodes in
  for src = 0 to nodes - 1 do
    for dst = 0 to nodes - 1 do
      if src <> dst && Etx_util.Prng.float prng ~bound:1. < edge_probability then
        Digraph.add_edge g ~src ~dst
          ~length:(1e-6 +. Etx_util.Prng.float prng ~bound:10.)
    done
  done;
  g

let test_fw_matches_dijkstra () =
  let prng = Etx_util.Prng.create ~seed:99 in
  for _ = 1 to 25 do
    let nodes = 3 + Etx_util.Prng.int prng ~bound:12 in
    let g = random_graph prng ~nodes ~edge_probability:0.35 in
    let w = Digraph.adjacency_matrix g in
    let fw = Fw.run w in
    for src = 0 to nodes - 1 do
      let dj = Dijkstra.run w ~src in
      for dst = 0 to nodes - 1 do
        let a = Fw.distance fw ~src ~dst and b = dj.Dijkstra.distances.(dst) in
        if not (a = b || Float.abs (a -. b) < 1e-6) then
          Alcotest.failf "FW %f <> Dijkstra %f for %d -> %d" a b src dst
      done
    done
  done;
  (* exact weights (small multiples of a power of two, so every sum is
     exact and ties abound): distances agree bit for bit and first hops
     follow Fig 5's successor matrix, through one search state reused
     across every source *)
  for _ = 1 to 40 do
    let nodes = 3 + Etx_util.Prng.int prng ~bound:12 in
    let scale = Float.ldexp 1. (Etx_util.Prng.int prng ~bound:8 - 4) in
    let g = Digraph.create ~node_count:nodes in
    for src = 0 to nodes - 1 do
      for dst = 0 to nodes - 1 do
        if src <> dst && Etx_util.Prng.float prng ~bound:1. < 0.35 then
          Digraph.add_edge g ~src ~dst
            ~length:(scale *. float_of_int (1 + Etx_util.Prng.int prng ~bound:3))
      done
    done;
    let fw = Fw.run (Digraph.adjacency_matrix g) in
    let index = Digraph.index g in
    let search = Dijkstra.create ~node_count:nodes in
    for src = 0 to nodes - 1 do
      Dijkstra.start search ~src;
      while Dijkstra.settle_next search index ~weights:index.Digraph.lengths >= 0 do
        ()
      done;
      for dst = 0 to nodes - 1 do
        let a = Fw.distance fw ~src ~dst and b = (Dijkstra.distances search).(dst) in
        if a <> b then Alcotest.failf "FW %h <> Dijkstra %h for %d -> %d" a b src dst;
        let hop = match Fw.successor fw ~src ~dst with Some hop -> hop | None -> -1 in
        let first = (Dijkstra.first_hops search).(dst) in
        if hop <> first then
          Alcotest.failf "FW first hop %d <> Dijkstra %d for %d -> %d" hop first src dst
      done
    done
  done

(* - Edge index - *)

(* The index against the construction store ([fold_edges], [length]):
   ids round-trip through [edge_id] and every other pair has none, rows
   ascend by destination, [tails] and the reverse rows are the
   transpose, and [successors]/[predecessors] are the rows. *)
let index_consistent g =
  let n = Digraph.node_count g in
  let index = Digraph.index g in
  let edges =
    Digraph.fold_edges g ~init:[] ~f:(fun acc ~src ~dst ~length -> (src, dst, length) :: acc)
    |> List.rev |> Array.of_list
  in
  let count = Array.length edges in
  let ok = ref (count = Digraph.edge_count g && Array.length index.Digraph.targets = count) in
  let fail fmt = Printf.ksprintf (fun m -> ok := false; prerr_endline m) fmt in
  Array.iteri
    (fun e (src, dst, length) ->
      if index.Digraph.tails.(e) <> src || index.targets.(e) <> dst then
        fail "edge %d is not %d -> %d" e src dst;
      if index.lengths.(e) <> length then fail "edge %d has the wrong length" e;
      if Digraph.edge_id index ~src ~dst <> e then fail "edge_id %d -> %d <> %d" src dst e;
      if e < index.row_start.(src) || e >= index.row_start.(src + 1) then
        fail "edge %d outside row %d" e src)
    edges;
  for src = 0 to n - 1 do
    for dst = 0 to n - 1 do
      if (not (Digraph.mem_edge g ~src ~dst)) && Digraph.edge_id index ~src ~dst <> -1 then
        fail "edge_id names the absent %d -> %d" src dst
    done;
    for e = index.row_start.(src) + 1 to index.row_start.(src + 1) - 1 do
      if index.targets.(e - 1) >= index.targets.(e) then fail "row %d not ascending" src
    done;
    let row = List.filter (fun (s, _, _) -> s = src) (Array.to_list edges) in
    if Digraph.successors g src <> List.map (fun (_, d, l) -> (d, l)) row then
      fail "successors %d differ from the row" src
  done;
  let reverse = Array.make count 0 in
  for v = 0 to n - 1 do
    let into = List.filter (fun (_, d, _) -> d = v) (Array.to_list edges) in
    if Digraph.predecessors g v <> List.map (fun (s, _, l) -> (s, l)) into then
      fail "predecessors %d differ from the reverse row" v;
    if index.in_start.(v + 1) - index.in_start.(v) <> List.length into then
      fail "reverse row %d has the wrong length" v;
    for i = index.in_start.(v) to index.in_start.(v + 1) - 1 do
      let e = index.in_edges.(i) in
      reverse.(e) <- reverse.(e) + 1;
      if index.targets.(e) <> v then fail "reverse row %d holds edge %d" v e;
      if i > index.in_start.(v) && index.tails.(index.in_edges.(i - 1)) >= index.tails.(e) then
        fail "reverse row %d not ascending" v
    done
  done;
  if Array.exists (fun k -> k <> 1) reverse then fail "reverse rows are not a permutation";
  !ok

let prop_edge_index_consistent =
  QCheck.Test.make ~name:"digraph: edge index = construction store" ~count:200
    QCheck.(pair (int_range 1 14) (int_range 0 1_000_000))
    (fun (nodes, seed) ->
      let prng = Etx_util.Prng.create ~seed in
      index_consistent (random_graph prng ~nodes ~edge_probability:0.35))

(* A ring is a line that gains its closing edge after construction;
   indexing the line first must not leave the ring a stale index. *)
let test_edge_index_after_add () =
  let ring = (Topology.ring ~length:7 ()).Topology.graph in
  Alcotest.(check bool) "ring" true (index_consistent ring);
  let g = (Topology.line ~length:7 ()).Topology.graph in
  let line = Digraph.index g in
  Digraph.add_bidirectional g ~a:0 ~b:6 ~length:1.;
  Alcotest.(check bool) "index rebuilt" true (Digraph.index g != line);
  Alcotest.(check int) "closing edge" 1 (Digraph.edge_id (Digraph.index g) ~src:0 ~dst:6);
  Alcotest.(check bool) "line that became a ring" true (index_consistent g);
  Alcotest.(check bool) "one index per graph" true (Digraph.index g == Digraph.index g)

let test_fw_successor_paths_are_shortest () =
  let prng = Etx_util.Prng.create ~seed:123 in
  for _ = 1 to 25 do
    let nodes = 3 + Etx_util.Prng.int prng ~bound:10 in
    let g = random_graph prng ~nodes ~edge_probability:0.4 in
    let fw = Fw.run (Digraph.adjacency_matrix g) in
    for src = 0 to nodes - 1 do
      for dst = 0 to nodes - 1 do
        match Paths.extract fw ~src ~dst with
        | None ->
          if Fw.distance fw ~src ~dst < infinity then
            Alcotest.failf "path missing for finite distance %d -> %d" src dst
        | Some path ->
          if not (Paths.is_valid g path) then Alcotest.failf "invalid path";
          let length = if List.length path = 1 then 0. else Paths.length_along g path in
          let expected = Fw.distance fw ~src ~dst in
          if Float.abs (length -. expected) > 1e-6 then
            Alcotest.failf "path length %f <> distance %f" length expected
      done
    done
  done

(* - Dijkstra - *)

let test_dijkstra_path_reconstruction () =
  let g = triangle () in
  let result = Dijkstra.run (Digraph.adjacency_matrix g) ~src:0 in
  Alcotest.(check (option (list int))) "path" (Some [ 0; 1; 2 ])
    (Dijkstra.path_to result ~src:0 ~dst:2);
  Alcotest.(check (option (list int))) "self path" (Some [ 0 ])
    (Dijkstra.path_to result ~src:0 ~dst:0)

let test_dijkstra_unreachable_path () =
  let g = Digraph.create ~node_count:2 in
  let result = Dijkstra.run (Digraph.adjacency_matrix g) ~src:0 in
  Alcotest.(check (option (list int))) "none" None (Dijkstra.path_to result ~src:0 ~dst:1)

let test_dijkstra_graph_with_weight_mask () =
  let g = triangle () in
  (* mask the cheap route 0 -> 1 with an infinite weight *)
  let weight ~src ~dst =
    if src = 0 && dst = 1 then infinity else Digraph.length g ~src ~dst
  in
  let result = Dijkstra.run_graph g ~weight ~src:0 in
  check_float "forced direct" 5. result.Dijkstra.distances.(2)

(* - Paths - *)

let test_paths_hop_count () =
  let t = Topology.square_mesh ~size:4 () in
  let fw = Fw.run (Digraph.adjacency_matrix t.graph) in
  Alcotest.(check (option int)) "corner hop count" (Some 6)
    (Paths.hop_count fw ~src:0 ~dst:15)

let test_paths_empty_invalid () =
  let g = triangle () in
  Alcotest.(check bool) "empty invalid" false (Paths.is_valid g []);
  Alcotest.check_raises "empty length" (Invalid_argument "Paths.length_along: empty path")
    (fun () -> ignore (Paths.length_along g []))

let test_paths_invalid_sequence () =
  let g = triangle () in
  Alcotest.(check bool) "skip is invalid" false (Paths.is_valid g [ 2; 0 ])

(* - Connectivity - *)

let test_connectivity_reachable () =
  let t = Topology.square_mesh ~size:3 () in
  let seen = Connectivity.reachable t.graph ~src:0 () in
  Alcotest.(check bool) "all reachable" true (Array.for_all Fun.id seen)

let test_connectivity_dead_wall () =
  let t = Topology.square_mesh ~size:3 () in
  (* kill the middle column: nodes x=2 -> ids 1, 4, 7 *)
  let alive id = not (List.mem id [ 1; 4; 7 ]) in
  let seen = Connectivity.reachable t.graph ~alive ~src:0 () in
  Alcotest.(check bool) "left side reachable" true seen.(3);
  Alcotest.(check bool) "right side cut off" false seen.(2);
  Alcotest.(check bool) "dead node not reachable" false seen.(4)

let test_connectivity_dead_source () =
  let t = Topology.square_mesh ~size:3 () in
  let seen = Connectivity.reachable t.graph ~alive:(fun id -> id <> 0) ~src:0 () in
  Alcotest.(check bool) "dead source reaches nothing" true
    (Array.for_all (fun b -> not b) seen)

let test_connectivity_components () =
  let t = Topology.square_mesh ~size:3 () in
  let alive id = not (List.mem id [ 1; 4; 7 ]) in
  Alcotest.(check int) "two components" 2 (Connectivity.component_count t.graph ~alive ());
  Alcotest.(check bool) "not connected" false (Connectivity.is_connected t.graph ~alive ());
  Alcotest.(check bool) "fully alive is connected" true (Connectivity.is_connected t.graph ())

let test_connectivity_labels () =
  let g = Digraph.create ~node_count:4 in
  Digraph.add_bidirectional g ~a:0 ~b:1 ~length:1.;
  Digraph.add_bidirectional g ~a:2 ~b:3 ~length:1.;
  let labels = Connectivity.components g () in
  Alcotest.(check int) "0 and 1 together" labels.(0) labels.(1);
  Alcotest.(check int) "2 and 3 together" labels.(2) labels.(3);
  Alcotest.(check bool) "separate components" true (labels.(0) <> labels.(2))

let prop_mesh_distance_is_manhattan =
  QCheck.Test.make ~name:"mesh: FW distance = Manhattan distance" ~count:50
    QCheck.(pair (int_range 2 6) (int_range 2 6))
    (fun (rows, cols) ->
      let t = Topology.mesh ~rows ~cols () in
      let fw = Fw.run (Digraph.adjacency_matrix t.graph) in
      let ok = ref true in
      Array.iteri
        (fun src (x1, y1) ->
          Array.iteri
            (fun dst (x2, y2) ->
              let manhattan = abs (x1 - x2) + abs (y1 - y2) in
              if Float.abs (Fw.distance fw ~src ~dst -. float_of_int manhattan) > 1e-9
              then ok := false)
            t.coords)
        t.coords;
      !ok)

(* The textbook Fig 5 recurrence on nested arrays, the oracle for the
   flat kernel (which skips the rows that cannot reach the pivot):
   every pass scans every row and every column. *)
let reference_fw w =
  let n = Matrix.dim w in
  let d = Array.init n (fun i -> Array.init n (fun j -> Matrix.get w i j)) in
  let s =
    Array.init n (fun i ->
        Array.init n (fun j -> if i <> j && d.(i).(j) < infinity then j else -1))
  in
  for k = 0 to n - 1 do
    for i = 0 to n - 1 do
      for j = 0 to n - 1 do
        let via = d.(i).(k) +. d.(k).(j) in
        if via < d.(i).(j) then begin
          d.(i).(j) <- via;
          s.(i).(j) <- s.(i).(k)
        end
      done
    done
  done;
  (d, s)

(* Weight matrices whose finite spans have gaps: weights drawn from
   non-dyadic values (0.1 + 0.2 <> 0.3, so ties hinge on rounding) mixed
   with arbitrary floats; dead or isolated nodes (infinite row and
   column); occasional non-zero or infinite diagonals; and meshes whose
   node ids are shuffled, so a node's neighbours are scattered across
   its row instead of sitting next to it. *)
let gappy_weight_matrix (shape, seed) =
  let prng = Etx_util.Prng.create ~seed in
  let pick a = a.(Etx_util.Prng.int prng ~bound:(Array.length a)) in
  let weight () =
    if Etx_util.Prng.bool prng then pick [| 0.1; 0.2; 0.3; 0.7; 1.1; 1. /. 3. |]
    else 1e-3 +. Etx_util.Prng.float prng ~bound:10.
  in
  let w =
    match shape with
    | 0 ->
      let n = 1 + Etx_util.Prng.int prng ~bound:14 in
      let density = pick [| 0.05; 0.15; 0.3; 0.6 |] in
      Matrix.init ~dim:n ~f:(fun i j ->
          if i = j then 0.
          else if Etx_util.Prng.float prng ~bound:1. < density then weight ()
          else infinity)
    | _ ->
      let size = 2 + Etx_util.Prng.int prng ~bound:5 in
      let t = Topology.square_mesh ~size () in
      let n = size * size in
      let ids = Array.init n Fun.id in
      Etx_util.Prng.shuffle prng ids;
      let w = Matrix.create ~dim:n ~init:infinity in
      for i = 0 to n - 1 do
        Matrix.set w i i 0.
      done;
      Digraph.iter_edges t.Topology.graph ~f:(fun ~src ~dst ~length ->
          Matrix.set w ids.(src) ids.(dst) (length *. weight ()));
      w
  in
  let n = Matrix.dim w in
  for v = 0 to n - 1 do
    if Etx_util.Prng.float prng ~bound:1. < 0.15 then
      for u = 0 to n - 1 do
        if u <> v then begin
          Matrix.set w u v infinity;
          Matrix.set w v u infinity
        end
      done
  done;
  for v = 0 to n - 1 do
    match Etx_util.Prng.int prng ~bound:20 with
    | 0 -> Matrix.set w v v (weight ())
    | 1 -> Matrix.set w v v infinity
    | _ -> ()
  done;
  w

let prop_fw_matches_reference =
  QCheck.Test.make ~name:"floyd-warshall: run = textbook, bit for bit"
    ~count:300
    QCheck.(pair (int_range 0 1) (int_range 0 1_000_000))
    (fun case ->
      let w = gappy_weight_matrix case in
      let n = Matrix.dim w in
      let d, s = reference_fw w in
      let got = Fw.run w in
      let ok = ref true in
      for i = 0 to n - 1 do
        for j = 0 to n - 1 do
          if
            Int64.bits_of_float (Fw.distance got ~src:i ~dst:j)
            <> Int64.bits_of_float d.(i).(j)
            || Matrix.Int.get got.Fw.successors i j <> s.(i).(j)
          then ok := false
        done
      done;
      !ok)

let suite =
  [
    ( "graph/digraph",
      [
        Alcotest.test_case "basics" `Quick test_digraph_basics;
        Alcotest.test_case "update edge" `Quick test_digraph_update_edge;
        Alcotest.test_case "rejects self loop" `Quick test_digraph_rejects_self_loop;
        Alcotest.test_case "rejects bad length" `Quick test_digraph_rejects_bad_length;
        Alcotest.test_case "rejects bad node" `Quick test_digraph_rejects_bad_node;
        Alcotest.test_case "successors sorted" `Quick test_digraph_successors_sorted;
        Alcotest.test_case "predecessors" `Quick test_digraph_predecessors;
        Alcotest.test_case "transpose" `Quick test_digraph_transpose;
        Alcotest.test_case "adjacency matrix" `Quick test_digraph_adjacency_matrix;
        Alcotest.test_case "bidirectional" `Quick test_digraph_bidirectional;
        Alcotest.test_case "fold edges" `Quick test_digraph_fold_edges;
      ] );
    ( "graph/topology",
      [
        Alcotest.test_case "mesh counts" `Quick test_mesh_counts;
        Alcotest.test_case "mesh coordinates" `Quick test_mesh_coordinates;
        Alcotest.test_case "mesh adjacency" `Quick test_mesh_adjacency_is_grid;
        Alcotest.test_case "mesh link length" `Quick test_mesh_link_length;
        Alcotest.test_case "torus wraparound" `Quick test_torus_wraparound;
        Alcotest.test_case "line and ring" `Quick test_line_ring;
        Alcotest.test_case "star" `Quick test_star;
        Alcotest.test_case "custom arity check" `Quick test_custom_arity_check;
        Alcotest.test_case "kind names" `Quick test_kind_names;
      ] );
    ( "graph/floyd-warshall",
      [
        Alcotest.test_case "triangle" `Quick test_fw_triangle;
        Alcotest.test_case "unreachable" `Quick test_fw_unreachable;
        Alcotest.test_case "self" `Quick test_fw_self;
        Alcotest.test_case "rejects negative" `Quick test_fw_rejects_negative;
        Alcotest.test_case "mesh = Manhattan" `Quick test_fw_mesh_manhattan;
        Alcotest.test_case "matches Dijkstra on random graphs" `Quick test_fw_matches_dijkstra;
        Alcotest.test_case "successor paths are shortest" `Quick
          test_fw_successor_paths_are_shortest;
        QCheck_alcotest.to_alcotest prop_mesh_distance_is_manhattan;
        QCheck_alcotest.to_alcotest prop_fw_matches_reference;
      ] );
    ( "graph/edge-index",
      [
        QCheck_alcotest.to_alcotest prop_edge_index_consistent;
        Alcotest.test_case "rebuilt after add_edge" `Quick test_edge_index_after_add;
      ] );
    ( "graph/dijkstra",
      [
        Alcotest.test_case "path reconstruction" `Quick test_dijkstra_path_reconstruction;
        Alcotest.test_case "unreachable path" `Quick test_dijkstra_unreachable_path;
        Alcotest.test_case "weight mask" `Quick test_dijkstra_graph_with_weight_mask;
      ] );
    ( "graph/paths",
      [
        Alcotest.test_case "hop count" `Quick test_paths_hop_count;
        Alcotest.test_case "empty invalid" `Quick test_paths_empty_invalid;
        Alcotest.test_case "invalid sequence" `Quick test_paths_invalid_sequence;
      ] );
    ( "graph/connectivity",
      [
        Alcotest.test_case "reachable" `Quick test_connectivity_reachable;
        Alcotest.test_case "dead wall partitions" `Quick test_connectivity_dead_wall;
        Alcotest.test_case "dead source" `Quick test_connectivity_dead_source;
        Alcotest.test_case "components" `Quick test_connectivity_components;
        Alcotest.test_case "component labels" `Quick test_connectivity_labels;
      ] );
  ]
