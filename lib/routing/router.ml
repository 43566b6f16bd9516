module Matrix = Etx_util.Matrix

type snapshot = {
  alive : bool array;
  battery_level : int array;
  levels : int;
  (* the list fields are mutable so the engine can refresh one snapshot
     buffer in place every frame instead of rebuilding the record; the
     lists themselves stay immutable values and may be shared *)
  mutable locked_ports : (int * int) list;
  mutable failed_links : (int * int) list;
}

(* Per-module candidate nodes as arrays, so phase three iterates
   without list-cell chasing; cached keyed on the mapping's identity and
   the module count they were extracted from.  Both workspaces (this
   one and [Maximin]'s) hold one. *)
type candidates = {
  mutable arrays : int array array;
  mutable of_mapping : Mapping.t option;
  mutable of_module_count : int;
}

let create_candidates () = { arrays = [||]; of_mapping = None; of_module_count = 0 }

let candidate_arrays cache ~mapping ~module_count =
  match cache.of_mapping with
  | Some cached when cached == mapping && cache.of_module_count = module_count ->
    cache.arrays
  | Some _ | None ->
    let arrays =
      Array.init module_count (fun i ->
          Array.of_list (Mapping.nodes_of_module mapping ~module_index:i))
    in
    cache.arrays <- arrays;
    cache.of_mapping <- Some mapping;
    cache.of_module_count <- module_count;
    arrays

(* Scratch state reused across recomputes: the controller calls
   [compute] every TDMA frame, so the weight matrix, the Floyd-Warshall
   result, the membership sets for failed links / locked ports, and the
   routing-table rows are filled in place instead of reallocated.  One
   workspace serves one controller; nothing is shared between engines,
   so domain-parallel sweeps stay race-free. *)
type workspace = {
  mutable weights : Matrix.t option;
  mutable paths : Etx_graph.Floyd_warshall.result option;
  failed_set : (int * int, unit) Hashtbl.t;
  locked_set : (int * int, unit) Hashtbl.t;
  (* two tables rotated across recomputes: the caller (controller,
     engine) holds the previous result while the next one is written, so
     a single buffer would be overwritten under its feet *)
  mutable tables : Routing_table.t array;
  mutable table_flip : int;
  candidates : candidates;
}

let create_workspace () =
  {
    weights = None;
    paths = None;
    failed_set = Hashtbl.create 16;
    locked_set = Hashtbl.create 16;
    tables = [||];
    table_flip = 0;
    candidates = create_candidates ();
  }

(* The next table of the rotating pair, cleared.  Shared with Maximin's
   workspace via this helper so both policies reuse rows identically. *)
let scratch_table_of ~tables ~flip ~node_count ~module_count =
  let usable =
    Array.length tables = 2
    && Routing_table.node_count tables.(0) = node_count
    && Routing_table.module_count tables.(0) = module_count
  in
  let tables =
    if usable then tables
    else
      Array.init 2 (fun _ -> Routing_table.create ~node_count ~module_count)
  in
  let table = tables.(flip) in
  Routing_table.clear table;
  (tables, table)

let scratch_table ws ~node_count ~module_count =
  let tables, table =
    scratch_table_of ~tables:ws.tables ~flip:ws.table_flip ~node_count ~module_count
  in
  ws.tables <- tables;
  ws.table_flip <- 1 - ws.table_flip;
  table

let full_snapshot ~node_count ~levels =
  {
    alive = Array.make node_count true;
    battery_level = Array.make node_count (levels - 1);
    levels;
    locked_ports = [];
    failed_links = [];
  }

let check_snapshot ~graph snapshot =
  let n = Etx_graph.Digraph.node_count graph in
  if Array.length snapshot.alive <> n || Array.length snapshot.battery_level <> n then
    invalid_arg "Router: snapshot arity differs from the graph";
  if snapshot.levels <= 0 then invalid_arg "Router: levels must be positive"

let fill_set set pairs =
  Hashtbl.reset set;
  List.iter (fun pair -> Hashtbl.replace set pair ()) pairs

let scratch_matrix workspace ~dim =
  match workspace.weights with
  | Some w when Matrix.dim w = dim -> w
  | Some _ | None ->
    let w = Matrix.create ~dim ~init:0. in
    workspace.weights <- Some w;
    w

let scratch_paths workspace ~dim =
  match workspace.paths with
  | Some p when Matrix.dim p.Etx_graph.Floyd_warshall.distances = dim -> p
  | Some _ | None ->
    let p = Etx_graph.Floyd_warshall.create_result ~dim in
    workspace.paths <- Some p;
    p

let fill_weight_matrix w ~graph ~weight ~failed_set snapshot =
  let n = Etx_graph.Digraph.node_count graph in
  let data = Matrix.data w in
  Array.fill data 0 (n * n) infinity;
  for i = 0 to n - 1 do
    data.((i * n) + i) <- 0.
  done;
  (* no failed links (the common case): skip the tuple-keyed lookup *)
  let no_failed = Hashtbl.length failed_set = 0 in
  Etx_graph.Digraph.iter_edges graph ~f:(fun ~src ~dst ~length ->
      if
        snapshot.alive.(src) && snapshot.alive.(dst)
        && (no_failed || not (Hashtbl.mem failed_set (src, dst)))
      then
        Matrix.set w src dst
          (Weight.edge_weight weight ~length_cm:length
             ~dst_level:snapshot.battery_level.(dst) ~levels:snapshot.levels));
  w

let weight_matrix ~graph ~weight snapshot =
  check_snapshot ~graph snapshot;
  let n = Etx_graph.Digraph.node_count graph in
  let failed_set = Hashtbl.create 16 in
  fill_set failed_set snapshot.failed_links;
  fill_weight_matrix (Matrix.create ~dim:n ~init:0.) ~graph ~weight ~failed_set snapshot

let shortest_paths ~graph ~weight snapshot =
  Etx_graph.Floyd_warshall.run (weight_matrix ~graph ~weight snapshot)

(* Phase three (Fig 6) over every living node; entries of dead nodes
   stay at the table's cleared [Unreachable] default.  For node [n] and
   module [i], choose among the living duplicates the one at minimum
   weighted distance (the first minimum in candidate order), skipping
   candidates whose first hop is a locked port when possible.  Runs on
   the flat Floyd-Warshall arrays with the incumbent in hoisted mutable
   state, the shape of [Maximin.fill_table]: kind 0 = none yet, 1 =
   deliver here, 2 = forward; the incumbent distance lives in a
   one-cell float array so comparisons never box. *)
let fill_table table ~(paths : Etx_graph.Floyd_warshall.result) ~snapshot ~locked_set
    ~candidates ~node_count ~module_count =
  let dist = Matrix.data paths.distances in
  let succ = Matrix.Int.data paths.successors in
  let alive = snapshot.alive in
  let no_locks = Hashtbl.length locked_set = 0 in
  let best_kind = ref 0 in
  let best_hop = ref (-1) in
  let best_dst = ref (-1) in
  let best_d = [| 0. |] in
  let consider ~node ~node_row ~pool ~respect_locks =
    best_kind := 0;
    for c = 0 to Array.length pool - 1 do
      let j = Array.unsafe_get pool c in
      if alive.(j) then begin
        let d = Array.unsafe_get dist (node_row + j) in
        if d < infinity then
          if j = node then begin
            (* the node itself hosts the module: always optimal (dist 0) *)
            if !best_kind = 0 || best_d.(0) <> 0. then begin
              best_kind := 1;
              best_d.(0) <- 0.
            end
          end
          else begin
            let hop = Array.unsafe_get succ (node_row + j) in
            if
              hop >= 0
              && ((not respect_locks) || no_locks
                 || not (Hashtbl.mem locked_set (node, hop)))
              && (!best_kind = 0 || d < best_d.(0))
            then begin
              best_kind := 2;
              best_d.(0) <- d;
              best_hop := hop;
              best_dst := j
            end
          end
      end
    done
  in
  for node = 0 to node_count - 1 do
    if alive.(node) then begin
      let node_row = node * node_count in
      for module_index = 0 to module_count - 1 do
        let pool = candidates.(module_index) in
        consider ~node ~node_row ~pool ~respect_locks:true;
        (* every viable path starts on a locked port: deadlock recovery
           prefers a detour, but a locked path beats declaring the
           module unreachable (locks are transient congestion, not
           death).  Without locks the second pass would repeat the
           first. *)
        if !best_kind = 0 && not no_locks then
          consider ~node ~node_row ~pool ~respect_locks:false;
        let entry =
          match !best_kind with
          | 1 -> Routing_table.Deliver_here
          | 2 -> Routing_table.Forward { next_hop = !best_hop; destination = !best_dst }
          | _ -> Routing_table.Unreachable
        in
        Routing_table.set table ~node ~module_index entry
      done
    end
  done

let compute ?workspace ~graph ~mapping ~module_count ~weight snapshot =
  check_snapshot ~graph snapshot;
  let node_count = Etx_graph.Digraph.node_count graph in
  if Mapping.node_count mapping <> node_count then
    invalid_arg "Router.compute: mapping arity differs from the graph";
  let ws = match workspace with Some ws -> ws | None -> create_workspace () in
  fill_set ws.failed_set snapshot.failed_links;
  fill_set ws.locked_set snapshot.locked_ports;
  let w =
    fill_weight_matrix
      (scratch_matrix ws ~dim:node_count)
      ~graph ~weight ~failed_set:ws.failed_set snapshot
  in
  let paths = Etx_graph.Floyd_warshall.run_into (scratch_paths ws ~dim:node_count) w in
  let table =
    match workspace with
    | Some _ -> scratch_table ws ~node_count ~module_count
    | None -> Routing_table.create ~node_count ~module_count
  in
  let candidates = candidate_arrays ws.candidates ~mapping ~module_count in
  fill_table table ~paths ~snapshot ~locked_set:ws.locked_set ~candidates ~node_count
    ~module_count;
  table
