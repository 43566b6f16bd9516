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

(* The change-set between two snapshots, produced by one pass over the
   arrays (the pass the controller already paid for its unchanged
   check).  [compute_incremental] trusts the delta: callers must derive
   it against the snapshot of the previous compute on the same
   workspace. *)
module Delta = struct
  type t = {
    full : bool;  (** shapes differ or no previous snapshot: repair impossible *)
    alive_changed : bool;
    dirty_levels : int list;  (** ascending node ids whose quantized level moved *)
    locks_changed : bool;
    links_changed : bool;
  }

  (* preallocated constant: the steady-state diff result allocates nothing *)
  let empty =
    {
      full = false;
      alive_changed = false;
      dirty_levels = [];
      locks_changed = false;
      links_changed = false;
    }

  let full =
    {
      full = true;
      alive_changed = true;
      dirty_levels = [];
      locks_changed = true;
      links_changed = true;
    }

  let is_empty t =
    (not t.full) && (not t.alive_changed) && t.dirty_levels = []
    && (not t.locks_changed)
    && not t.links_changed

  let make ?(alive_changed = false) ?(dirty_levels = []) ?(locks_changed = false)
      ?(links_changed = false) () =
    { full = false; alive_changed; dirty_levels; locks_changed; links_changed }

  let diff ~(previous : snapshot) (current : snapshot) =
    let n = Array.length current.alive in
    if
      Array.length previous.alive <> n
      || Array.length previous.battery_level <> Array.length current.battery_level
      || previous.levels <> current.levels
    then full
    else begin
      let alive_changed = ref false in
      let dirty = ref [] in
      (* descending walk conses the dirty list in ascending id order *)
      for id = n - 1 downto 0 do
        if previous.alive.(id) <> current.alive.(id) then alive_changed := true;
        if previous.battery_level.(id) <> current.battery_level.(id) then
          dirty := id :: !dirty
      done;
      let locks_changed =
        not
          (previous.locked_ports == current.locked_ports
          || previous.locked_ports = current.locked_ports)
      in
      let links_changed =
        not
          (previous.failed_links == current.failed_links
          || previous.failed_links = current.failed_links)
      in
      if
        (not !alive_changed) && !dirty = [] && (not locks_changed)
        && not links_changed
      then empty
      else
        {
          full = false;
          alive_changed = !alive_changed;
          dirty_levels = !dirty;
          locks_changed;
          links_changed;
        }
    end
end

(* What the cached weight matrix / Floyd-Warshall result in a workspace
   were computed from.  Identity (or cheap structural) guards only: the
   snapshot contents themselves are not copied - the delta fed to
   [compute_incremental] is the authority on what changed. *)
type basis = {
  b_graph : Etx_graph.Digraph.t;
  b_weight : Weight.t;
  b_mapping : Mapping.t;
  b_module_count : int;
  b_levels : int;
  mutable b_table : Routing_table.t;
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
  mutable basis : basis option;
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
    basis = None;
  }

let invalidate_workspace ws = ws.basis <- None

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
  (* the basis is void while the scratch matrices are in flux; it is
     re-established only once the repair below lands completely *)
  ws.basis <- None;
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
  ws.basis <-
    Some
      {
        b_graph = graph;
        b_weight = weight;
        b_mapping = mapping;
        b_module_count = module_count;
        b_levels = snapshot.levels;
        b_table = table;
      };
  table

(* how much of the weight matrix a level-only delta touches: the dirty
   nodes' in-edges, against the 15% damage threshold of the full edge
   set.  Past it, patching saves too little over a full refill to be
   worth the column walks. *)
let damage_threshold_pct = 15

let compute_incremental ?workspace ~graph ~mapping ~module_count ~weight
    ~(delta : Delta.t) snapshot =
  match workspace with
  | None -> compute ~graph ~mapping ~module_count ~weight snapshot
  | Some ws -> (
    let basis_valid =
      match ws.basis with
      | Some b ->
        b.b_graph == graph && b.b_weight = weight && b.b_mapping == mapping
        && b.b_module_count = module_count
        && b.b_levels = snapshot.levels
      | None -> false
    in
    if not basis_valid then
      compute ~workspace:ws ~graph ~mapping ~module_count ~weight snapshot
    else
      match ws.basis with
      | None -> assert false
      | Some basis ->
        if Delta.is_empty delta then
          (* nothing moved: the cached table is the answer (and, being
             the same object, diffs as zero downloads) *)
          basis.b_table
        else begin
          check_snapshot ~graph snapshot;
          let node_count = Etx_graph.Digraph.node_count graph in
          let w_dirty =
            delta.Delta.full || delta.Delta.alive_changed
            || delta.Delta.links_changed
            || (delta.Delta.dirty_levels <> [] && Weight.is_battery_aware weight)
          in
          if not w_dirty then
            if delta.Delta.locks_changed then begin
              (* paths are untouched: redo phase three only *)
              fill_set ws.locked_set snapshot.locked_ports;
              let paths = scratch_paths ws ~dim:node_count in
              let table = scratch_table ws ~node_count ~module_count in
              let candidates = candidate_arrays ws.candidates ~mapping ~module_count in
              fill_table table ~paths ~snapshot ~locked_set:ws.locked_set ~candidates
                ~node_count ~module_count;
              basis.b_table <- table;
              table
            end
            else
              (* level moves invisible to this weight (SDR): no-op *)
              basis.b_table
          else begin
            ws.basis <- None;
            fill_set ws.failed_set snapshot.failed_links;
            fill_set ws.locked_set snapshot.locked_ports;
            let w = scratch_matrix ws ~dim:node_count in
            (* level-only damage patches the dirty in-edge columns of the
               cached W; anything structural (deaths, link failures)
               refills it, as does damage past the threshold *)
            let patched =
              (not delta.Delta.full)
              && (not delta.Delta.alive_changed)
              && (not delta.Delta.links_changed)
              &&
              let dirty_columns =
                List.map
                  (fun d -> (d, Etx_graph.Digraph.predecessors graph d))
                  delta.Delta.dirty_levels
              in
              let dirty_in =
                List.fold_left
                  (fun acc (_, preds) -> acc + List.length preds)
                  0 dirty_columns
              in
              if
                dirty_in * 100
                > damage_threshold_pct * Etx_graph.Digraph.edge_count graph
              then false
              else begin
                List.iter
                  (fun (d, preds) ->
                    let dst_level = snapshot.battery_level.(d) in
                    let alive_dst = snapshot.alive.(d) in
                    List.iter
                      (fun (src, length) ->
                        Matrix.set w src d
                          (if
                             snapshot.alive.(src) && alive_dst
                             && not (Hashtbl.mem ws.failed_set (src, d))
                           then
                             Weight.edge_weight weight ~length_cm:length ~dst_level
                               ~levels:snapshot.levels
                           else infinity))
                      preds)
                  dirty_columns;
                true
              end
            in
            let w =
              if patched then w
              else fill_weight_matrix w ~graph ~weight ~failed_set:ws.failed_set snapshot
            in
            let paths =
              Etx_graph.Floyd_warshall.run_into (scratch_paths ws ~dim:node_count) w
            in
            let table = scratch_table ws ~node_count ~module_count in
            let candidates = candidate_arrays ws.candidates ~mapping ~module_count in
            fill_table table ~paths ~snapshot ~locked_set:ws.locked_set ~candidates
              ~node_count ~module_count;
            ws.basis <-
              Some
                {
                  b_graph = graph;
                  b_weight = weight;
                  b_mapping = mapping;
                  b_module_count = module_count;
                  b_levels = snapshot.levels;
                  b_table = table;
                };
            table
          end
        end)
