module Matrix = Etx_util.Matrix
module Dijkstra = Etx_graph.Dijkstra
module Obs = Etx_obs.Obs

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

(* The graph in compressed rows plus everything sized by it: the search
   state, per-edge weights and failed/locked flags for the current
   snapshot, and the per-node lock marks of the node being routed.  Built once per graph (cached on its
   identity and edge count: graphs are built once, then only read). *)
type adjacency = {
  graph : Etx_graph.Digraph.t;
  edge_count : int;
  csr : Dijkstra.csr;
  search : Dijkstra.t;
  edge_weights : float array;  (* this snapshot's W, per CSR edge; infinity = cut *)
  edge_failed : bool array;
  edge_locked : bool array;
  lock_mark : int array;  (* = the workspace epoch when the port towards the node is locked *)
}

(* Scratch state reused across recomputes: the controller calls
   [compute] on every frame where the state changed, so the adjacency,
   the search, the Floyd-Warshall fallback's matrices, the per-module
   marks and the routing-table rows are filled in place instead of
   reallocated; [forwards] interns the last [Forward] entry written to
   each (node, module) slot, so an unchanged route allocates nothing.
   One workspace serves one controller; nothing is shared between
   engines, so domain-parallel sweeps stay race-free. *)
type workspace = {
  mutable adjacency : adjacency option;
  (* the battery factor of every level, cached on the weight's identity
     and the level count: phase one reads it per edge instead of
     raising a power per node *)
  mutable level_factors : float array;
  mutable factors_of : (Weight.t * int) option;
  mutable weights : Matrix.t option;
  mutable paths : Etx_graph.Floyd_warshall.result option;
  candidates : candidates;
  mutable module_of : int array;  (* node -> module it is a candidate of, or -1 *)
  mutable module_of_candidates : int array array;
  (* per module, for the node being routed: the nearest settled replica
     that is usable (the node itself, or first hop not locked) and the
     nearest one overall; -1 = none yet *)
  mutable usable : int array;
  mutable any : int array;
  mutable epoch : int;  (* bumped per routed node; never reset, so marks need no clearing *)
  (* phase three's incumbent, hoisted so choosing an entry allocates
     nothing: kind 0 = none yet, 1 = deliver here, 2 = forward; the
     distance lives in a one-cell float array so it never boxes *)
  mutable best_kind : int;
  mutable best_hop : int;
  mutable best_dst : int;
  best_d : float array;
  mutable forwards : Routing_table.entry array;
  (* two tables rotated across recomputes: the caller (controller,
     engine) holds the previous result while the next one is written, so
     a single buffer would be overwritten under its feet *)
  mutable tables : Routing_table.t array;
  mutable table_flip : int;
}

let create_workspace () =
  {
    adjacency = None;
    level_factors = [||];
    factors_of = None;
    weights = None;
    paths = None;
    candidates = create_candidates ();
    module_of = [||];
    module_of_candidates = [||];
    usable = [||];
    any = [||];
    epoch = 0;
    best_kind = 0;
    best_hop = -1;
    best_dst = -1;
    best_d = [| 0. |];
    forwards = [||];
    tables = [||];
    table_flip = 0;
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

let adjacency ws graph =
  match ws.adjacency with
  | Some adj when adj.graph == graph && adj.edge_count = Etx_graph.Digraph.edge_count graph
    ->
    adj
  | Some _ | None ->
    let csr = Dijkstra.csr_of_graph graph in
    let n = Etx_graph.Digraph.node_count graph in
    let edges = Array.length csr.Dijkstra.targets in
    let adj =
      {
        graph;
        edge_count = Etx_graph.Digraph.edge_count graph;
        csr;
        search = Dijkstra.create ~node_count:n;
        edge_weights = Array.make edges infinity;
        edge_failed = Array.make edges false;
        edge_locked = Array.make edges false;
        lock_mark = Array.make n (-1);
      }
    in
    ws.adjacency <- Some adj;
    adj

(* Flag the CSR edges named by [pairs]; pairs that are not edges of the
   graph name nothing a route could use, so they are dropped. *)
let rec mark_edges flags csr ~node_count = function
  | [] -> ()
  | (src, dst) :: rest ->
    if src >= 0 && src < node_count then begin
      let e = Dijkstra.edge_index csr ~src ~dst in
      if e >= 0 then flags.(e) <- true
    end;
    mark_edges flags csr ~node_count rest

let set_edge_flags flags csr ~node_count pairs =
  Array.fill flags 0 (Array.length flags) false;
  mark_edges flags csr ~node_count pairs

let level_factors ws ~weight ~levels =
  match ws.factors_of with
  | Some (w, l) when w == weight && l = levels -> ws.level_factors
  | Some _ | None ->
    let factors = Array.init levels (fun level -> Weight.battery_factor weight ~level ~levels) in
    ws.level_factors <- factors;
    ws.factors_of <- Some (weight, levels);
    factors

(* Phase one into [adj.edge_weights]: [f(N_B(dst)) * L] for an edge
   between living nodes that has not failed, infinity otherwise (failed
   links are flagged per edge first).  Returns the exactness gate: every
   finite weight is a positive multiple of one power of two [2^e] (the
   smallest lowest set bit among them) and [2 * sum w < 2^(53 + e)].
   Then every sum either Dijkstra or Floyd-Warshall forms (at most two
   path lengths, each at most [sum w]) is a multiple of [2^e] below
   [2^(53 + e)], hence exact, and the two algorithms agree bit for bit.
   The float [sum] itself is exact while it stays below the bound and
   can only end above it once it has crossed, so the test is sound.  A
   zero, negative or NaN weight fails the gate. *)
let fill_edge_weights ws adj ~weight (snapshot : snapshot) =
  let csr = adj.csr in
  let row_start = csr.Dijkstra.row_start and targets = csr.Dijkstra.targets in
  let lengths = csr.Dijkstra.lengths in
  let alive = snapshot.alive and battery_level = snapshot.battery_level in
  let levels = snapshot.levels in
  let factors = level_factors ws ~weight ~levels in
  let ew = adj.edge_weights and failed = adj.edge_failed in
  set_edge_flags failed csr ~node_count:(Array.length alive) snapshot.failed_links;
  let exact = ref true and unit = ref infinity and sum = ref 0. in
  for src = 0 to Array.length row_start - 2 do
    for e = row_start.(src) to row_start.(src + 1) - 1 do
      let dst = targets.(e) in
      if alive.(src) && alive.(dst) && not failed.(e) then begin
        let level = battery_level.(dst) in
        (* out of range: let [Weight] raise its own error *)
        if level < 0 || level >= levels then
          ignore (Weight.battery_factor weight ~level ~levels);
        let w = factors.(level) *. lengths.(e) in
        ew.(e) <- w;
        if w > 0. && w < infinity then begin
          (* the value of [w]'s lowest set bit, from its IEEE fields *)
          let bits = Int64.to_int (Int64.bits_of_float w) in
          let biased = (bits lsr 52) land 0x7ff in
          let m = bits land 0xf_ffff_ffff_ffff lor (if biased = 0 then 0 else 1 lsl 52) in
          let low = Float.ldexp (float_of_int (m land -m)) (max biased 1 - 1075) in
          if low < !unit then unit := low;
          sum := !sum +. w
        end
        else if w <> infinity then exact := false
      end
      else ew.(e) <- infinity
    done
  done;
  !exact && !sum < Float.ldexp !unit 52

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

(* The W matrix of phase one from the per-edge weights: diagonal 0, the
   weight on every edge, infinity elsewhere (cut edges included). *)
let fill_weight_matrix adj w =
  let csr = adj.csr in
  let n = Matrix.dim w in
  let data = Matrix.data w in
  Array.fill data 0 (n * n) infinity;
  for src = 0 to n - 1 do
    data.((src * n) + src) <- 0.;
    for e = csr.Dijkstra.row_start.(src) to csr.Dijkstra.row_start.(src + 1) - 1 do
      data.((src * n) + csr.Dijkstra.targets.(e)) <- adj.edge_weights.(e)
    done
  done;
  w

let weight_matrix ~graph ~weight snapshot =
  check_snapshot ~graph snapshot;
  let n = Etx_graph.Digraph.node_count graph in
  let ws = create_workspace () in
  let adj = adjacency ws graph in
  ignore (fill_edge_weights ws adj ~weight snapshot);
  fill_weight_matrix adj (Matrix.create ~dim:n ~init:0.)

let shortest_paths ~graph ~weight snapshot =
  Etx_graph.Floyd_warshall.run (weight_matrix ~graph ~weight snapshot)

let obs_exact_fallback =
  Obs.counter
    ~help:"Routing recomputes run on Floyd-Warshall because a path sum could round"
    "etx_routing_exact_fallback_total"

(* Start routing [node]: a fresh epoch, with the targets of its locked
   ports marked.  Returns whether it has any locked port. *)
let mark_locks ws adj ~node =
  ws.epoch <- ws.epoch + 1;
  let csr = adj.csr in
  let locked = ref false in
  for e = csr.Dijkstra.row_start.(node) to csr.Dijkstra.row_start.(node + 1) - 1 do
    if adj.edge_locked.(e) then begin
      adj.lock_mark.(csr.Dijkstra.targets.(e)) <- ws.epoch;
      locked := true
    end
  done;
  !locked

(* Phase three (Fig 6) for node [n] and module [i]: among the living
   duplicates, the one at minimum weighted distance (the first minimum
   in candidate order), skipping candidates whose first hop is a locked
   port when [respect_locks].  [dist]/[hop] from [off] on are [n]'s
   Floyd-Warshall row of distances and first hops. *)
let consider ws adj ~alive ~dist ~hop ~off ~node ~pool ~respect_locks =
  ws.best_kind <- 0;
  let best_d = ws.best_d and lock_mark = adj.lock_mark and epoch = ws.epoch in
  for c = 0 to Array.length pool - 1 do
    let j = Array.unsafe_get pool c in
    if alive.(j) then begin
      let d = Array.unsafe_get dist (off + j) in
      if d < infinity then
        if j = node then begin
          (* the node itself hosts the module: always optimal (dist 0) *)
          if ws.best_kind = 0 || best_d.(0) <> 0. then begin
            ws.best_kind <- 1;
            best_d.(0) <- 0.
          end
        end
        else begin
          let h = Array.unsafe_get hop (off + j) in
          if
            h >= 0
            && ((not respect_locks) || lock_mark.(h) <> epoch)
            && (ws.best_kind = 0 || d < best_d.(0))
          then begin
            ws.best_kind <- 2;
            best_d.(0) <- d;
            ws.best_hop <- h;
            ws.best_dst <- j
          end
        end
    end
  done

let forward_entry ws ~slot ~next_hop ~destination =
  match ws.forwards.(slot) with
  | Routing_table.Forward f as entry when f.next_hop = next_hop && f.destination = destination
    ->
    entry
  | Routing_table.Forward _ | Routing_table.Deliver_here | Routing_table.Unreachable ->
    let entry = Routing_table.Forward { next_hop; destination } in
    ws.forwards.(slot) <- entry;
    entry

(* Every module's entry for [node]; [mark_locks] has run for it. *)
let fill_row ws adj table ~alive ~candidates ~dist ~hop ~off ~node ~has_locks
    ~module_count =
  for module_index = 0 to module_count - 1 do
    let pool = candidates.(module_index) in
    consider ws adj ~alive ~dist ~hop ~off ~node ~pool ~respect_locks:true;
    (* every viable path starts on a locked port: deadlock recovery
       prefers a detour, but a locked path beats declaring the module
       unreachable (locks are transient congestion, not death).  Without
       locks the second pass would repeat the first. *)
    if ws.best_kind = 0 && has_locks then
      consider ws adj ~alive ~dist ~hop ~off ~node ~pool ~respect_locks:false;
    let entry =
      match ws.best_kind with
      | 1 -> Routing_table.Deliver_here
      | 2 ->
        forward_entry ws
          ~slot:((node * module_count) + module_index)
          ~next_hop:ws.best_hop ~destination:ws.best_dst
      | _ -> Routing_table.Unreachable
    in
    Routing_table.set table ~node ~module_index entry
  done

(* Phases two and three from one truncated search per living source,
   choosing each module's entry as nodes settle.  Settle order is
   non-decreasing in distance, so the first usable replica of a module
   is its nearest, and a later one at the same distance only replaces
   it with a smaller id: the first minimum in (ascending) candidate
   order, as Fig 6 picks on the full row.  The search stops once every
   module has a usable replica and nothing pending is as near as the
   farthest of them, so every candidate that could tie has settled.  A
   module without a usable replica keeps the search going to
   exhaustion, which makes the lock-ignoring choice ([any]) exact too.
   With positive weights only the node itself is at distance 0, so it
   delivers whenever it hosts the module. *)
let route_balls ws adj table ~module_of ~(snapshot : snapshot) ~module_count =
  let csr = adj.csr and search = adj.search and weights = adj.edge_weights in
  let alive = snapshot.alive in
  let dist = Dijkstra.distances search and hop = Dijkstra.first_hops search in
  let labels = Dijkstra.labels search in
  let lock_mark = adj.lock_mark and usable = ws.usable and any = ws.any in
  for src = 0 to Array.length alive - 1 do
    if alive.(src) then begin
      ignore (mark_locks ws adj ~node:src);
      let epoch = ws.epoch in
      Array.fill usable 0 module_count (-1);
      Array.fill any 0 module_count (-1);
      Dijkstra.start search ~src;
      let covered = ref 0 and reach = ref 0. and searching = ref true in
      while !searching do
        let next = Dijkstra.pending search in
        if next < 0 || (!covered = module_count && labels.(next) > !reach) then
          searching := false
        else begin
          let u = Dijkstra.settle_next search csr ~weights in
          let m = module_of.(u) in
          if m >= 0 then begin
            let d = dist.(u) in
            let best = any.(m) in
            if best < 0 || (d = dist.(best) && u < best) then any.(m) <- u;
            if u = src || lock_mark.(hop.(u)) <> epoch then begin
              let best = usable.(m) in
              if best < 0 then begin
                usable.(m) <- u;
                incr covered;
                reach := d
              end
              else if d = dist.(best) && u < best then usable.(m) <- u
            end
          end
        end
      done;
      for module_index = 0 to module_count - 1 do
        let j = if usable.(module_index) >= 0 then usable.(module_index) else any.(module_index) in
        let entry =
          if j < 0 then Routing_table.Unreachable
          else if j = src then Routing_table.Deliver_here
          else
            forward_entry ws
              ~slot:((src * module_count) + module_index)
              ~next_hop:hop.(j) ~destination:j
        in
        Routing_table.set table ~node:src ~module_index entry
      done
    end
  done

(* The fallback when the gate fails: Fig 5's all-pairs recurrence, then
   phase three over each living node's row. *)
let route_floyd_warshall ws adj table ~candidates ~(snapshot : snapshot) ~module_count =
  let n = Array.length snapshot.alive in
  let w = fill_weight_matrix adj (scratch_matrix ws ~dim:n) in
  let paths = Etx_graph.Floyd_warshall.run_into (scratch_paths ws ~dim:n) w in
  let dist = Matrix.data paths.distances in
  let hop = Matrix.Int.data paths.successors in
  let alive = snapshot.alive in
  for node = 0 to n - 1 do
    if alive.(node) then begin
      let has_locks = mark_locks ws adj ~node in
      fill_row ws adj table ~alive ~candidates ~dist ~hop ~off:(node * n) ~node ~has_locks
        ~module_count
    end
  done

(* [module_of] and the per-module incumbents, rebuilt when the cached
   candidate arrays change. *)
let module_index_of ws ~candidates ~node_count =
  if ws.module_of_candidates != candidates || Array.length ws.module_of <> node_count
  then begin
    let module_of = Array.make node_count (-1) in
    Array.iteri (fun m pool -> Array.iter (fun j -> module_of.(j) <- m) pool) candidates;
    ws.module_of <- module_of;
    ws.module_of_candidates <- candidates;
    ws.usable <- Array.make (Array.length candidates) (-1);
    ws.any <- Array.make (Array.length candidates) (-1)
  end;
  ws.module_of

let compute ?workspace ~graph ~mapping ~module_count ~weight snapshot =
  check_snapshot ~graph snapshot;
  let node_count = Etx_graph.Digraph.node_count graph in
  if Mapping.node_count mapping <> node_count then
    invalid_arg "Router.compute: mapping arity differs from the graph";
  let ws = match workspace with Some ws -> ws | None -> create_workspace () in
  let adj = adjacency ws graph in
  let exact = fill_edge_weights ws adj ~weight snapshot in
  set_edge_flags adj.edge_locked adj.csr ~node_count snapshot.locked_ports;
  let table =
    match workspace with
    | Some _ -> scratch_table ws ~node_count ~module_count
    | None -> Routing_table.create ~node_count ~module_count
  in
  if Array.length ws.forwards <> node_count * module_count then
    ws.forwards <- Array.make (node_count * module_count) Routing_table.Unreachable;
  let candidates = candidate_arrays ws.candidates ~mapping ~module_count in
  if exact then
    route_balls ws adj table
      ~module_of:(module_index_of ws ~candidates ~node_count)
      ~snapshot ~module_count
  else begin
    Obs.inc obs_exact_fallback;
    route_floyd_warshall ws adj table ~candidates ~snapshot ~module_count
  end;
  table
