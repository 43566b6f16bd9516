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
   the module count they were extracted from. *)
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
   snapshot, the per-node lock marks of the node being routed, and what
   the last searches read (for row reuse, see [route_balls]).  Built
   once per graph (cached on its identity and edge count: graphs are
   built once, then only read). *)
type adjacency = {
  graph : Etx_graph.Digraph.t;
  edge_count : int;
  csr : Dijkstra.csr;
  search : Dijkstra.t;
  edge_weights : float array;  (* this snapshot's W, per CSR edge; infinity = cut *)
  edge_failed : bool array;
  edge_locked : bool array;
  lock_mark : int array;  (* = the workspace epoch when the port towards the node is locked *)
  seen : int array;  (* = the workspace epoch once the routed node's search settled the node *)
  summed : float array array;  (* [| edge_weights |]: EAR/SDR's one pass *)
  (* the widest kernel's passes, one per reported level, highest first:
     [edge_weights] with every edge into a node below the level cut *)
  mutable level_weights : float array array;
  (* row reuse: per pass, the weights and lock flags the last
     [route_balls] read; per source, the nodes its searches labelled
     (the [read_count] entries of [reads] from [read_start]; -1: no row
     to reuse) and how many searches it ran; per node, the epoch of the
     recompute that found a weight its searches may read changed.  Each
     recompute writes every living source's list, copied or new, end to
     end into [spare] and then swaps the two buffers, so a few large
     arrays serve every source and are reused across recomputes. *)
  mutable read_weights : float array array;
  read_locked : bool array;
  mutable reads : int array;
  mutable spare : int array;
  read_start : int array;
  read_count : int array;
  read_searches : int array;
  dirty : int array;
  (* the recompute the rows can be reused after: a [route_balls] on
     these candidate arrays (so on this mapping and module count, hence
     this table pair) and pass count *)
  mutable rows_valid : bool;
  mutable rows_candidates : int array array;
  mutable rows_passes : int;
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
  (* the Floyd-Warshall path's results: the merged one, the current
     pass's (the widest kernel's later passes), and per pair the first
     pass that reached it *)
  mutable paths : Etx_graph.Floyd_warshall.result option;
  mutable pass_paths : Etx_graph.Floyd_warshall.result option;
  mutable reached : int array;
  candidates : candidates;
  mutable module_of : int array;  (* node -> module it is a candidate of, or -1 *)
  mutable module_of_candidates : int array array;
  (* per module, for the node being routed: the nearest settled replica
     that is usable (the node itself, or first hop not locked) and the
     nearest one overall; -1 = none yet *)
  mutable usable : int array;
  mutable any : int array;
  (* the chosen replica's first hop and the pass that settled it: a
     later pass restarts the search, so neither can be read back *)
  mutable usable_hop : int array;
  mutable usable_pass : int array;
  mutable any_hop : int array;
  mutable any_pass : int array;
  mutable level_live : bool array;  (* per level: whether a living node reports it *)
  mutable epoch : int;  (* bumped per routed node; never reset, so marks need no clearing *)
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
    pass_paths = None;
    reached = [||];
    candidates = create_candidates ();
    module_of = [||];
    module_of_candidates = [||];
    usable = [||];
    any = [||];
    usable_hop = [||];
    usable_pass = [||];
    any_hop = [||];
    any_pass = [||];
    level_live = [||];
    epoch = 0;
    forwards = [||];
    tables = [||];
    table_flip = 0;
  }

(* The next table of the rotating pair, cleared.  Two tables rotate
   because callers hold the previous recompute's result (for
   [Routing_table.diff_count]) while the next one is written. *)
let scratch_table ws ~node_count ~module_count =
  let tables = ws.tables in
  if
    not
      (Array.length tables = 2
      && Routing_table.node_count tables.(0) = node_count
      && Routing_table.module_count tables.(0) = module_count)
  then ws.tables <- Array.init 2 (fun _ -> Routing_table.create ~node_count ~module_count);
  let table = ws.tables.(ws.table_flip) in
  Routing_table.clear table;
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
    let edge_weights = Array.make edges infinity in
    let adj =
      {
        graph;
        edge_count = Etx_graph.Digraph.edge_count graph;
        csr;
        search = Dijkstra.create ~node_count:n;
        edge_weights;
        edge_failed = Array.make edges false;
        edge_locked = Array.make edges false;
        lock_mark = Array.make n (-1);
        seen = Array.make n (-1);
        summed = [| edge_weights |];
        level_weights = [||];
        read_weights = [||];
        read_locked = Array.make edges false;
        reads = Array.make (16 * n) 0;
        spare = Array.make (16 * n) 0;
        read_start = Array.make n 0;
        read_count = Array.make n (-1);
        read_searches = Array.make n 0;
        dirty = Array.make n (-1);
        rows_valid = false;
        rows_candidates = [||];
        rows_passes = 0;
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

let scratch_paths cached ~dim =
  match cached with
  | Some p when Matrix.dim p.Etx_graph.Floyd_warshall.distances = dim -> p
  | Some _ | None -> Etx_graph.Floyd_warshall.create_result ~dim

(* The W matrix of phase one from per-edge [weights]: diagonal 0, the
   weight on every edge, infinity elsewhere (cut edges included). *)
let fill_weight_matrix adj ~weights w =
  let csr = adj.csr in
  let n = Matrix.dim w in
  let data = Matrix.data w in
  Array.fill data 0 (n * n) infinity;
  for src = 0 to n - 1 do
    data.((src * n) + src) <- 0.;
    for e = csr.Dijkstra.row_start.(src) to csr.Dijkstra.row_start.(src + 1) - 1 do
      data.((src * n) + csr.Dijkstra.targets.(e)) <- weights.(e)
    done
  done;
  w

let weight_matrix ~graph ~weight snapshot =
  check_snapshot ~graph snapshot;
  let n = Etx_graph.Digraph.node_count graph in
  let ws = create_workspace () in
  let adj = adjacency ws graph in
  ignore (fill_edge_weights ws adj ~weight snapshot);
  fill_weight_matrix adj ~weights:adj.edge_weights (Matrix.create ~dim:n ~init:0.)

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

let forward_entry ws ~slot ~next_hop ~destination =
  match ws.forwards.(slot) with
  | Routing_table.Forward f as entry when f.next_hop = next_hop && f.destination = destination
    ->
    entry
  | Routing_table.Forward _ | Routing_table.Deliver_here | Routing_table.Unreachable ->
    let entry = Routing_table.Forward { next_hop; destination } in
    ws.forwards.(slot) <- entry;
    entry

let obs_reused =
  Obs.counter
    ~help:"Routing searches skipped because nothing the source's last searches read changed"
    "etx_routing_searches_reused_total"

(* Row reuse, before the searches: compare each pass's weights with the
   ones the last searches read and keep the new ones.  A search reads
   an edge's weight only when it settles the edge's tail, so a changed
   edge marks, with this recompute's [round], a node every search that
   read it has labelled: the target when the edge was finite (settling
   the tail relaxed it, labelling the target), the tail when it was cut.
   Without [reuse] the weights are only kept. *)
let mark_changed adj ~round ~weights ~passes ~reuse =
  let row_start = adj.csr.Dijkstra.row_start and targets = adj.csr.Dijkstra.targets in
  let edges = Array.length targets in
  let kept = adj.read_weights in
  if Array.length kept < Array.length weights then
    adj.read_weights <-
      Array.init (Array.length weights) (fun p ->
          if p < Array.length kept then kept.(p) else Array.make edges infinity);
  for p = 0 to passes - 1 do
    let now : float array = weights.(p) and read = adj.read_weights.(p) in
    if reuse then
      for u = 0 to Array.length row_start - 2 do
        for e = row_start.(u) to row_start.(u + 1) - 1 do
          let w = now.(e) and r = read.(e) in
          if w <> r then begin
            adj.dirty.(if r < infinity then targets.(e) else u) <- round;
            read.(e) <- w
          end
        done
      done
    else Array.blit now 0 read 0 edges
  done

(* Whether [src]'s row from the last recompute still holds: it had one,
   its own locked ports are as they were, and no node its searches
   labelled is marked this [round]. *)
let row_unchanged adj ~src ~round =
  let count = adj.read_count.(src) in
  count >= 0
  && begin
    let row_start = adj.csr.Dijkstra.row_start in
    let e = ref row_start.(src) and last = row_start.(src + 1) in
    while !e < last && adj.edge_locked.(!e) = adj.read_locked.(!e) do
      incr e
    done;
    !e = last
  end
  && begin
    let reads = adj.reads and dirty = adj.dirty in
    let i = ref adj.read_start.(src) and last = adj.read_start.(src) + count in
    while !i < last && dirty.(reads.(!i)) <> round do
      incr i
    done;
    !i = last
  end

(* Append [k] nodes of [from] from [off] to the lists being written,
   at [pos]; returns the new end.  The buffer doubles when full.  The
   copy is a loop: [Array.blit] into an array on the major heap pays a
   write barrier per element, which an [int array] store skips. *)
let keep adj ~pos (from : int array) ~off k =
  if pos + k > Array.length adj.spare then begin
    let grown = Array.make (max (2 * Array.length adj.spare) (pos + k)) 0 in
    Array.blit adj.spare 0 grown 0 pos;
    adj.spare <- grown
  end;
  let spare = adj.spare in
  for i = 0 to k - 1 do
    spare.(pos + i) <- from.(off + i)
  done;
  pos + k

(* Phases two and three from truncated searches per living source,
   choosing each module's entry as nodes settle.  A source runs the
   searches of [passes] in turn, [weights.(0)] first, and only while
   some module has no usable replica yet; a node counts in the first
   pass that settles it.  EAR and SDR have one pass.  The widest kernel
   has one per level, highest first, so a module is decided in the
   pass of its widest usable replica, as the per-level recurrence
   below decides it.  Within a pass, settle order is non-decreasing in
   distance, so the first usable replica of a module is its nearest,
   and a later one at the same distance only replaces it with a
   smaller id: the first minimum in (ascending) candidate order, as
   Fig 6 picks on the full row.  A pass stops once every module has a
   usable replica and nothing pending is as near as the farthest of
   those it chose, so every candidate that could tie has settled; only
   the last pass can stop early.  A module without a usable replica
   keeps every pass going to exhaustion, which makes the lock-ignoring
   choice ([any], taken in the first pass that reaches a replica)
   exact too.  With positive weights only the node itself is at
   distance 0, so it delivers whenever it hosts the module.

   A source's searches are a function of its own locked ports,
   [module_of] and, per pass, the weights on the out-edges of the nodes
   they settle, all of which they labelled.  With [reuse] (the last
   recompute ran here on the same candidates and pass count, so
   [previous] holds its rows), a source none of whose labelled
   nodes [mark_changed] marks and whose locks are unchanged would
   repeat its last searches step for step: its row is copied from
   [previous] instead, and its list stays valid.  Every other living
   source searches and records what it labelled. *)
let route_balls ws adj table ~previous ~reuse ~module_of ~(snapshot : snapshot)
    ~module_count ~weights ~passes =
  let csr = adj.csr and search = adj.search in
  let alive = snapshot.alive in
  let dist = Dijkstra.distances search and hop = Dijkstra.first_hops search in
  let labels = Dijkstra.labels search in
  let lock_mark = adj.lock_mark and seen = adj.seen in
  let usable = ws.usable and usable_hop = ws.usable_hop and usable_pass = ws.usable_pass in
  let any = ws.any and any_hop = ws.any_hop and any_pass = ws.any_pass in
  ws.epoch <- ws.epoch + 1;
  let round = ws.epoch in
  mark_changed adj ~round ~weights ~passes ~reuse;
  let searches = ref 0 and reused = ref 0 and kept = ref 0 in
  for src = 0 to Array.length alive - 1 do
    if not alive.(src) then adj.read_count.(src) <- -1
    else if reuse && row_unchanged adj ~src ~round then begin
      Routing_table.blit_row ~src:previous ~dst:table ~node:src;
      reused := !reused + adj.read_searches.(src);
      let start = !kept in
      kept := keep adj ~pos:start adj.reads ~off:adj.read_start.(src) adj.read_count.(src);
      adj.read_start.(src) <- start
    end
    else begin
      ignore (mark_locks ws adj ~node:src);
      let epoch = ws.epoch in
      Array.fill usable 0 module_count (-1);
      Array.fill any 0 module_count (-1);
      adj.read_start.(src) <- !kept;
      let covered = ref 0 and pass = ref 0 in
      while !covered < module_count && !pass < passes do
        let p = !pass in
        let weights = weights.(p) in
        Dijkstra.start search ~src;
        incr searches;
        let reach = ref 0. and searching = ref true in
        while !searching do
          let next = Dijkstra.pending search in
          if next < 0 || (!covered = module_count && labels.(next) > !reach) then
            searching := false
          else begin
            let u = Dijkstra.settle_next search csr ~weights in
            if seen.(u) <> epoch then begin
              seen.(u) <- epoch;
              let m = module_of.(u) in
              if m >= 0 then begin
                let d = dist.(u) in
                let best = any.(m) in
                if best < 0 || (any_pass.(m) = p && d = dist.(best) && u < best) then begin
                  any.(m) <- u;
                  any_hop.(m) <- hop.(u);
                  any_pass.(m) <- p
                end;
                if u = src || lock_mark.(hop.(u)) <> epoch then begin
                  let best = usable.(m) in
                  if best < 0 then begin
                    usable.(m) <- u;
                    usable_hop.(m) <- hop.(u);
                    usable_pass.(m) <- p;
                    incr covered;
                    reach := d
                  end
                  else if usable_pass.(m) = p && d = dist.(best) && u < best then begin
                    usable.(m) <- u;
                    usable_hop.(m) <- hop.(u)
                  end
                end
              end
            end
          end
        done;
        kept :=
          keep adj ~pos:!kept (Dijkstra.labelled search) ~off:0
            (Dijkstra.labelled_count search);
        incr pass
      done;
      adj.read_count.(src) <- !kept - adj.read_start.(src);
      adj.read_searches.(src) <- !pass;
      for module_index = 0 to module_count - 1 do
        let found = usable.(module_index) >= 0 in
        let j = if found then usable.(module_index) else any.(module_index) in
        let entry =
          if j < 0 then Routing_table.Unreachable
          else if j = src then Routing_table.Deliver_here
          else
            forward_entry ws
              ~slot:((src * module_count) + module_index)
              ~next_hop:(if found then usable_hop.(module_index) else any_hop.(module_index))
              ~destination:j
        in
        Routing_table.set table ~node:src ~module_index entry
      done
    end
  done;
  let lists = adj.spare in
  adj.spare <- adj.reads;
  adj.reads <- lists;
  let locked = adj.edge_locked and read_locked = adj.read_locked in
  for e = 0 to Array.length locked - 1 do
    read_locked.(e) <- locked.(e)
  done;
  if !reused > 0 then Obs.add obs_reused !reused;
  !searches

(* The widest kernel's passes into [adj.level_weights]: one per level
   some living node reports, highest first, each keeping the weights of
   [adj.edge_weights] (the physical lengths, for the widest kernel) on
   edges into nodes at or above its level and cutting the rest.  A
   level no living node reports reaches nothing the level above it did
   not, so it gets no pass.  Returns the pass count. *)
let fill_level_weights ws adj (snapshot : snapshot) =
  let levels = snapshot.levels in
  if Array.length ws.level_live <> levels then ws.level_live <- Array.make levels false;
  let live = ws.level_live in
  Array.fill live 0 levels false;
  Array.iteri
    (fun node level ->
      if snapshot.alive.(node) && level >= 0 && level < levels then live.(level) <- true)
    snapshot.battery_level;
  let edges = Array.length adj.edge_weights in
  if Array.length adj.level_weights < levels then
    adj.level_weights <- Array.init levels (fun _ -> Array.make edges infinity);
  let targets = adj.csr.Dijkstra.targets and level = snapshot.battery_level in
  let passes = ref 0 in
  for l = levels - 1 downto 0 do
    if live.(l) then begin
      let w = adj.level_weights.(!passes) in
      for e = 0 to edges - 1 do
        w.(e) <- (if level.(targets.(e)) >= l then adj.edge_weights.(e) else infinity)
      done;
      incr passes
    end
  done;
  !passes

(* Phase three (Fig 6) for [node] over its row of the merged
   Floyd-Warshall results (from [row] on): among the living replicas in
   [pool], the one reached in the earliest pass, the nearest among
   those and the first in candidate order on a tie, skipping replicas
   whose first hop is a locked port when [respect_locks]; -1 for none.
   The node itself is at distance 0 in the first pass, so with positive
   weights it always wins. *)
let choose_replica adj ~epoch ~alive ~reached ~dist ~hop ~row ~node ~pool ~respect_locks =
  let best = ref (-1) in
  for c = 0 to Array.length pool - 1 do
    let j = Array.unsafe_get pool c in
    let k = row + j in
    if
      alive.(j) && dist.(k) < infinity
      && (j = node || (not respect_locks) || adj.lock_mark.(hop.(k)) <> epoch)
      && (!best < 0
         || reached.(k) < reached.(row + !best)
         || (reached.(k) = reached.(row + !best) && dist.(k) < dist.(row + !best)))
    then best := j
  done;
  !best

(* The Floyd-Warshall path: the recurrence that defines the tables, run
   when the gate fails (and on demand for the widest kernel).  Fig 5
   once per pass of [weights], each pair keeping the distance and
   successor of the first pass that reaches it, then phase three per
   living node.  With one pass (EAR, SDR) this is Fig 5 and Fig 6 as
   printed; with the widest kernel's per-level passes, the first pass
   that reaches a pair is its width. *)
let route_by_levels ws adj table ~candidates ~(snapshot : snapshot) ~module_count
    ~weights ~passes =
  let n = Array.length snapshot.alive in
  let w = scratch_matrix ws ~dim:n in
  let merged = scratch_paths ws.paths ~dim:n in
  ws.paths <- Some merged;
  ignore (Etx_graph.Floyd_warshall.run_into merged (fill_weight_matrix adj ~weights:weights.(0) w));
  let dist = Matrix.data merged.distances and hop = Matrix.Int.data merged.successors in
  if Array.length ws.reached <> n * n then ws.reached <- Array.make (n * n) 0;
  let reached = ws.reached in
  Array.fill reached 0 (n * n) 0;
  for p = 1 to passes - 1 do
    let pass = scratch_paths ws.pass_paths ~dim:n in
    ws.pass_paths <- Some pass;
    ignore (Etx_graph.Floyd_warshall.run_into pass (fill_weight_matrix adj ~weights:weights.(p) w));
    let d = Matrix.data pass.distances and s = Matrix.Int.data pass.successors in
    for c = 0 to (n * n) - 1 do
      if dist.(c) = infinity && d.(c) < infinity then begin
        reached.(c) <- p;
        dist.(c) <- d.(c);
        hop.(c) <- s.(c)
      end
    done
  done;
  let alive = snapshot.alive in
  for node = 0 to n - 1 do
    if alive.(node) then begin
      let has_locks = mark_locks ws adj ~node in
      let row = node * n and epoch = ws.epoch in
      for module_index = 0 to module_count - 1 do
        let pool = candidates.(module_index) in
        let j =
          choose_replica adj ~epoch ~alive ~reached ~dist ~hop ~row ~node ~pool
            ~respect_locks:true
        in
        (* every viable path starts on a locked port: deadlock recovery
           prefers a detour, but a locked path beats declaring the module
           unreachable (locks are transient congestion, not death) *)
        let j =
          if j < 0 && has_locks then
            choose_replica adj ~epoch ~alive ~reached ~dist ~hop ~row ~node ~pool
              ~respect_locks:false
          else j
        in
        let entry =
          if j < 0 then Routing_table.Unreachable
          else if j = node then Routing_table.Deliver_here
          else
            forward_entry ws
              ~slot:((node * module_count) + module_index)
              ~next_hop:hop.(row + j) ~destination:j
        in
        Routing_table.set table ~node ~module_index entry
      done
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
    let per_module () = Array.make (Array.length candidates) (-1) in
    ws.usable <- per_module ();
    ws.any <- per_module ();
    ws.usable_hop <- per_module ();
    ws.usable_pass <- per_module ();
    ws.any_hop <- per_module ();
    ws.any_pass <- per_module ()
  end;
  ws.module_of

let obs_levels =
  Obs.counter ~help:"Threshold searches run by the widest (maximin) routing kernel"
    "etx_routing_maximin_levels_total"

(* Phase one, then phases two and three: the searches when the gate
   holds, else the Floyd-Warshall recurrence.  The widest kernel runs
   one pass per reported level over the physical lengths, EAR and SDR
   one pass over their weights. *)
let route ?workspace ~graph ~mapping ~module_count ~weight ~widest ~by_levels snapshot =
  check_snapshot ~graph snapshot;
  let node_count = Etx_graph.Digraph.node_count graph in
  if Mapping.node_count mapping <> node_count then
    invalid_arg "Router.compute: mapping arity differs from the graph";
  let ws = match workspace with Some ws -> ws | None -> create_workspace () in
  let adj = adjacency ws graph in
  (* off until this recompute completes on the searches *)
  let rows_valid = adj.rows_valid in
  adj.rows_valid <- false;
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
  let module_of = module_index_of ws ~candidates ~node_count in
  let passes = if widest then fill_level_weights ws adj snapshot else 1 in
  let weights = if widest then adj.level_weights else adj.summed in
  if exact && not by_levels then begin
    let reuse =
      rows_valid && adj.rows_candidates == candidates && adj.rows_passes = passes
    in
    let previous = if reuse then ws.tables.(ws.table_flip) else table in
    let searches =
      route_balls ws adj table ~previous ~reuse ~module_of ~snapshot ~module_count
        ~weights ~passes
    in
    if widest then Obs.add obs_levels searches;
    adj.rows_valid <- true;
    adj.rows_candidates <- candidates;
    adj.rows_passes <- passes
  end
  else begin
    if not exact then Obs.inc obs_exact_fallback;
    route_by_levels ws adj table ~candidates ~snapshot ~module_count ~weights ~passes
  end;
  table

let compute ?workspace ~graph ~mapping ~module_count ~weight snapshot =
  route ?workspace ~graph ~mapping ~module_count ~weight ~widest:false ~by_levels:false
    snapshot

let compute_widest ?workspace ?(by_levels = false) ~graph ~mapping ~module_count snapshot =
  route ?workspace ~graph ~mapping ~module_count ~weight:Weight.Shortest_distance
    ~widest:true ~by_levels snapshot
