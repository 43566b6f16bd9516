module Digraph = Etx_graph.Digraph
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

(* Everything sized by the graph's edge index: the search state, the
   level factors and exactness gate of the weight in use, phase one's
   per-pass weights with what they were written from, the failed/locked
   flags per edge, the per-node marks of the node being routed, and
   what each source's last searches settled (for row reuse, see
   [route_balls]).  Built once per index (cached on its identity:
   editing the graph drops its index, so a new one rebuilds this). *)
type adjacency = {
  index : Digraph.index;
  search : Dijkstra.t;
  (* the battery factor of every level of [factors_of], and whether
     they pass the exactness gate on this graph (see [gate]) *)
  mutable factors : float array;
  mutable factors_of : (Weight.t * int) option;
  mutable exact : bool;
  (* phase one: per pass, each edge's weight (infinity = cut) when
     its target reports at least the pass's level cut.  EAR and SDR have
     one pass with cut 0; the widest kernel one per reported level,
     highest first.  While [written], the first [passes] arrays hold
     phase one of [written_alive]/[written_level] and [failed_of]
     under [factors_of] and [cuts]. *)
  mutable pass_weights : float array array;
  mutable cuts : int array;
  mutable next_cuts : int array;
  mutable passes : int;
  mutable written : bool;
  written_alive : bool array;
  written_level : int array;
  mutable failed_of : (int * int) list;
  edge_failed : bool array;
  (* the flags of [locks_of]; per node, the round its own flags moved *)
  mutable locks_of : (int * int) list;
  edge_locked : bool array;
  lock_seen : int array;
  lock_moved : int array;
  lock_mark : int array;  (* = the workspace epoch when the port towards the node is locked *)
  seen : int array;  (* = the workspace epoch once the routed node's search settled the node *)
  (* row reuse: per node, the round a weight change marked it; per
     source, the nodes its last searches settled (the [settled_count]
     entries of [settled] from [settled_start]; -1: no row to reuse)
     and how many searches it ran.  Each recompute writes every living
     source's list, kept or new, end to end into [spare] and then swaps
     the two buffers, so two arrays serve every source. *)
  dirty : int array;
  mutable settled : int array;
  mutable spare : int array;
  settled_start : int array;
  settled_count : int array;
  settled_searches : int array;
  (* the recompute the rows can be reused after: a [route_balls] on
     these candidate arrays (so on this mapping and module count, hence
     this table pair) and pass count *)
  mutable rows_valid : bool;
  mutable rows_candidates : int array array;
  mutable rows_passes : int;
}

(* Scratch state reused across recomputes: the controller calls
   [compute] on every frame where the state changed, so the adjacency,
   the search, the per-module marks and the routing-table rows are
   filled in place instead of reallocated; [forwards] interns the last
   [Forward] entry written to each (node, module) slot, so an unchanged
   route allocates nothing.
   One workspace serves one controller; nothing is shared between
   engines, so domain-parallel sweeps stay race-free. *)
type workspace = {
  mutable adjacency : adjacency option;
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
  mutable epoch : int;  (* bumped per recompute and routed node; never reset, so marks need no clearing *)
  mutable forwards : Routing_table.entry array;
  (* two tables rotated across recomputes: the caller (controller,
     engine) holds the previous result while the next one is written, so
     a single buffer would be overwritten under its feet.  While
     [previous_valid], [tables.(1 - table_flip)] is the last table
     returned; [changed] counts the
     entries of the last one returned that differ from it. *)
  mutable tables : Routing_table.t array;
  mutable table_flip : int;
  mutable previous_valid : bool;
  mutable changed : int;
}

let create_workspace () =
  {
    adjacency = None;
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
    previous_valid = false;
    changed = 0;
  }

(* The next table of the rotating pair, to be overwritten entry by
   entry; the other one then holds the previous result. *)
let next_table ws ~node_count ~module_count =
  let tables = ws.tables in
  if
    not
      (Array.length tables = 2
      && Routing_table.node_count tables.(0) = node_count
      && Routing_table.module_count tables.(0) = module_count)
  then begin
    ws.tables <- Array.init 2 (fun _ -> Routing_table.create ~node_count ~module_count);
    ws.previous_valid <- false
  end;
  let table = ws.tables.(ws.table_flip) in
  ws.table_flip <- 1 - ws.table_flip;
  table

let changed_entries ws = ws.changed

let full_snapshot ~node_count ~levels =
  {
    alive = Array.make node_count true;
    battery_level = Array.make node_count (levels - 1);
    levels;
    locked_ports = [];
    failed_links = [];
  }

let check_snapshot ~graph snapshot =
  let n = Digraph.node_count graph in
  if Array.length snapshot.alive <> n || Array.length snapshot.battery_level <> n then
    invalid_arg "Router: snapshot arity differs from the graph";
  if snapshot.levels <= 0 then invalid_arg "Router: levels must be positive"

let adjacency ws graph =
  let index = Digraph.index graph in
  match ws.adjacency with
  | Some adj when adj.index == index -> adj
  | Some _ | None ->
    let n = Digraph.node_count graph and edges = Array.length index.targets in
    let adj =
      {
        index;
        search = Dijkstra.create ~node_count:n;
        factors = [||];
        factors_of = None;
        exact = false;
        pass_weights = [||];
        cuts = [||];
        next_cuts = [||];
        passes = 0;
        written = false;
        written_alive = Array.make n false;
        written_level = Array.make n 0;
        failed_of = [];
        edge_failed = Array.make edges false;
        locks_of = [];
        edge_locked = Array.make edges false;
        lock_seen = Array.make edges (-1);
        lock_moved = Array.make n (-1);
        lock_mark = Array.make n (-1);
        seen = Array.make n (-1);
        dirty = Array.make n (-1);
        settled = Array.make (4 * n) 0;
        spare = Array.make (4 * n) 0;
        settled_start = Array.make n 0;
        settled_count = Array.make n (-1);
        settled_searches = Array.make n 0;
        rows_valid = false;
        rows_candidates = [||];
        rows_passes = 0;
      }
    in
    ws.adjacency <- Some adj;
    adj

(* [f src e] for each pair [(src, dst)] of [pairs] that names the
   edge [e]; pairs that are not edges of the graph name nothing a route
   could use, so they are dropped. *)
let rec iter_pair_edges index ~node_count f = function
  | [] -> ()
  | (src, dst) :: rest ->
    if src >= 0 && src < node_count then begin
      let e = Digraph.edge_id index ~src ~dst in
      if e >= 0 then f src e
    end;
    iter_pair_edges index ~node_count f rest

(* The value of [w]'s lowest set bit, from its IEEE fields. *)
let low_bit w =
  let bits = Int64.to_int (Int64.bits_of_float w) in
  let biased = (bits lsr 52) land 0x7ff in
  let m = bits land 0xf_ffff_ffff_ffff lor (if biased = 0 then 0 else 1 lsl 52) in
  Float.ldexp (float_of_int (m land -m)) (max biased 1 - 1075)

(* The exactness gate of a weight family, level count and graph: every
   product [f_l * L_e] of a level factor and an edge length is positive
   and finite, and with [2^e] the smallest lowest set bit among them,
   [sum_e max_l f_l * L_e < 2^(52 + e)].  Each product is then a
   multiple of [2^e].  Every finite phase-one weight of any snapshot is
   one of these products, on a subset of the edges, so every sum either
   a search or Fig 5's Floyd-Warshall forms (at most two path lengths,
   each at most the sum of maxima) is a multiple of [2^e] below
   [2^(53 + e)], hence exact, and the two agree bit for bit.  The float
   sum itself is exact while it stays below the bound and can only end
   above it once it has crossed, so the test is sound.  A zero,
   negative or NaN product fails it. *)
let gate ~factors ~lengths =
  let exact = ref true and unit = ref infinity and sum = ref 0. in
  Array.iter
    (fun length ->
      let top = ref 0. in
      Array.iter
        (fun f ->
          let w = f *. length in
          if w > 0. && w < infinity then begin
            let low = low_bit w in
            if low < !unit then unit := low;
            if w > !top then top := w
          end
          else exact := false)
        factors;
      sum := !sum +. !top)
    lengths;
  !exact && !sum < Float.ldexp !unit 52

(* The factors and gate of [weight] at [levels], recomputed (and phase
   one marked for a full rewrite) when either changes; [route] refuses
   a weight that fails the gate. *)
let level_factors adj ~weight ~levels =
  match adj.factors_of with
  | Some (w, l) when (w == weight || w = weight) && l = levels -> ()
  | Some _ | None ->
    let factors = Array.init levels (fun level -> Weight.battery_factor weight ~level ~levels) in
    adj.factors <- factors;
    adj.factors_of <- Some (weight, levels);
    adj.exact <- gate ~factors ~lengths:adj.index.lengths;
    adj.written <- false

(* Each pass's level cut into [adj.next_cuts]; returns the pass count.
   EAR and SDR: one pass, cutting nothing.  The widest kernel: one per
   level some living node reports, highest first; a level no living
   node reports reaches nothing the level above it did not, so it gets
   no pass. *)
let level_cuts ws adj ~widest (snapshot : snapshot) =
  let levels = snapshot.levels in
  if Array.length adj.next_cuts < levels then adj.next_cuts <- Array.make levels 0;
  let cuts = adj.next_cuts in
  if not widest then begin
    cuts.(0) <- 0;
    1
  end
  else begin
    if Array.length ws.level_live <> levels then ws.level_live <- Array.make levels false;
    let live = ws.level_live in
    Array.fill live 0 levels false;
    Array.iteri
      (fun node level ->
        if snapshot.alive.(node) && level >= 0 && level < levels then live.(level) <- true)
      snapshot.battery_level;
    let passes = ref 0 in
    for l = levels - 1 downto 0 do
      if live.(l) then begin
        cuts.(!passes) <- l;
        incr passes
      end
    done;
    !passes
  end

(* Phase one for edge [e] in every pass: [f(N_B(dst)) * L] for an edge
   between living nodes that has not failed and whose target reports at
   least the pass's cut, infinity otherwise.  A weight that moves marks,
   with [round], the node whose sources may have to search again (see
   [route_balls]): the target when it rose, the tail when it fell or
   revived. *)
let write_edge adj ~round ~weight ~(snapshot : snapshot) e =
  let v = adj.index.targets.(e) and u = adj.index.tails.(e) in
  let level = snapshot.battery_level.(v) and levels = snapshot.levels in
  let w =
    if snapshot.alive.(u) && snapshot.alive.(v) && not adj.edge_failed.(e) then begin
      (* out of range: let [Weight] raise its own error *)
      if level < 0 || level >= levels then
        ignore (Weight.battery_factor weight ~level ~levels);
      adj.factors.(level) *. adj.index.lengths.(e)
    end
    else infinity
  in
  for p = 0 to adj.passes - 1 do
    let weights = adj.pass_weights.(p) in
    let now = if level >= adj.cuts.(p) then w else infinity and old = weights.(e) in
    if now <> old then begin
      weights.(e) <- now;
      adj.dirty.(if now > old then v else u) <- round
    end
  done

(* Phase one into [adj.pass_weights], rewriting what the snapshot
   moved: the edges at every node whose [alive] flag or level changed
   since the arrays were written.  Every node counts as changed when
   they were written for another weight, level count, failed-link list
   or set of level cuts, or never (a new graph). *)
let fill_pass_weights ws adj ~round ~weight ~widest (snapshot : snapshot) =
  let passes = level_cuts ws adj ~widest snapshot in
  let same_cuts =
    passes = adj.passes
    &&
    let p = ref 0 in
    while !p < passes && adj.cuts.(!p) = adj.next_cuts.(!p) do
      incr p
    done;
    !p = passes
  in
  let same_failed =
    adj.failed_of == snapshot.failed_links || adj.failed_of = snapshot.failed_links
  in
  let full = not (adj.written && same_cuts && same_failed) in
  (* off until the rewrite completes: an exception leaves a full one due *)
  adj.written <- false;
  if not same_cuts then begin
    let cuts = adj.cuts in
    adj.cuts <- adj.next_cuts;
    adj.next_cuts <- cuts;
    adj.passes <- passes
  end;
  let have = Array.length adj.pass_weights in
  if have < max 1 passes then begin
    let edges = Array.length adj.edge_failed in
    adj.pass_weights <-
      Array.init (max 1 passes) (fun p ->
          if p < have then adj.pass_weights.(p) else Array.make edges infinity)
  end;
  if not same_failed then begin
    let failed = adj.edge_failed in
    Array.fill failed 0 (Array.length failed) false;
    iter_pair_edges adj.index
      ~node_count:(Array.length snapshot.alive)
      (fun _ e -> failed.(e) <- true)
      snapshot.failed_links;
    adj.failed_of <- snapshot.failed_links
  end;
  (* every edge is the out-edge of one node: a full rewrite skips the in-edges *)
  let alive = snapshot.alive and level = snapshot.battery_level in
  let written_alive = adj.written_alive and written_level = adj.written_level in
  let { Digraph.row_start; in_start; in_edges; _ } = adj.index in
  for x = 0 to Array.length alive - 1 do
    if full || written_alive.(x) <> alive.(x) || written_level.(x) <> level.(x) then begin
      written_alive.(x) <- alive.(x);
      written_level.(x) <- level.(x);
      for e = row_start.(x) to row_start.(x + 1) - 1 do
        write_edge adj ~round ~weight ~snapshot e
      done;
      if not full then
        for i = in_start.(x) to in_start.(x + 1) - 1 do
          write_edge adj ~round ~weight ~snapshot in_edges.(i)
        done
    end
  done;
  adj.written <- true

(* The locked-port flags of [locked_ports], moved from those of
   [adj.locks_of]: each flag that changes marks its tail's
   [lock_moved] with [round]. *)
let set_locks adj ~round ~node_count locked_ports =
  if adj.locks_of != locked_ports then begin
    let locked = adj.edge_locked and index = adj.index in
    let moved src e =
      locked.(e) <- not locked.(e);
      adj.lock_moved.(src) <- round
    in
    iter_pair_edges index ~node_count (fun _ e -> adj.lock_seen.(e) <- round) locked_ports;
    iter_pair_edges index ~node_count
      (fun src e -> if locked.(e) && adj.lock_seen.(e) <> round then moved src e)
      adj.locks_of;
    iter_pair_edges index ~node_count
      (fun src e -> if not locked.(e) then moved src e)
      locked_ports;
    adj.locks_of <- locked_ports
  end

(* Phase one as Fig 5's W matrix: diagonal 0, each edge's weight,
   infinity elsewhere (cut edges included). *)
let weight_matrix ~graph ~weight snapshot =
  check_snapshot ~graph snapshot;
  let n = Digraph.node_count graph in
  let ws = create_workspace () in
  let adj = adjacency ws graph in
  level_factors adj ~weight ~levels:snapshot.levels;
  fill_pass_weights ws adj ~round:0 ~weight ~widest:false snapshot;
  let index = adj.index and weights = adj.pass_weights.(0) in
  Etx_util.Matrix.init ~dim:n ~f:(fun src dst ->
      if src = dst then 0.
      else
        let e = Digraph.edge_id index ~src ~dst in
        if e < 0 then infinity else weights.(e))

let shortest_paths ~graph ~weight snapshot =
  Etx_graph.Floyd_warshall.run (weight_matrix ~graph ~weight snapshot)

(* Start routing [node]: a fresh epoch, with the targets of its locked
   ports marked. *)
let mark_locks ws adj ~node =
  ws.epoch <- ws.epoch + 1;
  let index = adj.index in
  for e = index.row_start.(node) to index.row_start.(node + 1) - 1 do
    if adj.edge_locked.(e) then adj.lock_mark.(index.targets.(e)) <- ws.epoch
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

(* Write one entry of the table being built, counting it in
   [ws.changed] when it differs from [previous]'s (with [counting]; the
   count starts at every entry otherwise). *)
let write_entry ws table ~previous ~counting ~node ~module_index entry =
  if
    counting
    && not (Routing_table.entry_equal (Routing_table.get previous ~node ~module_index) entry)
  then ws.changed <- ws.changed + 1;
  Routing_table.set table ~node ~module_index entry

let obs_reused =
  Obs.counter
    ~help:"Routing searches skipped because nothing the source's last searches read changed"
    "etx_routing_searches_reused_total"

(* Room for [k] more nodes at [pos] of the lists being written; the
   buffer doubles when full. *)
let reserve adj ~pos k =
  if pos + k > Array.length adj.spare then begin
    let grown = Array.make (max (2 * Array.length adj.spare) (pos + k)) 0 in
    Array.blit adj.spare 0 grown 0 pos;
    adj.spare <- grown
  end

(* Copy [src]'s settled list to [pos] of the lists being written unless
   one of its nodes is marked this [round]: the new end, or -1 when the
   row must be searched again.  The copy is a loop: [Array.blit] into an
   array on the major heap pays a write barrier per element, which an
   [int array] store skips. *)
let keep_unmarked adj ~src ~round ~pos =
  let count = adj.settled_count.(src) in
  if count < 0 then -1
  else begin
    reserve adj ~pos count;
    let from = adj.settled and into = adj.spare and dirty = adj.dirty in
    let start = adj.settled_start.(src) in
    let i = ref 0 in
    while
      !i < count
      &&
      let v = from.(start + !i) in
      into.(pos + !i) <- v;
      dirty.(v) <> round
    do
      incr i
    done;
    if !i = count then pos + count else -1
  end

(* Phases two and three from truncated searches per living source,
   choosing each module's entry as nodes settle.  A source runs the
   searches of the passes in turn, the first first, and only while
   some module has no usable replica yet; a node counts in the first
   pass that settles it.  EAR and SDR have one pass.  The widest kernel
   has one per level, highest first, so a module is decided in the
   pass of its widest usable replica, as the per-level recurrence that
   defines its table (see the interface) decides it.  Within a pass,
   settle order is non-decreasing in distance, so the first usable
   replica of a module is its nearest, and a later one at the same
   distance only replaces it with a smaller id: the first minimum in
   (ascending) candidate order, as Fig 6 picks on the full row.  A pass stops once every module has a
   usable replica and nothing pending is as near as the farthest of
   those it chose, so every candidate that could tie has settled; only
   the last pass can stop early.  A module without a usable replica
   keeps every pass going to exhaustion, which makes the lock-ignoring
   choice ([any], taken in the first pass that reaches a replica)
   exact too.  With positive weights only the node itself is at
   distance 0, so it delivers whenever it hosts the module.

   Row reuse.  A source's searches are a function of its own locked
   ports, [module_of] and, per pass, the weights on the out-edges of
   the nodes they settle; each source keeps the nodes they settled.
   Phase one marked, for every edge u -> v whose weight moved, v when
   it rose and u when it fell or revived.  A fall or revival matters
   only if the search settled u, which is then marked.  A rise
   matters only if the search settled u and so labelled v: if it also
   settled v, v is marked; if not, the pass that read the edge stopped
   early (a pass that runs to exhaustion settles all it labels), so v's
   label already exceeded the stop distance, and a higher one changes
   neither what settles before it nor where the search stops.  So with
   [reuse] (the last recompute ran here on the same candidates and pass
   count, so [previous] holds its rows), a source that settled no
   marked node and whose own lock flags did not move would repeat its
   last searches: its row is copied from [previous] instead, and its
   list stays valid.  Every other living source searches and records
   what it settles.  Dead sources' rows are written [Unreachable]. *)
let route_balls ws adj table ~previous ~counting ~reuse ~round ~module_of
    ~(snapshot : snapshot) ~module_count =
  let index = adj.index and search = adj.search in
  let weights = adj.pass_weights and passes = adj.passes in
  let alive = snapshot.alive in
  let dist = Dijkstra.distances search and hop = Dijkstra.first_hops search in
  let labels = Dijkstra.labels search in
  let lock_mark = adj.lock_mark and seen = adj.seen in
  let usable = ws.usable and usable_hop = ws.usable_hop and usable_pass = ws.usable_pass in
  let any = ws.any and any_hop = ws.any_hop and any_pass = ws.any_pass in
  let searches = ref 0 and reused = ref 0 and kept = ref 0 in
  for src = 0 to Array.length alive - 1 do
    let kept_to =
      if alive.(src) && reuse && adj.lock_moved.(src) <> round then
        keep_unmarked adj ~src ~round ~pos:!kept
      else -1
    in
    if not alive.(src) then begin
      adj.settled_count.(src) <- -1;
      for module_index = 0 to module_count - 1 do
        write_entry ws table ~previous ~counting ~node:src ~module_index
          Routing_table.Unreachable
      done
    end
    else if kept_to >= 0 then begin
      Routing_table.blit_row ~src:previous ~dst:table ~node:src;
      reused := !reused + adj.settled_searches.(src);
      adj.settled_start.(src) <- !kept;
      kept := kept_to
    end
    else begin
      mark_locks ws adj ~node:src;
      let epoch = ws.epoch in
      Array.fill usable 0 module_count (-1);
      Array.fill any 0 module_count (-1);
      adj.settled_start.(src) <- !kept;
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
            let u = Dijkstra.settle_next search index ~weights in
            if seen.(u) <> epoch then begin
              seen.(u) <- epoch;
              reserve adj ~pos:!kept 1;
              adj.spare.(!kept) <- u;
              incr kept;
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
        incr pass
      done;
      adj.settled_count.(src) <- !kept - adj.settled_start.(src);
      adj.settled_searches.(src) <- !pass;
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
        write_entry ws table ~previous ~counting ~node:src ~module_index entry
      done
    end
  done;
  let lists = adj.spare in
  adj.spare <- adj.settled;
  adj.settled <- lists;
  if !reused > 0 then Obs.add obs_reused !reused;
  !searches

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

(* Phase one, then phases two and three as searches, on a weight that
   passes the gate; the workspace is left as it was when one fails.
   The widest kernel runs one pass per reported level over the physical
   lengths, EAR and SDR one pass over their weights. *)
let route ?workspace ~graph ~mapping ~module_count ~weight ~widest snapshot =
  check_snapshot ~graph snapshot;
  let node_count = Digraph.node_count graph in
  if Mapping.node_count mapping <> node_count then
    invalid_arg "Router.compute: mapping arity differs from the graph";
  let ws = match workspace with Some ws -> ws | None -> create_workspace () in
  let adj = adjacency ws graph in
  level_factors adj ~weight ~levels:snapshot.levels;
  if not adj.exact then
    invalid_arg
      (Printf.sprintf
         "Router: %s weights at %d levels fail the exactness gate on this graph (a path sum \
          could round)"
         (Weight.name weight) snapshot.levels);
  (* off until this recompute completes *)
  let rows_valid = adj.rows_valid in
  adj.rows_valid <- false;
  ws.epoch <- ws.epoch + 1;
  let round = ws.epoch in
  fill_pass_weights ws adj ~round ~weight ~widest snapshot;
  set_locks adj ~round ~node_count snapshot.locked_ports;
  let table =
    match workspace with
    | Some _ -> next_table ws ~node_count ~module_count
    | None -> Routing_table.create ~node_count ~module_count
  in
  let counting = ws.previous_valid in
  let previous = if counting then ws.tables.(ws.table_flip) else table in
  ws.previous_valid <- false;
  ws.changed <- (if counting then 0 else node_count * module_count);
  if Array.length ws.forwards <> node_count * module_count then
    ws.forwards <- Array.make (node_count * module_count) Routing_table.Unreachable;
  let candidates = candidate_arrays ws.candidates ~mapping ~module_count in
  let module_of = module_index_of ws ~candidates ~node_count in
  let passes = adj.passes in
  let reuse =
    counting && rows_valid && adj.rows_candidates == candidates && adj.rows_passes = passes
  in
  let searches =
    route_balls ws adj table ~previous ~counting ~reuse ~round ~module_of ~snapshot
      ~module_count
  in
  if widest then Obs.add obs_levels searches;
  adj.rows_valid <- true;
  adj.rows_candidates <- candidates;
  adj.rows_passes <- passes;
  ws.previous_valid <- true;
  table

let compute ?workspace ~graph ~mapping ~module_count ~weight snapshot =
  route ?workspace ~graph ~mapping ~module_count ~weight ~widest:false snapshot

let compute_widest ?workspace ~graph ~mapping ~module_count snapshot =
  route ?workspace ~graph ~mapping ~module_count ~weight:Weight.Shortest_distance
    ~widest:true snapshot
