module Matrix = Etx_util.Matrix

type csr = { row_start : int array; targets : int array; lengths : float array }

let csr_of_graph graph =
  let n = Digraph.node_count graph in
  let edges = Digraph.edge_count graph in
  let row_start = Array.make (n + 1) 0 in
  let targets = Array.make edges 0 in
  let lengths = Array.make edges 0. in
  (* [iter_edges] walks sources in ascending order and each source's
     targets ascending, so one pass fills the rows in place *)
  let next = ref 0 in
  Digraph.iter_edges graph ~f:(fun ~src ~dst ~length ->
      targets.(!next) <- dst;
      lengths.(!next) <- length;
      incr next;
      row_start.(src + 1) <- !next);
  for i = 1 to n do
    if row_start.(i) < row_start.(i - 1) then row_start.(i) <- row_start.(i - 1)
  done;
  { row_start; targets; lengths }

let csr_node_count csr = Array.length csr.row_start - 1

let rec scan_row targets ~dst e last =
  if e >= last then -1 else if targets.(e) = dst then e else scan_row targets ~dst (e + 1) last

let edge_index csr ~src ~dst =
  scan_row csr.targets ~dst csr.row_start.(src) csr.row_start.(src + 1)

(* One search's state.  [tentative]/[key]/[pred] are the frontier
   labels; [dist]/[hop] are written only when a node settles, so they
   read as a Floyd-Warshall row (infinity / -1 elsewhere).  The heap is
   an indexed binary min-heap on [tentative] with decrease-key, so it
   never holds more than [node_count] entries.  [touched] lists every
   node the current search labelled: [start] resets exactly those, so a
   small ball costs small no matter how large the graph. *)
type t = {
  node_count : int;
  tentative : float array;
  key : int array;
  pred : int array;
  dist : float array;
  hop : int array;
  heap : int array;
  pos : int array;
  mutable size : int;
  touched : int array;
  mutable touched_count : int;
  mutable src : int;
}

let create ~node_count =
  if node_count <= 0 then invalid_arg "Dijkstra.create: node_count must be positive";
  {
    node_count;
    tentative = Array.make node_count infinity;
    key = Array.make node_count (-1);
    pred = Array.make node_count (-1);
    dist = Array.make node_count infinity;
    hop = Array.make node_count (-1);
    heap = Array.make node_count 0;
    pos = Array.make node_count (-1);
    size = 0;
    touched = Array.make node_count 0;
    touched_count = 0;
    src = 0;
  }

let distances t = t.dist
let first_hops t = t.hop

let sift_up t i =
  let heap = t.heap and pos = t.pos and tentative = t.tentative in
  let node = heap.(i) in
  let d = tentative.(node) in
  let i = ref i in
  let continue = ref true in
  while !continue && !i > 0 do
    let parent_index = (!i - 1) / 2 in
    let parent = heap.(parent_index) in
    if tentative.(parent) > d then begin
      heap.(!i) <- parent;
      pos.(parent) <- !i;
      i := parent_index
    end
    else continue := false
  done;
  heap.(!i) <- node;
  pos.(node) <- !i

let sift_down t =
  let heap = t.heap and pos = t.pos and tentative = t.tentative and size = t.size in
  let node = heap.(0) in
  let d = tentative.(node) in
  let i = ref 0 in
  let continue = ref true in
  while !continue do
    let left = (2 * !i) + 1 in
    if left >= size then continue := false
    else begin
      let right = left + 1 in
      let child =
        if right < size && tentative.(heap.(right)) < tentative.(heap.(left)) then right
        else left
      in
      let c = heap.(child) in
      if tentative.(c) < d then begin
        heap.(!i) <- c;
        pos.(c) <- !i;
        i := child
      end
      else continue := false
    end
  done;
  heap.(!i) <- node;
  pos.(node) <- !i

let label t node =
  if t.tentative.(node) = infinity then begin
    t.touched.(t.touched_count) <- node;
    t.touched_count <- t.touched_count + 1
  end

let start t ~src =
  if src < 0 || src >= t.node_count then invalid_arg "Dijkstra.start: source out of range";
  for i = 0 to t.touched_count - 1 do
    let v = t.touched.(i) in
    t.tentative.(v) <- infinity;
    t.key.(v) <- -1;
    t.pred.(v) <- -1;
    t.dist.(v) <- infinity;
    t.hop.(v) <- -1;
    t.pos.(v) <- -1
  done;
  t.touched_count <- 0;
  t.size <- 0;
  t.src <- src;
  label t src;
  t.tentative.(src) <- 0.;
  t.heap.(0) <- src;
  t.pos.(src) <- 0;
  t.size <- 1

let labels t = t.tentative
let pending t = if t.size = 0 then -1 else t.heap.(0)

(* Pop the nearest pending node, fix its distance and first hop, relax
   its out-edges.  The key of a label is the largest intermediate index
   k* of the best path found so far (-1 for the direct edge from the
   source); among exactly tight predecessors the smallest key wins,
   which is the path Floyd-Warshall's strict [<] keeps, and the first
   hop is then the first hop towards k* (already settled: with positive
   weights it is strictly nearer). *)
let settle_next t csr ~weights =
  if t.size = 0 then -1
  else begin
    let u = t.heap.(0) in
    t.size <- t.size - 1;
    t.pos.(u) <- -1;
    if t.size > 0 then begin
      t.heap.(0) <- t.heap.(t.size);
      sift_down t
    end;
    let du = t.tentative.(u) in
    t.dist.(u) <- du;
    let ku =
      if u = t.src then -1
      else begin
        let k = t.key.(u) in
        t.hop.(u) <- (if k < 0 then u else t.hop.(k));
        if k > u then k else u
      end
    in
    let tentative = t.tentative and key = t.key and targets = csr.targets in
    for e = csr.row_start.(u) to csr.row_start.(u + 1) - 1 do
      let w = Array.unsafe_get weights e in
      if w < infinity then begin
        let v = Array.unsafe_get targets e in
        if t.dist.(v) = infinity then begin
          let candidate = du +. w in
          let tv = tentative.(v) in
          if candidate < tv then begin
            label t v;
            tentative.(v) <- candidate;
            key.(v) <- ku;
            t.pred.(v) <- u;
            if t.pos.(v) < 0 then begin
              t.heap.(t.size) <- v;
              t.size <- t.size + 1;
              sift_up t (t.size - 1)
            end
            else sift_up t t.pos.(v)
          end
          else if candidate = tv && ku < key.(v) then begin
            key.(v) <- ku;
            t.pred.(v) <- u
          end
        end
      end
    done;
    u
  end

type result = { distances : float array; predecessors : int array }

let run_csr csr ~weights ~src =
  Array.iter (fun w -> if w < 0. then invalid_arg "Dijkstra: negative weight") weights;
  let t = create ~node_count:(csr_node_count csr) in
  start t ~src;
  while settle_next t csr ~weights >= 0 do
    ()
  done;
  { distances = Array.copy t.dist; predecessors = Array.copy t.pred }

let run w ~src =
  let dim = Matrix.dim w in
  let row_start = Array.make (dim + 1) 0 in
  let targets = ref [] and lengths = ref [] and count = ref 0 in
  for i = 0 to dim - 1 do
    for j = 0 to dim - 1 do
      let v = Matrix.get w i j in
      if i <> j && v < infinity then begin
        targets := j :: !targets;
        lengths := v :: !lengths;
        incr count
      end
    done;
    row_start.(i + 1) <- !count
  done;
  let lengths = Array.of_list (List.rev !lengths) in
  let csr = { row_start; targets = Array.of_list (List.rev !targets); lengths } in
  run_csr csr ~weights:lengths ~src

let run_graph graph ~weight ~src =
  let csr = csr_of_graph graph in
  let weights = Array.make (Array.length csr.targets) infinity in
  for i = 0 to csr_node_count csr - 1 do
    for e = csr.row_start.(i) to csr.row_start.(i + 1) - 1 do
      weights.(e) <- weight ~src:i ~dst:csr.targets.(e)
    done
  done;
  run_csr csr ~weights ~src

let path_to result ~src ~dst =
  if result.distances.(dst) = infinity then None
  else begin
    let rec walk node acc =
      if node = src then Some (src :: acc)
      else
        match result.predecessors.(node) with
        | -1 -> None
        | prev -> walk prev (node :: acc)
    in
    if src = dst then Some [ src ] else walk dst []
  end
