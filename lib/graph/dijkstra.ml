module Matrix = Etx_util.Matrix

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
let settle_next t (index : Digraph.index) ~weights =
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
    let tentative = t.tentative and key = t.key and targets = index.targets in
    for e = index.row_start.(u) to index.row_start.(u + 1) - 1 do
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

let run_index (index : Digraph.index) ~weights ~src =
  Array.iter (fun w -> if w < 0. then invalid_arg "Dijkstra: negative weight") weights;
  let t = create ~node_count:(Array.length index.row_start - 1) in
  start t ~src;
  while settle_next t index ~weights >= 0 do
    ()
  done;
  { distances = Array.copy t.dist; predecessors = Array.copy t.pred }

let run_graph graph ~weight ~src =
  let index = Digraph.index graph in
  let weights = Array.mapi (fun e dst -> weight ~src:index.tails.(e) ~dst) index.targets in
  run_index index ~weights ~src

(* The matrix's finite off-diagonal entries as the edges of a graph.
   The search reads its weights back from the matrix, not the
   placeholder lengths, so a zero weight (which no length may be) is
   allowed. *)
let run w ~src =
  let dim = Matrix.dim w in
  let graph = Digraph.create ~node_count:dim in
  for i = 0 to dim - 1 do
    for j = 0 to dim - 1 do
      if i <> j && Matrix.get w i j < infinity then
        Digraph.add_edge graph ~src:i ~dst:j ~length:1.
    done
  done;
  run_graph graph ~weight:(fun ~src ~dst -> Matrix.get w src dst) ~src

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
