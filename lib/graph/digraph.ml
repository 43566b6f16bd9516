module Int_map = Map.Make (Int)

type index = {
  row_start : int array;
  targets : int array;
  lengths : float array;
  tails : int array;
  in_start : int array;
  in_edges : int array;
}

(* [out_edges] is the construction store ([add_edge], [mem_edge],
   [length]); everything that walks the links reads [index], built from
   it on first use and dropped by [add_edge].  The index is published
   with a compare-and-set so that domains sharing a graph agree on one. *)
type t = {
  node_count : int;
  out_edges : float Int_map.t array; (* dst -> length *)
  mutable edge_count : int;
  index : index option Atomic.t;
}

let create ~node_count =
  if node_count <= 0 then invalid_arg "Digraph.create: node_count must be positive";
  {
    node_count;
    out_edges = Array.make node_count Int_map.empty;
    edge_count = 0;
    index = Atomic.make None;
  }

let node_count t = t.node_count
let edge_count t = t.edge_count

let check_node t id name =
  if id < 0 || id >= t.node_count then
    invalid_arg (Printf.sprintf "Digraph: %s node %d out of range" name id)

let add_edge t ~src ~dst ~length =
  check_node t src "source";
  check_node t dst "destination";
  if src = dst then invalid_arg "Digraph.add_edge: self-loop";
  if length <= 0. then invalid_arg "Digraph.add_edge: non-positive length";
  if not (Int_map.mem dst t.out_edges.(src)) then t.edge_count <- t.edge_count + 1;
  t.out_edges.(src) <- Int_map.add dst length t.out_edges.(src);
  if Option.is_some (Atomic.get t.index) then Atomic.set t.index None

let add_bidirectional t ~a ~b ~length =
  add_edge t ~src:a ~dst:b ~length;
  add_edge t ~src:b ~dst:a ~length

let mem_edge t ~src ~dst =
  check_node t src "source";
  check_node t dst "destination";
  Int_map.mem dst t.out_edges.(src)

let length t ~src ~dst =
  check_node t src "source";
  check_node t dst "destination";
  match Int_map.find_opt dst t.out_edges.(src) with
  | Some l -> l
  | None -> raise Not_found

let fold_edges t ~init ~f =
  let acc = ref init in
  Array.iteri
    (fun src edges ->
      Int_map.iter (fun dst length -> acc := f !acc ~src ~dst ~length) edges)
    t.out_edges;
  !acc

let iter_edges t ~f =
  fold_edges t ~init:() ~f:(fun () ~src ~dst ~length -> f ~src ~dst ~length)

(* [iter_edges] walks sources in ascending order and each source's
   targets ascending, so one pass fills the rows in place; the in-edges
   of each node then come out in ascending edge, hence source, order. *)
let build t =
  let n = t.node_count and edges = t.edge_count in
  let row_start = Array.make (n + 1) 0 in
  let targets = Array.make edges 0 and lengths = Array.make edges 0. in
  let tails = Array.make edges 0 and in_start = Array.make (n + 1) 0 in
  let next = ref 0 in
  iter_edges t ~f:(fun ~src ~dst ~length ->
      targets.(!next) <- dst;
      lengths.(!next) <- length;
      tails.(!next) <- src;
      incr next;
      row_start.(src + 1) <- !next;
      in_start.(dst + 1) <- in_start.(dst + 1) + 1);
  for i = 1 to n do
    if row_start.(i) < row_start.(i - 1) then row_start.(i) <- row_start.(i - 1);
    in_start.(i) <- in_start.(i) + in_start.(i - 1)
  done;
  let fill = Array.sub in_start 0 n and in_edges = Array.make edges 0 in
  Array.iteri
    (fun e v ->
      in_edges.(fill.(v)) <- e;
      fill.(v) <- fill.(v) + 1)
    targets;
  { row_start; targets; lengths; tails; in_start; in_edges }

let rec index t =
  match Atomic.get t.index with
  | Some index -> index
  | None ->
    let built = build t in
    if Atomic.compare_and_set t.index None (Some built) then built else index t

let rec scan_row targets ~dst e last =
  if e >= last then -1 else if targets.(e) = dst then e else scan_row targets ~dst (e + 1) last

let edge_id index ~src ~dst =
  scan_row index.targets ~dst index.row_start.(src) index.row_start.(src + 1)

let successors t id =
  check_node t id "node";
  let { row_start = s; targets; lengths; _ } = index t in
  List.init (s.(id + 1) - s.(id)) (fun i -> (targets.(s.(id) + i), lengths.(s.(id) + i)))

let predecessors t id =
  check_node t id "node";
  let { in_start = s; in_edges; tails; lengths; _ } = index t in
  List.init (s.(id + 1) - s.(id)) (fun i ->
      let e = in_edges.(s.(id) + i) in
      (tails.(e), lengths.(e)))

let adjacency_matrix t =
  let m =
    Etx_util.Matrix.init ~dim:t.node_count ~f:(fun i j -> if i = j then 0. else infinity)
  in
  iter_edges t ~f:(fun ~src ~dst ~length -> Etx_util.Matrix.set m src dst length);
  m

let transpose t =
  let g = create ~node_count:t.node_count in
  iter_edges t ~f:(fun ~src ~dst ~length -> add_edge g ~src:dst ~dst:src ~length);
  g

let pp fmt t =
  Format.fprintf fmt "@[<v>digraph (%d nodes, %d edges)@," t.node_count t.edge_count;
  iter_edges t ~f:(fun ~src ~dst ~length ->
      Format.fprintf fmt "  %d -> %d (%.3f cm)@," src dst length);
  Format.fprintf fmt "@]"
