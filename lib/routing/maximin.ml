module Scratch = Etx_util.Scratch

type path_value = { width : int; distance : float }

(* sentinels live directly in the flat buffers now: width -1 /
   distance infinity for "unreachable", width max_int / distance 0 on
   the diagonal (the empty path) *)

let better a b =
  a.width > b.width || (a.width = b.width && a.distance < b.distance)

(* Struct-of-arrays widest-path matrices: parallel row-major [n * n]
   buffers instead of an array-of-arrays of boxed records, so the DP
   triple loop below runs on flat unboxed data and allocates nothing. *)
type paths = {
  dim : int;
  widths : int array;  (* bottleneck level; -1 = unreachable *)
  distances : float array;  (* tie-breaking physical length *)
  succ : int array;  (* first hop; -1 = none *)
}

let dim paths = paths.dim
let path_width paths ~src ~dst = paths.widths.((src * paths.dim) + dst)
let path_distance paths ~src ~dst = paths.distances.((src * paths.dim) + dst)

let path_value paths ~src ~dst =
  {
    width = path_width paths ~src ~dst;
    distance = path_distance paths ~src ~dst;
  }

let successor paths ~src ~dst =
  match paths.succ.((src * paths.dim) + dst) with -1 -> None | hop -> Some hop

(* Scratch state reused across recomputes, mirroring [Router.workspace]:
   the flat value/successor buffers, the membership hash sets, the
   per-module candidate arrays, and the rotating routing-table pair.
   One workspace serves one controller; never share across domains. *)
type workspace = {
  widths : Scratch.Ints.t;
  distances : Scratch.Floats.t;
  succ : Scratch.Ints.t;
  failed_set : (int * int, unit) Hashtbl.t;
  locked_set : (int * int, unit) Hashtbl.t;
  candidates : Router.candidates;
  mutable tables : Routing_table.t array;
  mutable table_flip : int;
}

let create_workspace () =
  {
    widths = Scratch.Ints.create ();
    distances = Scratch.Floats.create ();
    succ = Scratch.Ints.create ();
    failed_set = Hashtbl.create 16;
    locked_set = Hashtbl.create 16;
    candidates = Router.create_candidates ();
    tables = [||];
    table_flip = 0;
  }

(* Reset [set] to contain exactly the given pairs. *)
let fill_set set pairs =
  Hashtbl.reset set;
  List.iter (fun pair -> Hashtbl.replace set pair ()) pairs

let widest_paths_into ws ~graph ~(snapshot : Router.snapshot) =
  let n = Etx_graph.Digraph.node_count graph in
  if Array.length snapshot.Router.alive <> n then
    invalid_arg "Maximin: snapshot arity differs from the graph";
  let cells = n * n in
  let width = Scratch.Ints.get ws.widths ~len:cells in
  let dist = Scratch.Floats.get ws.distances ~len:cells in
  let succ = Scratch.Ints.get ws.succ ~len:cells in
  Array.fill width 0 cells (-1);
  Array.fill dist 0 cells infinity;
  Array.fill succ 0 cells (-1);
  for i = 0 to n - 1 do
    let ii = (i * n) + i in
    width.(ii) <- max_int;
    dist.(ii) <- 0.
  done;
  let failed_set = ws.failed_set in
  fill_set failed_set snapshot.Router.failed_links;
  let alive = snapshot.Router.alive in
  let battery_level = snapshot.Router.battery_level in
  let no_failed = Hashtbl.length failed_set = 0 in
  Etx_graph.Digraph.iter_edges graph ~f:(fun ~src ~dst ~length ->
      if
        alive.(src) && alive.(dst)
        && (no_failed || not (Hashtbl.mem failed_set (src, dst)))
      then begin
        let w = battery_level.(dst) in
        let idx = (src * n) + dst in
        if w > width.(idx) || (w = width.(idx) && length < dist.(idx)) then begin
          width.(idx) <- w;
          dist.(idx) <- length;
          succ.(idx) <- dst
        end
      end);
  (* The (max width, min distance) lexicographic Floyd-Warshall, with
     [join]/[better] folded into branch logic on the flat arrays: the
     joined width is the narrower side, and the joined distance is only
     summed when the width test alone cannot decide.  As in
     [Floyd_warshall.run_into], pass [via] only visits the span of
     columns where the via row is reachable (rw >= 0): the via row is
     fixed during its own pass (its diagonal width is max_int and its
     diagonal distance 0, so no candidate through it beats the
     incumbent), and an unreachable column is skipped by the loop body
     anyway. *)
  for via = 0 to n - 1 do
    let via_row = via * n in
    (* the diagonal is max_int, so the span is never empty *)
    let first = ref 0 in
    while Array.unsafe_get width (via_row + !first) < 0 do
      incr first
    done;
    let last = ref (n - 1) in
    while Array.unsafe_get width (via_row + !last) < 0 do
      decr last
    done;
    let first = !first and last = !last in
    for i = 0 to n - 1 do
      let i_row = i * n in
      let lw = Array.unsafe_get width (i_row + via) in
      if lw >= 0 then begin
        let ld = Array.unsafe_get dist (i_row + via) in
        (* successors (i, via) is never relaxed while [via] is the
           intermediate (the candidate through the empty (via, via)
           path never improves), so the read can be hoisted *)
        let s_via = Array.unsafe_get succ (i_row + via) in
        for j = first to last do
          if i <> j then begin
            let rw = Array.unsafe_get width (via_row + j) in
            if rw >= 0 then begin
              let cw = if lw < rw then lw else rw in
              let ow = Array.unsafe_get width (i_row + j) in
              if cw > ow then begin
                Array.unsafe_set width (i_row + j) cw;
                Array.unsafe_set dist (i_row + j)
                  (ld +. Array.unsafe_get dist (via_row + j));
                Array.unsafe_set succ (i_row + j) s_via
              end
              else if cw = ow then begin
                let cd = ld +. Array.unsafe_get dist (via_row + j) in
                if cd < Array.unsafe_get dist (i_row + j) then begin
                  Array.unsafe_set dist (i_row + j) cd;
                  Array.unsafe_set succ (i_row + j) s_via
                end
              end
            end
          end
        done
      end
    done
  done;
  { dim = n; widths = width; distances = dist; succ }

let widest_paths ?workspace ~graph ~(snapshot : Router.snapshot) () =
  let ws = match workspace with Some ws -> ws | None -> create_workspace () in
  widest_paths_into ws ~graph ~snapshot

let scratch_table ws ~node_count ~module_count =
  let tables, table =
    Router.scratch_table_of ~tables:ws.tables ~flip:ws.table_flip ~node_count
      ~module_count
  in
  ws.tables <- tables;
  ws.table_flip <- 1 - ws.table_flip;
  table

(* Phase three over the flat widest-path buffers, writing [table].
   Expects [ws.locked_set] to reflect the snapshot's locked ports. *)
let fill_table ws ~paths ~mapping ~module_count ~(snapshot : Router.snapshot) table =
  let n = paths.dim in
  let width = paths.widths and dist = paths.distances and succ = paths.succ in
  let locked_set = ws.locked_set in
  let candidates = Router.candidate_arrays ws.candidates ~mapping ~module_count in
  let alive = snapshot.Router.alive in
  let no_locks = Hashtbl.length locked_set = 0 in
  (* Phase three with the (width, distance) incumbent tracked in
     hoisted mutable state instead of an option of boxed records: kind
     0 = none yet, 1 = deliver here (unbeatable), 2 = forward.  The
     incumbent distance lives in a one-cell float array so comparisons
     never box. *)
  let best_kind = ref 0 in
  let best_w = ref 0 in
  let best_hop = ref (-1) in
  let best_dst = ref (-1) in
  let best_d = [| 0. |] in
  let consider ~node ~node_row ~pool ~respect_locks =
    best_kind := 0;
    for c = 0 to Array.length pool - 1 do
      let j = Array.unsafe_get pool c in
      if alive.(j) then begin
        if j = node then best_kind := 1
        else if !best_kind <> 1 then begin
          let w = Array.unsafe_get width (node_row + j) in
          if w >= 0 then begin
            let hop = Array.unsafe_get succ (node_row + j) in
            if
              hop >= 0
              && ((not respect_locks) || no_locks
                 || not (Hashtbl.mem locked_set (node, hop)))
            then begin
              let d = Array.unsafe_get dist (node_row + j) in
              if
                !best_kind = 0 || w > !best_w
                || (w = !best_w && d < best_d.(0))
              then begin
                best_kind := 2;
                best_w := w;
                best_d.(0) <- d;
                best_hop := hop;
                best_dst := j
              end
            end
          end
        end
      end
    done
  in
  for node = 0 to n - 1 do
    if alive.(node) then begin
      let node_row = node * n in
      for module_index = 0 to module_count - 1 do
        let pool = candidates.(module_index) in
        consider ~node ~node_row ~pool ~respect_locks:true;
        if !best_kind = 0 then consider ~node ~node_row ~pool ~respect_locks:false;
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

let compute ?workspace ~graph ~mapping ~module_count (snapshot : Router.snapshot) =
  let n = Etx_graph.Digraph.node_count graph in
  if Mapping.node_count mapping <> n then
    invalid_arg "Maximin.compute: mapping arity differs from the graph";
  let ws = match workspace with Some ws -> ws | None -> create_workspace () in
  let paths = widest_paths_into ws ~graph ~snapshot in
  fill_set ws.locked_set snapshot.Router.locked_ports;
  let table =
    match workspace with
    | Some _ -> scratch_table ws ~node_count:n ~module_count
    | None -> Routing_table.create ~node_count:n ~module_count
  in
  fill_table ws ~paths ~mapping ~module_count ~snapshot table;
  table
