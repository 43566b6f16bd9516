type path_value = { width : int; distance : float }

let better a b =
  a.width > b.width || (a.width = b.width && a.distance < b.distance)

(* One whole search per level, highest first: the first level whose
   edges into nodes at or above it reach [dst] is the width. *)
let widest_path ~graph ~(snapshot : Router.snapshot) ~src ~dst =
  let alive = snapshot.Router.alive and level = snapshot.Router.battery_level in
  let rec sweep l =
    if l < 0 || not alive.(src) then ({ width = -1; distance = infinity }, None)
    else begin
      let weight ~src ~dst =
        if alive.(dst) && level.(dst) >= l && not (List.mem (src, dst) snapshot.failed_links)
        then Etx_graph.Digraph.length graph ~src ~dst
        else infinity
      in
      let found = Etx_graph.Dijkstra.run_graph graph ~weight ~src in
      match Etx_graph.Dijkstra.path_to found ~src ~dst with
      | Some (_ :: hop :: _) ->
        ({ width = l; distance = found.Etx_graph.Dijkstra.distances.(dst) }, Some hop)
      | Some _ | None -> sweep (l - 1)
    end
  in
  if src = dst then ({ width = max_int; distance = 0. }, None)
  else sweep (snapshot.Router.levels - 1)

type workspace = Router.workspace

let create_workspace = Router.create_workspace

let compute ?workspace ~graph ~mapping ~module_count snapshot =
  Router.compute_widest ?workspace ~graph ~mapping ~module_count snapshot
