let everyone _ = true

let reachable graph ?(alive = everyone) ?(edge_alive = everyone) ~src () =
  let n = Digraph.node_count graph in
  let index = Digraph.index graph in
  let seen = Array.make n false in
  if alive src then begin
    let queue = Queue.create () in
    seen.(src) <- true;
    Queue.add src queue;
    while not (Queue.is_empty queue) do
      let node = Queue.pop queue in
      for e = index.row_start.(node) to index.row_start.(node + 1) - 1 do
        let dst = index.targets.(e) in
        if (not seen.(dst)) && alive dst && edge_alive e then begin
          seen.(dst) <- true;
          Queue.add dst queue
        end
      done
    done
  end;
  seen

let components graph ?(alive = everyone) () =
  let n = Digraph.node_count graph in
  let index = Digraph.index graph in
  let labels = Array.make n (-1) in
  let next_label = ref 0 in
  for start = 0 to n - 1 do
    if labels.(start) = -1 && alive start then begin
      let label = !next_label in
      incr next_label;
      let queue = Queue.create () in
      labels.(start) <- label;
      Queue.add start queue;
      while not (Queue.is_empty queue) do
        let node = Queue.pop queue in
        let visit dst =
          if labels.(dst) = -1 && alive dst then begin
            labels.(dst) <- label;
            Queue.add dst queue
          end
        in
        for e = index.row_start.(node) to index.row_start.(node + 1) - 1 do
          visit index.targets.(e)
        done;
        for i = index.in_start.(node) to index.in_start.(node + 1) - 1 do
          visit index.tails.(index.in_edges.(i))
        done
      done
    end
  done;
  labels

let component_count graph ?alive () =
  let labels = components graph ?alive () in
  Array.fold_left (fun acc l -> if l >= 0 then max acc (l + 1) else acc) 0 labels

let is_connected graph ?alive () = component_count graph ?alive () = 1
