type entry =
  | Deliver_here
  | Forward of { next_hop : int; destination : int }
  | Unreachable

type t = { entries : entry array array (* node -> module -> entry *) }

let create ~node_count ~module_count =
  if node_count <= 0 || module_count <= 0 then
    invalid_arg "Routing_table.create: non-positive dimension";
  { entries = Array.init node_count (fun _ -> Array.make module_count Unreachable) }

let node_count t = Array.length t.entries
let module_count t = Array.length t.entries.(0)

let get t ~node ~module_index = t.entries.(node).(module_index)
let set t ~node ~module_index entry = t.entries.(node).(module_index) <- entry

let next_hop t ~node ~module_index =
  match get t ~node ~module_index with
  | Forward { next_hop; _ } -> Some next_hop
  | Deliver_here | Unreachable -> None

let destination t ~node ~module_index =
  match get t ~node ~module_index with
  | Forward { destination; _ } -> Some destination
  | Deliver_here | Unreachable -> None

(* monomorphic: the router compares every entry it writes with the
   previous table's, and the polymorphic compare would walk each entry
   through [caml_compare] *)
let entry_equal a b =
  a == b
  ||
  match (a, b) with
  | Deliver_here, Deliver_here | Unreachable, Unreachable -> true
  | Forward a, Forward b ->
    Int.equal a.next_hop b.next_hop && Int.equal a.destination b.destination
  | (Deliver_here | Forward _ | Unreachable), _ -> false

let equal a b =
  node_count a = node_count b
  && module_count a = module_count b
  && Array.for_all2 (fun ra rb -> Array.for_all2 entry_equal ra rb) a.entries b.entries

let blit_row ~src ~dst ~node =
  if node_count src <> node_count dst || module_count src <> module_count dst then
    invalid_arg "Routing_table.blit_row: dimension mismatch";
  Array.blit src.entries.(node) 0 dst.entries.(node) 0 (module_count src)

let diff_count a b =
  if node_count a <> node_count b || module_count a <> module_count b then
    invalid_arg "Routing_table.diff_count: dimension mismatch";
  let count = ref 0 in
  Array.iteri
    (fun node row ->
      let row_b = b.entries.(node) in
      Array.iteri (fun i entry -> if not (entry_equal entry row_b.(i)) then incr count) row)
    a.entries;
  !count

let pp_entry fmt = function
  | Deliver_here -> Format.pp_print_string fmt "here"
  | Forward { next_hop; destination } -> Format.fprintf fmt "->%d(dst %d)" next_hop destination
  | Unreachable -> Format.pp_print_string fmt "unreachable"

let pp fmt t =
  Format.fprintf fmt "@[<v>";
  Array.iteri
    (fun node row ->
      Format.fprintf fmt "node %d:" node;
      Array.iteri (fun i entry -> Format.fprintf fmt " m%d:%a" (i + 1) pp_entry entry) row;
      Format.fprintf fmt "@,")
    t.entries;
  Format.fprintf fmt "@]"
