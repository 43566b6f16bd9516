type t = { dynamic_mw : float; leakage_mw : float; anchor_nodes : int }

let make ~dynamic_mw ~leakage_mw ~anchor_nodes =
  if dynamic_mw <= 0. || leakage_mw <= 0. then
    invalid_arg "Controller_power.make: non-positive power";
  if anchor_nodes <= 0 then invalid_arg "Controller_power.make: non-positive anchor";
  { dynamic_mw; leakage_mw; anchor_nodes }

let paper_anchor = make ~dynamic_mw:6.94 ~leakage_mw:0.57 ~anchor_nodes:16

let fingerprint t = Printf.sprintf "%h/%h/%d" t.dynamic_mw t.leakage_mw t.anchor_nodes

let scale t ~node_count = float_of_int node_count /. float_of_int t.anchor_nodes

let dynamic_pj_per_cycle t ~node_count =
  Etx_util.Units.picojoules_per_cycle_of_milliwatts t.dynamic_mw *. scale t ~node_count

let leakage_pj_per_cycle t ~node_count =
  Etx_util.Units.picojoules_per_cycle_of_milliwatts t.leakage_mw *. scale t ~node_count

let recompute_cycles ~node_count = node_count * node_count
