type job_source = Fixed_entry of int | Round_robin_entry

type controllers = Infinite_controller | Battery_controllers of { count : int }

type t = {
  topology : Etx_graph.Topology.t;
  mapping : Etx_routing.Mapping.t;
  module_count : int;
  policy : Etx_routing.Policy.t;
  computation : Etx_energy.Computation.t;
  computation_cycles : int array;
  reception_energy_fraction : float;
  battery_kind : Etx_battery.Battery.kind;
  battery_capacity_pj : float;
  battery_capacity_variation : float;
  frame_period_cycles : int;
  control_line_length_cm : float;
  link_failure_schedule : (int * int * int) list;
  fault : Etx_fault.Spec.t option;
  max_retransmissions : int;
  controllers : controllers;
  workloads : Workload.t list;
  concurrent_jobs : int;
  job_source : job_source;
  key_hex : string;
  seed : int;
  max_cycles : int;
  max_jobs : int option;
}

let default_key_hex = "000102030405060708090a0b0c0d0e0f"

let packet = Etx_energy.Packet.aes_default
let line = Etx_energy.Transmission_line.paper_lines
let link_width_bits = 32
let control_medium_width_bits = 2
let report_bits = 4
let instruction_bits = 8
let deadlock_threshold_cycles = 1000
let ack_timeout_cycles = 25
let buffer_capacity = 2
let controller_battery_kind = Etx_battery.Battery.Thin_film Etx_battery.Battery.default_thin_film
let controller_battery_capacity_pj = 60000.

let make ?policy ?mapping ?(computation = Etx_energy.Computation.aes)
    ?(computation_cycles = Etx_energy.Computation.aes_cycles_per_act)
    ?(reception_energy_fraction = 0.8)
    ?(battery_kind = Etx_battery.Battery.Thin_film Etx_battery.Battery.default_thin_film)
    ?(battery_capacity_pj = 60000.) ?(battery_capacity_variation = 0.)
    ?(frame_period_cycles = 500) ?(control_line_length_cm = 10.)
    ?(link_failure_schedule = []) ?fault ?(max_retransmissions = 3)
    ?(controllers = Infinite_controller) ?workloads ?(concurrent_jobs = 1)
    ?(job_source = Fixed_entry 0) ?(key_hex = default_key_hex) ?(seed = 42)
    ?(max_cycles = 50_000_000) ?(max_jobs = None) ~topology () =
  let policy = match policy with Some p -> p | None -> Etx_routing.Policy.ear () in
  let mapping =
    match mapping with
    | Some m -> m
    | None -> Etx_routing.Mapping.checkerboard topology
  in
  let workloads =
    match workloads with
    | Some [] -> invalid_arg "Config.make: need at least one workload"
    | Some list -> list
    | None -> [ Workload.aes_encrypt ~key_hex ]
  in
  let module_count = Etx_energy.Computation.module_count computation in
  List.iter
    (fun w ->
      if Workload.module_count w <> module_count then
        invalid_arg "Config.make: workload module count differs from the energy table")
    workloads;
  let node_count = Etx_graph.Topology.node_count topology in
  if Etx_routing.Mapping.node_count mapping <> node_count then
    invalid_arg "Config.make: mapping arity differs from the topology";
  if Array.length computation_cycles <> module_count then
    invalid_arg "Config.make: computation_cycles arity differs from the energy table";
  Array.iter
    (fun c -> if c <= 0 then invalid_arg "Config.make: act latency must be positive")
    computation_cycles;
  (* every module must be mapped somewhere *)
  let counts = Etx_routing.Mapping.duplicates mapping ~module_count in
  Array.iteri
    (fun i n ->
      if n = 0 then
        invalid_arg (Printf.sprintf "Config.make: module %d has no node" (i + 1)))
    counts;
  if battery_capacity_pj <= 0. then
    invalid_arg "Config.make: battery capacity must be positive";
  if battery_capacity_variation < 0. || battery_capacity_variation >= 1. then
    invalid_arg "Config.make: capacity variation out of [0, 1)";
  if frame_period_cycles <= 0 then invalid_arg "Config.make: frame period must be positive";
  if control_line_length_cm <= 0. then
    invalid_arg "Config.make: control line length must be positive";
  let seen_failures = Hashtbl.create 16 in
  List.iter
    (fun (cycle, a, b) ->
      if cycle < 0 then invalid_arg "Config.make: link failure before cycle 0";
      if a < 0 || a >= node_count || b < 0 || b >= node_count then
        invalid_arg "Config.make: link failure node id out of range";
      if a = b then invalid_arg "Config.make: link failure is a self-loop";
      if
        not
          (Etx_graph.Digraph.mem_edge topology.Etx_graph.Topology.graph ~src:a ~dst:b)
      then invalid_arg "Config.make: link failure names a non-existent link";
      let key = (min a b, max a b) in
      if Hashtbl.mem seen_failures key then
        invalid_arg "Config.make: duplicate link failure";
      Hashtbl.add seen_failures key ())
    link_failure_schedule;
  if max_retransmissions < 0 then
    invalid_arg "Config.make: max_retransmissions must be >= 0";
  begin
    match controllers with
    | Infinite_controller -> ()
    | Battery_controllers { count } ->
      if count <= 0 then invalid_arg "Config.make: need at least one controller"
  end;
  if concurrent_jobs <= 0 then invalid_arg "Config.make: need at least one job in flight";
  begin
    match job_source with
    | Fixed_entry node ->
      if node < 0 || node >= node_count then
        invalid_arg "Config.make: entry node out of range"
    | Round_robin_entry -> ()
  end;
  if reception_energy_fraction < 0. then
    invalid_arg "Config.make: negative reception fraction";
  if max_cycles <= 0 then invalid_arg "Config.make: max_cycles must be positive";
  begin
    match max_jobs with
    | Some n when n <= 0 -> invalid_arg "Config.make: max_jobs must be positive"
    | Some _ | None -> ()
  end;
  {
    topology;
    mapping;
    module_count;
    policy;
    computation;
    computation_cycles = Array.copy computation_cycles;
    reception_energy_fraction;
    battery_kind;
    battery_capacity_pj;
    battery_capacity_variation;
    frame_period_cycles;
    control_line_length_cm;
    link_failure_schedule;
    fault;
    max_retransmissions;
    controllers;
    workloads;
    concurrent_jobs;
    job_source;
    key_hex;
    seed;
    max_cycles;
    max_jobs;
  }

let node_count t = Etx_graph.Topology.node_count t.topology

let mesh_control_line_cm ~mesh_size = 10. +. (1.25 *. float_of_int (mesh_size - 4))

let control_bit_energy_pj t =
  Etx_energy.Transmission_line.energy_per_bit line ~length_cm:t.control_line_length_cm

let report_energy_pj t = float_of_int report_bits *. control_bit_energy_pj t

let instruction_energy_pj t = float_of_int instruction_bits *. control_bit_energy_pj t

(* a K-wide relaxation engine retires one source per cycle *)
let recompute_cycles = node_count

let reception_energy_pj t ~length_cm =
  t.reception_energy_fraction *. Etx_energy.Packet.hop_energy packet ~line ~length_cm
