type job_source = Fixed_entry of int | Round_robin_entry

type controllers = Infinite_controller | Battery_controllers of { count : int }

type t = {
  topology : Etx_graph.Topology.t;
  mapping : Etx_routing.Mapping.t;
  module_count : int;
  policy : Etx_routing.Policy.t;
  packet : Etx_energy.Packet.t;
  line : Etx_energy.Transmission_line.t;
  computation : Etx_energy.Computation.t;
  computation_cycles : int array;
  link_width_bits : int;
  reception_energy_fraction : float;
  battery_kind : Etx_battery.Battery.kind;
  battery_capacity_pj : float;
  battery_capacity_variation : float;
  frame_period_cycles : int;
  control_medium_width_bits : int;
  report_bits : int;
  instruction_bits : int;
  control_line_length_cm : float;
  deadlock_threshold_cycles : int;
  link_failure_schedule : (int * int * int) list;
  fault : Etx_fault.Spec.t option;
  max_retransmissions : int;
  ack_timeout_cycles : int;
  controllers : controllers;
  controller_power : Etx_energy.Controller_power.t;
  controller_battery_kind : Etx_battery.Battery.kind;
  controller_battery_capacity_pj : float;
  controller_recompute_cycles : int option;
  controller_leakage_exponent : float;
  controller_dynamic_exponent : float;
  workloads : Workload.t list;
  concurrent_jobs : int;
  job_source : job_source;
  buffer_capacity : int;
  key_hex : string;
  seed : int;
  max_cycles : int;
  max_jobs : int option;
}

let default_key_hex = "000102030405060708090a0b0c0d0e0f"

let make ?policy ?mapping ?(packet = Etx_energy.Packet.aes_default)
    ?(line = Etx_energy.Transmission_line.paper_lines)
    ?(computation = Etx_energy.Computation.aes)
    ?(computation_cycles = Etx_energy.Computation.aes_cycles_per_act)
    ?(link_width_bits = 32) ?(reception_energy_fraction = 0.8) ?(battery_kind = Etx_battery.Battery.Thin_film
                                               Etx_battery.Battery.default_thin_film)
    ?(battery_capacity_pj = 60000.) ?(battery_capacity_variation = 0.)
    ?(frame_period_cycles = 500)
    ?(control_medium_width_bits = 2) ?(report_bits = 4) ?(instruction_bits = 8)
    ?(control_line_length_cm = 10.) ?(deadlock_threshold_cycles = 1000)
    ?(link_failure_schedule = []) ?fault ?(max_retransmissions = 3)
    ?(ack_timeout_cycles = 25)
    ?(controllers = Infinite_controller)
    ?(controller_power = Etx_energy.Controller_power.paper_anchor)
    ?(controller_battery_kind = Etx_battery.Battery.Thin_film
                                  Etx_battery.Battery.default_thin_film)
    ?(controller_battery_capacity_pj = 60000.) ?(controller_recompute_cycles = None)
    ?(controller_leakage_exponent = 0.) ?(controller_dynamic_exponent = 0.)
    ?workloads ?(concurrent_jobs = 1)
    ?(job_source = Fixed_entry 0) ?(buffer_capacity = 2) ?(key_hex = default_key_hex)
    ?(seed = 42) ?(max_cycles = 50_000_000) ?(max_jobs = None) ~topology () =
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
  if battery_capacity_pj <= 0. || controller_battery_capacity_pj <= 0. then
    invalid_arg "Config.make: battery capacity must be positive";
  if battery_capacity_variation < 0. || battery_capacity_variation >= 1. then
    invalid_arg "Config.make: capacity variation out of [0, 1)";
  if frame_period_cycles <= 0 then invalid_arg "Config.make: frame period must be positive";
  if control_medium_width_bits <= 0 then
    invalid_arg "Config.make: control medium width must be positive";
  if report_bits <= 0 || instruction_bits <= 0 then
    invalid_arg "Config.make: control payloads must be positive";
  if control_line_length_cm <= 0. then
    invalid_arg "Config.make: control line length must be positive";
  if deadlock_threshold_cycles <= 0 then
    invalid_arg "Config.make: deadlock threshold must be positive";
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
  if ack_timeout_cycles < 0 then
    invalid_arg "Config.make: ack_timeout_cycles must be >= 0";
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
  if buffer_capacity <= 0 then invalid_arg "Config.make: buffer capacity must be positive";
  if link_width_bits <= 0 then invalid_arg "Config.make: link width must be positive";
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
    packet;
    line;
    computation;
    computation_cycles = Array.copy computation_cycles;
    link_width_bits;
    reception_energy_fraction;
    battery_kind;
    battery_capacity_pj;
    battery_capacity_variation;
    frame_period_cycles;
    control_medium_width_bits;
    report_bits;
    instruction_bits;
    control_line_length_cm;
    deadlock_threshold_cycles;
    link_failure_schedule;
    fault;
    max_retransmissions;
    ack_timeout_cycles;
    controllers;
    controller_power;
    controller_battery_kind;
    controller_battery_capacity_pj;
    controller_recompute_cycles;
    controller_leakage_exponent;
    controller_dynamic_exponent;
    workloads;
    concurrent_jobs;
    job_source;
    buffer_capacity;
    key_hex;
    seed;
    max_cycles;
    max_jobs;
  }

let node_count t = Etx_graph.Topology.node_count t.topology

let mesh_control_line_cm ~mesh_size = 10. +. (1.25 *. float_of_int (mesh_size - 4))

let control_bit_energy_pj t =
  Etx_energy.Transmission_line.energy_per_bit t.line ~length_cm:t.control_line_length_cm

let report_energy_pj t = float_of_int t.report_bits *. control_bit_energy_pj t

let instruction_energy_pj t = float_of_int t.instruction_bits *. control_bit_energy_pj t

let recompute_cycles t =
  match t.controller_recompute_cycles with
  | Some cycles -> cycles
  | None -> node_count t (* a K-wide relaxation engine retires one source per cycle *)

let reception_energy_pj t ~length_cm =
  t.reception_energy_fraction
  *. Etx_energy.Packet.hop_energy t.packet ~line:t.line ~length_cm

let leakage_pj_per_cycle t =
  let anchor16 =
    Etx_energy.Controller_power.leakage_pj_per_cycle t.controller_power ~node_count:16
  in
  anchor16 *. ((float_of_int (node_count t) /. 16.) ** t.controller_leakage_exponent)

let dynamic_pj_per_cycle t =
  let anchor16 =
    Etx_energy.Controller_power.dynamic_pj_per_cycle t.controller_power ~node_count:16
  in
  anchor16 *. ((float_of_int (node_count t) /. 16.) ** t.controller_dynamic_exponent)
