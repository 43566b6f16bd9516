let battery_budget_pj = 60000.
let default_seeds = [ 1; 2; 3; 4; 5 ]
let frame_period_cycles = 800
let reception_energy_fraction = 0.8
let battery_capacity_variation = 0.1

let ear () = Etx_routing.Policy.ear ()
let sdr () = Etx_routing.Policy.sdr ()

let problem ~mesh_size =
  Etx_routing.Problem.aes ~battery_budget_pj ~node_budget:(mesh_size * mesh_size) ()

let config ?policy ?battery_kind ?controllers ?(seed = 1) ?(concurrent_jobs = 1)
    ?mapping ?workloads ?link_failure_schedule ?fault ?max_retransmissions ~mesh_size () =
  let policy = match policy with Some p -> p | None -> ear () in
  let topology = Etx_graph.Topology.square_mesh ~size:mesh_size () in
  Etx_etsim.Config.make ~topology ~policy ?battery_kind ?controllers ?mapping
    ?workloads ?link_failure_schedule ?fault ?max_retransmissions
    ~battery_capacity_pj:battery_budget_pj
    ~battery_capacity_variation ~frame_period_cycles ~reception_energy_fraction
    ~control_line_length_cm:(Etx_etsim.Config.mesh_control_line_cm ~mesh_size)
    ~job_source:Etx_etsim.Config.Round_robin_entry ~concurrent_jobs ~seed ()
