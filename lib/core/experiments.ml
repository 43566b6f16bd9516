module Pool = Etx_util.Pool

let default_sizes = [ 4; 5; 6; 7; 8 ]

let mean xs = List.fold_left ( +. ) 0. xs /. float_of_int (List.length xs)
let jobs_of (m : Etx_etsim.Metrics.t) = float_of_int m.jobs_completed
let simulate config = Etx_etsim.Engine.simulate config

(* - the sweep runner - *)

(* A sweep is assembled as a list of units, each owning the configs it
   needs and a [finish] from their metrics (in config order) to a row. *)
type 'row sweep_unit = {
  configs : Etx_etsim.Config.t list;
  finish : Etx_etsim.Metrics.t list -> 'row;
}

let rec take n xs =
  if n = 0 then ([], xs)
  else
    match xs with
    | [] -> invalid_arg "Experiments.take: list too short"
    | x :: rest ->
      let mine, others = take (n - 1) rest in
      (x :: mine, others)

type sweep_failure = {
  unit_index : int;
  exn : exn;
  backtrace : Printexc.raw_backtrace;
  attempts : int;
}

(* Every unit's configs are flattened into one batch for the pool, so
   parallelism is never limited by unit boundaries, and the pool
   preserves order, so results are bit-identical to a sequential run for
   every [domains].  Each config runs under [Pool.attempt], so a crash
   only fails its own unit. *)
let run_units ?pool ?(domains = 1) ?(retries = 0) ?(simulate = simulate) units =
  let simulate = Pool.attempt ~retries simulate in
  let batch = List.concat_map (fun unit -> unit.configs) units in
  let outcomes =
    match pool with
    | Some p -> Pool.run p simulate batch
    | None -> Pool.map ~domains simulate batch
  in
  let finish i unit outcomes =
    match
      List.find_map (function Pool.Crashed e -> Some e | Pool.Completed _ -> None) outcomes
    with
    | Some { Pool.exn; backtrace; attempts } ->
      Error { unit_index = i; exn; backtrace; attempts }
    | None -> (
      let metrics =
        List.map (function Pool.Completed m -> m | Pool.Crashed _ -> assert false) outcomes
      in
      match unit.finish metrics with
      | row -> Ok row
      | exception exn ->
        let backtrace = Printexc.get_raw_backtrace () in
        Error { unit_index = i; exn; backtrace; attempts = 1 })
  in
  let rec group i outcomes = function
    | [] -> []
    | unit :: units ->
      let mine, rest = take (List.length unit.configs) outcomes in
      let result = finish i unit mine in
      result :: group (i + 1) rest units
  in
  group 0 outcomes units

(* The row-returning sweeps: a failed unit re-raises its original
   exception, the first in unit order. *)
let rows results =
  List.map
    (function
      | Ok row -> row | Error f -> Printexc.raise_with_backtrace f.exn f.backtrace)
    results

let mean_runs runs = mean (List.map jobs_of runs)

let mean_jobs ?pool ?domains configs =
  List.hd (rows (run_units ?pool ?domains [ { configs; finish = mean_runs } ]))

let configs_of ~seeds ~make = List.map (fun seed -> make ~seed) seeds

let mean_jobs_unit ~seeds ~make finish =
  {
    configs = configs_of ~seeds ~make;
    finish = (fun runs -> finish (mean_runs runs));
  }

(* Fig 7 *)

type fig7_row = {
  mesh_size : int;
  ear_jobs : float;
  sdr_jobs : float;
  gain : float;
  ear_overhead : float;
  paper_ear_jobs : float;
  paper_overhead : float;
}

let fig7_paper_jobs = [ (4, 62.8); (5, 92.); (6, 132.7); (7, 194.); (8, 234.) ]
let fig7_paper_overheads = [ (4, 0.028); (5, 0.031); (6, 0.041); (7, 0.093); (8, 0.116) ]

let lookup_paper table size = try List.assoc size table with Not_found -> nan

let fingerprint_ints xs = String.concat "," (List.map string_of_int xs)
let fingerprint_floats xs = String.concat "," (List.map (Printf.sprintf "%h") xs)

let fig7_units ~sizes ~seeds =
  let unit mesh_size =
    let make_policy policy ~seed = Calibration.config ~policy ~mesh_size ~seed () in
    let ear = configs_of ~seeds ~make:(make_policy (Calibration.ear ())) in
    let sdr = configs_of ~seeds ~make:(make_policy (Calibration.sdr ())) in
    {
      configs = ear @ sdr;
      finish =
        (fun runs ->
          let ear_runs, sdr_runs = take (List.length ear) runs in
          let ear_jobs = mean (List.map jobs_of ear_runs) in
          let sdr_jobs = mean (List.map jobs_of sdr_runs) in
          {
            mesh_size;
            ear_jobs;
            sdr_jobs;
            gain = (if sdr_jobs > 0. then ear_jobs /. sdr_jobs else infinity);
            ear_overhead =
              mean (List.map Etx_etsim.Metrics.control_overhead_fraction ear_runs);
            paper_ear_jobs = lookup_paper fig7_paper_jobs mesh_size;
            paper_overhead = lookup_paper fig7_paper_overheads mesh_size;
          });
    }
  in
  List.map unit sizes

let fig7 ?(sizes = default_sizes) ?(seeds = Calibration.default_seeds) ?pool
    ?(domains = 1) () =
  rows (run_units ?pool ~domains (fig7_units ~sizes ~seeds))

let fig7_fingerprint ~sizes ~seeds =
  Printf.sprintf "fig7;sizes=%s;seeds=%s" (fingerprint_ints sizes)
    (fingerprint_ints seeds)

(* Table 2 *)

type table2_row = {
  mesh_size : int;
  ear_jobs : float;
  j_star : float;
  ratio : float;
  paper_ear_jobs : float;
  paper_j_star : float;
  paper_ratio : float;
}

let table2_paper =
  (* (size, EAR jobs, J*, ratio) as printed in the paper's Table 2 *)
  [
    (4, (62.8, 131.42, 0.478));
    (5, (92., 205.25, 0.448));
    (6, (132.7, 295.70, 0.449));
    (7, (194., 402.48, 0.482));
    (8, (234., 525.69, 0.445));
  ]

let table2 ?(sizes = default_sizes) ?(seeds = Calibration.default_seeds) ?(domains = 1) ()
    =
  let unit mesh_size =
    let make ~seed =
      Calibration.config ~policy:(Calibration.ear ())
        ~battery_kind:Etx_battery.Battery.Ideal ~mesh_size ~seed ()
    in
    let j_star = Etx_routing.Upper_bound.jobs (Calibration.problem ~mesh_size) in
    let paper_ear, paper_j, paper_r =
      try List.assoc mesh_size table2_paper with Not_found -> (nan, nan, nan)
    in
    mean_jobs_unit ~seeds ~make (fun ear_jobs ->
        {
          mesh_size;
          ear_jobs;
          j_star;
          ratio = ear_jobs /. j_star;
          paper_ear_jobs = paper_ear;
          paper_j_star = paper_j;
          paper_ratio = paper_r;
        })
  in
  rows (run_units ~domains (List.map unit sizes))

(* Fig 8 *)

type fig8_row = { mesh_size : int; controllers : int; jobs : float }

let default_controller_counts = [ 1; 2; 4; 7; 10 ]

let fig8 ?(sizes = default_sizes) ?(controller_counts = default_controller_counts)
    ?(seeds = Calibration.default_seeds) ?(domains = 1) () =
  let unit mesh_size controllers =
    let make ~seed =
      Calibration.config ~policy:(Calibration.ear ())
        ~controllers:(Etx_etsim.Config.Battery_controllers { count = controllers })
        ~mesh_size ~seed ()
    in
    mean_jobs_unit ~seeds ~make (fun jobs -> { mesh_size; controllers; jobs })
  in
  rows
    (run_units ~domains
       (List.concat_map
          (fun controllers -> List.map (fun size -> unit size controllers) sizes)
          controller_counts))

(* Theorem 1 *)

type thm1_row = {
  mesh_size : int;
  j_star : float;
  optimal_duplicates : float array;
  checkerboard_duplicates : int array;
  checkerboard_bound : float;
}

let thm1 ?(sizes = default_sizes) () =
  let row mesh_size =
    let problem = Calibration.problem ~mesh_size in
    let topology = Etx_graph.Topology.square_mesh ~size:mesh_size () in
    let mapping = Etx_routing.Mapping.checkerboard topology in
    let duplicates =
      Etx_routing.Mapping.duplicates mapping ~module_count:problem.module_count
    in
    {
      mesh_size;
      j_star = Etx_routing.Upper_bound.jobs problem;
      optimal_duplicates = Etx_routing.Upper_bound.optimal_duplicates problem;
      checkerboard_duplicates = duplicates;
      checkerboard_bound = Etx_routing.Upper_bound.jobs_for_duplicates problem ~duplicates;
    }
  in
  List.map row sizes

(* Ablations *)

type ablation_row = { label : string; mesh_size : int; jobs : float }

let policy_unit ~mesh_size ~seeds (label, policy) =
  let make ~seed = Calibration.config ~policy ~mesh_size ~seed () in
  mean_jobs_unit ~seeds ~make (fun jobs -> { label; mesh_size; jobs })

let ablation_weights ?(mesh_size = 6) ?(seeds = Calibration.default_seeds)
    ?(domains = 1) () =
  rows
    (run_units ~domains
       (List.map
          (policy_unit ~mesh_size ~seeds)
          [
            ("SDR (no battery term)", Etx_routing.Policy.sdr ());
            ("EAR q=1.5", Etx_routing.Policy.ear ~q:1.5 ());
            ("EAR q=2 (paper)", Etx_routing.Policy.ear ());
            ("EAR q=4", Etx_routing.Policy.ear ~q:4. ());
            ("EAR squared exponent", Etx_routing.Policy.ear_squared ());
            ("inverse-level", Etx_routing.Policy.inverse_level ());
            ("linear drain", Etx_routing.Policy.linear_drain ());
            ("max-min residual [13]", Etx_routing.Policy.maximin ());
          ]))

let ablation_quantization ?(mesh_size = 6) ?(seeds = Calibration.default_seeds)
    ?(domains = 1) () =
  let unit levels =
    policy_unit ~mesh_size ~seeds
      (Printf.sprintf "EAR, N_B = %d" levels, Etx_routing.Policy.ear ~levels ())
  in
  rows (run_units ~domains (List.map unit [ 2; 4; 8; 16; 32 ]))

let aes_module_sequence =
  List.map Etx_aes.Partition.module_index Etx_aes.Partition.module_sequence

let ablation_mapping ?(mesh_size = 6) ?(seeds = Calibration.default_seeds)
    ?(domains = 1) () =
  let topology = Etx_graph.Topology.square_mesh ~size:mesh_size () in
  let problem = Calibration.problem ~mesh_size in
  let node_count = mesh_size * mesh_size in
  let optimized =
    (Etx_routing.Placement.optimize ~problem ~topology
       ~module_sequence:aes_module_sequence ~iterations:400 ())
      .Etx_routing.Placement.mapping
  in
  let mappings =
    [
      ("checkerboard (Sec 5.2)", Etx_routing.Mapping.checkerboard topology);
      ("Theorem-1 proportional", Etx_routing.Mapping.proportional ~problem ~node_count);
      ("local-search optimized", optimized);
    ]
  in
  let unit (label, mapping) =
    let make ~seed = Calibration.config ~mapping ~mesh_size ~seed () in
    mean_jobs_unit ~seeds ~make (fun jobs -> { label; mesh_size; jobs })
  in
  rows (run_units ~domains (List.map unit mappings))

let ablation_battery ?(mesh_size = 6) ?(seeds = Calibration.default_seeds)
    ?(domains = 1) () =
  let cases =
    [
      ("EAR, thin film", Calibration.ear (), None);
      ("EAR, ideal cells", Calibration.ear (), Some Etx_battery.Battery.Ideal);
      ("SDR, thin film", Calibration.sdr (), None);
      ("SDR, ideal cells", Calibration.sdr (), Some Etx_battery.Battery.Ideal);
    ]
  in
  let unit (label, policy, battery_kind) =
    let make ~seed = Calibration.config ~policy ?battery_kind ~mesh_size ~seed () in
    mean_jobs_unit ~seeds ~make (fun jobs -> { label; mesh_size; jobs })
  in
  rows (run_units ~domains (List.map unit cases))

(* Concurrency / deadlock recovery *)

type concurrency_row = {
  jobs_in_flight : int;
  jobs : float;
  deadlocks_reported : float;
  deadlocks_recovered : float;
}

let default_depths = [ 1; 2; 4; 8 ]

let concurrency ?(mesh_size = 6) ?(depths = default_depths)
    ?(seeds = Calibration.default_seeds) ?(domains = 1) () =
  let unit depth =
    let make ~seed = Calibration.config ~concurrent_jobs:depth ~mesh_size ~seed () in
    {
      configs = configs_of ~seeds ~make;
      finish =
        (fun runs ->
          {
            jobs_in_flight = depth;
            jobs = mean (List.map jobs_of runs);
            deadlocks_reported =
              mean
                (List.map
                   (fun (m : Etx_etsim.Metrics.t) -> float_of_int m.deadlocks_reported)
                   runs);
            deadlocks_recovered =
              mean
                (List.map
                   (fun (m : Etx_etsim.Metrics.t) -> float_of_int m.deadlocks_recovered)
                   runs);
          });
    }
  in
  rows (run_units ~domains (List.map unit depths))

(* Workload generality *)

let workloads ?(mesh_size = 6) ?(seeds = Calibration.default_seeds) ?(domains = 1) () =
  let key_hex = "000102030405060708090a0b0c0d0e0f" in
  let cases =
    [
      ("AES-128 encrypt", [ Etx_etsim.Workload.aes_encrypt ~key_hex ]);
      ("AES-128 decrypt", [ Etx_etsim.Workload.aes_decrypt ~key_hex ]);
      ( "duplex (encrypt + decrypt)",
        [
          Etx_etsim.Workload.aes_encrypt ~key_hex;
          Etx_etsim.Workload.aes_decrypt ~key_hex;
        ] );
      ( "synthetic, same f",
        [
          Etx_etsim.Workload.synthetic ~name:"synthetic-10-9-11"
            ~acts_per_job:[| 10; 9; 11 |] ();
        ] );
    ]
  in
  let unit (label, workloads) =
    let make ~seed = Calibration.config ~workloads ~mesh_size ~seed () in
    mean_jobs_unit ~seeds ~make (fun jobs -> { label; mesh_size; jobs })
  in
  rows (run_units ~domains (List.map unit cases))

let generality ?(module_counts = [ 2; 3; 4; 5; 6 ]) ?(seeds = Calibration.default_seeds)
    ?(domains = 1) () =
  let mesh_size = 6 in
  let node_count = mesh_size * mesh_size in
  let hop = 261. *. 0.4472 in
  let energies = [| 100.; 140.; 80.; 160.; 120.; 90. |] in
  let unit p =
    let acts_per_job = Array.make p 10 in
    let computation_energy_pj = Array.sub energies 0 p in
    let workload =
      Etx_etsim.Workload.synthetic ~name:(Printf.sprintf "pipeline-%d" p) ~acts_per_job ()
    in
    let problem =
      Etx_etsim.Workload.problem workload ~computation_energy_pj
        ~communication_energy_pj:(Array.make p hop)
        ~battery_budget_pj:Calibration.battery_budget_pj ~node_budget:node_count
    in
    let mapping = Etx_routing.Mapping.proportional ~problem ~node_count in
    let topology = Etx_graph.Topology.square_mesh ~size:mesh_size () in
    let make policy ~seed =
      Etx_etsim.Config.make ~topology ~policy ~mapping ~workloads:[ workload ]
        ~computation:(Etx_energy.Computation.custom ~energies_pj:computation_energy_pj)
        ~computation_cycles:(Array.make p 2)
        ~battery_capacity_pj:Calibration.battery_budget_pj
        ~battery_capacity_variation:Calibration.battery_capacity_variation
        ~frame_period_cycles:Calibration.frame_period_cycles
        ~reception_energy_fraction:Calibration.reception_energy_fraction
        ~control_line_length_cm:(Etx_etsim.Config.mesh_control_line_cm ~mesh_size)
        ~job_source:Etx_etsim.Config.Round_robin_entry ~seed ()
    in
    let ear_configs = configs_of ~seeds ~make:(make (Calibration.ear ())) in
    let sdr_configs = configs_of ~seeds ~make:(make (Calibration.sdr ())) in
    {
      configs = ear_configs @ sdr_configs;
      finish =
        (fun runs ->
          let ear_runs, sdr_runs = take (List.length ear_configs) runs in
          let ear = mean (List.map jobs_of ear_runs) in
          let sdr = mean (List.map jobs_of sdr_runs) in
          {
            label =
              Printf.sprintf "p = %d modules: EAR %.1f, SDR %.1f, gain %.1fx" p ear sdr
                (if sdr > 0. then ear /. sdr else infinity);
            mesh_size;
            jobs = ear;
          });
    }
  in
  rows (run_units ~domains (List.map unit module_counts))

(* Link failures *)

let random_failure_schedule ~(topology : Etx_graph.Topology.t) ~count ~before_cycle ~seed =
  if before_cycle <= 0 then invalid_arg "random_failure_schedule: before_cycle";
  let prng = Etx_util.Prng.create ~seed in
  let undirected =
    Etx_graph.Digraph.fold_edges topology.Etx_graph.Topology.graph ~init:[]
      ~f:(fun acc ~src ~dst ~length:_ -> if src < dst then (src, dst) :: acc else acc)
  in
  let pool = Array.of_list undirected in
  if count > Array.length pool then
    invalid_arg "random_failure_schedule: more failures than links";
  Etx_util.Prng.shuffle prng pool;
  List.init count (fun i ->
      let a, b = pool.(i) in
      (Etx_util.Prng.int prng ~bound:before_cycle, a, b))

let default_failure_counts = [ 0; 4; 8; 16; 24 ]

let link_failures ?(mesh_size = 6) ?(failure_counts = default_failure_counts)
    ?(seeds = Calibration.default_seeds) ?(domains = 1) () =
  let topology = Etx_graph.Topology.square_mesh ~size:mesh_size () in
  let unit count =
    let make ~seed =
      let link_failure_schedule =
        if count = 0 then []
        else
          random_failure_schedule ~topology ~count ~before_cycle:40_000
            ~seed:(seed * 7919)
      in
      Calibration.config ~link_failure_schedule ~mesh_size ~seed ()
    in
    mean_jobs_unit ~seeds ~make (fun jobs ->
        { label = Printf.sprintf "%d broken interconnects" count; mesh_size; jobs })
  in
  rows (run_units ~domains (List.map unit failure_counts))

(* Resilience sweep: jobs completed under injected faults, EAR vs SDR *)

type resilience_row = {
  axis : string; (* "bit-error" or "wear-out" *)
  rate : float;
  ear_jobs : float;
  sdr_jobs : float;
  r_gain : float;
  retransmissions : float;
  packets_dropped : float;
  wearouts : float;
}

let resilience_units ~mesh_size ~bit_error_rates ~wearout_rates ~fault_seed ~seeds =
  (* the fault seed depends only on the workload seed, never on the
     policy or the rate: EAR and SDR face the identical fault stream at
     every point, and raising the wear-out rate with a fixed stream only
     scales the same death times down (monotone degradation) *)
  let unit ~axis ~rate ~spec_of =
    let config_for policy ~seed =
      let fault = if rate = 0. then None else Some (spec_of ~seed) in
      Calibration.config ~policy ?fault ~mesh_size ~seed ()
    in
    let ear = configs_of ~seeds ~make:(config_for (Calibration.ear ())) in
    let sdr = configs_of ~seeds ~make:(config_for (Calibration.sdr ())) in
    {
      configs = ear @ sdr;
      finish =
        (fun runs ->
          let ear_runs, sdr_runs = take (List.length ear) runs in
          let ear_jobs = mean (List.map jobs_of ear_runs) in
          let sdr_jobs = mean (List.map jobs_of sdr_runs) in
          let ear_mean field =
            mean (List.map (fun (m : Etx_etsim.Metrics.t) -> float_of_int (field m)) ear_runs)
          in
          {
            axis;
            rate;
            ear_jobs;
            sdr_jobs;
            r_gain = (if sdr_jobs > 0. then ear_jobs /. sdr_jobs else infinity);
            retransmissions = ear_mean (fun m -> m.retransmissions);
            packets_dropped = ear_mean (fun m -> m.packets_dropped);
            wearouts = ear_mean (fun m -> m.link_wearouts);
          });
    }
  in
  let ber_units =
    List.map
      (fun rate ->
        unit ~axis:"bit-error" ~rate ~spec_of:(fun ~seed ->
            Etx_fault.Spec.make ~seed:(fault_seed + seed) ~bit_error_rate:rate ()))
      bit_error_rates
  in
  let wear_units =
    List.map
      (fun rate ->
        unit ~axis:"wear-out" ~rate ~spec_of:(fun ~seed ->
            Etx_fault.Spec.make ~seed:(fault_seed + seed) ~link_wearout_rate:rate ()))
      wearout_rates
  in
  ber_units @ wear_units

let default_resilience_size = 5
let default_bit_error_rates = [ 0.; 1e-4; 3e-4; 1e-3 ]
let default_wearout_rates = [ 0.; 3e-6; 1e-5; 3e-5 ]
let default_resilience_fault_seed = 1009

let resilience ?(mesh_size = default_resilience_size)
    ?(bit_error_rates = default_bit_error_rates) ?(wearout_rates = default_wearout_rates)
    ?(fault_seed = default_resilience_fault_seed) ?(seeds = Calibration.default_seeds) ?pool
    ?(domains = 1) () =
  rows
    (run_units ?pool ~domains
       (resilience_units ~mesh_size ~bit_error_rates ~wearout_rates ~fault_seed ~seeds))

let resilience_fingerprint ~mesh_size ~bit_error_rates ~wearout_rates ~fault_seed ~seeds
    =
  Printf.sprintf "resilience;mesh=%d;ber=%s;wear=%s;fault-seed=%d;seeds=%s" mesh_size
    (fingerprint_floats bit_error_rates)
    (fingerprint_floats wearout_rates)
    fault_seed (fingerprint_ints seeds)

(* Static prediction vs simulation *)

type prediction_row = { p_mesh_size : int; predicted : float; simulated : float }

let predictions ?(sizes = default_sizes) ?(seeds = Calibration.default_seeds)
    ?(domains = 1) () =
  let unit mesh_size =
    let problem = Calibration.problem ~mesh_size in
    let topology = Etx_graph.Topology.square_mesh ~size:mesh_size () in
    let mapping = Etx_routing.Mapping.checkerboard topology in
    let prediction =
      Etx_routing.Analysis.predict ~problem ~topology ~mapping
        ~module_sequence:aes_module_sequence ()
    in
    let make ~seed = Calibration.config ~mesh_size ~seed () in
    mean_jobs_unit ~seeds ~make (fun simulated ->
        {
          p_mesh_size = mesh_size;
          predicted = prediction.Etx_routing.Analysis.predicted_jobs;
          simulated;
        })
  in
  rows (run_units ~domains (List.map unit sizes))

(* Garment scenarios *)

type scenario_row = {
  scenario : string;
  nodes : int;
  ear_jobs : float;
  sdr_jobs : float;
  scenario_gain : float;
  j_star : float;
}

let scenarios ?(seeds = Calibration.default_seeds) ?(domains = 1) () =
  let unit (s : Scenario.t) =
    let configs_for policy =
      configs_of ~seeds ~make:(fun ~seed -> Scenario.config ~policy ~seed s)
    in
    let ear_configs = configs_for (Calibration.ear ()) in
    let sdr_configs = configs_for (Calibration.sdr ()) in
    {
      configs = ear_configs @ sdr_configs;
      finish =
        (fun runs ->
          let ear_runs, sdr_runs = take (List.length ear_configs) runs in
          let ear_jobs = mean (List.map jobs_of ear_runs) in
          let sdr_jobs = mean (List.map jobs_of sdr_runs) in
          {
            scenario = s.Scenario.name;
            nodes = Etx_graph.Topology.node_count s.Scenario.topology;
            ear_jobs;
            sdr_jobs;
            scenario_gain = (if sdr_jobs > 0. then ear_jobs /. sdr_jobs else infinity);
            j_star = Etx_routing.Upper_bound.jobs (Scenario.problem s);
          });
    }
  in
  rows (run_units ~domains (List.map unit (Scenario.all ())))

(* Algorithm comparison *)

type algorithms_row = { a_mesh_size : int; ear : float; maximin : float; sdr : float }

let algorithms ?(sizes = default_sizes) ?(seeds = Calibration.default_seeds)
    ?(domains = 1) () =
  let unit mesh_size =
    let configs_for policy =
      configs_of ~seeds ~make:(fun ~seed ->
          Calibration.config ~policy ~mesh_size ~seed ())
    in
    let ear_configs = configs_for (Calibration.ear ()) in
    let maximin_configs = configs_for (Etx_routing.Policy.maximin ()) in
    let sdr_configs = configs_for (Calibration.sdr ()) in
    {
      configs = ear_configs @ maximin_configs @ sdr_configs;
      finish =
        (fun runs ->
          let ear_runs, rest = take (List.length ear_configs) runs in
          let maximin_runs, sdr_runs = take (List.length maximin_configs) rest in
          {
            a_mesh_size = mesh_size;
            ear = mean (List.map jobs_of ear_runs);
            maximin = mean (List.map jobs_of maximin_runs);
            sdr = mean (List.map jobs_of sdr_runs);
          });
    }
  in
  rows (run_units ~domains (List.map unit sizes))

(* Runtime invariant audit as a structured sweep (the CLI and the
   serving layer render or serialize the rows; nothing prints here). *)

type audit_row = {
  audit_mesh_size : int;
  audit_seed : int;
  passes : int;
  audit_violations : string list;
  audit_violations_total : int;
}

let audit_retransmissions = 3

(* the fault spec and retry budget are appended only off their defaults,
   so a default audit keeps the fingerprint it had before they existed *)
let audit_fingerprint ~sizes ~seeds ~every ?fault
    ?(max_retransmissions = audit_retransmissions) () =
  Printf.sprintf "audit;sizes=%s;seeds=%s;every=%d%s%s" (fingerprint_ints sizes)
    (fingerprint_ints seeds) every
    (match fault with None -> "" | Some spec -> ";fault=" ^ Etx_fault.Spec.fingerprint spec)
    (if max_retransmissions = audit_retransmissions then ""
     else Printf.sprintf ";retx=%d" max_retransmissions)

let audit_runs ~sizes ~seeds ~every ?fault ?(max_retransmissions = audit_retransmissions)
    ?pool ?(domains = 1) () =
  if every <= 0 then invalid_arg "audit_runs: every must be positive";
  let cells =
    List.concat_map
      (fun mesh_size -> List.map (fun seed -> (mesh_size, seed)) seeds)
      sizes
  in
  let run (audit_mesh_size, audit_seed) =
    let config =
      Calibration.config ?fault ~max_retransmissions ~mesh_size:audit_mesh_size
        ~seed:audit_seed ()
    in
    let recorder = Etx_etsim.Audit.create ~every_frames:every () in
    let engine = Etx_etsim.Engine.create config in
    Etx_etsim.Engine.enable_audit engine recorder;
    ignore (Etx_etsim.Engine.run engine);
    {
      audit_mesh_size;
      audit_seed;
      passes = Etx_etsim.Audit.passes recorder;
      audit_violations =
        List.map
          (Format.asprintf "%a" Etx_etsim.Audit.pp_violation)
          (Etx_etsim.Audit.violations recorder);
      audit_violations_total = Etx_etsim.Audit.violation_count recorder;
    }
  in
  match pool with Some p -> Pool.run p run cells | None -> Pool.map ~domains run cells

let audit_violations rows =
  List.fold_left (fun acc r -> acc + r.audit_violations_total) 0 rows
