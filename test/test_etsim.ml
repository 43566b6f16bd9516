(* Tests for etx_etsim: configuration validation, node/job/trace units,
   the controller bank, and end-to-end engine behaviour (the properties
   the paper's experiments rest on). *)

module Config = Etx_etsim.Config
module Node = Etx_etsim.Node
module Job = Etx_etsim.Job
module Trace = Etx_etsim.Trace
module Controller = Etx_etsim.Controller
module Engine = Etx_etsim.Engine
module Metrics = Etx_etsim.Metrics
module Battery = Etx_battery.Battery
module Policy = Etx_routing.Policy
module Topology = Etx_graph.Topology
module Router = Etx_routing.Router

let mesh size = Topology.square_mesh ~size ()

let base_config ?policy ?battery_kind ?controllers ?concurrent_jobs ?seed
    ?job_source ?max_jobs ?max_cycles ?frame_period_cycles ?reception_energy_fraction
    ?battery_capacity_pj ?link_failure_schedule ?fault ?max_retransmissions size =
  Config.make ~topology:(mesh size) ?policy ?battery_kind ?controllers
    ?concurrent_jobs ?seed ?job_source ?max_jobs ?max_cycles ?frame_period_cycles
    ?reception_energy_fraction ?battery_capacity_pj ?link_failure_schedule ?fault
    ?max_retransmissions ()

(* - Config - *)

let test_config_defaults () =
  let c = base_config 4 in
  Alcotest.(check int) "nodes" 16 (Config.node_count c);
  Alcotest.(check int) "modules" 3 c.Config.module_count;
  Alcotest.(check int) "one job" 1 c.concurrent_jobs

let test_config_control_energies () =
  let c = base_config 4 in
  (* 10 cm shared medium: 4.4472 pJ/bit, 4-bit reports *)
  Alcotest.(check (float 1e-9)) "report" (4. *. 4.4472) (Config.report_energy_pj c);
  Alcotest.(check (float 1e-9)) "instruction" (8. *. 4.4472) (Config.instruction_energy_pj c)

let test_config_reception_energy () =
  let c = base_config ~reception_energy_fraction:0.5 4 in
  Alcotest.(check (float 1e-6)) "half of the hop" (0.5 *. 261. *. 0.4472)
    (Config.reception_energy_pj c ~length_cm:1.)

let test_config_validation () =
  let expect message build =
    Alcotest.check_raises message (Invalid_argument message) (fun () -> ignore (build ()))
  in
  expect "Config.make: entry node out of range" (fun () ->
      base_config ~job_source:(Config.Fixed_entry 99) 4);
  expect "Config.make: need at least one job in flight" (fun () ->
      base_config ~concurrent_jobs:0 4);
  expect "Config.make: battery capacity must be positive" (fun () ->
      base_config ~battery_capacity_pj:0. 4);
  expect "Config.make: need at least one controller" (fun () ->
      base_config ~controllers:(Config.Battery_controllers { count = 0 }) 4);
  expect "Config.make: max_jobs must be positive" (fun () ->
      base_config ~max_jobs:(Some 0) 4);
  (* link-failure schedule validation (nodes 0 and 1 are adjacent in the
     4x4 mesh; 0 and 5 are diagonal neighbours, hence non-adjacent) *)
  expect "Config.make: link failure before cycle 0" (fun () ->
      base_config ~link_failure_schedule:[ (-1, 0, 1) ] 4);
  expect "Config.make: link failure node id out of range" (fun () ->
      base_config ~link_failure_schedule:[ (0, 0, 16) ] 4);
  expect "Config.make: link failure node id out of range" (fun () ->
      base_config ~link_failure_schedule:[ (0, -2, 1) ] 4);
  expect "Config.make: link failure is a self-loop" (fun () ->
      base_config ~link_failure_schedule:[ (0, 3, 3) ] 4);
  expect "Config.make: link failure names a non-existent link" (fun () ->
      base_config ~link_failure_schedule:[ (0, 0, 5) ] 4);
  expect "Config.make: duplicate link failure" (fun () ->
      base_config ~link_failure_schedule:[ (0, 0, 1); (100, 1, 0) ] 4);
  expect "Config.make: max_retransmissions must be >= 0" (fun () ->
      base_config ~max_retransmissions:(-1) 4)

let test_config_mapping_arity_checked () =
  let topology = mesh 4 in
  let wrong = Etx_routing.Mapping.checkerboard (mesh 5) in
  Alcotest.check_raises "arity"
    (Invalid_argument "Config.make: mapping arity differs from the topology") (fun () ->
      ignore (Config.make ~topology ~mapping:wrong ()))

(* - Node - *)

let test_node_lazy_sync () =
  let node =
    Node.create ~id:0 ~module_index:1
      ~battery:(Battery.create ~kind:Battery.Ideal ~capacity_pj:100.)
  in
  Node.sync node ~cycle:50;
  Alcotest.(check int) "synced" 50 node.Node.synced_to;
  Node.sync node ~cycle:30;
  Alcotest.(check int) "never backwards" 50 node.Node.synced_to

let test_node_draw_and_death () =
  let node =
    Node.create ~id:0 ~module_index:0
      ~battery:(Battery.create ~kind:Battery.Ideal ~capacity_pj:100.)
  in
  Alcotest.(check bool) "draw ok" true (Node.draw node ~cycle:10 ~energy_pj:60.);
  Alcotest.(check bool) "overdraw kills" false (Node.draw node ~cycle:20 ~energy_pj:60.);
  Alcotest.(check bool) "dead" true (Node.is_dead node)

let test_node_level () =
  let node =
    Node.create ~id:0 ~module_index:0
      ~battery:(Battery.create ~kind:Battery.Ideal ~capacity_pj:100.)
  in
  Alcotest.(check int) "full" 7 (Node.level node ~cycle:0 ~levels:8);
  ignore (Node.draw node ~cycle:0 ~energy_pj:60.);
  Alcotest.(check int) "drained" 3 (Node.level node ~cycle:0 ~levels:8)

(* - Job - *)

let fixed_key_hex = "000102030405060708090a0b0c0d0e0f"
let fixed_key = Etx_aes.Aes.key_of_hex fixed_key_hex
let aes_workload = Etx_etsim.Workload.aes_encrypt ~key_hex:fixed_key_hex

let make_job id =
  let payload = Bytes.make 16 'p' in
  let expected = Etx_aes.Aes.encrypt_block fixed_key payload in
  Job.launch ~id ~workload:aes_workload ~payload ~expected ~entry:3 ~cycle:100

let test_job_lifecycle () =
  let job = make_job 0 in
  Alcotest.(check int) "starts at entry" 3 (Job.current_node job);
  Alcotest.(check int) "ready immediately" 100 (Job.ready_at job);
  Alcotest.(check bool) "not finished" false (Job.finished job);
  (* module 3 (index 2) does the first AddRoundKey *)
  Alcotest.(check int) "first module" 2 (Job.needed_module job)

let test_job_runs_to_verified_completion () =
  let job = make_job 1 in
  for _ = 1 to 30 do
    Job.apply_act job
  done;
  Alcotest.(check bool) "finished" true (Job.finished job);
  Alcotest.check_raises "no module needed"
    (Invalid_argument "Job.needed_module: job already finished") (fun () ->
      ignore (Job.needed_module job));
  Alcotest.(check bool) "ciphertext verified" true (Job.verified job);
  Alcotest.check_raises "no act past the end"
    (Invalid_argument "Job.apply_act: job already finished") (fun () -> Job.apply_act job)

let test_job_phase_accessors () =
  let job = make_job 2 in
  job.Job.phase <- Job.Computing { node = 7; until = 500 };
  Alcotest.(check int) "computing node" 7 (Job.current_node job);
  Alcotest.(check int) "computing ready" 500 (Job.ready_at job);
  job.Job.phase <- Job.In_transit { src = 7; dst = 9; edge = 0; until = 600; attempt = 1 };
  Alcotest.(check int) "transit counts at destination" 9 (Job.current_node job)

(* - Trace - *)

let test_trace_ring_buffer () =
  let t = Trace.create ~capacity:3 in
  for i = 1 to 5 do
    Trace.record t (Trace.Node_death { node = i; cycle = i })
  done;
  Alcotest.(check int) "dropped" 2 (Trace.dropped t);
  match Trace.events t with
  | [ Trace.Node_death { node = 3; _ }; Node_death { node = 4; _ }; Node_death { node = 5; _ } ]
    -> ()
  | events -> Alcotest.failf "unexpected ring contents (%d events)" (List.length events)

let test_trace_validation () =
  Alcotest.check_raises "capacity" (Invalid_argument "Trace.create: capacity must be positive")
    (fun () -> ignore (Trace.create ~capacity:0))

(* - Controller - *)

let full_snapshot n = Router.full_snapshot ~node_count:n ~levels:8

let test_controller_first_frame_computes () =
  let c = base_config 4 in
  let controller = Controller.create c in
  match Controller.on_frame controller ~elapsed_cycles:0 ~snapshot:(full_snapshot 16) with
  | Controller.Table_updated _ ->
    Alcotest.(check int) "one recompute" 1 (Controller.recomputations controller);
    Alcotest.(check bool) "download metered" true
      (Controller.download_energy_pj controller > 0.)
  | Controller.No_change | Controller.Exhausted -> Alcotest.fail "expected a table"

let test_controller_skips_unchanged () =
  let c = base_config 4 in
  let controller = Controller.create c in
  let snapshot = full_snapshot 16 in
  ignore (Controller.on_frame controller ~elapsed_cycles:0 ~snapshot);
  begin
    match Controller.on_frame controller ~elapsed_cycles:500 ~snapshot with
    | Controller.No_change -> ()
    | Controller.Table_updated _ | Controller.Exhausted ->
      Alcotest.fail "expected no change"
  end;
  Alcotest.(check int) "still one recompute" 1 (Controller.recomputations controller)

let test_controller_recomputes_on_level_change () =
  let c = base_config 4 in
  let controller = Controller.create c in
  ignore
    (Controller.on_frame controller ~elapsed_cycles:0 ~snapshot:(full_snapshot 16));
  let snapshot = full_snapshot 16 in
  snapshot.Router.battery_level.(3) <- 2;
  begin
    match Controller.on_frame controller ~elapsed_cycles:500 ~snapshot with
    | Controller.Table_updated _ -> ()
    | Controller.No_change | Controller.Exhausted -> Alcotest.fail "expected recompute"
  end;
  Alcotest.(check int) "two recomputes" 2 (Controller.recomputations controller)

let test_controller_sdr_levels_only_reuses_table () =
  (* SDR weights ignore battery levels, so a frame that moves only
     levels is still billed as a recompute but yields an equal table *)
  let c = base_config ~policy:(Policy.sdr ()) 4 in
  let controller = Controller.create c in
  let first =
    match Controller.on_frame controller ~elapsed_cycles:0 ~snapshot:(full_snapshot 16) with
    | Controller.Table_updated table -> table
    | Controller.No_change | Controller.Exhausted -> Alcotest.fail "expected a table"
  in
  let download_before = Controller.download_energy_pj controller in
  let compute_before = Controller.compute_energy_pj controller in
  let snapshot = full_snapshot 16 in
  snapshot.Router.battery_level.(3) <- 2;
  snapshot.Router.battery_level.(9) <- 0;
  begin
    match Controller.on_frame controller ~elapsed_cycles:0 ~snapshot with
    | Controller.Table_updated table ->
      Alcotest.(check bool) "equal table" true (Etx_routing.Routing_table.equal table first)
    | Controller.No_change | Controller.Exhausted -> Alcotest.fail "expected Table_updated"
  end;
  Alcotest.(check int) "recompute counted" 2 (Controller.recomputations controller);
  Alcotest.(check (float 0.)) "zero entries downloaded" download_before
    (Controller.download_energy_pj controller);
  Alcotest.(check (float 0.)) "dynamic energy charged"
    (compute_before
    +. (Etx_energy.Controller_power.dynamic_pj_per_cycle
       *. float_of_int (Config.recompute_cycles c)))
    (Controller.compute_energy_pj controller)

let test_controller_failover_and_exhaustion () =
  (* two calibrated controller cells: leakage alone drains one in about
     twenty 500-cycle frames *)
  let c = base_config ~controllers:(Config.Battery_controllers { count = 2 }) 4 in
  let controller = Controller.create c in
  let snapshot = full_snapshot 16 in
  let rec drive cycle deaths_seen =
    if cycle > 100 * c.Config.frame_period_cycles then
      Alcotest.fail "controllers never exhausted"
    else
      match
        Controller.on_frame controller ~elapsed_cycles:c.Config.frame_period_cycles
          ~snapshot
      with
      | Controller.Exhausted ->
        Alcotest.(check int) "both died" 2 (Controller.deaths controller);
        Alcotest.(check int) "no survivors" 0 (Controller.survivors controller);
        deaths_seen
      | Controller.Table_updated _ | Controller.No_change ->
        drive (cycle + c.Config.frame_period_cycles) (Controller.deaths controller)
  in
  let deaths_before_exhaustion = drive 0 0 in
  Alcotest.(check bool) "failover happened before exhaustion" true
    (deaths_before_exhaustion >= 1)

let test_controller_infinite_never_dies () =
  let c = base_config 4 in
  let controller = Controller.create c in
  let snapshot = full_snapshot 16 in
  for _ = 0 to 100 do
    match Controller.on_frame controller ~elapsed_cycles:500 ~snapshot with
    | Controller.Exhausted -> Alcotest.fail "infinite controller died"
    | Controller.Table_updated _ | Controller.No_change -> ()
  done;
  Alcotest.(check int) "no deaths" 0 (Controller.deaths controller)

(* - Engine end-to-end - *)

let calibrated ?policy ?battery_kind ?controllers ?concurrent_jobs ?(seed = 1)
    ?max_jobs size =
  base_config ?policy ?battery_kind ?controllers ?concurrent_jobs ~seed ?max_jobs
    ~frame_period_cycles:800 ~reception_energy_fraction:0.8
    ~job_source:Config.Round_robin_entry size

let test_engine_all_jobs_verified () =
  let m = Engine.simulate (calibrated 4) in
  Alcotest.(check bool) "completed some jobs" true (m.Metrics.jobs_completed > 20);
  Alcotest.(check int) "every ciphertext correct" m.jobs_completed m.jobs_verified

let test_engine_deterministic () =
  let a = Engine.simulate (calibrated ~seed:5 5) in
  let b = Engine.simulate (calibrated ~seed:5 5) in
  Alcotest.(check int) "same jobs" a.Metrics.jobs_completed b.Metrics.jobs_completed;
  Alcotest.(check int) "same lifetime" a.lifetime_cycles b.lifetime_cycles;
  Alcotest.(check (float 1e-9)) "same energy" a.computation_energy_pj b.computation_energy_pj

let test_engine_ear_beats_sdr () =
  let ear = Engine.simulate (calibrated ~policy:(Policy.ear ()) 4) in
  let sdr = Engine.simulate (calibrated ~policy:(Policy.sdr ()) 4) in
  Alcotest.(check bool) "paper's headline claim (>= 5x)" true
    (ear.Metrics.jobs_completed >= 5 * sdr.Metrics.jobs_completed)

let test_engine_jobs_below_upper_bound () =
  let m =
    Engine.simulate (calibrated ~battery_kind:Battery.Ideal ~policy:(Policy.ear ()) 4)
  in
  let j_star = Etx_routing.Upper_bound.jobs (Etx_routing.Problem.aes ~node_budget:16 ()) in
  Alcotest.(check bool) "Theorem 1 holds" true (float_of_int m.Metrics.jobs_completed <= j_star)

let test_engine_death_reason_is_node_loss () =
  let m = Engine.simulate (calibrated 4) in
  match m.Metrics.death_reason with
  | Metrics.Job_lost_to_node_death _ | Metrics.Module_unreachable _ -> ()
  | other -> Alcotest.failf "unexpected death: %s" (Metrics.death_reason_string other)

let test_engine_max_jobs_cap () =
  let m = Engine.simulate (calibrated ~max_jobs:(Some 5) 4) in
  Alcotest.(check int) "capped" 5 m.Metrics.jobs_completed;
  match m.death_reason with
  | Metrics.Job_limit -> ()
  | other -> Alcotest.failf "expected job limit, got %s" (Metrics.death_reason_string other)

let test_engine_cycle_limit () =
  let c = { (calibrated 4) with Config.max_cycles = 1000 } in
  let m = Engine.simulate c in
  begin
    match m.Metrics.death_reason with
    | Metrics.Cycle_limit -> ()
    | other -> Alcotest.failf "expected cycle limit, got %s" (Metrics.death_reason_string other)
  end;
  Alcotest.(check int) "lifetime clamped" 1000 m.lifetime_cycles

let test_engine_energy_conservation () =
  (* with ideal cells: consumed + stranded + residual = total capacity *)
  let c = calibrated ~battery_kind:Battery.Ideal 4 in
  let m = Engine.simulate c in
  let consumed =
    m.Metrics.computation_energy_pj +. m.communication_energy_pj
    +. m.control_upload_energy_pj
  in
  let accounted = consumed +. m.stranded_node_energy_pj +. m.residual_node_energy_pj in
  Alcotest.(check (float 1.)) "node energy conserved" (16. *. 60000.) accounted

let test_engine_controller_experiment_monotone () =
  let jobs count =
    let m =
      Engine.simulate
        (calibrated ~controllers:(Config.Battery_controllers { count }) 4)
    in
    m.Metrics.jobs_completed
  in
  let one = jobs 1 and four = jobs 4 and ten = jobs 10 in
  Alcotest.(check bool) "more controllers help" true (one <= four && four <= ten);
  Alcotest.(check bool) "one controller is binding" true (one < ten)

let test_engine_controller_death_reason () =
  let m =
    Engine.simulate (calibrated ~controllers:(Config.Battery_controllers { count = 1 }) 4)
  in
  match m.Metrics.death_reason with
  | Metrics.Controllers_exhausted -> ()
  | other ->
    Alcotest.failf "expected controller exhaustion, got %s"
      (Metrics.death_reason_string other)

let test_engine_entry_death_detected () =
  (* a fixed entry with a dead battery ends the platform on the next
     injection *)
  let c =
    base_config ~job_source:(Config.Fixed_entry 0) ~seed:1 ~frame_period_cycles:800
      ~reception_energy_fraction:0.8 4
  in
  let m = Engine.simulate c in
  (* the run must end for a structural reason, not a cap *)
  match m.Metrics.death_reason with
  | Metrics.Job_lost_to_node_death _ | Metrics.Module_unreachable _
  | Metrics.Entry_node_dead _ -> ()
  | other -> Alcotest.failf "unexpected: %s" (Metrics.death_reason_string other)

let test_engine_concurrency_recovers_deadlocks () =
  let m = Engine.simulate (calibrated ~concurrent_jobs:8 6) in
  Alcotest.(check bool) "deadlocks reported" true (m.Metrics.deadlocks_reported > 0);
  Alcotest.(check bool) "most recovered" true
    (m.deadlocks_recovered >= m.deadlocks_reported - 2);
  Alcotest.(check bool) "still completes work" true (m.jobs_completed > 10)

let test_engine_overhead_in_paper_band () =
  let m = Engine.simulate (calibrated 4) in
  let overhead = Metrics.control_overhead_fraction m in
  Alcotest.(check bool) "a few percent" true (overhead > 0.005 && overhead < 0.10)

let test_engine_trace_records_story () =
  let engine = Engine.create ~trace_capacity:100_000 (calibrated ~max_jobs:(Some 2) 4) in
  let m = Engine.run engine in
  Alcotest.(check int) "two jobs" 2 m.Metrics.jobs_completed;
  match Engine.trace engine with
  | None -> Alcotest.fail "trace missing"
  | Some trace ->
    let events = Trace.events trace in
    let completions =
      List.length
        (List.filter (function Trace.Job_completed _ -> true | _ -> false) events)
    in
    let launches =
      List.length
        (List.filter (function Trace.Job_launched _ -> true | _ -> false) events)
    in
    Alcotest.(check int) "two completions traced" 2 completions;
    Alcotest.(check bool) "launches >= completions" true (launches >= completions)

let test_engine_run_only_once () =
  let engine = Engine.create (calibrated ~max_jobs:(Some 1) 4) in
  ignore (Engine.run engine);
  Alcotest.check_raises "second run" (Invalid_argument "Engine.run: engine already ran")
    (fun () -> ignore (Engine.run engine))

let test_engine_seed_changes_nothing_without_variation () =
  (* without capacity variation the workload energy is seed-independent *)
  let a = Engine.simulate (calibrated ~seed:1 4) in
  let b = Engine.simulate (calibrated ~seed:2 4) in
  Alcotest.(check int) "same jobs" a.Metrics.jobs_completed b.Metrics.jobs_completed

let test_engine_capacity_variation_varies () =
  let with_variation seed =
    let c = { (calibrated ~seed 4) with Config.battery_capacity_variation = 0.15 } in
    (Engine.simulate c).Metrics.jobs_completed
  in
  let results = List.map with_variation [ 1; 2; 3; 4; 5; 6 ] in
  Alcotest.(check bool) "seeds now matter" true
    (List.length (List.sort_uniq compare results) > 1)

let test_engine_reception_fraction_costs_jobs () =
  let jobs fraction =
    let c =
      base_config ~seed:1 ~frame_period_cycles:800 ~reception_energy_fraction:fraction
        ~job_source:Config.Round_robin_entry 4
    in
    (Engine.simulate c).Metrics.jobs_completed
  in
  Alcotest.(check bool) "free reception completes more" true (jobs 0. > jobs 1.)

let test_engine_socs_and_alive_exposed () =
  let engine = Engine.create (calibrated 4) in
  ignore (Engine.run engine);
  let socs = Engine.battery_socs engine in
  let alive = Engine.alive_mask engine in
  Alcotest.(check int) "16 socs" 16 (Array.length socs);
  Alcotest.(check int) "16 flags" 16 (Array.length alive);
  Array.iter
    (fun s -> Alcotest.(check bool) "soc in [0,1]" true (s >= 0. && s <= 1.))
    socs;
  Alcotest.(check bool) "at least one death" true
    (Array.exists (fun a -> not a) alive)

(* The zero-allocation frame loop must not silently rot: with ideal
   batteries every level report repeats, so each warm frame is a
   No_change frame, and the snapshot refill + compare path should stay
   within a few boxed floats per frame.  The budget (64 minor words per
   frame) sits far above the measured steady state (~14 words) but far
   below what reintroducing a per-frame array/list rebuild (~300 words
   at this size) or a per-node boxed-float write (~128 words) costs. *)
let test_engine_frame_loop_allocation policy () =
  let config =
    base_config ~policy ~battery_kind:Battery.Ideal ~frame_period_cycles:1000 8
  in
  let engine = Engine.create config in
  Engine.run_frames engine ~count:50;
  let frames = 200 in
  let before = Gc.minor_words () in
  Engine.run_frames engine ~count:frames;
  let per_frame = (Gc.minor_words () -. before) /. float_of_int frames in
  if per_frame > 64. then
    Alcotest.failf "steady-state frame loop allocates %.1f minor words/frame" per_frame

(* Link state is indexed by edge, so creating an engine costs memory
   linear in the nodes and links: a 64x64 mesh has 4,096 nodes and
   16,128 links.  The budget (8 MB) is well above what that takes
   (about 3.3 MB, the edge index and the per-node cells included) and
   far below what one [node_count]-squared table of floats costs at
   this size (134 MB; per-pair link tables cost about 670 MB). *)
let test_engine_create_memory_is_linear () =
  let config = Etextile.Calibration.config ~mesh_size:64 () in
  let before = Gc.allocated_bytes () in
  ignore (Sys.opaque_identity (Engine.create config));
  let allocated = Gc.allocated_bytes () -. before in
  if allocated > 8e6 then
    Alcotest.failf "creating a 64x64 engine allocated %.1f MB" (allocated /. 1e6)

let test_engine_run_frames_then_run_rejected () =
  let engine = Engine.create (calibrated 4) in
  ignore (Engine.run engine);
  Alcotest.check_raises "no probing after run"
    (Invalid_argument "Engine.run_frames: engine already ran") (fun () ->
      Engine.run_frames engine ~count:1)

let test_engine_acts_per_job_ratio () =
  (* every completed job is exactly 30 acts; lost jobs add a partial
     tail, so acts >= 30 * completed *)
  let m = Engine.simulate (calibrated ~max_jobs:(Some 10) 4) in
  Alcotest.(check int) "exact act count" (30 * 10) m.Metrics.acts_total

let suite =
  [
    ( "etsim/config",
      [
        Alcotest.test_case "defaults" `Quick test_config_defaults;
        Alcotest.test_case "control energies" `Quick test_config_control_energies;
        Alcotest.test_case "reception energy" `Quick test_config_reception_energy;
        Alcotest.test_case "validation" `Quick test_config_validation;
        Alcotest.test_case "mapping arity" `Quick test_config_mapping_arity_checked;
      ] );
    ( "etsim/node",
      [
        Alcotest.test_case "lazy sync" `Quick test_node_lazy_sync;
        Alcotest.test_case "draw and death" `Quick test_node_draw_and_death;
        Alcotest.test_case "level" `Quick test_node_level;
      ] );
    ( "etsim/job",
      [
        Alcotest.test_case "lifecycle" `Quick test_job_lifecycle;
        Alcotest.test_case "verified completion" `Quick test_job_runs_to_verified_completion;
        Alcotest.test_case "phase accessors" `Quick test_job_phase_accessors;
      ] );
    ( "etsim/trace",
      [
        Alcotest.test_case "ring buffer" `Quick test_trace_ring_buffer;
        Alcotest.test_case "validation" `Quick test_trace_validation;
      ] );
    ( "etsim/controller",
      [
        Alcotest.test_case "first frame computes" `Quick test_controller_first_frame_computes;
        Alcotest.test_case "skips unchanged reports" `Quick test_controller_skips_unchanged;
        Alcotest.test_case "recomputes on level change" `Quick
          test_controller_recomputes_on_level_change;
        Alcotest.test_case "SDR levels-only reuses table" `Quick
          test_controller_sdr_levels_only_reuses_table;
        Alcotest.test_case "failover and exhaustion" `Quick
          test_controller_failover_and_exhaustion;
        Alcotest.test_case "infinite never dies" `Quick test_controller_infinite_never_dies;
      ] );
    ( "etsim/engine",
      [
        Alcotest.test_case "all jobs verified" `Quick test_engine_all_jobs_verified;
        Alcotest.test_case "deterministic" `Quick test_engine_deterministic;
        Alcotest.test_case "EAR beats SDR >= 5x" `Quick test_engine_ear_beats_sdr;
        Alcotest.test_case "jobs below Theorem 1" `Quick test_engine_jobs_below_upper_bound;
        Alcotest.test_case "death is structural" `Quick test_engine_death_reason_is_node_loss;
        Alcotest.test_case "max jobs cap" `Quick test_engine_max_jobs_cap;
        Alcotest.test_case "cycle limit" `Quick test_engine_cycle_limit;
        Alcotest.test_case "energy conservation" `Quick test_engine_energy_conservation;
        Alcotest.test_case "controller experiment monotone" `Quick
          test_engine_controller_experiment_monotone;
        Alcotest.test_case "controller death reason" `Quick test_engine_controller_death_reason;
        Alcotest.test_case "entry death detected" `Quick test_engine_entry_death_detected;
        Alcotest.test_case "concurrency recovers deadlocks" `Quick
          test_engine_concurrency_recovers_deadlocks;
        Alcotest.test_case "overhead in paper band" `Quick test_engine_overhead_in_paper_band;
        Alcotest.test_case "trace records the story" `Quick test_engine_trace_records_story;
        Alcotest.test_case "run only once" `Quick test_engine_run_only_once;
        Alcotest.test_case "frame loop allocation (EAR)" `Quick
          (test_engine_frame_loop_allocation (Policy.ear ()));
        Alcotest.test_case "frame loop allocation (maximin)" `Quick
          (test_engine_frame_loop_allocation (Policy.maximin ()));
        Alcotest.test_case "create memory is linear" `Quick
          test_engine_create_memory_is_linear;
        Alcotest.test_case "run_frames after run rejected" `Quick
          test_engine_run_frames_then_run_rejected;
        Alcotest.test_case "seeds inert without variation" `Quick
          test_engine_seed_changes_nothing_without_variation;
        Alcotest.test_case "capacity variation varies" `Quick
          test_engine_capacity_variation_varies;
        Alcotest.test_case "reception fraction costs jobs" `Quick
          test_engine_reception_fraction_costs_jobs;
        Alcotest.test_case "socs and liveness exposed" `Quick
          test_engine_socs_and_alive_exposed;
        Alcotest.test_case "exact act accounting" `Quick test_engine_acts_per_job_ratio;
      ] );
  ]
