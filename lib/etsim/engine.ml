module Digraph = Etx_graph.Digraph
module Connectivity = Etx_graph.Connectivity
module Battery = Etx_battery.Battery
module Routing_table = Etx_routing.Routing_table
module Router = Etx_routing.Router
module Mapping = Etx_routing.Mapping
module Computation = Etx_energy.Computation
module Packet = Etx_energy.Packet
module Prng = Etx_util.Prng
module Fault_spec = Etx_fault.Spec
module Fault_plan = Etx_fault.Plan
module Obs = Etx_obs.Obs

(* hot-path hooks: one atomic load each while the registry is disarmed *)
let obs_frames =
  Obs.counter ~help:"Engine frames executed"
    "etx_engine_frames_total"

let obs_audit_violations =
  Obs.counter ~help:"Invariant violations recorded by the frame auditor"
    "etx_engine_audit_violations_total"

type status = Running | Dead of Metrics.death_reason

(* Jobs in flight, kept in launch (id) order.  An intrusive doubly-linked
   list gives O(1) append and O(1) removal, where the previous [Job.t
   list] paid O(n) per launch ([jobs @ [job]]) and per completion
   ([List.filter]).  Unlinking a cell leaves its own pointers intact, so
   an iteration holding the cell can still step past it; [live] marks
   removed cells so they are skipped everywhere. *)
module Jobs = struct
  type cell = {
    job : Job.t;
    mutable prev : cell option;
    mutable next : cell option;
    mutable live : bool;
  }

  type t = {
    mutable head : cell option;
    mutable tail : cell option;
    mutable count : int;
  }

  let create () = { head = None; tail = None; count = 0 }

  let push t job =
    let cell = { job; prev = t.tail; next = None; live = true } in
    (match t.tail with None -> t.head <- Some cell | Some tail -> tail.next <- Some cell);
    t.tail <- Some cell;
    t.count <- t.count + 1

  let remove t cell =
    if cell.live then begin
      cell.live <- false;
      (match cell.prev with None -> t.head <- cell.next | Some p -> p.next <- cell.next);
      (match cell.next with None -> t.tail <- cell.prev | Some n -> n.prev <- cell.prev);
      t.count <- t.count - 1
    end

  let length t = t.count

  (* [f] may remove the cell it is given (the next pointer is captured
     first), but must not remove other cells. *)
  let iter_cells t ~f =
    let rec go = function
      | None -> ()
      | Some cell ->
        let next = cell.next in
        if cell.live then f cell;
        go next
    in
    go t.head

  let iter t ~f = iter_cells t ~f:(fun cell -> f cell.job)

  (* the earliest ready time of any job, [max_int] when there is none:
     a direct walk of the linked cells (all live), with no closure *)
  let earliest_ready t =
    let rec go acc = function
      | None -> acc
      | Some cell -> go (Int.min acc (Job.ready_at cell.job)) cell.next
    in
    go max_int t.head
end

type t = {
  config : Config.t;
  graph : Digraph.t;
  edges : Digraph.index; (* the topology's edge index; its ids index the link arrays *)
  workloads : Workload.t array;
  mutable workload_rotation : int;
  nodes : Node.t array;
  controller : Controller.t;
  mutable table : Routing_table.t option;
  jobs : Jobs.t;
  mutable next_job_id : int;
  mutable cycle : int;
  mutable next_frame : int;
  mutable last_frame : int;
  (* per-link state and energies, one slot per edge id: a hop resolves
     its edge once and carries it in flight, so the busy-until clocks,
     failure flags and transmission-line energies are array reads, and
     their size grows with the links, not the square of the nodes *)
  link_busy : int array; (* per edge: busy until *)
  link_dead : bool array;
  hop_energy : float array; (* per edge: Packet.hop_energy *)
  reception_energy : float array;
  serialization_cycles : int;
  act_energy : float array; (* Computation.energy_per_act per module *)
  (* failed links as a sorted list, rebuilt only when a failure lands,
     so the per-frame snapshot hands the controller a ready-made value *)
  mutable failed_links_sorted : (int * int) list;
  mutable pending_failures : (int * int * int) list; (* sorted by cycle *)
  (* per-frame snapshot buffer: the alive/battery arrays are refilled in
     place and the list fields replaced, instead of allocating fresh
     arrays and a record every frame *)
  snapshot : Router.snapshot;
  (* per-frame status-upload cost, fixed by the config: computed once
     here instead of once per frame *)
  report_energy : float;
  mutable links_failed : int;
  prng : Prng.t;
  mutable entry_rotation : int;
  entry_stride : int;
  (* accumulators *)
  mutable jobs_completed : int;
  mutable jobs_verified : int;
  mutable jobs_lost : int;
  mutable computation_energy : float;
  mutable communication_energy : float;
  mutable upload_energy : float;
  mutable node_deaths : int;
  mutable frames : int;
  mutable deadlocks_reported : int;
  mutable deadlocks_recovered : int;
  mutable hops : int;
  mutable acts : int;
  computation_by_module : float array;
  latency_stats : Etx_util.Stats.t;
  mutable latency_max : int;
  (* fault injection and hardening.  [plan] is the compiled event
     stream; [None] when the config carries no fault spec, in which case
     every per-packet and per-frame guard below reduces to a single
     comparison and the engine is bit-identical to the fault-free one *)
  plan : Fault_plan.t option;
  packet_bits : int;
  max_retransmissions : int;
  retransmit_delay : int; (* serialization + ACK timeout *)
  (* controller-side degraded state: last level heard per node, how
     stale it is, and which uploads vanished this frame *)
  reported_level : int array;
  staleness : int array;
  upload_dropped_now : bool array;
  mutable stale_table : Routing_table.t option;
  mutable staleness_total : int;
  mutable staleness_max : int;
  mutable retransmissions : int;
  mutable packets_corrupted : int;
  mutable packets_dropped : int;
  mutable link_wearouts : int;
  mutable brownouts : int;
  mutable uploads_dropped : int;
  mutable downloads_dropped : int;
  mutable status : status;
  mutable started : bool;
  mutable finished : bool;
  mutable audit : Audit.t option;
  trace : Trace.t option;
  timeline : Timeline.t option;
}

(* Round-robin entries stride the rotation so consecutive jobs enter in
   different regions of the fabric (sensor blocks are scattered, Fig
   3(a)); the stride is chosen coprime to the node count so every node
   is visited. *)
let entry_stride n =
  let rec gcd a b = if b = 0 then a else gcd b (a mod b) in
  let rec coprime_stride s = if gcd s n = 1 then s else coprime_stride (s + 1) in
  coprime_stride (Int.max 1 ((n * 5 / 8) lor 1))

let create ?trace_capacity ?(record_timeline = false) (config : Config.t) =
  let node_count = Config.node_count config in
  let capacity_prng = Prng.create ~seed:(config.seed lxor 0x5F5F5F) in
  let node_capacity () =
    let v = config.battery_capacity_variation in
    if v = 0. then config.battery_capacity_pj
    else begin
      let offset = Prng.float capacity_prng ~bound:(2. *. v) -. v in
      config.battery_capacity_pj *. (1. +. offset)
    end
  in
  (* every node syncs its battery at each frame's status upload, so a
     tick never spans more than a frame period unless the node is
     offline: the fleet caches the decay factors of every tick up to it
     (up to 4096 cycles, so a long frame cannot make the table huge) *)
  let batteries =
    Battery.fleet ~kind:config.battery_kind
      ~tick_cache:(Int.min config.frame_period_cycles 4096)
      (Array.init node_count (fun _ -> node_capacity ()))
  in
  let nodes =
    Array.init node_count (fun id ->
        Node.create ~id
          ~module_index:(Mapping.module_of_node config.mapping ~node:id)
          ~battery:batteries.(id))
  in
  let graph = config.topology.Etx_graph.Topology.graph in
  let edges = Digraph.index graph in
  let edge_count = Array.length edges.targets in
  let plan =
    Option.map
      (fun spec ->
        Fault_plan.compile ~spec ~topology:config.topology ~horizon:config.max_cycles ())
      config.Config.fault
  in
  let serialization_cycles =
    Packet.serialization_cycles Config.packet ~link_width_bits:Config.link_width_bits
  in
  let pending_failures =
    List.sort
      (fun (a, _, _) (b, _, _) -> compare a b)
      config.Config.link_failure_schedule
  in
  let trace = Option.map (fun capacity -> Trace.create ~capacity) trace_capacity in
  let timeline = if record_timeline then Some (Timeline.create ()) else None in
  {
    config;
    graph;
    edges;
    workloads = Array.of_list config.Config.workloads;
    workload_rotation = 0;
    nodes;
    controller = Controller.create config;
    table = None;
    jobs = Jobs.create ();
    next_job_id = 0;
    cycle = 0;
    next_frame = 0;
    last_frame = 0;
    link_busy = Array.make edge_count 0;
    link_dead = Array.make edge_count false;
    hop_energy =
      Array.map
        (fun length_cm -> Packet.hop_energy Config.packet ~line:Config.line ~length_cm)
        edges.lengths;
    reception_energy =
      Array.map (fun length_cm -> Config.reception_energy_pj config ~length_cm) edges.lengths;
    serialization_cycles;
    act_energy =
      Array.init config.Config.module_count (fun module_index ->
          Computation.energy_per_act config.computation ~module_index);
    failed_links_sorted = [];
    snapshot =
      Router.full_snapshot ~node_count
        ~levels:config.policy.Etx_routing.Policy.levels;
    report_energy = Config.report_energy_pj config;
    pending_failures;
    links_failed = 0;
    prng = Prng.create ~seed:config.seed;
    entry_rotation = 0;
    entry_stride = entry_stride node_count;
    jobs_completed = 0;
    jobs_verified = 0;
    jobs_lost = 0;
    computation_energy = 0.;
    communication_energy = 0.;
    upload_energy = 0.;
    node_deaths = 0;
    frames = 0;
    deadlocks_reported = 0;
    deadlocks_recovered = 0;
    hops = 0;
    acts = 0;
    computation_by_module = Array.make config.Config.module_count 0.;
    latency_stats = Etx_util.Stats.create ();
    latency_max = 0;
    plan;
    packet_bits = Packet.total_bits Config.packet;
    max_retransmissions = config.Config.max_retransmissions;
    retransmit_delay = serialization_cycles + Config.ack_timeout_cycles;
    (* until a node speaks, the controller assumes a full battery *)
    reported_level = Array.make node_count (config.policy.Etx_routing.Policy.levels - 1);
    staleness = Array.make node_count 0;
    upload_dropped_now = Array.make node_count false;
    stale_table = None;
    staleness_total = 0;
    staleness_max = 0;
    retransmissions = 0;
    packets_corrupted = 0;
    packets_dropped = 0;
    link_wearouts = 0;
    brownouts = 0;
    uploads_dropped = 0;
    downloads_dropped = 0;
    status = Running;
    started = false;
    finished = false;
    audit = None;
    trace;
    timeline;
  }

let emit t event =
  match t.trace with None -> () | Some trace -> Trace.record trace event

let node_alive t id = not (Node.is_dead t.nodes.(id))

(* alive AND not rebooting from a brown-out: the distinction only exists
   under fault injection ([offline_until] stays 0 otherwise) *)
let node_available t id =
  node_alive t id && t.nodes.(id).Node.offline_until <= t.cycle

let die t reason =
  match t.status with
  | Dead _ -> ()
  | Running ->
    t.status <- Dead reason;
    emit t
      (Trace.System_death { cycle = t.cycle; reason = Metrics.death_reason_string reason })

(* Every job resident at (or flying towards) node [id] is lost; losing
   one kills the platform, since the launcher of Sec 7.1 waits forever
   for it.  [reason] names the first victim in the death record. *)
let lose_jobs_at t id reason =
  let victims = ref [] in
  Jobs.iter_cells t.jobs ~f:(fun cell ->
      if Job.current_node cell.Jobs.job = id then begin
        Jobs.remove t.jobs cell;
        victims := cell.Jobs.job :: !victims
      end);
  match List.rev !victims with
  | [] -> ()
  | job :: _ as lost ->
    t.jobs_lost <- t.jobs_lost + List.length lost;
    List.iter
      (fun j -> emit t (Trace.Job_lost { job = j.Job.id; node = id; cycle = t.cycle }))
      lost;
    die t (reason ~node:id ~job:job.Job.id)

(* A node's battery just hit the cutoff: its jobs die with it. *)
let kill_node t id =
  t.node_deaths <- t.node_deaths + 1;
  emit t (Trace.Node_death { node = id; cycle = t.cycle });
  lose_jobs_at t id (fun ~node ~job -> Metrics.Job_lost_to_node_death { node; job })

let clear_lock t id =
  if t.nodes.(id).Node.locked_hop <> None then begin
    t.nodes.(id).Node.locked_hop <- None;
    t.deadlocks_recovered <- t.deadlocks_recovered + 1
  end

let pick_entry t =
  match t.config.job_source with
  | Config.Fixed_entry entry -> if node_alive t entry then Some entry else None
  | Config.Round_robin_entry ->
    let n = Array.length t.nodes in
    let stride = t.entry_stride in
    let rec seek attempts =
      if attempts >= n then None
      else begin
        let candidate = (t.entry_rotation + attempts) * stride mod n in
        if node_alive t candidate then begin
          t.entry_rotation <- t.entry_rotation + attempts + 1;
          Some candidate
        end
        else seek (attempts + 1)
      end
    in
    seek 0

let launch_job t =
  match pick_entry t with
  | None ->
    let node =
      match t.config.job_source with Config.Fixed_entry e -> e | Config.Round_robin_entry -> -1
    in
    die t (Metrics.Entry_node_dead { node })
  | Some entry ->
    let workload = t.workloads.(t.workload_rotation mod Array.length t.workloads) in
    t.workload_rotation <- t.workload_rotation + 1;
    let payload = Workload.initial_payload workload ~prng:t.prng in
    let expected = Workload.reference workload payload in
    let job =
      Job.launch ~id:t.next_job_id ~workload ~payload ~expected ~entry ~cycle:t.cycle
    in
    t.next_job_id <- t.next_job_id + 1;
    t.nodes.(entry).Node.occupancy <- t.nodes.(entry).Node.occupancy + 1;
    Jobs.push t.jobs job;
    emit t (Trace.Job_launched { job = job.Job.id; entry; cycle = t.cycle })

let complete_job t cell =
  let job = cell.Jobs.job in
  t.jobs_completed <- t.jobs_completed + 1;
  let latency = t.cycle - job.Job.launched_at in
  Etx_util.Stats.add t.latency_stats (float_of_int latency);
  if latency > t.latency_max then t.latency_max <- latency;
  let verified = Job.verified job in
  if verified then t.jobs_verified <- t.jobs_verified + 1;
  emit t (Trace.Job_completed { job = job.Job.id; cycle = t.cycle; verified });
  let node = Job.current_node job in
  t.nodes.(node).Node.occupancy <- t.nodes.(node).Node.occupancy - 1;
  Jobs.remove t.jobs cell;
  match t.config.max_jobs with
  | Some cap when t.jobs_completed >= cap -> die t Metrics.Job_limit
  | Some _ | None -> launch_job t

(* whether edge [e] (-1: no such link) can carry a packet *)
let link_alive t e = e >= 0 && not t.link_dead.(e)

(* edge ids ascend in (src, dst) order, so a descending walk conses the
   list sorted *)
let rebuild_failed_links t =
  let acc = ref [] in
  for e = Array.length t.link_dead - 1 downto 0 do
    if t.link_dead.(e) then acc := (t.edges.tails.(e), t.edges.targets.(e)) :: !acc
  done;
  t.failed_links_sorted <- !acc

(* Break the living link a<->b in both directions; false when it was
   already broken.  The caller rebuilds [failed_links_sorted] once per
   batch of breaks. *)
let break_link t a b =
  let ab = Digraph.edge_id t.edges ~src:a ~dst:b in
  if link_alive t ab then begin
    let ba = Digraph.edge_id t.edges ~src:b ~dst:a in
    t.link_dead.(ab) <- true;
    if ba >= 0 then t.link_dead.(ba) <- true;
    t.links_failed <- t.links_failed + 1;
    true
  end
  else false

(* break interconnects whose scheduled failure cycle has arrived *)
let apply_link_failures t =
  match t.pending_failures with
  | [] -> () (* steady state: nothing scheduled, nothing allocated *)
  | pending ->
    let due, later = List.partition (fun (cycle, _, _) -> cycle <= t.cycle) pending in
    t.pending_failures <- later;
    let landed = ref false in
    List.iter (fun (_, a, b) -> if break_link t a b then landed := true) due;
    if !landed then rebuild_failed_links t

(* Does a living duplicate of [module_index] remain reachable from
   [node] through living relays?  The exact oracle behind the
   Unreachable table entry: if it says no, the platform is dead. *)
let duplicate_reachable t ~node ~module_index =
  let alive id = node_alive t id in
  let edge_alive e = not t.link_dead.(e) in
  let seen = Connectivity.reachable t.graph ~alive ~edge_alive ~src:node () in
  List.exists
    (fun candidate -> seen.(candidate))
    (Mapping.nodes_of_module t.config.mapping ~module_index)

let set_waiting job ~node ~since ~retry_at =
  job.Job.phase <- Job.Waiting { node; since; retry_at }

(* Volatile buffers: a brown-out with the [Drop] policy loses every job
   resident at (or in flight towards) the node, which kills the platform
   just like a node death would - the launcher waits forever. *)
let drop_jobs_for_brownout t id =
  lose_jobs_at t id (fun ~node ~job -> Metrics.Job_lost_to_brownout { node; job })

(* The [Preserve] policy keeps buffered jobs across the reboot: waiting
   jobs retry once the node is back, a paused act resumes with its
   remaining cycles, and packets in flight sit on the wire until the
   receiver can accept them. *)
let stall_jobs_for_brownout t id ~until =
  Jobs.iter t.jobs ~f:(fun job ->
      match job.Job.phase with
      | Job.Waiting { node; since; retry_at } when node = id ->
        if retry_at < until then set_waiting job ~node ~since ~retry_at:until
      | Job.Computing { node; until = busy } when node = id ->
        let resumed = until + max 0 (busy - t.cycle) in
        job.Job.phase <- Job.Computing { node; until = resumed };
        if t.nodes.(id).Node.busy_until < resumed then
          t.nodes.(id).Node.busy_until <- resumed
      | Job.In_transit { src; dst; edge; until = arrive; attempt } when dst = id ->
        if arrive < until then
          job.Job.phase <- Job.In_transit { src; dst; edge; until; attempt }
      | Job.Waiting _ | Job.Computing _ | Job.In_transit _ -> ())

(* Deliver every timed fault event due at this frame boundary, matching
   the semantics of the scheduled [apply_link_failures]. *)
let apply_fault_events t =
  match t.plan with
  | None -> ()
  | Some plan ->
    if Fault_plan.next_cycle plan <= t.cycle then begin
      let landed = ref false in
      Fault_plan.iter_due plan ~cycle:t.cycle ~f:(fun event ->
          if t.status = Running then
            match event with
            | Fault_plan.Link_wearout { a; b } ->
              if break_link t a b then begin
                t.link_wearouts <- t.link_wearouts + 1;
                landed := true;
                emit t (Trace.Link_wearout { a; b; cycle = t.cycle })
              end
            | Fault_plan.Brownout { node } ->
              if node_alive t node then begin
                t.brownouts <- t.brownouts + 1;
                let spec = Fault_plan.spec plan in
                let until =
                  max t.nodes.(node).Node.offline_until
                    (t.cycle + spec.Fault_spec.brownout_duration_cycles)
                in
                t.nodes.(node).Node.offline_until <- until;
                emit t (Trace.Node_brownout { node; until; cycle = t.cycle });
                match spec.Fault_spec.brownout_job_policy with
                | Fault_spec.Drop -> drop_jobs_for_brownout t node
                | Fault_spec.Preserve -> stall_jobs_for_brownout t node ~until
              end);
      if !landed then rebuild_failed_links t
    end

(* Deadlock bookkeeping for a job blocked on an output port: after the
   threshold the node flags the port for its next upload slot. *)
let note_blocked t ~node ~since ~hop =
  if
    t.cycle - since >= Config.deadlock_threshold_cycles
    && t.nodes.(node).Node.locked_hop = None
  then begin
    t.nodes.(node).Node.locked_hop <- Some hop;
    t.deadlocks_reported <- t.deadlocks_reported + 1;
    emit t (Trace.Deadlock_report { node; hop; cycle = t.cycle })
  end

let start_computation t job ~node ~module_index ~since =
  let busy_until = t.nodes.(node).Node.busy_until in
  if busy_until > t.cycle then set_waiting job ~node ~since ~retry_at:busy_until
  else begin
    let energy = t.act_energy.(module_index) in
    if Node.draw t.nodes.(node) ~cycle:t.cycle ~energy_pj:energy then begin
      t.computation_energy <- t.computation_energy +. energy;
      t.computation_by_module.(module_index) <-
        t.computation_by_module.(module_index) +. energy;
      t.acts <- t.acts + 1;
      clear_lock t node;
      let until = t.cycle + t.config.computation_cycles.(module_index) in
      t.nodes.(node).Node.busy_until <- until;
      job.Job.phase <- Job.Computing { node; until }
    end
    else kill_node t node
  end

let start_transmission t job ~node ~next_hop ~since =
  let edge = Digraph.edge_id t.edges ~src:node ~dst:next_hop in
  if (not (node_available t next_hop)) || not (link_alive t edge) then begin
    (* stale table: wait for the controller to learn about the death *)
    note_blocked t ~node ~since ~hop:next_hop;
    set_waiting job ~node ~since ~retry_at:t.next_frame
  end
  else if t.nodes.(next_hop).Node.occupancy >= Config.buffer_capacity then begin
    note_blocked t ~node ~since ~hop:next_hop;
    let retry_at = Int.min t.next_frame (t.cycle + 25) in
    let retry_at = if retry_at <= t.cycle then t.cycle + 25 else retry_at in
    set_waiting job ~node ~since ~retry_at
  end
  else begin
    let free_at = t.link_busy.(edge) in
    if free_at > t.cycle then set_waiting job ~node ~since ~retry_at:free_at
    else begin
      let energy = t.hop_energy.(edge) in
      if Node.draw t.nodes.(node) ~cycle:t.cycle ~energy_pj:energy then begin
        t.communication_energy <- t.communication_energy +. energy;
        t.hops <- t.hops + 1;
        clear_lock t node;
        let until = t.cycle + t.serialization_cycles in
        t.link_busy.(edge) <- until;
        t.nodes.(node).Node.occupancy <- t.nodes.(node).Node.occupancy - 1;
        t.nodes.(next_hop).Node.occupancy <- t.nodes.(next_hop).Node.occupancy + 1;
        emit t (Trace.Packet_sent { job = job.Job.id; src = node; dst = next_hop; cycle = t.cycle });
        job.Job.phase <-
          Job.In_transit { src = node; dst = next_hop; edge; until; attempt = 1 }
      end
      else kill_node t node
    end
  end

let try_route t job ~node ~since =
  if t.nodes.(node).Node.offline_until > t.cycle then
    (* the node is rebooting: its buffered jobs wait out the brown-out *)
    set_waiting job ~node ~since ~retry_at:t.nodes.(node).Node.offline_until
  else
  match t.table with
  | None -> set_waiting job ~node ~since ~retry_at:t.next_frame
  | Some table -> begin
    (* finished jobs are retired at act completion, so an act remains *)
    let module_index = Job.needed_module job in
    match Routing_table.get table ~node ~module_index with
    | Routing_table.Deliver_here -> start_computation t job ~node ~module_index ~since
    | Routing_table.Forward { next_hop; destination = _ } ->
      start_transmission t job ~node ~next_hop ~since
    | Routing_table.Unreachable ->
      if duplicate_reachable t ~node ~module_index then
        (* the table predates recent level changes; wait for a refresh *)
        set_waiting job ~node ~since ~retry_at:t.next_frame
      else die t (Metrics.Module_unreachable { module_index; from_node = node })
  end

(* The CRC at the receiver failed: the delivered payload is junk, but
   the sender still holds the authoritative copy, and the missing ACK
   triggers a bounded retransmission billed to both endpoints like any
   other hop.  Once the budget is exhausted the packet waits at the
   sender for the next control frame and re-routes. *)
let handle_corruption t cell ~src ~dst ~edge ~attempt =
  let job = cell.Jobs.job in
  t.packets_corrupted <- t.packets_corrupted + 1;
  emit t
    (Trace.Packet_corrupted { job = job.Job.id; src; dst; attempt; cycle = t.cycle });
  t.nodes.(dst).Node.occupancy <- t.nodes.(dst).Node.occupancy - 1;
  if not (node_alive t src) then begin
    (* the sender depleted while the corrupt copy was in flight: the
       authoritative payload died with it *)
    Jobs.remove t.jobs cell;
    t.jobs_lost <- t.jobs_lost + 1;
    emit t (Trace.Job_lost { job = job.Job.id; node = src; cycle = t.cycle });
    die t (Metrics.Job_lost_to_node_death { node = src; job = job.Job.id })
  end
  else begin
    t.nodes.(src).Node.occupancy <- t.nodes.(src).Node.occupancy + 1;
    set_waiting job ~node:src ~since:t.cycle ~retry_at:t.cycle;
    if attempt > t.max_retransmissions then begin
      t.packets_dropped <- t.packets_dropped + 1;
      emit t (Trace.Packet_dropped { job = job.Job.id; src; dst; cycle = t.cycle });
      set_waiting job ~node:src ~since:t.cycle ~retry_at:t.next_frame
    end
    else if t.nodes.(src).Node.offline_until > t.cycle || not (link_alive t edge) then
      set_waiting job ~node:src ~since:t.cycle ~retry_at:t.next_frame
    else begin
      let energy = t.hop_energy.(edge) in
      if Node.draw t.nodes.(src) ~cycle:t.cycle ~energy_pj:energy then begin
        t.communication_energy <- t.communication_energy +. energy;
        t.hops <- t.hops + 1;
        t.retransmissions <- t.retransmissions + 1;
        t.nodes.(src).Node.occupancy <- t.nodes.(src).Node.occupancy - 1;
        t.nodes.(dst).Node.occupancy <- t.nodes.(dst).Node.occupancy + 1;
        let until = t.cycle + t.retransmit_delay in
        t.link_busy.(edge) <- until;
        emit t
          (Trace.Retransmission { job = job.Job.id; src; dst; attempt; cycle = t.cycle });
        job.Job.phase <- Job.In_transit { src; dst; edge; until; attempt = attempt + 1 }
      end
      else kill_node t src
    end
  end

let process_job t cell =
  let job = cell.Jobs.job in
  match job.Job.phase with
  | Job.Waiting { node; since; retry_at = _ } -> try_route t job ~node ~since
  | Job.Computing { node; until } ->
    assert (until <= t.cycle);
    Job.apply_act job;
    emit t
      (Trace.Act_completed
         {
           job = job.Job.id;
           node;
           module_index = t.nodes.(node).Node.module_index;
           cycle = t.cycle;
         });
    if Job.finished job then complete_job t cell
    else begin
      set_waiting job ~node ~since:t.cycle ~retry_at:t.cycle;
      try_route t job ~node ~since:t.cycle
    end
  | Job.In_transit { src; dst; edge; until; attempt } ->
    assert (until <= t.cycle);
    (* kill_node retires jobs flying to a dying node, so arrival implies
       a living receiver *)
    assert (node_alive t dst);
    if t.nodes.(dst).Node.offline_until > t.cycle then
      (* the receiver is rebooting: the packet sits on the wire until it
         comes back up *)
      job.Job.phase <-
        Job.In_transit { src; dst; edge; until = t.nodes.(dst).Node.offline_until; attempt }
    else begin
      let reception = t.reception_energy.(edge) in
      if
        reception > 0.
        && not (Node.draw t.nodes.(dst) ~cycle:t.cycle ~energy_pj:reception)
      then kill_node t dst (* the receiver died accepting the packet *)
      else begin
        t.communication_energy <- t.communication_energy +. reception;
        let corrupted =
          match t.plan with
          | None -> false
          | Some plan ->
            Fault_plan.corrupt_packet plan ~bits:t.packet_bits
              ~length_cm:t.edges.lengths.(edge)
        in
        if corrupted then handle_corruption t cell ~src ~dst ~edge ~attempt
        else begin
          set_waiting job ~node:dst ~since:t.cycle ~retry_at:t.cycle;
          try_route t job ~node:dst ~since:t.cycle
        end
      end
    end

(* Refill the engine's snapshot buffer in place: no array, list or
   record allocation in the steady state (locked ports are usually
   absent, and the failed-link list is maintained incrementally).  Both
   lists are delivered sorted so the controller's change check can compare
   them with plain (=); the descending id walk below conses locked
   ports in ascending (id, hop) order, each node holding at most one
   locked hop. *)
let build_snapshot t =
  let n = Array.length t.nodes in
  let levels = t.snapshot.Router.levels in
  let alive = t.snapshot.Router.alive in
  let battery_level = t.snapshot.Router.battery_level in
  for id = 0 to n - 1 do
    (* a browned-out node neither reports nor receives: the controller
       routes around it exactly as it would a dead one *)
    let available = node_available t id in
    alive.(id) <- available;
    let dropped =
      available
      && (match t.plan with None -> false | Some plan -> Fault_plan.drop_upload plan)
    in
    t.upload_dropped_now.(id) <- dropped;
    if dropped then begin
      (* degraded control plane: fall back to the last level heard and
         count how stale that report is *)
      t.uploads_dropped <- t.uploads_dropped + 1;
      t.staleness.(id) <- t.staleness.(id) + 1;
      t.staleness_total <- t.staleness_total + 1;
      if t.staleness.(id) > t.staleness_max then t.staleness_max <- t.staleness.(id);
      emit t (Trace.Upload_dropped { node = id; cycle = t.cycle });
      battery_level.(id) <- t.reported_level.(id)
    end
    else if available then begin
      let level = Node.level t.nodes.(id) ~cycle:t.cycle ~levels in
      t.reported_level.(id) <- level;
      t.staleness.(id) <- 0;
      battery_level.(id) <- level
    end
    else battery_level.(id) <- 0
  done;
  let rec locked id acc =
    if id < 0 then acc
    else begin
      let node = t.nodes.(id) in
      let acc =
        (* a deadlock report rides the status upload, so it is lost with
           it (and never sent while the node is offline) *)
        if (not alive.(id)) || t.upload_dropped_now.(id) then acc
        else
          match node.Node.locked_hop with
          | Some hop -> (id, hop) :: acc
          | None -> acc
      in
      locked (id - 1) acc
    end
  in
  t.snapshot.Router.locked_ports <- locked (n - 1) [];
  t.snapshot.Router.failed_links <- t.failed_links_sorted;
  t.snapshot

let wake_waiting_jobs t =
  let wake job =
    match job.Job.phase with
    | Job.Waiting { node; since; retry_at } ->
      if retry_at > t.cycle then set_waiting job ~node ~since ~retry_at:t.cycle
    | Job.Computing _ | Job.In_transit _ -> ()
  in
  Jobs.iter t.jobs ~f:wake

let record_timeline_sample t =
  match t.timeline with
  | None -> ()
  | Some timeline ->
    let alive = ref 0 and soc_sum = ref 0. and soc_min = ref infinity in
    let remaining = ref 0. and locked = ref 0 in
    Array.iter
      (fun node ->
        Node.sync node ~cycle:t.cycle;
        let soc = Etx_battery.Battery.soc node.Node.battery in
        remaining := !remaining +. Node.remaining_pj node;
        if not (Node.is_dead node) then begin
          incr alive;
          soc_sum := !soc_sum +. soc;
          if soc < !soc_min then soc_min := soc
        end;
        if node.Node.locked_hop <> None then incr locked)
      t.nodes;
    Timeline.record timeline
      {
        Timeline.cycle = t.cycle;
        jobs_completed = t.jobs_completed;
        jobs_in_flight = Jobs.length t.jobs;
        alive_nodes = !alive;
        mean_soc = (if !alive = 0 then 0. else !soc_sum /. float_of_int !alive);
        min_soc = (if !alive = 0 then 0. else !soc_min);
        total_remaining_pj = !remaining;
        deadlocked_ports = !locked;
      }

(* The router workspace rotates a pair of tables across recomputes, so
   the table the fabric holds stays valid for exactly one further
   recompute.  When a download is lost, copy the current entries into an
   engine-owned buffer and route on that, or the "stale" reference would
   be silently overwritten two recomputes later. *)
let preserve_stale_table t =
  match t.table with
  | None -> () (* no table was ever delivered; jobs keep waiting *)
  | Some current ->
    let stale =
      match t.stale_table with
      | Some stale -> stale
      | None ->
        let stale =
          Routing_table.create
            ~node_count:(Routing_table.node_count current)
            ~module_count:(Routing_table.module_count current)
        in
        t.stale_table <- Some stale;
        stale
    in
    if current != stale then begin
      for node = 0 to Routing_table.node_count current - 1 do
        for module_index = 0 to Routing_table.module_count current - 1 do
          Routing_table.set stale ~node ~module_index
            (Routing_table.get current ~node ~module_index)
        done
      done;
      t.table <- Some stale
    end

(* One audit pass: sweep the live state and report every violated
   invariant into the recorder.  Strictly read-only — in particular it
   must never call [Node.sync]: the thin-film diffusion step is not
   split-invariant, so forcing a sync here would perturb the simulation
   and break the audited-run ≡ unaudited-run guarantee. *)
let audit_pass t recorder =
  let cycle = t.cycle in
  let add ?node invariant detail =
    Obs.inc obs_audit_violations;
    Audit.record recorder { Audit.cycle; node; invariant; detail }
  in
  let n = Array.length t.nodes in
  (* batteries: per-cell accounting, monotone discharge, clock sanity *)
  let prev = Audit.prev_remaining recorder ~node_count:n in
  let delivered_sum = ref 0. in
  for id = 0 to n - 1 do
    let node = t.nodes.(id) in
    let battery = node.Node.battery in
    let capacity = Etx_battery.Battery.capacity_pj battery in
    let remaining = Etx_battery.Battery.remaining_pj battery in
    let delivered = Etx_battery.Battery.delivered_pj battery in
    delivered_sum := !delivered_sum +. delivered;
    if Float.abs (delivered +. remaining -. capacity) > 1e-6 *. capacity then
      add ~node:id "battery-accounting"
        (Printf.sprintf "delivered %.3f + remaining %.3f != capacity %.3f pJ"
           delivered remaining capacity);
    if remaining > prev.(id) +. (1e-9 *. capacity) then
      add ~node:id "battery-monotone"
        (Printf.sprintf "remaining energy rose between audits: %.6f -> %.6f pJ"
           prev.(id) remaining);
    prev.(id) <- remaining;
    if node.Node.synced_to > cycle then
      add ~node:id "clock"
        (Printf.sprintf "battery synced to cycle %d beyond engine cycle %d"
           node.Node.synced_to cycle)
  done;
  (* energy ledger: everything the node batteries delivered must show up
     in the metered accumulators.  A killing draw can deliver energy the
     engine never meters (the act it paid for did not happen), so the
     ledger is allowed one worst-case draw of slack per node death. *)
  let metered = t.computation_energy +. t.communication_energy +. t.upload_energy in
  let max_draw = ref t.report_energy in
  Array.iter (fun e -> if e > !max_draw then max_draw := e) t.act_energy;
  Array.iter (fun e -> if e > !max_draw then max_draw := e) t.hop_energy;
  Array.iter (fun e -> if e > !max_draw then max_draw := e) t.reception_energy;
  let tol = 1e-6 *. (metered +. 1.) in
  let diff = !delivered_sum -. metered in
  if diff < -.tol || diff > tol +. (float_of_int t.node_deaths *. !max_draw) then
    add "energy-ledger"
      (Printf.sprintf
         "batteries delivered %.3f pJ but accumulators metered %.3f pJ (%d node deaths)"
         !delivered_sum metered t.node_deaths);
  (* routing table: fresh entries reference only alive, adjacent, living
     links whose destination really hosts the wanted module.  A stale
     table (preserved across a dropped download) legitimately references
     state the controller has not learned about, so it is skipped. *)
  let table_is_stale =
    match (t.table, t.stale_table) with
    | Some current, Some stale -> current == stale
    | _ -> false
  in
  (match t.table with
  | Some table when not table_is_stale ->
    let modules = Routing_table.module_count table in
    for node = 0 to n - 1 do
      if node_available t node then
        for module_index = 0 to modules - 1 do
          match Routing_table.get table ~node ~module_index with
          | Routing_table.Deliver_here | Routing_table.Unreachable -> ()
          | Routing_table.Forward { next_hop; destination } ->
            let edge = Digraph.edge_id t.edges ~src:node ~dst:next_hop in
            if next_hop < 0 || next_hop >= n || destination < 0 || destination >= n
            then
              add ~node "routing-table"
                (Printf.sprintf "module %d: forward out of range (%d via %d)"
                   (module_index + 1) destination next_hop)
            else if edge < 0 then
              add ~node "routing-table"
                (Printf.sprintf "module %d: next hop %d is not adjacent"
                   (module_index + 1) next_hop)
            else if not (link_alive t edge) then
              add ~node "routing-table"
                (Printf.sprintf "module %d: link to %d is dead" (module_index + 1)
                   next_hop)
            else if not (node_available t next_hop) then
              add ~node "routing-table"
                (Printf.sprintf "module %d: next hop %d is dead or offline"
                   (module_index + 1) next_hop)
            else if
              Mapping.module_of_node t.config.mapping ~node:destination
              <> module_index
            then
              add ~node "routing-table"
                (Printf.sprintf "module %d: destination %d hosts module %d"
                   (module_index + 1) destination
                   (Mapping.module_of_node t.config.mapping ~node:destination + 1))
        done
    done
  | Some _ | None -> ());
  (* jobs: lifecycle validity, retransmission budget, occupancy census *)
  let expected_occupancy = Array.make n 0 in
  Jobs.iter t.jobs ~f:(fun job ->
      let jid = job.Job.id in
      if jid < 0 || jid >= t.next_job_id then
        add "job-lifecycle" (Printf.sprintf "job %d has an unissued id" jid);
      let plan_length = Workload.plan_length job.Job.workload in
      if job.Job.step < 0 || job.Job.step > plan_length then
        add "job-lifecycle"
          (Printf.sprintf "job %d step %d outside plan of %d acts" jid job.Job.step
             plan_length);
      (match job.Job.phase with
      | Job.Waiting { node; since; retry_at = _ } ->
        if node < 0 || node >= n then
          add "job-lifecycle" (Printf.sprintf "job %d waits at invalid node %d" jid node)
        else if since > cycle then
          add ~node "job-lifecycle"
            (Printf.sprintf "job %d waiting since future cycle %d" jid since)
      | Job.Computing { node; until = _ } ->
        if node < 0 || node >= n then
          add "job-lifecycle"
            (Printf.sprintf "job %d computes at invalid node %d" jid node)
      | Job.In_transit { src; dst; edge; until = _; attempt } ->
        if src < 0 || src >= n || dst < 0 || dst >= n then
          add "job-lifecycle"
            (Printf.sprintf "job %d in transit on invalid link %d->%d" jid src dst)
        else if Digraph.edge_id t.edges ~src ~dst <> edge then
          add ~node:src "job-lifecycle"
            (Printf.sprintf "job %d in transit over %d->%d, which is not its edge %d" jid
               src dst edge);
        if attempt < 1 || attempt > t.max_retransmissions + 1 then
          add "retransmission-budget"
            (Printf.sprintf "job %d on attempt %d with budget %d" jid attempt
               t.max_retransmissions));
      let where = Job.current_node job in
      if where >= 0 && where < n then
        expected_occupancy.(where) <- expected_occupancy.(where) + 1);
  for id = 0 to n - 1 do
    if t.nodes.(id).Node.occupancy <> expected_occupancy.(id) then
      add ~node:id "occupancy-census"
        (Printf.sprintf "node holds %d jobs but occupancy counter says %d"
           expected_occupancy.(id) t.nodes.(id).Node.occupancy)
  done;
  (* global counters *)
  let in_flight = Jobs.length t.jobs in
  if t.next_job_id <> t.jobs_completed + t.jobs_lost + in_flight then
    add "job-census"
      (Printf.sprintf "%d launched != %d completed + %d lost + %d in flight"
         t.next_job_id t.jobs_completed t.jobs_lost in_flight);
  if t.jobs_verified > t.jobs_completed then
    add "job-census"
      (Printf.sprintf "%d verified > %d completed" t.jobs_verified t.jobs_completed);
  if t.packets_dropped > t.packets_corrupted then
    add "retransmission-budget"
      (Printf.sprintf "%d drops > %d corruptions" t.packets_dropped t.packets_corrupted);
  if t.last_frame > cycle then
    add "clock" (Printf.sprintf "last frame at %d beyond engine cycle %d" t.last_frame cycle)

let maybe_audit t =
  match t.audit with
  | None -> ()
  | Some recorder ->
    if t.status = Running && Audit.frame_tick recorder then audit_pass t recorder

let run_frame t =
  t.frames <- t.frames + 1;
  Obs.inc obs_frames;
  apply_link_failures t;
  apply_fault_events t;
  record_timeline_sample t;
  (* every report slot costs the same, so count the successful draws
     and charge the accumulator once: one boxed-float write per frame
     instead of one per node *)
  let paid = ref 0 in
  for id = 0 to Array.length t.nodes - 1 do
    let node = t.nodes.(id) in
    if t.status = Running && not (Node.is_dead node) && node.Node.offline_until <= t.cycle
    then begin
      if Node.draw node ~cycle:t.cycle ~energy_pj:t.report_energy then incr paid
      else kill_node t node.Node.id
    end
  done;
  if !paid > 0 then
    t.upload_energy <- t.upload_energy +. (float_of_int !paid *. t.report_energy);
  if t.status = Running then begin
    let snapshot = build_snapshot t in
    let elapsed = t.cycle - t.last_frame in
    t.last_frame <- t.cycle;
    match Controller.on_frame t.controller ~elapsed_cycles:elapsed ~snapshot with
    | Controller.Exhausted ->
      emit t (Trace.Controller_failover { survivors = 0; cycle = t.cycle });
      die t Metrics.Controllers_exhausted
    | Controller.Table_updated table ->
      let dropped =
        match t.plan with None -> false | Some plan -> Fault_plan.drop_download plan
      in
      if dropped then begin
        (* the controller billed a download that never arrived: nodes
           keep routing on whatever table they had *)
        t.downloads_dropped <- t.downloads_dropped + 1;
        emit t (Trace.Download_dropped { cycle = t.cycle });
        emit t (Trace.Frame_run { cycle = t.cycle; recomputed = true });
        preserve_stale_table t
      end
      else begin
        t.table <- Some table;
        emit t (Trace.Frame_run { cycle = t.cycle; recomputed = true });
        wake_waiting_jobs t
      end
    | Controller.No_change -> emit t (Trace.Frame_run { cycle = t.cycle; recomputed = false })
  end;
  maybe_audit t

let run_frames t ~count =
  if t.started then invalid_arg "Engine.run_frames: engine already ran";
  for _ = 1 to count do
    if t.status = Running then begin
      run_frame t;
      t.cycle <- t.cycle + t.config.frame_period_cycles;
      t.next_frame <- t.cycle
    end
  done

let finalize t reason =
  Array.iter (fun node -> Node.sync node ~cycle:t.cycle) t.nodes;
  let stranded = ref 0. and residual = ref 0. in
  Array.iter
    (fun node ->
      let remaining = Node.remaining_pj node in
      if Node.is_dead node then stranded := !stranded +. remaining
      else residual := !residual +. remaining)
    t.nodes;
  {
    Metrics.jobs_completed = t.jobs_completed;
    jobs_verified = t.jobs_verified;
    jobs_lost = t.jobs_lost;
    lifetime_cycles = t.cycle;
    death_reason = reason;
    computation_energy_pj = t.computation_energy;
    communication_energy_pj = t.communication_energy;
    control_upload_energy_pj = t.upload_energy;
    control_download_energy_pj = Controller.download_energy_pj t.controller;
    controller_compute_energy_pj = Controller.compute_energy_pj t.controller;
    stranded_node_energy_pj = !stranded;
    residual_node_energy_pj = !residual;
    stranded_controller_energy_pj = Controller.stranded_energy_pj t.controller;
    residual_controller_energy_pj = Controller.residual_energy_pj t.controller;
    node_deaths = t.node_deaths;
    links_failed = t.links_failed;
    controller_deaths = Controller.deaths t.controller;
    recomputations = Controller.recomputations t.controller;
    frames = t.frames;
    deadlocks_reported = t.deadlocks_reported;
    deadlocks_recovered = t.deadlocks_recovered;
    hops_total = t.hops;
    acts_total = t.acts;
    jobs_launched = t.next_job_id;
    retransmissions = t.retransmissions;
    packets_corrupted = t.packets_corrupted;
    packets_dropped = t.packets_dropped;
    link_wearouts = t.link_wearouts;
    brownouts = t.brownouts;
    uploads_dropped = t.uploads_dropped;
    downloads_dropped = t.downloads_dropped;
    stale_reports_total = t.staleness_total;
    stale_reports_max = t.staleness_max;
    computation_energy_by_module_pj = Array.copy t.computation_by_module;
    job_latency_mean_cycles =
      (if t.jobs_completed = 0 then 0. else Etx_util.Stats.mean t.latency_stats);
    job_latency_max_cycles = t.latency_max;
  }

(* FIFO fairness: always serve the earliest-launched ready job first.
   Processing only ever changes the processed job's own ready time (and
   may remove cells or append fresh launches at the tail), so earlier
   cells that were not ready stay not ready and the cursor can advance
   instead of rescanning from the head after every event.  Only when
   the cursor's cell is removed (completion, node death) does the scan
   restart from the head - exactly the semantics of the previous
   List.find_opt loop, without its quadratic rescans. *)
let rec drain_from t cell =
  if t.status = Running then begin
    match cell with
    | None -> ()
    | Some c ->
      if not c.Jobs.live then drain_from t c.Jobs.next
      else if Job.ready_at c.Jobs.job <= t.cycle then begin
        process_job t c;
        if c.Jobs.live then drain_from t cell else drain_from t t.jobs.Jobs.head
      end
      else drain_from t c.Jobs.next
  end

let drain_ready t = drain_from t t.jobs.Jobs.head

(* Frame 0 establishes the first routing tables, then the workload
   starts.  Idempotent: a restored engine arrives already started. *)
let start t =
  if not t.started then begin
    t.started <- true;
    run_frame t;
    t.next_frame <- t.config.frame_period_cycles;
    let rec launch_initial remaining =
      if remaining > 0 && t.status = Running then begin
        launch_job t;
        launch_initial (remaining - 1)
      end
    in
    launch_initial t.config.concurrent_jobs;
    drain_ready t
  end

type run_outcome = Paused | Finished of Metrics.t

let run_until t ~cycle:stop =
  if t.finished then invalid_arg "Engine.run_until: engine already finished";
  start t;
  let rec loop () =
    match t.status with
    | Dead reason ->
      t.finished <- true;
      Finished (finalize t reason)
    | Running ->
      let job_next = Jobs.earliest_ready t.jobs in
      let next = Int.min job_next t.next_frame in
      if next >= t.config.max_cycles then begin
        t.cycle <- t.config.max_cycles;
        die t Metrics.Cycle_limit;
        loop ()
      end
      else if next > stop then
        (* pause before mutating anything: a checkpoint taken here and
           resumed re-derives exactly this [next], so an interrupted run
           is bit-identical to an uninterrupted one *)
        Paused
      else begin
        assert (next > t.cycle || job_next <= t.cycle);
        t.cycle <- Int.max t.cycle next;
        if t.cycle >= t.next_frame then begin
          run_frame t;
          t.next_frame <- t.next_frame + t.config.frame_period_cycles
        end;
        drain_ready t;
        loop ()
      end
  in
  loop ()

let run t =
  if t.started then invalid_arg "Engine.run: engine already ran";
  match run_until t ~cycle:max_int with
  | Finished metrics -> metrics
  | Paused -> assert false (* unreachable: no cycle exceeds max_int *)

let simulate ?trace_capacity ?record_timeline config =
  run (create ?trace_capacity ?record_timeline config)

let trace t = t.trace
let timeline t = t.timeline
let cycle t = t.cycle

let enable_audit t recorder = t.audit <- Some recorder

let audit_now t recorder = audit_pass t recorder

(* Deliberately desynchronize counters that the auditor cross-checks:
   the occupancy census and the energy ledger both break.  Test hook for
   the corrupted-state detection path; never called by the simulator. *)
let corrupt_state_for_test t =
  t.nodes.(0).Node.occupancy <- t.nodes.(0).Node.occupancy + 1;
  t.computation_energy <- t.computation_energy +. 1e6

(* ------------------------------------------------------------------ *)
(* Checkpoint / restore.                                              *)
(*                                                                    *)
(* The engine is deterministic in its config, and the fingerprint     *)
(* names everything in the config that shapes a run.  A checkpoint    *)
(* therefore names a run and a cycle: [restore] creates the engine    *)
(* afresh and replays it to that cycle.  A witness, a digest of the   *)
(* counters and every node's charge there, refuses a replay that does *)
(* not land where the checkpointed run stood.                         *)
(* ------------------------------------------------------------------ *)

(* [Some size] for the fabric every CLI and wire config runs on, a
   square mesh of 1 cm links: the edge count matches, and every edge is
   a distinct 1 cm link between grid neighbours *)
let square_mesh_side (topology : Etx_graph.Topology.t) =
  match topology.Etx_graph.Topology.kind with
  | Etx_graph.Topology.Mesh { rows = side; cols } when cols = side ->
    let graph = topology.Etx_graph.Topology.graph in
    if
      Digraph.node_count graph = side * side
      && Digraph.edge_count graph = 4 * side * (side - 1)
      && Digraph.fold_edges graph ~init:true ~f:(fun ok ~src ~dst ~length ->
             let d = abs (src - dst) in
             ok && length = 1. && (d = side || (d = 1 && src / side = dst / side)))
    then Some side
    else None
  | _ -> None

let config_fingerprint (config : Config.t) =
  let digest v = String.sub (Digest.to_hex (Digest.string v)) 0 16 in
  let battery_kind = function
    | Etx_battery.Battery.Ideal -> "ideal"
    | Etx_battery.Battery.Thin_film p when p = Etx_battery.Battery.default_thin_film ->
      "thin-film"
    | Etx_battery.Battery.Thin_film p -> "thin-film#" ^ digest (Marshal.to_string p [])
  in
  let fault =
    match config.Config.fault with
    | None -> "none"
    | Some s -> Fault_spec.fingerprint s
  in
  (* only a battery-powered bank is spelled out, so every run on the
     single infinite controller keeps the fingerprint it always had *)
  let controllers =
    match config.Config.controllers with
    | Config.Infinite_controller -> ""
    | Config.Battery_controllers { count } -> Printf.sprintf ";ctl=%d" count
  in
  (* The same for every other field that shapes a run: each is spelled
     out only off the value every CLI and wire config has (Config.make's
     default, the calibrated round-robin entry, and a square mesh of 1 cm
     links with the calibrated control medium for its size), so every
     fingerprint reachable from those keeps its form. *)
  let c = config in
  let mapping = Mapping.assignment c.Config.mapping in
  let mesh_side = square_mesh_side c.Config.topology in
  let extras =
    String.concat ""
      [
        (if mapping = Mapping.assignment (Mapping.checkerboard c.Config.topology) then ""
         else
           ";map=" ^ digest (String.concat "," (Array.to_list (Array.map string_of_int mapping))));
        (match c.Config.job_source with
        | Config.Round_robin_entry -> ""
        | Config.Fixed_entry node -> Printf.sprintf ";entry=%d" node);
        (if c.Config.key_hex = Config.default_key_hex then "" else ";key=" ^ c.Config.key_hex);
        (match c.Config.max_jobs with None -> "" | Some n -> Printf.sprintf ";maxjobs=%d" n);
        (* the topology beyond its edge count: the directed edges and
           their lengths are all of it the engine reads *)
        (match mesh_side with
        | Some _ -> ""
        | None ->
          let edges =
            Digraph.fold_edges c.Config.topology.Etx_graph.Topology.graph ~init:[]
              ~f:(fun acc ~src ~dst ~length -> (src, dst, length) :: acc)
          in
          ";topo=" ^ digest (Marshal.to_string edges [ Marshal.No_sharing ]));
        (if
           c.Config.computation = Computation.aes
           && c.Config.computation_cycles = Computation.aes_cycles_per_act
           && c.Config.reception_energy_fraction = 0.8
         then ""
         else
           ";phys="
           ^ digest
               (Marshal.to_string
                  ( Config.packet,
                    Config.line,
                    c.Config.computation,
                    c.Config.computation_cycles,
                    Config.link_width_bits,
                    c.Config.reception_energy_fraction )
                  [ Marshal.No_sharing ]));
        (* the control medium's length; the fixed payloads and deadlock
           threshold print beside it, so the fingerprints of platforms
           off the square mesh keep their form *)
        (if
           Option.map (fun mesh_size -> Config.mesh_control_line_cm ~mesh_size) mesh_side
           = Some c.Config.control_line_length_cm
         then ""
         else
           Printf.sprintf ";tdma=%d/%d/%d/%h;deadlock=%d" Config.control_medium_width_bits
             Config.report_bits Config.instruction_bits c.Config.control_line_length_cm
             Config.deadlock_threshold_cycles);
        (* the routing kernel: the tables of the policies that left
           Floyd-Warshall for the exact searches changed (maximin's
           lexicographic Floyd-Warshall gave way to shortest-widest
           searches; inverse-level's factors became whole numbers,
           so its exact ties no longer split on rounding) *)
        (match c.Config.policy.Etx_routing.Policy.algorithm with
        | Etx_routing.Policy.Maximin_residual
        | Etx_routing.Policy.Weighted Etx_routing.Weight.Inverse_level -> ";rk=2"
        | Etx_routing.Policy.Weighted _ -> "");
      ]
  in
  Printf.sprintf
    "etsim-ckpt-v%d;n=%d;m=%d;edges=%d;policy=%s/%d;seed=%d;frame=%d;max=%d;\
     jobs=%d;batt=%s/%s/%s;wl=%s;fault=%s;retx=%d;ack=%d;sched=%d%s%s"
    Checkpoint.version (Config.node_count config) config.Config.module_count
    (Digraph.edge_count config.Config.topology.Etx_graph.Topology.graph)
    (Etx_routing.Policy.fingerprint config.Config.policy)
    config.Config.policy.Etx_routing.Policy.levels config.Config.seed
    config.Config.frame_period_cycles config.Config.max_cycles
    config.Config.concurrent_jobs
    (battery_kind config.Config.battery_kind)
    (Fault_spec.exact_float config.Config.battery_capacity_pj)
    (Fault_spec.exact_float config.Config.battery_capacity_variation)
    (String.concat "+"
       (List.map (Workload.fingerprint ~key_hex:config.Config.key_hex) config.Config.workloads))
    fault config.Config.max_retransmissions Config.ack_timeout_cycles
    (List.length config.Config.link_failure_schedule)
    controllers extras

module W = Checkpoint.Writer
module R = Checkpoint.Reader

let witness t =
  let w = W.create () in
  List.iter (W.int w)
    [
      t.cycle; t.next_job_id; t.jobs_completed; t.jobs_verified; t.jobs_lost;
      t.node_deaths; t.links_failed; t.frames; t.deadlocks_reported;
      t.deadlocks_recovered; t.hops; t.acts; t.latency_max; t.retransmissions;
      t.packets_corrupted; t.packets_dropped; t.link_wearouts; t.brownouts;
      t.uploads_dropped; t.downloads_dropped; t.staleness_total; t.staleness_max;
      Controller.recomputations t.controller; Controller.deaths t.controller;
    ];
  List.iter (W.float w)
    [
      t.computation_energy; t.communication_energy; t.upload_energy;
      Controller.download_energy_pj t.controller;
      Controller.compute_energy_pj t.controller;
    ];
  W.float_array w t.computation_by_module;
  Array.iter
    (fun node ->
      let c = Battery.dump node.Node.battery in
      W.int w (Bool.to_int c.Battery.dead);
      List.iter (W.float w)
        [
          c.Battery.delivered_pj; c.Battery.available_pj; c.Battery.bound_pj;
          c.Battery.load_power;
        ])
    t.nodes;
  Digest.to_hex (Digest.bytes (W.contents w))

let checkpoint t =
  if not t.started then invalid_arg "Engine.checkpoint: engine has not started";
  if t.finished then invalid_arg "Engine.checkpoint: engine already finished";
  (match t.status with
  | Dead _ -> invalid_arg "Engine.checkpoint: platform already dead"
  | Running -> ());
  let w = W.create () in
  W.string w (config_fingerprint t.config);
  W.int w t.cycle;
  W.string w (witness t);
  W.contents w

let restore ?trace_capacity ?(record_timeline = false) config payload =
  let r = R.create payload in
  let found = R.string r in
  let expected = config_fingerprint config in
  if found <> expected then
    raise (Checkpoint.Error (Checkpoint.Fingerprint_mismatch { expected; found }));
  let cycle, stored =
    try
      let cycle = R.int r in
      let stored = R.string r in
      R.expect_end r;
      (cycle, stored)
    with Checkpoint.Error (Checkpoint.Malformed _) ->
      raise
        (Checkpoint.Error
           (Checkpoint.Malformed
              "not a (fingerprint, cycle, witness) payload; files of the engine \
               state codec are no longer read"))
  in
  (* replay untraced: the recorders of a restored engine start empty *)
  let t = create config in
  (match run_until t ~cycle with
  | Paused -> ()
  | Finished _ -> raise (Checkpoint.Error (Checkpoint.Run_ended { cycle; ended = t.cycle })));
  if witness t <> stored then raise (Checkpoint.Error (Checkpoint.Witness_mismatch { cycle }));
  {
    t with
    trace = Option.map (fun capacity -> Trace.create ~capacity) trace_capacity;
    timeline = (if record_timeline then Some (Timeline.create ()) else None);
  }

let checkpoint_to_file t path = Checkpoint.write_file path (checkpoint t)

let restore_from_file ?trace_capacity ?record_timeline config path =
  restore ?trace_capacity ?record_timeline config (Checkpoint.read_file path)

let battery_socs t =
  Array.map (fun node -> Etx_battery.Battery.soc node.Node.battery) t.nodes

let alive_mask t = Array.map (fun node -> not (Node.is_dead node)) t.nodes
