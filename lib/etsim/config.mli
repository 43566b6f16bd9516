(** Simulation configuration for et_sim.

    A config holds what a run varies: topology and mapping, routing
    policy, the computation energy table, the node batteries, the
    control frame period and medium length, faults and hardening, the
    controller bank, and the job workload.  Defaults are the calibrated
    paper values (see DESIGN.md Sec 5); [make] validates cross-field
    consistency.  The rest of the platform is fixed by the paper, so it
    is a constant here, not a field: the textile lines and packet, the
    TDMA medium's payloads, the node buffers and the controller cells
    (see {!section-platform}). *)

type job_source =
  | Fixed_entry of int
      (** every job enters the mesh at this node (the sensor block of
          Fig 3(a) hands plaintexts to one edge of the encryption
          region) *)
  | Round_robin_entry  (** jobs enter at living nodes in rotation *)

type controllers =
  | Infinite_controller
      (** Sec 7.1-7.2: one controller with an infinite energy source *)
  | Battery_controllers of { count : int }
      (** Sec 7.3: a bank of controllers with their own thin-film
          batteries; standbys are powered off and take over on death *)

type t = {
  topology : Etx_graph.Topology.t;
  mapping : Etx_routing.Mapping.t;
  module_count : int;
  policy : Etx_routing.Policy.t;
  (* energy models *)
  computation : Etx_energy.Computation.t;
  computation_cycles : int array;  (** latency of one act, per module *)
  reception_energy_fraction : float;
      (** receiver-side energy per hop, as a fraction of the
          transmitter's packet energy (line termination and input-buffer
          charging); calibration knob, see DESIGN.md Sec 5 *)
  (* batteries *)
  battery_kind : Etx_battery.Battery.kind;
  battery_capacity_pj : float;
  battery_capacity_variation : float;
      (** relative spread of per-cell capacity: each node's battery is
          drawn uniformly from [capacity * (1 - v), capacity * (1 + v)].
          The paper notes identical thin-film cells vary by up to 20 %
          (Sec 5.1.3); experiments use v = 0.1 and average over seeds *)
  (* TDMA control mechanism (Sec 5.3, Fig 4) *)
  frame_period_cycles : int;  (** control frame recurrence *)
  control_line_length_cm : float;  (** electrical length of the medium *)
  link_failure_schedule : (int * int * int) list;
      (** wear-and-tear injection: [(cycle, a, b)] breaks the textile
          interconnect between nodes [a] and [b] (both directions) at the
          given cycle.  The paper motivates the move from a bus to a
          network with exactly this failure mode (Sec 1).  [make]
          rejects out-of-range ids, self-loops, non-adjacent pairs and
          duplicate (undirected) entries *)
  fault : Etx_fault.Spec.t option;
      (** stochastic fault environment (wear-out, bit errors,
          brown-outs, control-frame loss); [None] disables fault
          injection entirely and reproduces the fault-free engine bit
          for bit *)
  max_retransmissions : int;
      (** data-plane hardening: retransmission budget per hop after CRC
          failures; once exhausted the packet waits for the next control
          frame before re-routing *)
  (* controllers (Sec 7.3) *)
  controllers : controllers;
  (* workload *)
  workloads : Workload.t list;
      (** the applications sharing the platform, assigned to jobs in
          rotation (default: AES-128 encryption only).  All must agree on
          the module count *)
  concurrent_jobs : int;  (** jobs kept in flight (Sec 7.1 uses 1) *)
  job_source : job_source;
  key_hex : string;  (** AES key shared by the platform *)
  seed : int;  (** PRNG seed for plaintexts and entry rotation *)
  (* safety stops *)
  max_cycles : int;
  max_jobs : int option;
}

val default_key_hex : string
(** The AES key {!make} gives the platform by default. *)

(** {1:platform The fixed platform}

    The paper's platform, the same in every run (DESIGN.md Sec 5). *)

val packet : Etx_energy.Packet.t
(** The 261-bit packet, {!Etx_energy.Packet.aes_default}. *)

val line : Etx_energy.Transmission_line.t
(** The textile lines of [6] (Sec 5.1.2), {!Etx_energy.Transmission_line.paper_lines}. *)

val link_width_bits : int
(** 32: the data-link serialization width. *)

val control_medium_width_bits : int
(** 2: the narrow shared TDMA medium (Sec 5.3, Fig 4). *)

val report_bits : int
(** 4: upload payload per node per frame (Fig 4). *)

val instruction_bits : int
(** 8: download payload per changed routing-table entry (Fig 4). *)

val deadlock_threshold_cycles : int
(** 1000: a job stuck this long is reported as deadlocked (Sec 5.3). *)

val ack_timeout_cycles : int
(** 25: extra cycles a retransmitted hop waits for the missing ACK
    before the wire is re-driven. *)

val buffer_capacity : int
(** 2: the per-node job buffer, for concurrency. *)

val controller_battery_kind : Etx_battery.Battery.kind
(** The calibrated thin-film cell of every battery-powered controller
    (Sec 7.3). *)

val controller_battery_capacity_pj : float
(** 60000 pJ, the node cell's budget (Sec 7.3). *)

(** {1 Configs} *)

val make :
  ?policy:Etx_routing.Policy.t ->
  ?mapping:Etx_routing.Mapping.t ->
  ?computation:Etx_energy.Computation.t ->
  ?computation_cycles:int array ->
  ?reception_energy_fraction:float ->
  ?battery_kind:Etx_battery.Battery.kind ->
  ?battery_capacity_pj:float ->
  ?battery_capacity_variation:float ->
  ?frame_period_cycles:int ->
  ?control_line_length_cm:float ->
  ?link_failure_schedule:(int * int * int) list ->
  ?fault:Etx_fault.Spec.t ->
  ?max_retransmissions:int ->
  ?controllers:controllers ->
  ?workloads:Workload.t list ->
  ?concurrent_jobs:int ->
  ?job_source:job_source ->
  ?key_hex:string ->
  ?seed:int ->
  ?max_cycles:int ->
  ?max_jobs:int option ->
  topology:Etx_graph.Topology.t ->
  unit ->
  t
(** Defaults: EAR policy, checkerboard mapping over [topology], the AES
    computation table, thin-film batteries of 60000 pJ, 500-cycle frames
    on a 10 cm control medium, an infinite controller, one job in flight
    entering at node 0, AES-128 with a fixed published test key.
    @raise Invalid_argument on inconsistent settings. *)

val node_count : t -> int

val mesh_control_line_cm : mesh_size:int -> float
(** The control medium's length on a [mesh_size]-square mesh: 10 cm for
    the 4x4 region, growing 1.25 cm per mesh step (the calibrated value;
    {!make}'s default is the 4x4 one). *)

val control_bit_energy_pj : t -> float
(** Energy to move one bit across the shared control medium. *)

val report_energy_pj : t -> float
(** Upload cost one node pays per frame. *)

val instruction_energy_pj : t -> float
(** Download cost the controller pays per changed routing-table entry. *)

val recompute_cycles : t -> int
(** Cycles one routing recomputation occupies the controller: K, for a
    K-wide hardware relaxation engine retiring one Floyd-Warshall source
    per cycle.  The controller draws
    {!Etx_energy.Controller_power.dynamic_pj_per_cycle} during each. *)

val reception_energy_pj : t -> length_cm:float -> float
(** Energy the receiving node pays for one inbound packet hop. *)
