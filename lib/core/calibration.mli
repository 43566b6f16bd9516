(** The calibrated paper configuration, in one place.

    Every experiment in the reproduction builds its {!Etx_etsim.Config.t}
    through these helpers so the constants of DESIGN.md Sec 5 are not
    scattered: 800-cycle control frames, 0.8 receiver-side hop-energy
    fraction, scattered (round-robin) job entry, +-10 % battery-capacity
    spread averaged over {!default_seeds}, 8 reported battery levels with
    Q = 2, and a control medium whose electrical length grows with the
    mesh. *)

val battery_budget_pj : float
(** 60000 pJ (Sec 5.1.3). *)

val default_seeds : int list
(** Seeds averaged by the experiment harness (five runs; the paper's
    fractional job counts indicate averaging over cell variation). *)

val frame_period_cycles : int
val reception_energy_fraction : float
val battery_capacity_variation : float

val ear : unit -> Etx_routing.Policy.t
val sdr : unit -> Etx_routing.Policy.t

val problem : mesh_size:int -> Etx_routing.Problem.t
(** The AES problem instance for a [mesh_size]^2 mesh (Theorem 1
    inputs). *)

val config :
  ?policy:Etx_routing.Policy.t ->
  ?battery_kind:Etx_battery.Battery.kind ->
  ?controllers:Etx_etsim.Config.controllers ->
  ?seed:int ->
  ?concurrent_jobs:int ->
  ?mapping:Etx_routing.Mapping.t ->
  ?workloads:Etx_etsim.Workload.t list ->
  ?link_failure_schedule:(int * int * int) list ->
  ?fault:Etx_fault.Spec.t ->
  ?max_retransmissions:int ->
  mesh_size:int ->
  unit ->
  Etx_etsim.Config.t
(** The calibrated configuration for a square mesh.  Defaults: EAR,
    thin-film batteries, infinite controller, seed 1, one job in
    flight. *)
