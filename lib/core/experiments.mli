(** Canned reproductions of every table and figure in the paper.

    Each function runs the calibrated simulator over the relevant sweep
    (averaging over {!Calibration.default_seeds}) and returns structured
    rows; {!Report} renders them next to the paper's published values.
    Sweeps take seconds, so the benchmark harness can regenerate
    everything in one run.

    Every sweep accepts [?domains] (default [1]): the number of domains
    {!Etx_util.Pool} fans the independent simulations over.  Simulations
    share no mutable state, each owns its {!Etx_util.Prng}, and the pool
    preserves input order, so results are bit-identical for every
    [domains] value. *)

(** {1 Sweep machinery}

    A sweep is a list of units; each owns the configs it needs and folds
    their metrics (in config order) into one row.  {!run_units} is the
    one runner behind every sweep: it flattens the configs of every unit
    into one batch for the domain pool, so parallelism is never limited
    by unit boundaries, and the pool preserves order, so results are
    bit-identical to a sequential run for every [domains] value.  Configs
    of one {!Etx_etsim.Engine.config_fingerprint} are simulated once, and
    every unit naming that run gets its metrics.  A crashing simulation
    only loses the units that need it.  A resumable sweep is a
    [?simulate] that looks each run up in a result store by its config
    fingerprint ([Etx_service.Handlers.store_backed]).  The row-returning sweeps below
    ({!fig7}, {!table2}, ...) re-raise a failed unit's original
    exception. *)

type 'row sweep_unit = {
  configs : Etx_etsim.Config.t list;
  finish : Etx_etsim.Metrics.t list -> 'row;
}

type sweep_failure = {
  unit_index : int;  (** position of the failed unit in the sweep *)
  exn : exn;  (** the exception of the unit's first crashing simulation *)
  backtrace : Printexc.raw_backtrace;
  attempts : int;  (** how many times the failing simulation was tried *)
}

val run_units :
  ?pool:Etx_util.Pool.t ->
  ?domains:int ->
  ?retries:int ->
  ?simulate:(Etx_etsim.Config.t -> Etx_etsim.Metrics.t) ->
  'row sweep_unit list ->
  ('row, sweep_failure) result list
(** Runs every simulation on [?pool] (a caller-owned persistent pool;
    the serving layer shares one across requests) or else on [domains]
    workers (default [1]: sequential).  Each simulation is attempted up
    to [1 + retries] times ({!Etx_util.Pool.attempt}); a unit with any
    simulation still crashing, or whose [finish] raises, yields [Error]
    and the others are unaffected.  [?simulate] (default
    {!Etx_etsim.Engine.simulate}) runs one config, once per distinct
    fingerprint; it is called from the pool's workers.  Output order
    matches unit order.
    @raise Invalid_argument on a negative [retries]. *)

type fig7_row = {
  mesh_size : int;
  ear_jobs : float;  (** mean completed jobs under EAR *)
  sdr_jobs : float;
  gain : float;  (** ear / sdr: the paper claims 5x to 15x *)
  ear_overhead : float;  (** control-energy fraction under EAR *)
  paper_ear_jobs : float;  (** Fig 7 reference *)
  paper_overhead : float;  (** Sec 7.1 reference percentages *)
}

val default_sizes : int list
(** [4; 5; 6; 7; 8], the paper's mesh sizes: every size-sweep's default. *)

val fig7 :
  ?sizes:int list -> ?seeds:int list -> ?pool:Etx_util.Pool.t -> ?domains:int -> unit ->
  fig7_row list
(** EAR vs SDR on thin-film batteries, single infinite-energy
    controller. *)

val fig7_fingerprint : sizes:int list -> seeds:int list -> string
(** Canonical identity of one {!fig7} sweep shape: the server's
    content-addressed result cache keys a [fig7] request by it, and
    equal fingerprints guarantee bit-identical rows. *)

val fig7_units : sizes:int list -> seeds:int list -> fig7_row sweep_unit list
(** The units behind {!fig7}, one per mesh size, for {!run_units}. *)

type table2_row = {
  mesh_size : int;
  ear_jobs : float;  (** simulated, ideal battery *)
  j_star : float;  (** Theorem 1 *)
  ratio : float;
  paper_ear_jobs : float;
  paper_j_star : float;
  paper_ratio : float;
}

val table2 : ?sizes:int list -> ?seeds:int list -> ?domains:int -> unit -> table2_row list

type fig8_row = { mesh_size : int; controllers : int; jobs : float }

val default_controller_counts : int list
(** [1; 2; 4; 7; 10], {!fig8}'s default controller counts. *)

val fig8 :
  ?sizes:int list -> ?controller_counts:int list -> ?seeds:int list -> ?domains:int -> unit ->
  fig8_row list
(** EAR with a finite bank of battery-powered controllers (Sec 7.3). *)

type thm1_row = {
  mesh_size : int;
  j_star : float;
  optimal_duplicates : float array;  (** n_i* of equation (3) *)
  checkerboard_duplicates : int array;  (** the Sec 5.2 mapping's n_i *)
  checkerboard_bound : float;  (** equation (1) for that mapping *)
}

val thm1 : ?sizes:int list -> unit -> thm1_row list

type ablation_row = { label : string; mesh_size : int; jobs : float }

val ablation_weights : ?mesh_size:int -> ?seeds:int list -> ?domains:int -> unit -> ablation_row list
(** EAR's weight family against the ablation policies (Sec 6 design
    choice: how strongly battery level should bend the metric). *)

val ablation_quantization : ?mesh_size:int -> ?seeds:int list -> ?domains:int -> unit -> ablation_row list
(** Sensitivity to the number of reported battery levels N_B. *)

val ablation_mapping : ?mesh_size:int -> ?seeds:int list -> ?domains:int -> unit -> ablation_row list
(** Checkerboard (Sec 5.2) vs Theorem-1-proportional mapping. *)

val ablation_battery : ?mesh_size:int -> ?seeds:int list -> ?domains:int -> unit -> ablation_row list
(** Thin-film non-idealities on vs off (ideal), for both EAR and SDR:
    quantifies how much of EAR's edge comes from battery physics. *)

type concurrency_row = {
  jobs_in_flight : int;
  jobs : float;
  deadlocks_reported : float;
  deadlocks_recovered : float;
}

val default_depths : int list
(** [1; 2; 4; 8], {!concurrency}'s default numbers of jobs in flight. *)

val concurrency : ?mesh_size:int -> ?depths:int list -> ?seeds:int list -> ?domains:int -> unit ->
  concurrency_row list
(** Multiple concurrent jobs exercising the deadlock recovery mechanism
    (Sec 7's closing experiment). *)

val workloads : ?mesh_size:int -> ?seeds:int list -> ?domains:int -> unit -> ablation_row list
(** AES encryption vs AES decryption vs an energy-only synthetic pipeline
    with the same f vector: the routing layer is workload-agnostic, so
    the three should complete nearly the same number of jobs. *)

val generality : ?module_counts:int list -> ?seeds:int list -> ?domains:int -> unit -> ablation_row list
(** EAR-vs-SDR gain for synthetic pipelines of 2..6 modules on a 6x6
    mesh with Theorem-1-proportional mappings: the paper claims EAR is
    general-purpose; this sweep shows the gain is not an AES artifact. *)

val random_failure_schedule :
  topology:Etx_graph.Topology.t ->
  count:int ->
  before_cycle:int ->
  seed:int ->
  (int * int * int) list
(** [count] distinct undirected links picked uniformly, each breaking at
    a cycle drawn uniformly from [0, before_cycle). *)

val default_failure_counts : int list
(** [0; 4; 8; 16; 24], {!link_failures}' default numbers of broken links. *)

val link_failures :
  ?mesh_size:int -> ?failure_counts:int list -> ?seeds:int list -> ?domains:int -> unit ->
  ablation_row list
(** Wear-and-tear sweep (the paper's Sec 1 motivation for a network):
    completed jobs under EAR as progressively more textile interconnects
    snap mid-life. *)

type algorithms_row = {
  a_mesh_size : int;
  ear : float;
  maximin : float;
  sdr : float;
}

val algorithms : ?sizes:int list -> ?seeds:int list -> ?domains:int -> unit -> algorithms_row list
(** Three-way comparison across mesh sizes: the paper's EAR, the WSN
    max-min residual baseline, and SDR. *)

(** {1 Resilience under injected faults} *)

type resilience_row = {
  axis : string;  (** ["bit-error"] or ["wear-out"] *)
  rate : float;
  ear_jobs : float;
  sdr_jobs : float;
  r_gain : float;
  retransmissions : float;  (** mean over the EAR runs *)
  packets_dropped : float;
  wearouts : float;
}

val default_resilience_size : int
val default_bit_error_rates : float list
val default_wearout_rates : float list
val default_resilience_fault_seed : int
(** {!resilience}'s defaults: the 5x5 acceptance fabric, the calibrated
    rate grids and base fault seed 1009. *)

val resilience :
  ?mesh_size:int ->
  ?bit_error_rates:float list ->
  ?wearout_rates:float list ->
  ?fault_seed:int ->
  ?seeds:int list ->
  ?pool:Etx_util.Pool.t ->
  ?domains:int ->
  unit ->
  resilience_row list
(** Jobs completed under injected faults, EAR vs SDR, along two axes:
    transient bit errors (per bit per cm) and permanent Weibull link
    wear-out.  Both policies face the identical fault stream at every
    sampled rate (the fault seed is [fault_seed + seed], independent of
    the policy and the rate), so the comparison isolates the routing
    policy and degradation is monotone along the wear-out axis. *)

val resilience_units :
  mesh_size:int ->
  bit_error_rates:float list ->
  wearout_rates:float list ->
  fault_seed:int ->
  seeds:int list ->
  resilience_row sweep_unit list
(** The units behind {!resilience}, one per (axis, rate) cell, for
    {!run_units}. *)

val resilience_fingerprint :
  mesh_size:int ->
  bit_error_rates:float list ->
  wearout_rates:float list ->
  fault_seed:int ->
  seeds:int list ->
  string
(** Canonical identity of one {!resilience} sweep shape (see
    {!fig7_fingerprint}). *)

(** {1 Runtime invariant audit as a sweep} *)

type audit_row = {
  audit_mesh_size : int;
  audit_seed : int;
  passes : int;  (** audit passes the recorder ran *)
  audit_violations : string list;  (** rendered violations, oldest first *)
  audit_violations_total : int;  (** including ones beyond the recorder cap *)
}

val audit_fingerprint :
  sizes:int list -> seeds:int list -> every:int -> ?fault:Etx_fault.Spec.t ->
  ?max_retransmissions:int -> unit -> string
(** Canonical identity of one {!audit_runs} shape.  The fault spec
    ({!Etx_fault.Spec.fingerprint}) and the retry budget are appended
    only when they differ from {!audit_runs}' defaults (no faults, 3
    retransmissions), so a default audit's fingerprint never changed. *)

val audit_runs :
  sizes:int list ->
  seeds:int list ->
  every:int ->
  ?fault:Etx_fault.Spec.t ->
  ?max_retransmissions:int ->
  ?pool:Etx_util.Pool.t ->
  ?domains:int ->
  unit ->
  audit_row list
(** One audited calibrated run per (size, seed) cell, fanned over the
    pool; pure computation, no printing (the CLI renders rows through
    {!Report.audit}, the server serializes them).  [every] is the audit
    cadence in control frames.
    @raise Invalid_argument on a non-positive [every]. *)

type scenario_row = {
  scenario : string;
  nodes : int;
  ear_jobs : float;
  sdr_jobs : float;
  scenario_gain : float;
  j_star : float;
}

val scenarios : ?seeds:int list -> ?domains:int -> unit -> scenario_row list
(** EAR vs SDR on every garment preset of {!Scenario}: the routing
    strategy carries beyond the paper's square meshes. *)

type prediction_row = {
  p_mesh_size : int;
  predicted : float;  (** static analysis (Etx_routing.Analysis) *)
  simulated : float;  (** calibrated EAR simulation *)
}

val predictions : ?sizes:int list -> ?seeds:int list -> ?domains:int -> unit -> prediction_row list
(** Static lifetime prediction vs simulation across mesh sizes: validates
    the Analysis module as a design tool. *)

val aes_module_sequence : int list
(** The AES job's 30-act module order, as module indices. *)

val mean_jobs : ?pool:Etx_util.Pool.t -> ?domains:int -> Etx_etsim.Config.t list -> float
(** Average completed jobs over a list of prepared configurations
    (exposed for custom sweeps). *)

val audit_violations : audit_row list -> int
(** Total violations over the rows. *)
