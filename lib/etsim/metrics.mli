(** Statistics collected by one simulation run.

    Everything the paper reports is derivable from these: the number of
    completed jobs (Figs 7-8, Table 2), the control-energy overhead
    percentages (Sec 7.1), and the lifetime decomposition (Sec 7.3). *)

type death_reason =
  | Job_lost_to_node_death of { node : int; job : int }
      (** the node carrying a job depleted mid-act: the launcher never
          sees the job complete, so the platform has died (the node was
          critical in the paper's sense) *)
  | Module_unreachable of { module_index : int; from_node : int }
      (** no living duplicate of a needed module remains reachable *)
  | Entry_node_dead of { node : int }
  | Controllers_exhausted
      (** Sec 7.3: the last central controller depleted *)
  | Cycle_limit
  | Job_limit  (** stopped by the configured cap, not by the platform *)
  | Job_lost_to_brownout of { node : int; job : int }
      (** a brown-out with the [Drop] job policy destroyed a buffered job
          mid-flight: the launcher never sees it complete *)

type t = {
  jobs_completed : int;
  jobs_verified : int;
      (** completed jobs whose ciphertext matched the reference AES *)
  jobs_lost : int;
  lifetime_cycles : int;
  death_reason : death_reason;
  (* energy, pJ *)
  computation_energy_pj : float;
  communication_energy_pj : float;  (** data packets over textile links *)
  control_upload_energy_pj : float;  (** node reports on the TDMA medium *)
  control_download_energy_pj : float;  (** instructions from the controller *)
  controller_compute_energy_pj : float;  (** leakage + recompute dynamic *)
  stranded_node_energy_pj : float;  (** wasted in dead node batteries *)
  residual_node_energy_pj : float;  (** left in living node batteries *)
  stranded_controller_energy_pj : float;
  residual_controller_energy_pj : float;
  (* events *)
  node_deaths : int;
  links_failed : int;  (** interconnects broken by injected wear *)
  controller_deaths : int;
  recomputations : int;
  frames : int;
  deadlocks_reported : int;
  deadlocks_recovered : int;
  hops_total : int;
  acts_total : int;
  (* fault injection and hardening *)
  jobs_launched : int;  (** jobs entered into the platform (completed or not) *)
  retransmissions : int;  (** hops re-driven after a CRC failure *)
  packets_corrupted : int;  (** hop deliveries that failed the CRC check *)
  packets_dropped : int;
      (** corrupted hops whose retransmission budget was exhausted; the
          job waits for the next control frame and re-routes *)
  link_wearouts : int;  (** permanent stochastic link deaths (Weibull wear) *)
  brownouts : int;  (** node brown-out/reboot events *)
  uploads_dropped : int;  (** status uploads lost on the control medium *)
  downloads_dropped : int;
      (** instruction downloads lost; nodes kept routing on stale tables *)
  stale_reports_total : int;
      (** sum over frames of nodes whose status the controller had to take
          from an older frame *)
  stale_reports_max : int;
      (** worst staleness (consecutive missed uploads) of any node *)
  (* per-module and latency detail *)
  computation_energy_by_module_pj : float array;
      (** length p: computation energy per application module *)
  job_latency_mean_cycles : float;  (** over completed jobs; 0 if none *)
  job_latency_max_cycles : int;
}

val mean_hops_per_act : t -> float
(** Average communication hops per act of computation: 1.0 would be the
    ideal topology of Theorem 1's construction. *)

val control_energy_pj : t -> float
(** Upload + download: the "energy consumed on exchanging the control
    information" of Sec 7.1. *)

val total_consumed_energy_pj : t -> float
(** Computation + communication + control (the consumption the paper's
    overhead percentage divides by; controller-internal compute energy is
    reported separately, as the paper's Sec 7.1 experiments use an
    infinite-energy controller). *)

val control_overhead_fraction : t -> float
(** [control / total_consumed]. *)

val death_reason_string : death_reason -> string

val pp : Format.formatter -> t -> unit
(** Multi-line human-readable report. *)

val write : Checkpoint.Writer.t -> t -> unit
(** Serialize into a checkpoint payload (a sweep run's result-store
    entry). *)

val read : Checkpoint.Reader.t -> t
(** Inverse of {!write}.
    @raise Checkpoint.Error on a malformed payload. *)

val to_json : t -> Etx_util.Json.t
(** Flat JSON object with every field of [t] plus the derived quantities
    ({!control_energy_pj}, {!control_overhead_fraction},
    {!mean_hops_per_act}).  Field order is fixed, so the serving layer's
    rendering of a cached result is bit-identical to the original. *)
