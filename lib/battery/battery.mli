(** Node battery models.

    Two models, as in the paper:

    - {b Ideal} (Table 2's reference): constant output voltage and 100 %
      efficiency until complete depletion.
    - {b Thin film} (Sec 5.1.3): a discrete-time approximation in the
      spirit of Benini et al. [8] of the Li-free thin-film cell of [10].
      The charge is split between an {e available} well and a {e bound}
      well (kinetic battery model); draws come from the available well,
      and charge diffuses from bound to available over time, which yields
      the two non-idealities the routing comparison depends on: sustained
      load collapses the output voltage early (rate-capacity effect), and
      resting a node lets it recover.  The open-circuit voltage follows
      the discharge profile of Fig 2, with an ohmic sag proportional to
      the recent load power.  A node is dead once its output voltage
      drops below the 3.0 V threshold, and the remaining charge is
      wasted (paper Sec 5.1.3).

    Time is measured in clock cycles (100 MHz); energy in picojoules. *)

type thin_film_params = {
  profile : Profile.t;  (** open-circuit voltage vs available-well soc *)
  cutoff_volts : float;  (** death threshold (paper: 3.0 V) *)
  available_fraction : float;  (** well split [c] in (0, 1] *)
  diffusion_per_cycle : float;  (** bound->available rate constant *)
  sag_volts_per_power : float;  (** ohmic sag per pJ/cycle of load *)
  load_window_cycles : float;  (** EWMA window for the load power *)
}

type kind = Ideal | Thin_film of thin_film_params

type t

val default_thin_film : thin_film_params
(** Calibrated defaults (see DESIGN.md Sec 5). *)

val create : kind:kind -> capacity_pj:float -> t
(** Fresh, full battery.  @raise Invalid_argument if the capacity is not
    positive or thin-film parameters are out of range. *)

val fleet : kind:kind -> tick_cache:int -> float array -> t array
(** [fleet ~kind ~tick_cache capacities]: one fresh battery per capacity,
    each as {!create} would make it, sharing what they derive from
    [kind] once.  That includes the decay factors of every {!tick} of at
    most [tick_cache] cycles, each computed on its first use; a longer
    tick computes them afresh.  A fleet is not safe to use from two
    domains at once.  @raise Invalid_argument as {!create}. *)

val kind : t -> kind
val capacity_pj : t -> float

val draw : t -> energy_pj:float -> bool
(** Draw energy for one act of computation or communication.  Returns
    [false] (and kills the battery) when the battery is already dead or
    cannot supply the requested energy; the act then does not happen.
    Negative requests are rejected with [Invalid_argument]. *)

val tick : t -> cycles:int -> unit
(** Let [cycles] of wall-clock time pass with no draw attributed: load
    EWMA decays and bound charge diffuses into the available well
    (recovery).  No effect on an ideal or dead battery. *)

val voltage : t -> float
(** Present output voltage (0 when dead). *)

val is_dead : t -> bool

val soc : t -> float
(** Remaining nominal charge as a fraction of capacity (both wells). *)

val remaining_pj : t -> float
(** Remaining nominal energy; for a dead battery this is the wasted
    (stranded) energy the paper talks about. *)

val delivered_pj : t -> float
(** Total energy actually supplied so far. *)

type charge = {
  dead : bool;
  delivered_pj : float;
  available_pj : float;  (** ideal model: the whole remaining charge *)
  bound_pj : float;  (** 0 for the ideal model *)
  load_power : float;  (** EWMA, 0 for the ideal model *)
}
(** Full mutable state of a battery: a checkpoint's witness digests it. *)

val dump : t -> charge
(** Capture the mutable state. *)

val level : t -> levels:int -> int
(** Quantized state of charge reported to the central controller over the
    narrow TDMA medium: an integer in [0, levels); a dead battery reports
    0. *)
