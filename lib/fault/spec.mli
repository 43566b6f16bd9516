(** Declarative fault specification.

    A spec is a seed plus one rate per fault class; {!Plan.compile}
    turns it into a deterministic event stream for one run.  All rates
    default to zero, and a zero rate costs nothing at runtime - not even
    a PRNG draw - so a zero spec reproduces the fault-free simulation
    bit for bit.

    The classes model the failure modes the paper gives as the reason to
    prefer a network over a bus (Sec 1): textile interconnects wear out
    permanently under the stress of normal usage, long links pick up
    transient bit errors, nodes brown out and reboot, and the narrow
    shared control medium loses frames. *)

type job_policy =
  | Preserve  (** buffered jobs survive a brown-out and resume after it *)
  | Drop  (** volatile buffers: jobs resident at the node are lost *)

type t = {
  seed : int;  (** PRNG seed; equal specs compile to equal plans *)
  link_wearout_rate : float;
      (** Weibull scale of permanent link death, per cm of link per
          cycle: a link of length L has characteristic life
          1 / (rate * L) cycles, so longer textile links wear out
          proportionally sooner *)
  link_wearout_shape : float;
      (** Weibull shape k (> 0); k > 1 models age-driven wear *)
  bit_error_rate : float;
      (** transient corruption probability per bit per cm: a packet of B
          bits over a link of length L survives with
          exp(-rate * B * L) *)
  brownout_rate : float;
      (** per node per cycle: exponential arrivals of brown-out/reboot
          events (battery intact, node offline for a while) *)
  brownout_duration_cycles : int;  (** offline time per brown-out *)
  brownout_job_policy : job_policy;
  upload_loss_rate : float;
      (** probability, per node per frame, that the node's status upload
          is silently lost on the control medium *)
  download_loss_rate : float;
      (** probability, per recomputation, that the instruction download
          is silently lost and nodes keep routing on stale tables *)
}

val make :
  ?seed:int ->
  ?link_wearout_rate:float ->
  ?link_wearout_shape:float ->
  ?bit_error_rate:float ->
  ?brownout_rate:float ->
  ?brownout_duration_cycles:int ->
  ?brownout_job_policy:job_policy ->
  ?upload_loss_rate:float ->
  ?download_loss_rate:float ->
  unit ->
  t
(** Defaults: seed 0, every rate 0, shape 2, 2000-cycle brown-outs that
    preserve jobs.  @raise Invalid_argument on negative rates,
    non-positive shape or duration, or loss rates outside [0, 1]. *)

val zero : t
(** [make ()]: the fault-free spec. *)

val is_zero : t -> bool
(** Every rate is exactly zero: the plan will inject nothing and draw
    nothing. *)

val exact_float : float -> string
(** [%g] when its six significant digits read back as exactly the
    float, else the exact hexadecimal [%h]: distinct floats never share
    a form, and a float that [%g] prints exactly keeps that form. *)

val fingerprint : t -> string
(** Canonical one-line form of every field, injective: a rate prints
    with [%g] when that reads back exactly, else in exact hexadecimal
    ([%h]), so specs differing in any bit of any rate never share a
    fingerprint. *)

val pp : Format.formatter -> t -> unit
