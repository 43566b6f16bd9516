(** Named routing policies.

    A policy bundles the weight function with the battery-level
    quantization the controller asks nodes to report (N_B); the simulator
    and the experiment harness select algorithms through this type. *)

type algorithm =
  | Weighted of Weight.t
      (** the paper's family: battery-reweighted shortest paths *)
  | Maximin_residual
      (** widest-path baseline in the spirit of [13] (see {!Maximin}) *)

type t = {
  name : string;
  algorithm : algorithm;
  levels : int;  (** N_B reported over the TDMA medium *)
}

val ear : ?q:float -> ?levels:int -> unit -> t
(** The paper's EAR: exponential weighting, default [q = 2] and
    [levels = 8] (a 3-bit level fits the narrow control medium). *)

val sdr : ?levels:int -> unit -> t
(** Shortest-distance routing: battery reports are still collected (the
    control mechanism is identical, per Sec 5) but ignored by the
    weights. *)

val ear_squared : ?q:float -> ?levels:int -> unit -> t
(** EAR under the alternate exponent reading (ablation). *)

val inverse_level : ?levels:int -> unit -> t
(** Hyperbolic ablation policy. *)

val linear_drain : ?slope:float -> ?levels:int -> unit -> t
(** Linear ablation policy. *)

val maximin : ?levels:int -> unit -> t
(** Max-min residual-energy (widest-path) routing. *)

val is_battery_aware : t -> bool

val fingerprint : t -> string
(** The policy's identity in a run's fingerprint (its levels aside): the
    name when that determines the algorithm (the constructors above
    name it so whenever [%g] prints their parameter exactly), else the
    name and a digest of the algorithm. *)
