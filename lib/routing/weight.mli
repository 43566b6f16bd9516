(** Edge-weight functions: phase one of SDR and EAR (Sec 6).

    Both algorithms assign a weight to every directed interconnect
    [(i, j)].  SDR uses the physical length [L_ij]; EAR multiplies the
    length by a function of the {e destination} node's reported battery
    level: [W_ij = f(N_B(j)) * L_ij], so paths through drained nodes look
    long and traffic steers around them.

    The paper's weighting function is exponential in the drained levels
    with a constant [Q > 0] "to strengthen the impact of the battery
    information" (the exact exponent is garbled in the scanned text, so
    both plausible readings are provided; [Exponential] with [q = 2] is
    the default, and [f(full) = 1] makes EAR coincide with SDR while all
    batteries are full). *)

type t =
  | Shortest_distance  (** SDR: weight = length *)
  | Exponential of { q : float }  (** EAR: f(n) = q^(levels - 1 - n) *)
  | Exponential_squared of { q : float }
      (** alternate reading: f(n) = q^(2 * (levels - 1 - n)) *)
  | Inverse_level
      (** ablation: f(n) = levels / (n + 0.5), hyperbolic growth, scaled
          by the constant lcm(1, 3, ..., 2 levels - 1) so that every
          factor 2 levels lcm / (2n + 1) is a whole number: the order of
          path lengths is the unscaled one, and their sums are exact (see
          {!Router.compute}'s gate) *)
  | Linear_drain of { slope : float }
      (** ablation: f(n) = 1 + slope * (levels - 1 - n) *)

val battery_factor : t -> level:int -> levels:int -> float
(** The multiplier f(N_B(j)) for a reported level in [0, levels).
    [Shortest_distance] always returns 1.
    @raise Invalid_argument if the level is outside [0, levels). *)

val is_battery_aware : t -> bool

val name : t -> string
