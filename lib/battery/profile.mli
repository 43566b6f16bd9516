(** Discharge voltage profiles.

    A profile maps state-of-charge (1.0 = full, 0.0 = empty) to
    open-circuit voltage.  The paper (Sec 5.1.3, Fig 2) uses the measured
    curve of a Li-free thin-film battery [10] scaled so that the nominal
    capacity is 60000 pJ; we ship a piecewise-linear digitization with the
    same shape: a long sloping plateau from ~4.2 V and a sharp knee near
    depletion, crossing the 3.0 V death threshold with little charge
    left at low discharge rates. *)

type t

val piecewise_linear : (float * float) list -> t
(** [piecewise_linear points] with [(soc, volts)] pairs.  Points are
    sorted internally; soc values must be distinct and within [0, 1], and
    the list must contain at least two points.
    @raise Invalid_argument otherwise. *)

val voltage : t -> soc:float -> float
(** Linear interpolation; clamped to the end points outside their range. *)

type curve
(** A profile's points as flat arrays, for evaluating it per draw. *)

val curve : t -> curve

val curve_voltage : curve -> soc:float -> float
(** [curve_voltage (curve t) ~soc] is [voltage t ~soc], bit for bit
    ([voltage] is defined that way). *)

val li_free_thin_film : t
(** Digitized Fig 2 curve (Li-free thin-film battery, in-situ plated Li
    anode). *)

val constant : volts:float -> t
(** Flat profile (the ideal battery of Table 2's comparison). *)

val soc_at_voltage : t -> volts:float -> float
(** Largest depth at which the profile still reaches [volts]: the state
    of charge where an unloaded cell crosses that voltage (used to
    estimate stranded charge at the 3.0 V cutoff).  Returns [0.] if the
    profile never drops below [volts] and [1.] if it starts below it. *)

val points : t -> (float * float) list
(** The normalized point list, increasing in soc. *)
