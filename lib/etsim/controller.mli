(** The central-controller bank (Secs 5.3 and 7.3).

    One controller is active at a time; standbys are powered off and take
    over when the active one's battery dies.  Every TDMA frame the active
    controller pays its leakage for the elapsed period, compares the
    uploaded system snapshot with the previous one, and, when it differs,
    recomputes the routing tables (paying the dynamic energy of the
    recomputation) and downloads the changed entries over the shared
    medium (paying per instruction bit).

    With {!Config.Infinite_controller} the same logic runs but no battery
    is consulted; download and recompute energies are still metered so
    Sec 7.1's overhead percentages can be reported. *)

type outcome =
  | Table_updated of Etx_routing.Routing_table.t
  | No_change
  | Exhausted  (** the last controller died: the platform is dead *)

type t

val create : Config.t -> t

val on_frame :
  t -> elapsed_cycles:int -> snapshot:Etx_routing.Router.snapshot -> outcome
(** Run one control frame.  [elapsed_cycles] is the time since the
    previous frame (leakage accounting).  A snapshot that differs from
    the last one recomputed for costs a recompute (counted, and billed
    its dynamic energy) plus a download of the changed entries.  When
    only battery levels moved under a policy that ignores them (SDR),
    the recompute is still billed, but the new table equals the current
    one, so nothing downloads. *)

val recomputations : t -> int
val download_energy_pj : t -> float
val compute_energy_pj : t -> float
(** Leakage plus recompute dynamic energy actually spent. *)

val deaths : t -> int
val survivors : t -> int

val stranded_energy_pj : t -> float
(** Energy wasted in depleted controller batteries. *)

val residual_energy_pj : t -> float
(** Energy left in live (active + standby) controller batteries. *)
