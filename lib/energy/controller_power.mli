(** Central-controller power model.

    The paper designs controllers in Verilog for each mesh size and
    reports, for the 4x4 controller at 100 MHz, 6.94 mW dynamic and
    0.57 mW leakage power (Sec 7.3).  The reproduction applies this 4x4
    figure at every mesh size (DESIGN.md Sec 5): the energy per
    recomputation still grows with K through its duration.

    The controller's duty cycle is modelled explicitly by the simulator:
    leakage burns every cycle the controller is powered; dynamic power
    burns only during the cycles it actively computes routes or drives
    the download phase. *)

val dynamic_pj_per_cycle : float
(** 6.94 mW at 100 MHz: energy per cycle while actively computing. *)

val leakage_pj_per_cycle : float
(** 0.57 mW at 100 MHz: energy per cycle the controller is powered. *)
