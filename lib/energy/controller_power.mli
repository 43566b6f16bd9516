(** Central-controller power model.

    The paper designs controllers in Verilog for each mesh size and
    reports, for the 4x4 controller at 100 MHz, 6.94 mW dynamic and
    0.57 mW leakage power (Sec 7.3).  Larger controllers consume more
    ("a controller for a bigger mesh consumes more power than a
    controller for a smaller mesh"); both components are scaled linearly
    in the node count from the 4x4 anchor, since the controller's
    routing-table state and report traffic grow with K.

    The controller's duty cycle is modelled explicitly by the simulator:
    leakage burns every cycle the controller is powered; dynamic power
    burns only during the cycles it actively computes routes (running
    the O(K^3) Floyd-Warshall pass) or drives the download phase. *)

type t

val paper_anchor : t
(** 6.94 mW dynamic / 0.57 mW leakage at K = 16. *)

val make : dynamic_mw:float -> leakage_mw:float -> anchor_nodes:int -> t
(** @raise Invalid_argument on non-positive values. *)

val fingerprint : t -> string
(** The three parameters in exact form, [dynamic/leakage/anchor]. *)

val dynamic_pj_per_cycle : t -> node_count:int -> float
(** Energy per 100 MHz cycle while actively computing, for a mesh of
    [node_count] nodes. *)

val leakage_pj_per_cycle : t -> node_count:int -> float

val recompute_cycles : node_count:int -> int
(** Cycles one routing recomputation occupies the controller.  The
    Floyd-Warshall engine is a dedicated hardware block; with a K-wide
    relaxation datapath the K^3 inner loop takes K^2 cycles. *)
