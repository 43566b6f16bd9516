(** Runtime state of one platform node.

    Wraps the node's battery with lazy time synchronization (batteries
    are only ticked when the node interacts with the world, which keeps
    the cycle-accurate simulation event-driven) and carries the
    occupancy and deadlock bookkeeping the engine needs. *)

type t = {
  id : int;
  module_index : int;
  battery : Etx_battery.Battery.t;
  mutable synced_to : int;  (** cycle the battery state reflects *)
  mutable busy_until : int;  (** computation occupancy *)
  mutable occupancy : int;  (** jobs resident (buffered, computing, inbound) *)
  mutable locked_hop : int option;  (** output port reported deadlocked *)
  mutable offline_until : int;
      (** brown-out/reboot: battery intact but the node is unavailable
          until this cycle (0 when never browned out) *)
}

val create : id:int -> module_index:int -> battery:Etx_battery.Battery.t -> t

val sync : t -> cycle:int -> unit
(** Advance the battery to [cycle] (recovery, load decay).  Idempotent;
    cycles never go backwards. *)

val draw : t -> cycle:int -> energy_pj:float -> bool
(** Sync then draw.  [false] when the node (now) is dead and the act did
    not happen. *)

val is_dead : t -> bool

val level : t -> cycle:int -> levels:int -> int
(** Sync then report the quantized battery level. *)

val remaining_pj : t -> float
