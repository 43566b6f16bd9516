(** Per-node routing tables, the output of phase three (Fig 6).

    After each recomputation the controller downloads, for every node
    [n] and every module [i], the successor of [n] on a (weighted)
    shortest path towards the chosen duplicate of module [i].  A packet
    needing module [i] next is forwarded along [entry n i] at each hop;
    because every node forwards along the same distance matrix, the
    per-hop remaining distance strictly decreases and the packet lands on
    some node hosting module [i]. *)

type entry =
  | Deliver_here  (** this node hosts the wanted module *)
  | Forward of { next_hop : int; destination : int }
  | Unreachable  (** no living duplicate can be reached *)

type t

val create : node_count:int -> module_count:int -> t
(** All entries start [Unreachable]. *)

val node_count : t -> int
val module_count : t -> int

val get : t -> node:int -> module_index:int -> entry
val set : t -> node:int -> module_index:int -> entry -> unit

val next_hop : t -> node:int -> module_index:int -> int option
(** [Some hop] for [Forward]; [None] otherwise. *)

val destination : t -> node:int -> module_index:int -> int option

val entry_equal : entry -> entry -> bool
(** Same constructor and fields (physical equality short-cuts). *)

val equal : t -> t -> bool
(** Same dimensions and equal entries. *)

val blit_row : src:t -> dst:t -> node:int -> unit
(** Overwrite [node]'s entries in [dst] with [src]'s.
    @raise Invalid_argument on dimension mismatch. *)

val diff_count : t -> t -> int
(** Number of (node, module) entries that differ: the volume of routing
    instructions the controller must download after a recomputation.
    @raise Invalid_argument on dimension mismatch. *)

val pp : Format.formatter -> t -> unit
