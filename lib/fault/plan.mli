(** Compiled fault plan: the deterministic event stream of one run.

    {!compile} expands a {!Spec.t} over a concrete topology and horizon
    into a cycle-sorted array of timed events (permanent link wear-outs,
    node brown-outs) plus two private PRNG streams for the per-packet
    and per-frame Bernoulli faults (bit errors, control-frame loss).
    Equal (spec, topology, horizon) inputs compile to equal plans, and
    the streams are separate from the engine's own PRNG, so injecting
    faults never perturbs workload payloads or entry rotation.

    A plan is consumed by exactly one engine: the cursor and the
    Bernoulli streams are mutable. *)

type event =
  | Link_wearout of { a : int; b : int }  (** undirected link (a, b) dies *)
  | Brownout of { node : int }

type t

val compile : spec:Spec.t -> topology:Etx_graph.Topology.t -> horizon:int -> unit -> t
(** Sample every timed event below [horizon] cycles.  Wear-out death
    times are Weibull with characteristic life 1 / (rate * length_cm)
    per link; brown-outs are exponential arrivals per node.  A spec with
    zero rates compiles to an empty stream without consuming any
    randomness.  @raise Invalid_argument on a non-positive horizon. *)

val spec : t -> Spec.t

val event_count : t -> int

val events : t -> (int * event) list
(** The full compiled stream, cycle-sorted, for tests and tooling;
    does not disturb the cursor. *)

val next_cycle : t -> int
(** Cycle of the next undelivered event ([max_int] when drained). *)

val iter_due : t -> cycle:int -> f:(event -> unit) -> unit
(** Deliver (and consume) every event with [event_cycle <= cycle], in
    stream order. *)

val error_probability : t -> bits:int -> length_cm:float -> float
(** [1 - exp (-ber * bits * length_cm)]: chance one packet of [bits]
    arrives corrupted over a link of [length_cm].  0 when the spec's
    bit-error rate is 0. *)

val corrupt_packet : t -> bits:int -> length_cm:float -> bool
(** Bernoulli draw from the data-plane stream.  Never draws when the
    bit-error rate is 0 (the zero-fault path is bit-identical). *)

val drop_upload : t -> bool
(** Bernoulli draw from the control-plane stream; never draws at rate 0. *)

val drop_download : t -> bool
(** Bernoulli draw from the control-plane stream; never draws at rate 0. *)
