(** One application job moving through the platform.

    A job carries a real payload (for the AES workload, the 128-bit
    state); every act applies the workload's transformation, so a
    completed job's output can be checked against the reference function
    (the simulator is not just an energy model, it actually computes). *)

type phase =
  | Waiting of { node : int; since : int; retry_at : int }
      (** resident at a node, waiting for routing, a free core, a free
          link, or fresh tables *)
  | Computing of { node : int; until : int }
  | In_transit of { src : int; dst : int; edge : int; until : int; attempt : int }
      (** on the wire [src -> dst], the link with id [edge] in the
          topology's {!Etx_graph.Digraph.index} *)

type t = {
  id : int;
  workload : Workload.t;  (** the application this job belongs to *)
  payload0 : Bytes.t;  (** initial payload *)
  expected : Bytes.t;  (** reference output, precomputed at launch *)
  mutable payload : Bytes.t;
  mutable step : int;  (** next act index in the workload plan *)
  mutable phase : phase;
  launched_at : int;
}

val launch :
  id:int ->
  workload:Workload.t ->
  payload:Bytes.t ->
  expected:Bytes.t ->
  entry:int ->
  cycle:int ->
  t

val needed_module : t -> int
(** Module index of the next act.
    @raise Invalid_argument when the job is already finished. *)

val apply_act : t -> unit
(** Perform the next act on the carried payload and advance [step].
    @raise Invalid_argument when the job is already finished. *)

val finished : t -> bool

val verified : t -> bool
(** Whether the carried payload equals the reference output (only
    meaningful once finished). *)

val ready_at : t -> int
(** Cycle at which the job next needs attention from the engine. *)

val current_node : t -> int
(** The node the job occupies (the destination while in transit). *)
