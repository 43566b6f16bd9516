(** The et_sim simulation engine.

    Event-driven and cycle-accurate: jobs, control frames and link
    transfers are processed at exact clock cycles, and batteries are
    synchronized lazily, so the cost of a run scales with the number of
    events rather than the lifetime in cycles.

    The platform dies (and [run] returns) when one of the following
    happens, whichever comes first:

    - a node depletes while a job is aboard (computing, queued, or
      inbound): that job can never complete, so the sequential launcher
      of Sec 7.1 stalls forever - the node was critical;
    - some job needs a module with no living duplicate reachable through
      living relays from the job's position;
    - a new job cannot be injected because the entry is dead;
    - the last central controller depletes (Sec 7.3);
    - a configured cycle or job cap fires (reported as such). *)

type t

val create : ?trace_capacity:int -> ?record_timeline:bool -> Config.t -> t
(** [trace_capacity] enables event tracing with a ring of that size;
    [record_timeline] (default false) collects one {!Timeline.sample}
    per control frame. *)

val run : t -> Metrics.t
(** Simulate until platform death and return the collected metrics.
    [run] may only be called once per engine, and only on a freshly
    created one: a {!restore}d engine has already run to its
    checkpoint's cycle, so continue it with {!run_until}. *)

type run_outcome =
  | Paused  (** the stop cycle was reached with the platform still alive *)
  | Finished of Metrics.t

val run_until : t -> cycle:int -> run_outcome
(** Incremental execution: simulate until the next event would land
    beyond [cycle] (returning [Paused] without mutating anything), or
    until platform death ([Finished]).  Resuming a paused engine — or a
    {!restore}d one — with a later stop cycle continues the run
    bit-identically to an uninterrupted one.  May be called repeatedly;
    [run_until ~cycle:max_int] always finishes.

    @raise Invalid_argument once the engine has finished. *)

val cycle : t -> int
(** Current simulation cycle (useful between {!run_until} calls). *)

val run_frames : t -> count:int -> unit
(** Advance the control plane only: execute [count] TDMA frames
    (status upload, controller compare/recompute) one frame period
    apart, without launching any jobs.  A probe for allocation and
    timing tests of the frame loop; must precede [run], which still
    begins with its own frame 0.
    @raise Invalid_argument after [run]. *)

val simulate : ?trace_capacity:int -> ?record_timeline:bool -> Config.t -> Metrics.t
(** [create] followed by [run]. *)

val trace : t -> Trace.t option
(** The event trace (inspect after [run]). *)

val battery_socs : t -> float array
(** Per-node state of charge (inspect after [run] for the platform's
    final energy landscape). *)

val alive_mask : t -> bool array
(** Per-node liveness at the end of the run. *)

val timeline : t -> Timeline.t option
(** The per-frame series (inspect after [run]). *)

(** {2 Checkpoint / restore}

    A run is a function of its config, and {!config_fingerprint} names
    the config, so a checkpoint names a run and a cycle: its payload is
    the fingerprint, the cycle the engine stood at, and a witness (a
    digest of the counters and every node's charge there).  [restore]
    creates the engine afresh, replays it to that cycle and checks the
    witness; running to cycle N, checkpointing, restoring and running to
    completion produces metrics identical to the uninterrupted run.  A
    restore costs at most one uninterrupted run.  The replayed prefix is
    not traced: a restored engine starts its trace and timeline
    recorders empty. *)

val config_fingerprint : Config.t -> string
(** The canonical configuration fingerprint embedded in checkpoint
    payloads: a short string covering everything that shapes a run
    (topology census, policy, seed, frame period, battery model,
    workloads, fault spec, hardening knobs, a battery-powered controller
    bank, and the maximin routing kernel's version).  The module mapping
    (as a digest), a fixed entry node, the buffer capacity, the AES key,
    a job cap, the controller power and battery knobs, the topology
    beyond its edge count, the physical and control-medium models, and
    what a workload's or policy's name leaves open
    ({!Workload.fingerprint}, {!Etx_routing.Policy.fingerprint}) are
    spelled out only off the value every CLI and wire config has, so
    those fingerprints keep their form.  Fault rates print in
    {!Etx_fault.Spec.fingerprint}'s exact form, so configs differing in
    any bit of a rate never share a fingerprint.  Two configs with the same fingerprint produce
    bit-identical simulations, which is what lets the serving layer
    content-address its result cache with it. *)

val checkpoint : t -> bytes
(** The checkpoint payload of the engine's current cycle (frame it with
    {!Checkpoint.write_file} or {!Checkpoint.frame}): a few hundred bytes
    at any mesh size.  Only a started, still-running engine can be
    checkpointed.
    @raise Invalid_argument before {!run_until} first runs, or after the
    platform died. *)

val restore : ?trace_capacity:int -> ?record_timeline:bool -> Config.t -> bytes -> t
(** Rebuild an engine from a config and a checkpoint payload taken under
    that same config, by replaying the run to the checkpoint's cycle.
    Continue it with {!run_until}.  The fingerprint is checked before
    anything runs.
    @raise Checkpoint.Error on a fingerprint mismatch, a malformed
    payload (the engine state codec's files among them), a run that
    dies before the checkpoint's cycle ([Run_ended]) or a replay the
    witness refuses ([Witness_mismatch]). *)

val checkpoint_to_file : t -> string -> unit
(** {!checkpoint} framed and written atomically to a file. *)

val restore_from_file :
  ?trace_capacity:int -> ?record_timeline:bool -> Config.t -> string -> t
(** Read, validate and {!restore} a checkpoint file.
    @raise Checkpoint.Error on any integrity failure. *)

(** {2 Runtime invariant audit} *)

val enable_audit : t -> Audit.t -> unit
(** Plug an auditor into the engine: every K control frames (the
    recorder's cadence) a read-only pass checks conservation invariants
    and records violations.  Off by default; auditing never changes
    simulation results. *)

val audit_now : t -> Audit.t -> unit
(** Run one audit pass immediately, recording into the given recorder. *)

val corrupt_state_for_test : t -> unit
(** Test hook: deliberately desynchronize internal counters so the
    auditor has something to find.  Never called by the simulator. *)
