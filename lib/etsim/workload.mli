(** Application workloads.

    The paper's problem formulation (Sec 3) is application-agnostic: any
    partitioning into [p] modules with per-job act counts [f_i] fits the
    platform.  A workload packages the act sequence of one job, the
    payload transformation each act applies, and a reference function for
    end-to-end verification.

    Three families ship:
    - {!aes_encrypt} / {!aes_decrypt}: the paper's driver application,
      carrying real 128-bit states and verified against FIPS-197;
    - {!synthetic}: parametric pipelines (any [p], any [f_i]) whose acts
      are energy-only, used by the generality ablations. *)

type act = {
  module_index : int;  (** which module performs this act *)
  tag : int;  (** application detail (AES: the round number) *)
}

type t

val name : t -> string
val module_count : t -> int

val plan : t -> act array
(** The acts of one job, in execution order (a fresh copy). *)

val plan_length : t -> int

val act : t -> step:int -> act
(** The act at position [step] (allocation-free accessor for the
    engine's hot path).  @raise Invalid_argument outside the plan. *)

val act_at : t -> step:int -> act option
(** The act at position [step], or [None] past the end of the plan. *)

val acts_per_job : t -> int array
(** The f_i vector, derived from the plan. *)

val initial_payload : t -> prng:Etx_util.Prng.t -> Bytes.t
(** Fresh job payload (AES: a random plaintext block). *)

val apply : t -> act -> Bytes.t -> Bytes.t
(** Perform one act on the payload. *)

val reference : t -> Bytes.t -> Bytes.t
(** Expected final payload for a given initial payload (used to verify
    completed jobs end to end). *)

val aes_encrypt : key_hex:string -> t
(** The paper's workload: 30 acts over 3 modules, f = (10, 9, 11). *)

val aes_decrypt : key_hex:string -> t
(** The inverse cipher on the same modules (same f vector). *)

val synthetic :
  ?name:string ->
  acts_per_job:int array ->
  unit ->
  t
(** A pipeline over [Array.length acts_per_job] modules; module [i]
    performs [acts_per_job.(i)] acts per job, interleaved round-robin in
    proportion to the remaining counts (consecutive acts never target the
    same module when avoidable).  Payloads are 16 opaque bytes carried
    untransformed.  @raise Invalid_argument on an empty vector or
    non-positive counts. *)

val cli_synthetic : t
(** The synthetic workload of the CLI and the wire:
    [synthetic ~name:"cli-synthetic" ~acts_per_job:[| 10; 9; 11 |] ()]. *)

val fingerprint : key_hex:string -> t -> string
(** The workload's identity in a run's fingerprint, for a config keyed
    [key_hex]: its name alone when that determines it (an AES workload
    under [key_hex], or {!cli_synthetic}), else the name followed by the
    AES key or the synthetic f vector. *)

val problem :
  t ->
  computation_energy_pj:float array ->
  communication_energy_pj:float array ->
  battery_budget_pj:float ->
  node_budget:int ->
  Etx_routing.Problem.t
(** The Sec 3 problem instance for this workload (feeds Theorem 1). *)
