(** Wire requests of the simulation server.

    One request is one line of JSON:

    {v
      {"scenario": "simulate", "params": {...}, "id": 7, "priority": 2}
      {"scenario": "stats", "id": "s1"}
    v}

    [id] is echoed verbatim in the response (any JSON value; defaults to
    [null]); [priority] orders execution within a batch (higher first,
    ties by arrival; defaults to 0).

    Every scenario parameter is declared once, below: its wire key, CLI
    flag, type, default, doc string and lower bound.  The wire decoder
    here and the CLI's cmdliner terms are both derived from that one
    declaration, so the two cannot drift: a request that omits [params]
    reproduces the CLI's default run, and a value outside its declared
    bound is an [invalid_request] at decoding, before the request is
    fingerprinted, queued or forwarded.  Checks that need more than one
    value or a name lookup (unknown policy, loss probability above 1,
    more failed links than the mesh has) happen when {!Handlers} builds
    the configuration, still before any compute. *)

(** {1 Parameter schema} *)

type _ kind =
  | Int : int kind
  | Float : float kind
  | String : string kind
  | Ints : int list kind  (** comma-separated on the CLI, a JSON array on the wire *)
  | Floats : float list kind

type 'a param = {
  key : string;  (** wire key inside ["params"] *)
  flag : string;  (** CLI long option, without the dashes *)
  docv : string;
  doc : string;
  kind : 'a kind;
  default : 'a;
  at_least : int option;
      (** lower bound of the value, of every element of a list; a bounded
          float must also be finite *)
}

(** A scenario's parameters: declared params combined into its record. *)
type _ params =
  | Param : 'a param -> 'a params
  | Map : ('a -> 'b) * 'a params -> 'b params
  | Pair : 'a params * 'b params -> ('a * 'b) params

type any_param = Any : 'a param -> any_param

val fields : 'a params -> any_param list
(** Every declared param, in declaration order. *)

val check : 'a param -> 'a -> (unit, string) result
(** The declared bound: [Error] names the first offending value. *)

(** {1 Scenarios} *)

type fault_params = {
  ber : float;
  wearout : float;
  brownout_rate : float;
  brownout_cycles : int;
  upload_loss : float;
  download_loss : float;
  fault_seed : int;
}
(** The fault flags shared by [simulate] and [audit]; all rates zero
    means the fault-free run. *)

type fig7_params = { sizes : int list; seeds : int list }

type resilience_params = {
  mesh_size : int;
  bit_error_rates : float list;
  wearout_rates : float list;
  fault_seed : int;
  seeds : int list;
}

type audit_params = {
  sizes : int list;
  seeds : int list;
  every : int;
  fault : fault_params;
  retries : int;
}

type upper_bound_params = { sizes : int list }

type simulate_params = {
  mesh_size : int;
  seed : int;
  policy : string;
  battery : string;
  controllers : int;  (** 0 = one infinite-energy controller *)
  concurrent_jobs : int;
  workload : string;
  fail_links : int;
  fault : fault_params;
  retries : int;
}

val sizes : int list params
(** [--sizes] / ["sizes"], shared by every size sweep. *)

val seeds : int list params
val mesh_size : int params
(** [--size] / ["mesh_size"], default 6. *)

val simulate : simulate_params params
val fig7 : fig7_params params
val resilience : resilience_params params
val audit : audit_params params
val upper_bound : upper_bound_params params
(** the CLI's [thm1] *)

type scenario =
  | Simulate of simulate_params
  | Fig7 of fig7_params
  | Resilience of resilience_params
  | Audit of audit_params
  | Upper_bound of upper_bound_params

val scenarios : (string * scenario params) list
(** Every wire scenario by name, with its declared params. *)

type metrics_format = Metrics_json | Metrics_prometheus

type control =
  | Stats  (** server metrics snapshot; never queued, never cached *)
  | Ping
  | Shutdown  (** finish the current batch, then stop accepting work *)
  | Metrics of metrics_format
      (** observability exposition ([{"scenario":"metrics","params":
          {"format":"json"|"prometheus"}}], default json); answered
          locally like [Stats], never queued, never cached *)

type body = Scenario of scenario | Control of control

type t = {
  id : Etx_util.Json.t;
  priority : int;
  deadline_ms : int option;
      (** wall-clock budget from batch receipt; a request still waiting
          when it expires is shed with a [deadline_exceeded] error
          before any compute.  Parsing rejects negative or non-integer
          values.  [None] = no deadline. *)
  client : string;
      (** fairness key for cluster load-shedding; defaults to [""]
          (all anonymous requests share one fairness bucket) *)
  trace_id : string option;
      (** distributed-trace correlation id, minted at the cluster
          front-end and propagated unchanged; peers that predate it
          ignore the field (it is never echoed in responses).  Must be
          a string when present. *)
  body : body;
}

val scenario_name : body -> string
(** Stable name used in responses and per-scenario latency metrics
    ("simulate", "fig7", "resilience", "audit", "upper-bound", "stats",
    "ping", "shutdown"). *)

type error = {
  error_id : Etx_util.Json.t;
      (** the request's [id] when it could be recovered, else [Null] —
          so even a rejected request's response is correlatable *)
  error_code : string;  (** ["parse_error"] or ["invalid_request"] *)
  reason : string;
}

val of_line : string -> (t, error) result
(** Parse one request line.  Malformed JSON is a [parse_error]; a
    well-formed object with an unknown scenario name or wrongly-typed
    field is an [invalid_request].  Unknown object keys are ignored
    (forward compatibility). *)

(** {1 Responses} *)

val ok_response :
  ?cache:string -> scenario:string -> elapsed_ms:float -> Etx_util.Json.t ->
  Etx_util.Json.t -> Etx_util.Json.t
(** [{"id", "status":"ok", "scenario", "cache"?, "elapsed_ms", "result"}],
    the one success shape of every daemon ([cache] only where a result
    cache answered). *)

val ok_line :
  ?cache:string -> scenario:string -> elapsed_ms:float -> Etx_util.Json.t -> string ->
  string
(** [ok_line … id bytes] is [Json.to_string (ok_response … id r)] where
    [bytes] is [Json.to_string r]: the envelope is printed and the
    result's bytes are spliced in as they are, never parsed or
    re-printed.  How a daemon replies with a stored result. *)

val error_response :
  ?extra:(string * Etx_util.Json.t) list -> Etx_util.Json.t -> string -> string ->
  Etx_util.Json.t
(** [error_response id code message]: [{"id", "status":"error", "error",
    "message"}] followed by the [extra] fields (e.g. [retry_after_ms]). *)
