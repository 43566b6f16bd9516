module Json = Etx_util.Json
module Backoff = Etx_util.Backoff
module Obs = Etx_obs.Obs
module Span = Etx_obs.Span
module Expo = Etx_obs.Expo

type config = {
  backends : string list;
  replicas : int;
  attempts : int;
  connect_timeout_s : float;
  request_timeout_s : float;
  probe_timeout_s : float;
  health_period_s : float;
  failure_threshold : int;
  breaker_cooldown_s : float;
  backoff_base_ms : float;
  backoff_cap_ms : float;
  seed : int;
  queue_depth : int;
  retry_after_ms : int;
}

let default_config ~backends =
  {
    backends;
    replicas = 64;
    attempts = 4;
    connect_timeout_s = 1.;
    request_timeout_s = 30.;
    probe_timeout_s = 1.;
    health_period_s = 2.;
    failure_threshold = 3;
    breaker_cooldown_s = 5.;
    backoff_base_ms = 25.;
    backoff_cap_ms = 1000.;
    seed = 0;
    queue_depth = 64;
    retry_after_ms = 250;
  }

let obs_requests =
  Obs.counter ~help:"Request lines received by the router (malformed included)"
    "etx_cluster_requests_total"

let obs_responses =
  Obs.counter ~help:"Response lines the router wrote back"
    "etx_cluster_responses_total"

let obs_routed =
  Obs.counter ~help:"Scenario requests dispatched toward a backend"
    "etx_cluster_routed_total"

let obs_failover =
  Obs.counter ~help:"Retries against a different candidate after a failure"
    "etx_cluster_failover_total"

let obs_shed =
  Obs.counter ~help:"Scenario requests shed by fair admission"
    "etx_cluster_shed_total"

let obs_degraded =
  Obs.counter ~help:"Degraded (retryable) error responses"
    "etx_cluster_degraded_total"

let obs_deadline =
  Obs.counter ~help:"Requests whose deadline expired while routing"
    "etx_cluster_deadline_exceeded_total"

let obs_errors =
  Obs.counter ~help:"Error responses of any kind" "etx_cluster_errors_total"

let obs_probe result =
  Obs.counter ~help:"Health probes by outcome" ~labels:[ ("result", result) ]
    "etx_cluster_probes_total"

let obs_probe_ok = obs_probe "ok"
let obs_probe_fail = obs_probe "fail"

type rpc = path:string -> timeout_s:float -> string -> (string, string) result

type backend = {
  name : string;
  breaker : Breaker.t;
  obs_dispatched : Obs.counter;
  obs_failures : Obs.counter;
  mutable last_heard : float;  (* last success or probe attempt *)
  mutable dispatched : int;
  mutable transport_failures : int;
}

type t = {
  cfg : config;
  ring : Ring.t;
  table : (string, backend) Hashtbl.t;
  order : string list;  (* config order, for stats *)
  now : unit -> float;
  sleep : float -> unit;
  rpc : rpc;
  backoff : Backoff.t;
  names : Names.t;
  mutable routed_total : int;
  mutable failover_total : int;
  mutable shed_total : int;
  mutable degraded_total : int;
  mutable deadline_exceeded_total : int;
  mutable errors_total : int;
  mutable probe_total : int;
  mutable probe_failures : int;
  mutable stopping : bool;
}

(* - the real transport: dial, one line out, one line back, bounded -

   All blocking steps go through Netio, so EINTR (signals from
   supervised children) retries with the remaining deadline instead of
   failing the dispatch. *)

let socket_rpc ~connect_timeout_s ~now : rpc =
 fun ~path ~timeout_s line ->
  let connect_deadline = now () +. connect_timeout_s in
  match Netio.connect ~deadline:connect_deadline ~now path with
  | Error msg -> Error (Printf.sprintf "%s: %s" path msg)
  | Ok fd ->
    let finish () = try Unix.close fd with Unix.Unix_error _ -> () in
    (match
       let deadline = now () +. timeout_s in
       Netio.write_all fd ~deadline ~now (Bytes.of_string (line ^ "\n\n"));
       match Netio.read_line ~deadline ~now (Netio.reader fd) with
       | Some response -> response
       | None -> failwith "connection closed"
     with
    | response ->
      finish ();
      Ok response
    | exception Failure msg ->
      finish ();
      Error (Printf.sprintf "%s: %s" path msg)
    | exception Unix.Unix_error (err, _, _) ->
      finish ();
      Error (Printf.sprintf "%s: %s" path (Unix.error_message err)))

(* - construction - *)

let create ?(now = Unix.gettimeofday) ?(sleep = Unix.sleepf) ?rpc cfg =
  if cfg.backends = [] then invalid_arg "Cluster.create: need at least one backend";
  if List.length (List.sort_uniq compare cfg.backends) <> List.length cfg.backends
  then invalid_arg "Cluster.create: duplicate backends";
  if cfg.attempts < 1 then invalid_arg "Cluster.create: attempts must be >= 1";
  if cfg.queue_depth < 1 then invalid_arg "Cluster.create: queue_depth must be >= 1";
  if
    cfg.connect_timeout_s <= 0. || cfg.request_timeout_s <= 0.
    || cfg.probe_timeout_s <= 0. || cfg.health_period_s <= 0.
  then invalid_arg "Cluster.create: timeouts must be positive";
  let rpc =
    match rpc with
    | Some rpc -> rpc
    | None -> socket_rpc ~connect_timeout_s:cfg.connect_timeout_s ~now
  in
  let table = Hashtbl.create 8 in
  List.iter
    (fun name ->
      Hashtbl.replace table name
        {
          name;
          breaker =
            Breaker.create ~failure_threshold:cfg.failure_threshold
              ~cooldown_s:cfg.breaker_cooldown_s ~obs_label:name ~now ();
          obs_dispatched =
            Obs.counter ~help:"Requests dispatched per backend"
              ~labels:[ ("backend", name) ]
              "etx_cluster_backend_dispatched_total";
          obs_failures =
            Obs.counter ~help:"Transport failures per backend"
              ~labels:[ ("backend", name) ]
              "etx_cluster_backend_failures_total";
          (* never heard from: due for a probe immediately *)
          last_heard = neg_infinity;
          dispatched = 0;
          transport_failures = 0;
        })
    cfg.backends;
  {
    cfg;
    ring = Ring.create ~replicas:cfg.replicas cfg.backends;
    table;
    order = cfg.backends;
    now;
    sleep;
    rpc;
    backoff =
      Backoff.create ~base_ms:cfg.backoff_base_ms ~cap_ms:cfg.backoff_cap_ms
        ~seed:cfg.seed ();
    names = Names.create ();
    routed_total = 0;
    failover_total = 0;
    shed_total = 0;
    degraded_total = 0;
    deadline_exceeded_total = 0;
    errors_total = 0;
    probe_total = 0;
    probe_failures = 0;
    stopping = false;
  }

let backend t name = Hashtbl.find t.table name

let record_success t b =
  Breaker.record_success b.breaker;
  b.last_heard <- t.now ()

let record_failure t b =
  Breaker.record_failure b.breaker;
  b.transport_failures <- b.transport_failures + 1;
  Obs.inc b.obs_failures;
  b.last_heard <- t.now ()

let ping_line = {|{"scenario":"ping"}|}

let probe_backend t b =
  t.probe_total <- t.probe_total + 1;
  match t.rpc ~path:b.name ~timeout_s:t.cfg.probe_timeout_s ping_line with
  | Ok _ ->
    Obs.inc obs_probe_ok;
    record_success t b
  | Error _ ->
    t.probe_failures <- t.probe_failures + 1;
    Obs.inc obs_probe_fail;
    record_failure t b

let probe t =
  List.iter
    (fun name ->
      let b = backend t name in
      if t.now () -. b.last_heard >= t.cfg.health_period_s then probe_backend t b)
    t.order

(* - responses - *)

(* every error response counts once in the stats and once in the
   registry, so the two never drift apart *)
let count_error t =
  t.errors_total <- t.errors_total + 1;
  Obs.inc obs_errors

let degraded_response t id message =
  t.degraded_total <- t.degraded_total + 1;
  count_error t;
  Obs.inc obs_degraded;
  Request.error_response
    ~extra:[ ("retry_after_ms", Json.Int t.cfg.retry_after_ms) ]
    id "degraded" message

let backend_stats t =
  Json.Obj
    (List.map
       (fun name ->
         let b = backend t name in
         ( name,
           Json.Obj
             [
               ("health", Json.String (Breaker.health_name b.breaker));
               ("breaker", Json.String (Breaker.state_name (Breaker.state b.breaker)));
               ( "consecutive_failures",
                 Json.Int (Breaker.consecutive_failures b.breaker) );
               ("dispatched", Json.Int b.dispatched);
               ("transport_failures", Json.Int b.transport_failures);
               ("breaker_opened_total", Json.Int (Breaker.opened_total b.breaker));
               ("health_transitions", Json.Int (Breaker.health_transitions b.breaker));
             ] ))
       t.order)

let stats_json t =
  Json.Obj
    [
      ("role", Json.String "cluster-router");
      ("backends", backend_stats t);
      ("routed_total", Json.Int t.routed_total);
      ("failover_total", Json.Int t.failover_total);
      ("shed_total", Json.Int t.shed_total);
      ("degraded_total", Json.Int t.degraded_total);
      ("deadline_exceeded_total", Json.Int t.deadline_exceeded_total);
      ("errors_total", Json.Int t.errors_total);
      ("probe_total", Json.Int t.probe_total);
      ("probe_failures", Json.Int t.probe_failures);
      ("queue_depth", Json.Int t.cfg.queue_depth);
      ("attempts", Json.Int t.cfg.attempts);
    ]

(* - dispatch with failover - *)

(* first candidate from [attempt] onwards (cycling) whose breaker admits
   a request right now; half-open probe slots are consumed only by the
   candidate actually chosen *)
let pick_candidate candidates attempt =
  let n = Array.length candidates in
  let rec go j =
    if j = n then None
    else
      let b = candidates.((attempt + j) mod n) in
      if Breaker.allow b.breaker then Some b else go (j + 1)
  in
  go 0

type dispatch_outcome =
  | Response of string
  | Unavailable of string
  | Expired

let dispatch t ~fp ~deadline_abs line =
  let candidates =
    Array.of_list (List.map (backend t) (Ring.ordered t.ring fp))
  in
  Backoff.reset t.backoff;
  let rec attempt i last_error =
    if i >= t.cfg.attempts then
      Unavailable
        (Printf.sprintf "no backend answered after %d attempt(s)%s" t.cfg.attempts
           (match last_error with None -> "" | Some e -> ": last error: " ^ e))
    else
      let remaining =
        match deadline_abs with
        | None -> infinity
        | Some d -> d -. t.now ()
      in
      if remaining <= 0. then Expired
      else
        match pick_candidate candidates i with
        | None ->
          Unavailable
            (Printf.sprintf "all %d backend breaker(s) open"
               (Array.length candidates))
        | Some b -> (
          if i > 0 then begin
            t.failover_total <- t.failover_total + 1;
            Obs.inc obs_failover
          end;
          b.dispatched <- b.dispatched + 1;
          Obs.inc b.obs_dispatched;
          let timeout_s = Float.min t.cfg.request_timeout_s remaining in
          match
            Span.span "cluster.dispatch" (fun () ->
              t.rpc ~path:b.name ~timeout_s line)
          with
          | Ok response ->
            record_success t b;
            Response response
          | Error message ->
            record_failure t b;
            (* pace the retry, but never sleep past the deadline *)
            let delay_s = Backoff.next t.backoff /. 1000. in
            let remaining = match deadline_abs with
              | None -> infinity
              | Some d -> d -. t.now ()
            in
            if remaining > 0. then t.sleep (Float.min delay_s remaining);
            attempt (i + 1) (Some message))
  in
  attempt 0 None

(* - batches - *)

type item = Parsed of Request.t | Malformed of Request.error

(* Splice a freshly minted trace id into a raw request line, right after
   the opening brace, so the backend sees it without the router
   re-serializing the request (key order, duplicate keys and number
   spellings all survive untouched).  Only called on lines that already
   parsed as objects; runs only while the registry is armed, so the
   disarmed router forwards request bytes verbatim. *)
let inject_trace_id line trace_id =
  match String.index_opt line '{' with
  | None -> line
  | Some i ->
    let rest = String.sub line (i + 1) (String.length line - i - 1) in
    let sep = if String.trim rest = "}" then "" else "," in
    Printf.sprintf "%s\"trace_id\":%s%s%s"
      (String.sub line 0 (i + 1))
      (Json.to_string (Json.String trace_id))
      sep rest

(* per-client round-robin admission: iterate arrival order repeatedly,
   admitting at most one request per client per round, until the depth
   is reached — so one chatty client cannot starve the rest *)
let fair_admit ~depth scenarios =
  let admitted = Hashtbl.create 8 in
  let remaining = Queue.create () in
  List.iter (fun x -> Queue.add x remaining) scenarios;
  let taken = ref 0 in
  let progress = ref true in
  while !taken < depth && !progress && not (Queue.is_empty remaining) do
    progress := false;
    let round = Queue.length remaining in
    let this_round = Hashtbl.create 8 in
    for _ = 1 to round do
      let ((idx, (req : Request.t)) as entry) = Queue.pop remaining in
      if !taken < depth && not (Hashtbl.mem this_round req.client) then begin
        Hashtbl.replace this_round req.client ();
        Hashtbl.replace admitted idx ();
        incr taken;
        progress := true
      end
      else Queue.add entry remaining
    done
  done;
  admitted

let handle_batch t lines =
  probe t;
  let batch_start = t.now () in
  let raw_lines = Array.of_list lines in
  let items =
    Array.map
      (fun line ->
        match Request.of_line line with
        | Ok req -> Parsed req
        | Error err -> Malformed err)
      raw_lines
  in
  (* a response is either JSON built here or a backend's line, forwarded
     byte-for-byte (never re-parsed, never re-printed) *)
  let responses = Array.make (Array.length items) "" in
  let reply idx json = responses.(idx) <- Json.to_string json in
  Obs.add obs_requests (Array.length items);
  let runnable = ref [] in
  let scenarios = ref [] in
  Array.iteri
    (fun idx item ->
      match item with
      | Malformed err ->
        count_error t;
        reply idx (Request.error_response err.error_id err.error_code err.reason)
      | Parsed (req : Request.t) -> (
        match req.body with
        | Request.Control _ -> runnable := (idx, req, "") :: !runnable
        | Request.Scenario scenario -> (
          (* a request refused at fingerprinting takes no admission slot *)
          match Names.fingerprint t.names scenario with
          | Error message ->
            count_error t;
            reply idx (Request.error_response req.id "invalid_request" message)
          | Ok fp ->
            runnable := (idx, req, fp) :: !runnable;
            scenarios := (idx, req) :: !scenarios)))
    items;
  let admitted = fair_admit ~depth:t.cfg.queue_depth (List.rev !scenarios) in
  (* shed everything not admitted before doing any work *)
  List.iter
    (fun (idx, (req : Request.t)) ->
      if not (Hashtbl.mem admitted idx) then begin
        t.shed_total <- t.shed_total + 1;
        Obs.inc obs_shed;
        reply idx
          (degraded_response t req.id
             (Printf.sprintf "cluster saturated: %d scenario request(s) admitted this batch"
                t.cfg.queue_depth))
      end)
    (List.rev !scenarios);
  let order =
    List.stable_sort
      (fun (_, (a : Request.t), _) (_, (b : Request.t), _) ->
        compare b.priority a.priority)
      (List.rev !runnable)
  in
  List.iter
    (fun (idx, (req : Request.t), fp) ->
      match req.body with
      | Request.Control control ->
        let t0 = t.now () in
        let name = Request.scenario_name req.body in
        let result =
          match control with
          | Request.Ping -> Json.String "pong"
          | Request.Stats -> stats_json t
          | Request.Metrics Request.Metrics_json -> Expo.json ()
          | Request.Metrics Request.Metrics_prometheus ->
            Json.String (Expo.prometheus ())
          | Request.Shutdown ->
            t.stopping <- true;
            Json.String "stopping"
        in
        let elapsed_ms = (t.now () -. t0) *. 1000. in
        reply idx (Request.ok_response ~scenario:name ~elapsed_ms req.id result)
      | Request.Scenario _ ->
        if Hashtbl.mem admitted idx then begin
          let deadline_abs =
            Option.map
              (fun d -> batch_start +. (float_of_int d /. 1000.))
              req.deadline_ms
          in
          t.routed_total <- t.routed_total + 1;
          Obs.inc obs_routed;
          (* the front door mints the trace id: a request arriving
             without one gets one spliced into the forwarded bytes.
             Disarmed, the line is forwarded verbatim — the chaos
             harness's byte-identity contract is untouched. *)
          let line, trace =
            if Obs.enabled () then
              match req.trace_id with
              | Some tid -> (raw_lines.(idx), Some tid)
              | None ->
                let tid = Span.new_trace_id () in
                (inject_trace_id raw_lines.(idx) tid, Some tid)
            else (raw_lines.(idx), None)
          in
          match
            Span.with_trace trace (fun () ->
              Span.span "cluster.route" (fun () ->
                dispatch t ~fp ~deadline_abs line))
          with
          | Response response_line ->
            (* forwarded verbatim: the cluster adds no bytes, so a
               response is bit-identical to the backend's own *)
            responses.(idx) <- response_line
          | Unavailable message -> reply idx (degraded_response t req.id message)
          | Expired ->
            t.deadline_exceeded_total <- t.deadline_exceeded_total + 1;
            count_error t;
            Obs.inc obs_deadline;
            reply idx
              (Request.error_response req.id "deadline_exceeded"
                 (Printf.sprintf "deadline of %d ms expired while routing"
                    (Option.value req.deadline_ms ~default:0)))
        end)
    order;
  Obs.add obs_responses (Array.length responses);
  Array.to_list responses

let stopped t = t.stopping
