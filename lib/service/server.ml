module Json = Etx_util.Json
module Stats = Etx_util.Stats
module Pool = Etx_util.Pool
module Obs = Etx_obs.Obs
module Span = Etx_obs.Span
module Expo = Etx_obs.Expo

type config = {
  queue_depth : int;
  cache_capacity : int;
  domains : int;
  store_dir : string option;
}

let default_config =
  { queue_depth = 64; cache_capacity = 128; domains = 1; store_dir = None }

let obs_requests =
  Obs.counter ~help:"Request lines received (malformed ones included)"
    "etx_server_requests_total"

let obs_responses =
  Obs.counter ~help:"Responses written back" "etx_server_responses_total"

let obs_errors =
  Obs.counter ~help:"Error responses of any kind" "etx_server_errors_total"

let obs_shed =
  Obs.counter ~help:"Scenario requests shed by queue-depth admission"
    "etx_server_shed_total"

let obs_deadline =
  Obs.counter ~help:"Requests expired before compute"
    "etx_server_deadline_exceeded_total"

let obs_result source =
  Obs.counter ~help:"Scenario results by serving tier"
    ~labels:[ ("source", source) ] "etx_server_results_total"

let obs_result_coalesced = obs_result "coalesced"
let obs_result_cache = obs_result "cache"
let obs_result_store = obs_result "store"
let obs_result_compute = obs_result "compute"

let obs_batch_size =
  Obs.histogram ~help:"Request lines per batch"
    ~bounds:(Obs.log_linear ~lo:1. ~hi:1024. ~per_octave:1)
    "etx_server_batch_size"

let obs_request_ms =
  Obs.histogram ~help:"Per-request wall time, milliseconds"
    "etx_server_request_duration_ms"

let obs_queue_depth =
  Obs.gauge ~help:"Scenario requests admitted in the latest batch"
    "etx_server_queue_depth"

(* Per-scenario latency: an all-time Welford summary plus a bounded ring
   of recent samples for percentiles, so a server up for weeks still
   reports the current tail, not its whole history averaged flat. *)
let latency_window = 512

type latency = {
  summary : Stats.t;
  window : float array;
  mutable filled : int;
  mutable next : int;
}

type t = {
  cfg : config;
  pool : Pool.t;
  cache : Json.t Cache.t;
  store : Store.t option;
  latencies : (string, latency) Hashtbl.t;
  now : unit -> float;
  mutable admitted_total : int;
  mutable rejected_total : int;
  mutable served_total : int;
  mutable errors_total : int;
  mutable deadline_exceeded_total : int;
  mutable stopping : bool;
}

let create ?(now = Unix.gettimeofday) cfg =
  if cfg.queue_depth < 1 then invalid_arg "Server.create: queue_depth must be >= 1";
  if cfg.cache_capacity < 0 then
    invalid_arg "Server.create: cache_capacity must be >= 0";
  if cfg.domains < 1 then invalid_arg "Server.create: domains must be >= 1";
  (* open the durable store before the pool so a bad --store path fails
     fast without leaking worker domains *)
  let store = Option.map Store.open_dir cfg.store_dir in
  {
    cfg;
    pool = Pool.create ~domains:cfg.domains ();
    cache = Cache.create ~capacity:cfg.cache_capacity;
    store;
    latencies = Hashtbl.create 8;
    now;
    admitted_total = 0;
    rejected_total = 0;
    served_total = 0;
    errors_total = 0;
    deadline_exceeded_total = 0;
    stopping = false;
  }

let stopped t = t.stopping
let shutdown t = Pool.shutdown t.pool

let record_latency t name ms =
  let l =
    match Hashtbl.find_opt t.latencies name with
    | Some l -> l
    | None ->
      let l =
        {
          summary = Stats.create ();
          window = Array.make latency_window 0.;
          filled = 0;
          next = 0;
        }
      in
      Hashtbl.replace t.latencies name l;
      l
  in
  Stats.add l.summary ms;
  l.window.(l.next) <- ms;
  l.next <- (l.next + 1) mod Array.length l.window;
  if l.filled < Array.length l.window then l.filled <- l.filled + 1

(* Percentiles sort their input, so the ring's wrap order is irrelevant;
   only the first [filled] slots hold real samples. *)
let window_values l = List.init l.filled (fun i -> l.window.(i))

let scenario_stats t =
  let names =
    Hashtbl.fold (fun name _ acc -> name :: acc) t.latencies []
    |> List.sort compare
  in
  Json.Obj
    (List.map
       (fun name ->
         let l = Hashtbl.find t.latencies name in
         let samples = window_values l in
         let pct p = Json.float_lenient (Stats.percentile samples ~p) in
         ( name,
           Json.Obj
             [
               ("count", Json.Int (Stats.count l.summary));
               ("mean_ms", Json.float_lenient (Stats.mean l.summary));
               ("p50_ms", pct 0.5);
               ("p90_ms", pct 0.9);
               ("p99_ms", pct 0.99);
               ("max_ms", Json.float_lenient (Stats.max l.summary));
             ] ))
       names)

let cache_stats t =
  let hits = Cache.hits t.cache and misses = Cache.misses t.cache in
  let lookups = hits + misses in
  Json.Obj
    [
      ("capacity", Json.Int (Cache.capacity t.cache));
      ("entries", Json.Int (Cache.length t.cache));
      ("hits", Json.Int hits);
      ("misses", Json.Int misses);
      ("evictions", Json.Int (Cache.evictions t.cache));
      ( "hit_rate",
        Json.float_lenient
          (if lookups = 0 then 0. else float_of_int hits /. float_of_int lookups)
      );
    ]

let store_stats store =
  Json.Obj
    [
      ("dir", Json.String (Store.dir store));
      ("entries", Json.Int (Store.length store));
      ("hits", Json.Int (Store.hits store));
      ("misses", Json.Int (Store.misses store));
      ("corrupt_dropped", Json.Int (Store.corrupt_dropped store));
      ("write_errors", Json.Int (Store.write_errors store));
    ]

let stats_json t =
  Json.Obj
    ([
       ("queue_depth", Json.Int t.cfg.queue_depth);
       ("admitted_total", Json.Int t.admitted_total);
       ("rejected_total", Json.Int t.rejected_total);
       ("served_total", Json.Int t.served_total);
       ("errors_total", Json.Int t.errors_total);
       ("deadline_exceeded_total", Json.Int t.deadline_exceeded_total);
       ("pool_domains", Json.Int (Pool.size t.pool));
       ("cache", cache_stats t);
     ]
    @ (match t.store with
      | None -> []
      | Some store -> [ ("store", store_stats store) ])
    @ [ ("scenarios", scenario_stats t) ])

let ok_response ?cache ~scenario ~elapsed_ms id result =
  Json.Obj
    ([ ("id", id); ("status", Json.String "ok"); ("scenario", Json.String scenario) ]
    @ (match cache with
      | None -> []
      | Some how -> [ ("cache", Json.String how) ])
    @ [ ("elapsed_ms", Json.float_lenient elapsed_ms); ("result", result) ])

let error_response id code message =
  Json.Obj
    [
      ("id", id);
      ("status", Json.String "error");
      ("error", Json.String code);
      ("message", Json.String message);
    ]

type item = Parsed of Request.t | Malformed of Request.error

let handle_batch t lines =
  (* deadlines are measured from batch receipt: a low-priority request
     stuck behind expensive work can expire while it waits *)
  let batch_start = t.now () in
  let items =
    Array.of_list
      (List.map
         (fun line ->
           match Request.of_line line with
           | Ok req -> Parsed req
           | Error err -> Malformed err)
         lines)
  in
  let responses = Array.make (Array.length items) Json.Null in
  Obs.add obs_requests (Array.length items);
  Obs.observe obs_batch_size (float_of_int (Array.length items));
  (* Admission: parse errors and over-depth scenario requests are
     answered on the spot; everything else becomes runnable.  Control
     requests never occupy queue slots, so stats stays observable on a
     saturated server. *)
  let admitted = ref 0 in
  let runnable = ref [] in
  Array.iteri
    (fun idx item ->
      match item with
      | Malformed err ->
        t.errors_total <- t.errors_total + 1;
        Obs.inc obs_errors;
        responses.(idx) <- error_response err.error_id err.error_code err.reason
      | Parsed req -> (
        match req.body with
        | Request.Control _ -> runnable := (idx, req) :: !runnable
        | Request.Scenario _ ->
          if !admitted < t.cfg.queue_depth then begin
            incr admitted;
            t.admitted_total <- t.admitted_total + 1;
            runnable := (idx, req) :: !runnable
          end
          else begin
            t.rejected_total <- t.rejected_total + 1;
            t.errors_total <- t.errors_total + 1;
            Obs.inc obs_shed;
            Obs.inc obs_errors;
            responses.(idx) <-
              error_response req.id "queue_full"
                (Printf.sprintf
                   "queue depth %d exceeded for this batch; resubmit later"
                   t.cfg.queue_depth)
          end))
    items;
  (* Higher priority first; the stable sort keeps arrival order for ties. *)
  let order =
    List.stable_sort
      (fun (_, (a : Request.t)) (_, (b : Request.t)) ->
        compare b.priority a.priority)
      (List.rev !runnable)
  in
  (* Results computed in this batch, keyed by fingerprint: duplicates are
     coalesced onto one execution even when the cache is disabled. *)
  let batch_results : (string, Json.t) Hashtbl.t = Hashtbl.create 8 in
  List.iter
    (fun (idx, (req : Request.t)) ->
      let name = Request.scenario_name req.body in
      match req.body with
      | Request.Control control ->
        let t0 = t.now () in
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
        responses.(idx) <- ok_response ~scenario:name ~elapsed_ms req.id result
      | Request.Scenario scenario ->
        Span.with_trace req.trace_id (fun () ->
        Span.span "server.handle" (fun () ->
        let t0 = t.now () in
        let expired =
          match req.deadline_ms with
          | None -> false
          | Some d -> (t0 -. batch_start) *. 1000. >= float_of_int d
        in
        if expired then begin
          t.deadline_exceeded_total <- t.deadline_exceeded_total + 1;
          t.errors_total <- t.errors_total + 1;
          Obs.inc obs_deadline;
          Obs.inc obs_errors;
          responses.(idx) <-
            error_response req.id "deadline_exceeded"
              (Printf.sprintf "deadline of %d ms expired before compute"
                 (Option.value req.deadline_ms ~default:0))
        end
        else
        match
          try Handlers.fingerprint scenario
          with exn -> Error (Printexc.to_string exn)
        with
        | Error message ->
          t.errors_total <- t.errors_total + 1;
          Obs.inc obs_errors;
          responses.(idx) <- error_response req.id "invalid_request" message
        | Ok fp -> (
          (* result tiers: this batch, the in-memory LRU, the durable
             store, then compute (which backfills both caches) *)
          let from_store () =
            match t.store with
            | None -> None
            | Some store -> (
              match Span.span "server.store" (fun () -> Store.find store fp) with
              | None -> None
              | Some bytes -> (
                (* a store entry is our own serialized result; if it
                   does not parse, treat it like any other corruption:
                   a miss, recompute *)
                match Json.parse_result bytes with
                | Ok result -> Some result
                | Error _ -> None))
          in
          let outcome =
            match Hashtbl.find_opt batch_results fp with
            | Some result ->
              Obs.inc obs_result_coalesced;
              Ok ("coalesced", result)
            | None -> (
              match Span.span "server.cache" (fun () -> Cache.find t.cache fp) with
              | Some result ->
                Obs.inc obs_result_cache;
                Hashtbl.replace batch_results fp result;
                Ok ("hit", result)
              | None -> (
                match from_store () with
                | Some result ->
                  Obs.inc obs_result_store;
                  Cache.add t.cache fp result;
                  Hashtbl.replace batch_results fp result;
                  Ok ("store", result)
                | None -> (
                  match
                    Span.span "server.compute" (fun () ->
                      Handlers.execute ~pool:t.pool scenario)
                  with
                  | Ok result ->
                    Obs.inc obs_result_compute;
                    Cache.add t.cache fp result;
                    Option.iter
                      (fun store -> Store.add store fp (Json.to_string result))
                      t.store;
                    Hashtbl.replace batch_results fp result;
                    Ok ("miss", result)
                  | Error message -> Error message
                  | exception exn -> Error (Printexc.to_string exn))))
          in
          match outcome with
          | Ok (how, result) ->
            let elapsed_ms = (t.now () -. t0) *. 1000. in
            record_latency t name elapsed_ms;
            Obs.observe obs_request_ms elapsed_ms;
            t.served_total <- t.served_total + 1;
            responses.(idx) <-
              ok_response ~cache:how ~scenario:name ~elapsed_ms req.id result
          | Error message ->
            t.errors_total <- t.errors_total + 1;
            Obs.inc obs_errors;
            responses.(idx) <- error_response req.id "failed" message))))
    order;
  Obs.set obs_queue_depth (float_of_int !admitted);
  Obs.add obs_responses (Array.length responses);
  Array.to_list (Array.map Json.to_string responses)
