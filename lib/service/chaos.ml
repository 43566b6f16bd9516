module Json = Etx_util.Json
module Prng = Etx_util.Prng

type config = {
  exe : string;
  backends : int;
  requests : int;
  events : int;
  seed : int;
  dir : string;
  mesh_size : int;
  log : string -> unit;
}

let config ?(backends = 3) ?(requests = 12) ?(events = 6) ?(seed = 1) ?(mesh_size = 4)
    ?(log = ignore) ~exe ~dir () =
  if backends < 1 then invalid_arg "Chaos.config: backends must be at least 1";
  if requests < 1 then invalid_arg "Chaos.config: requests must be at least 1";
  if events < 0 then invalid_arg "Chaos.config: events must be non-negative";
  { exe; backends; requests; events; seed; dir; mesh_size; log }

type outcome = {
  seed : int;
  completed : int;
  client_retries : int;
  kills : int;
  hangs : int;
  supervised_restarts : int;
  rolling_completed : int;
  store_served_after_restart : int;
  violations : string list;
}

(* - the request stream -

   Distinct seeds give every request a distinct fingerprint, so the
   durability phase can demand a store hit for each one. *)

let request_line (cfg : config) i =
  Json.to_string
    (Json.Obj
       [
         ("id", Json.Int i);
         ("scenario", Json.String "simulate");
         ( "params",
           Json.Obj
             [ ("mesh_size", Json.Int cfg.mesh_size); ("seed", Json.Int (1000 + i)) ]
         );
       ])

(* - response dissection - *)

type reply =
  | Served of { cache : string; result : string }
  | Refused of string
  | Garbled of string

let classify line =
  match Json.parse_result line with
  | Error reason -> Garbled (Printf.sprintf "unparseable response %S: %s" line reason)
  | Ok json -> (
    let str key =
      match Json.member key json with Some (Json.String s) -> s | _ -> ""
    in
    match str "status" with
    | "ok" ->
      let result =
        match Json.member "result" json with None -> "" | Some r -> Json.to_string r
      in
      Served { cache = str "cache"; result }
    | _ -> Refused (str "error"))

(* - chaos schedule -

   Runs in its own domain concurrently with the request stream while
   the supervisor heals.  The schedule only wounds: a kill is SIGKILL
   without reaping (observing the exit and respawning is the
   supervisor's job), a hang is SIGSTOP, a short sleep, then SIGCONT.
   The event sequence (which backend, which failure) is a pure function
   of the seed; only whether the chosen backend is up at that moment,
   and the interleaving with requests, is up to the OS. *)

type chaos_counts = { mutable kills : int; mutable hangs : int }

let signal pid s = try Unix.kill pid s with Unix.Unix_error _ -> ()

let run_chaos (cfg : config) sup counts =
  let rng = Prng.create ~seed:(cfg.seed * 2 + 1) in
  let pick () = Prng.int rng ~bound:cfg.backends in
  for _ = 1 to cfg.events do
    Unix.sleepf (0.03 +. Prng.float rng ~bound:0.09);
    let roll = Prng.float rng ~bound:1. in
    if roll < 0.45 then begin
      let index = pick () in
      let pid = Supervisor.pid sup index in
      if pid > 0 then begin
        cfg.log (Printf.sprintf "chaos: kill backend %d (pid %d)" index pid);
        signal pid Sys.sigkill;
        counts.kills <- counts.kills + 1
      end
    end
    else if roll < 0.72 then begin
      let index = pick () in
      let pause = 0.05 +. Prng.float rng ~bound:0.15 in
      let pid = Supervisor.pid sup index in
      if pid > 0 then begin
        cfg.log (Printf.sprintf "chaos: hang backend %d (pid %d)" index pid);
        signal pid Sys.sigstop;
        Fun.protect
          ~finally:(fun () -> signal pid Sys.sigcont)
          (fun () -> Unix.sleepf pause);
        counts.hangs <- counts.hangs + 1
      end
    end
    (* the remaining rolls leave the fleet alone: healing is the
       supervisor's job *)
  done;
  (* leave the cluster whole: wait until every backend answers a ping *)
  ignore (Supervisor.await_ready sup)

(* - the request stream with client-side retry -

   [degraded]/[retry_after_ms] responses are the cluster telling the
   client to come back; honoring that contract (with a bounded budget)
   is part of the property: every accepted request must eventually
   complete, bit-identically. *)

let retry_budget = 100

let drive_stream (cfg : config) cluster ~indices reference violations =
  let completed = ref 0 and client_retries = ref 0 in
  let pending = Queue.create () in
  List.iter (fun i -> Queue.add (i, retry_budget) pending) indices;
  while not (Queue.is_empty pending) do
    (* small batches so chaos events interleave with many dispatches *)
    let batch = ref [] in
    while not (Queue.is_empty pending) && List.length !batch < 3 do
      batch := Queue.pop pending :: !batch
    done;
    let batch = List.rev !batch in
    let lines = List.map (fun (i, _) -> request_line cfg i) batch in
    let replies = Cluster.handle_batch cluster lines in
    let retry_wanted = ref false in
    List.iter2
      (fun (i, budget) reply ->
        match classify reply with
        | Garbled what -> violations := what :: !violations
        | Served { result; _ } ->
          if String.equal result reference.(i) then incr completed
          else
            violations :=
              Printf.sprintf "request %d: result diverged from single-daemon run" i
              :: !violations
        | Refused "degraded" ->
          if budget <= 1 then
            violations :=
              Printf.sprintf "request %d: lost (retry budget exhausted while degraded)"
                i
              :: !violations
          else begin
            incr client_retries;
            retry_wanted := true;
            Queue.add (i, budget - 1) pending
          end
        | Refused code ->
          violations :=
            Printf.sprintf "request %d: unexpected error code %S in %s" i code reply
            :: !violations)
      batch replies;
    if !retry_wanted then Unix.sleepf 0.05
  done;
  (!completed, !client_retries)

(* - reference run: one in-process daemon, no store, no chaos - *)

let reference_results (cfg : config) ~count =
  let server =
    Server.create
      { Server.default_config with queue_depth = max 64 count; domains = 1 }
  in
  Fun.protect
    ~finally:(fun () -> Server.shutdown server)
    (fun () ->
      let lines = List.init count (request_line cfg) in
      let replies = Server.handle_batch server lines in
      Array.of_list
        (List.map
           (fun reply ->
             match classify reply with
             | Served { result; _ } -> result
             | Refused _ | Garbled _ ->
               failwith ("chaos: reference run failed on " ^ reply))
           replies))

let cluster_config (cfg : config) =
  {
    (Cluster.default_config
       ~backends:(List.init cfg.backends (Supervisor.backend_socket ~dir:cfg.dir)))
    with
    attempts = cfg.backends + 2;
    connect_timeout_s = 0.5;
    request_timeout_s = 5.;
    probe_timeout_s = 0.5;
    health_period_s = 0.25;
    failure_threshold = 2;
    breaker_cooldown_s = 0.3;
    backoff_base_ms = 10.;
    backoff_cap_ms = 80.;
    seed = cfg.seed;
    queue_depth = max 64 cfg.requests;
    retry_after_ms = 40;
  }

(* durability phase: SIGKILL the whole fleet (nothing may rely on a
   graceful exit), then restart it cold and demand every result back
   from the shared store without recompute.  Healing is off by now, so
   nothing respawns behind the kill. *)
let cold_restart_durability (cfg : config) sup ~count reference violations =
  let violation fmt = Printf.ksprintf (fun s -> violations := s :: !violations) fmt in
  cfg.log "chaos: killing and cold-restarting every backend";
  for index = 0 to cfg.backends - 1 do
    let pid = Supervisor.pid sup index in
    if pid > 0 then signal pid Sys.sigkill
  done;
  (* reaps the killed fleet: every drain finds its child already gone *)
  Supervisor.stop_all sup;
  List.iter
    (violation "backend %d never became ready after cold restart")
    (Supervisor.start sup);
  let store_served = ref 0 in
  if !violations = [] then begin
    let cluster = Cluster.create (cluster_config cfg) in
    let lines = List.init count (request_line cfg) in
    let replies = Cluster.handle_batch cluster lines in
    List.iteri
      (fun i reply ->
        match classify reply with
        | Garbled what -> violations := what :: !violations
        | Served { cache = "store"; result } ->
          if String.equal result reference.(i) then incr store_served
          else violation "request %d: store bytes diverged after cold restart" i
        | Served { cache; _ } ->
          violation
            "request %d: recomputed after cold restart (cache %S, wanted \
             \"store\")"
            i cache
        | Refused code -> violation "request %d: error %S after cold restart" i code)
      replies
  end;
  !store_served

(* - the run -

   A Supervisor heals the fleet (reaps exits, respawns with per-child
   decorrelated-jitter backoff) while phase 1 routes a request stream
   through the chaos schedule.  Phase 2 is a rolling restart — graceful
   drain and resume of each backend in turn — concurrent with a second
   stream over fresh fingerprints; it must lose nothing and never
   escalate to SIGKILL.  Phase 3 is the cold-restart durability check
   over both streams. *)

let run (cfg : config) =
  let violations = ref [] in
  let violation fmt = Printf.ksprintf (fun s -> violations := s :: !violations) fmt in
  let sup =
    Supervisor.create
      (Supervisor.serve_ops ~exe:cfg.exe ~dir:cfg.dir ~jobs:1 ~metrics_every_s:None
         ~log:cfg.log)
      {
        (Supervisor.default_config ~children:cfg.backends) with
        backoff_base_ms = 20.;
        backoff_cap_ms = 250.;
        seed = cfg.seed;
        (* chaos kills land seconds apart at most: treat any uptime as
           stable so the seeded schedule cannot escalate delays unboundedly *)
        stable_after_s = 0.5;
        drain_grace_s = 10.;
        ready_timeout_s = 15.;
      }
  in
  Fun.protect
    ~finally:(fun () -> Supervisor.stop_all sup)
    (fun () ->
      let total = 2 * cfg.requests in
      let stream cluster ~first reference =
        drive_stream cfg cluster
          ~indices:(List.init cfg.requests (fun i -> first + i))
          reference violations
      in
      cfg.log "chaos: computing reference results (single daemon, no chaos)";
      let reference = reference_results cfg ~count:total in
      cfg.log (Printf.sprintf "chaos: starting %d supervised backends" cfg.backends);
      List.iter (violation "backend %d never became ready") (Supervisor.start sup);
      let counts = { kills = 0; hangs = 0 } in
      let completed, rolling_completed, client_retries =
        if !violations <> [] then (0, 0, 0)
        else begin
          let cluster = Cluster.create (cluster_config cfg) in
          Supervisor.while_healing sup ~period_s:0.03 (fun () ->
              (* phase 1: kills and hangs under supervision *)
              let chaos = Domain.spawn (fun () -> run_chaos cfg sup counts) in
              let first =
                Fun.protect
                  ~finally:(fun () -> Domain.join chaos)
                  (fun () -> stream cluster ~first:0 reference)
              in
              (* phase 2: rolling restart under a fresh request stream *)
              cfg.log "chaos: rolling restart under load";
              let roller = Domain.spawn (fun () -> Supervisor.rolling_restart sup) in
              let rolling_ok = ref true in
              let second =
                Fun.protect
                  ~finally:(fun () -> rolling_ok := Domain.join roller)
                  (fun () -> stream cluster ~first:cfg.requests reference)
              in
              if not !rolling_ok then
                violation
                  "rolling restart was not graceful (a drain escalated or a \
                   backend failed to come back ready)";
              (fst first, fst second, snd first + snd second))
        end
      in
      if Supervisor.forced_kills_total sup > 0 then
        violation "drain escalated to SIGKILL %d time(s)"
          (Supervisor.forced_kills_total sup);
      let supervised_restarts = Supervisor.restarts_total sup in
      let store_served =
        cold_restart_durability cfg sup ~count:total reference violations
      in
      {
        seed = cfg.seed;
        completed;
        client_retries;
        kills = counts.kills;
        hangs = counts.hangs;
        supervised_restarts;
        rolling_completed;
        store_served_after_restart = store_served;
        violations = List.rev !violations;
      })
