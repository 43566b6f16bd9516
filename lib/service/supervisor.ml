module Backoff = Etx_util.Backoff
module Obs = Etx_obs.Obs

let obs_respawns =
  Obs.counter ~help:"Dead children respawned after backoff"
    "etx_supervisor_respawns_total"

let obs_forced_kills =
  Obs.counter ~help:"Children SIGKILLed after out-staying the drain grace"
    "etx_supervisor_forced_kills_total"

let obs_drains =
  Obs.counter ~help:"Graceful drains initiated" "etx_supervisor_drains_total"

let obs_backing_off =
  Obs.gauge ~help:"Children currently waiting out a restart backoff"
    "etx_supervisor_backing_off"

type ops = {
  spawn : int -> int;
  term : int -> unit;
  kill : int -> unit;
  reap : int -> bool;
  ready : int -> bool;
  now : unit -> float;
  sleep : float -> unit;
  log : string -> unit;
}

(* - the serve fleet: every backend is [exe serve] in one directory - *)

let backend_file ~dir index ext =
  Filename.concat dir (Printf.sprintf "backend%d.%s" index ext)

let backend_socket ~dir index = backend_file ~dir index "sock"

(* one ping, bounded end to end; any transport failure means not ready *)
let ping ~socket ~timeout_s =
  let now = Unix.gettimeofday in
  let deadline = now () +. timeout_s in
  match Netio.connect ~deadline ~now socket with
  | Error _ -> false
  | Ok fd ->
    Fun.protect
      ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
      (fun () ->
        match
          Netio.write_all ~deadline ~now fd
            (Bytes.of_string ({|{"id":"ready","scenario":"ping"}|} ^ "\n\n"));
          Netio.read_line ~deadline ~now (Netio.reader fd)
        with
        | Some line -> line <> ""
        | None -> false
        | exception (Failure _ | Sys_error _ | Unix.Unix_error _) -> false)

let serve_ops ~exe ~dir ~jobs ~metrics_every_s ~log =
  (try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let spawn index =
    let metrics =
      match metrics_every_s with
      | None -> []
      | Some every ->
        [
          "--metrics-file"; backend_file ~dir index "metrics.json";
          "--metrics-every"; string_of_float every;
        ]
    in
    let argv =
      [
        exe; "serve"; "--socket"; backend_socket ~dir index; "--jobs";
        string_of_int jobs; "--store"; Filename.concat dir "store";
      ]
      @ metrics
    in
    let devnull = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
    let logfd =
      Unix.openfile (backend_file ~dir index "log")
        [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND ]
        0o644
    in
    Fun.protect
      ~finally:(fun () ->
        Unix.close devnull;
        Unix.close logfd)
      (fun () -> Unix.create_process exe (Array.of_list argv) devnull logfd logfd)
  in
  let signal s pid = try Unix.kill pid s with Unix.Unix_error _ -> () in
  {
    spawn;
    term = signal Sys.sigterm;
    kill = signal Sys.sigkill;
    reap =
      (fun pid ->
        match Unix.waitpid [ Unix.WNOHANG ] pid with
        | 0, _ -> false
        | _ -> true
        | exception Unix.Unix_error _ -> true);
    ready = (fun index -> ping ~socket:(backend_socket ~dir index) ~timeout_s:0.2);
    now = Unix.gettimeofday;
    sleep = Unix.sleepf;
    log;
  }

type config = {
  children : int;
  backoff_base_ms : float;
  backoff_cap_ms : float;
  seed : int;
  stable_after_s : float;
  drain_grace_s : float;
  ready_timeout_s : float;
}

let default_config ~children =
  if children < 1 then invalid_arg "Supervisor: children must be >= 1";
  {
    children;
    backoff_base_ms = 25.;
    backoff_cap_ms = 1000.;
    seed = 0;
    stable_after_s = 5.;
    drain_grace_s = 10.;
    ready_timeout_s = 15.;
  }

type phase =
  | Running
  | Backing_off of float  (* restart due at this absolute time *)
  | Stopped

type child = {
  index : int;
  mutable pid : int;
  mutable phase : phase;
  mutable started_at : float;
  backoff : Backoff.t;
}

type t = {
  ops : ops;
  cfg : config;
  children : child array;
  lock : Mutex.t;
  mutable restarts : int;
  mutable forced_kills : int;
}

let create ops (cfg : config) =
  if cfg.children < 1 then invalid_arg "Supervisor.create: children must be >= 1";
  {
    ops;
    cfg;
    children =
      Array.init cfg.children (fun index ->
          {
            index;
            pid = -1;
            phase = Stopped;
            started_at = neg_infinity;
            backoff =
              Backoff.create ~base_ms:cfg.backoff_base_ms ~cap_ms:cfg.backoff_cap_ms
                ~seed:(cfg.seed * 8191 + index) ();
          });
    lock = Mutex.create ();
    restarts = 0;
    forced_kills = 0;
  }

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let spawn_child t c =
  c.pid <- t.ops.spawn c.index;
  c.started_at <- t.ops.now ();
  c.phase <- Running

(* bounded readiness wait; ops.ready is one short probe, we loop it *)
let wait_ready t c =
  let deadline = t.ops.now () +. t.cfg.ready_timeout_s in
  let rec go () =
    if t.ops.ready c.index then true
    else if t.ops.now () >= deadline then false
    else begin
      t.ops.sleep 0.05;
      go ()
    end
  in
  go ()

let await_ready t =
  Array.to_list t.children
  |> List.filter_map (fun c -> if wait_ready t c then None else Some c.index)

let start t =
  locked t (fun () -> Array.iter (fun c -> spawn_child t c) t.children);
  await_ready t

let pid t index = locked t (fun () -> t.children.(index).pid)
let restarts_total t = locked t (fun () -> t.restarts)
let forced_kills_total t = locked t (fun () -> t.forced_kills)

let tick t =
  locked t (fun () ->
      Array.iter
        (fun c ->
          match c.phase with
          | Stopped -> ()
          | Running ->
            if c.pid > 0 && t.ops.reap c.pid then begin
              (* a long stable run earns a fresh (cheap) backoff; a
                 crash loop keeps escalating *)
              if t.ops.now () -. c.started_at >= t.cfg.stable_after_s then
                Backoff.reset c.backoff;
              let delay_s = Backoff.next c.backoff /. 1000. in
              c.pid <- -1;
              c.phase <- Backing_off (t.ops.now () +. delay_s);
              t.ops.log
                (Printf.sprintf "supervisor: backend %d died; restart in %.0f ms"
                   c.index (delay_s *. 1000.))
            end
          | Backing_off due ->
            if t.ops.now () >= due then begin
              t.ops.log (Printf.sprintf "supervisor: restarting backend %d" c.index);
              spawn_child t c;
              t.restarts <- t.restarts + 1;
              Obs.inc obs_respawns
            end)
        t.children;
      if Obs.enabled () then begin
        let backing_off = ref 0 in
        Array.iter
          (fun c ->
            match c.phase with Backing_off _ -> incr backing_off | _ -> ())
          t.children;
        Obs.set obs_backing_off (float_of_int !backing_off)
      end)

let while_healing t ~period_s f =
  let stop = Atomic.make false in
  let healer =
    Domain.spawn (fun () ->
        while not (Atomic.get stop) do
          tick t;
          t.ops.sleep period_s
        done)
  in
  Fun.protect
    ~finally:(fun () ->
      Atomic.set stop true;
      Domain.join healer)
    f

let drain t index =
  let c = t.children.(index) in
  let pid, was_running =
    locked t (fun () ->
        let p = c.pid in
        let running = c.phase <> Stopped && p > 0 in
        c.phase <- Stopped;
        (p, running))
  in
  if not was_running then true
  else begin
    t.ops.log (Printf.sprintf "supervisor: draining backend %d (pid %d)" index pid);
    Obs.inc obs_drains;
    t.ops.term pid;
    let deadline = t.ops.now () +. t.cfg.drain_grace_s in
    let rec wait () =
      if t.ops.reap pid then true
      else if t.ops.now () >= deadline then begin
        t.ops.log
          (Printf.sprintf "supervisor: backend %d out-stayed the drain grace; SIGKILL"
             index);
        t.ops.kill pid;
        let rec reap_hard () = if t.ops.reap pid then () else (t.ops.sleep 0.02; reap_hard ()) in
        reap_hard ();
        locked t (fun () -> t.forced_kills <- t.forced_kills + 1);
        Obs.inc obs_forced_kills;
        false
      end
      else begin
        t.ops.sleep 0.02;
        wait ()
      end
    in
    let graceful = wait () in
    locked t (fun () -> c.pid <- -1);
    graceful
  end

let resume t index =
  let c = t.children.(index) in
  locked t (fun () ->
      if c.phase <> Stopped then invalid_arg "Supervisor.resume: child not stopped";
      spawn_child t c);
  wait_ready t c

let rolling_restart t =
  (* no short-circuit: every child must be rolled even after a failure,
     or the tail of the fleet would be left on the old generation *)
  Array.fold_left
    (fun all_ok c ->
      let graceful = drain t c.index in
      let ready = resume t c.index in
      if not ready then
        t.ops.log
          (Printf.sprintf "supervisor: backend %d not ready after rolling restart"
             c.index);
      all_ok && graceful && ready)
    true t.children

let stop_all t = Array.iter (fun c -> ignore (drain t c.index)) t.children
