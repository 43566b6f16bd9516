(* Unit tests for the supervisor state machine, driven through scripted
   process ops and an injected clock — no real processes, no real time.
   The scripted world tracks which pids are "alive"; sleep advances the
   clock deterministically. *)

module Supervisor = Etx_service.Supervisor

(* a scripted world: pids are handed out sequentially per child, dead
   pids answer reap = true, and time only moves via sleep *)
type world = {
  mutable time : float;
  mutable next_pid : int;
  mutable alive : int list;
  mutable spawned : (int * int) list;  (** (child index, pid), most recent first *)
  mutable termed : int list;
  mutable killed : int list;
  mutable ready_pids : int list;  (** pids that answer the readiness probe *)
}

let make_world () =
  {
    time = 0.;
    next_pid = 100;
    alive = [];
    spawned = [];
    termed = [];
    killed = [];
    ready_pids = [];
  }

let pid_of w index =
  match List.assoc_opt index w.spawned with
  | Some pid -> pid
  | None -> Alcotest.failf "child %d never spawned" index

let ops_of w ?(term_exits = true) ?(ready = fun _ -> true) () =
  {
    Supervisor.spawn =
      (fun index ->
        let pid = w.next_pid in
        w.next_pid <- w.next_pid + 1;
        w.alive <- pid :: w.alive;
        w.ready_pids <- pid :: w.ready_pids;
        w.spawned <- (index, pid) :: w.spawned;
        pid);
    term =
      (fun pid ->
        w.termed <- pid :: w.termed;
        if term_exits then w.alive <- List.filter (( <> ) pid) w.alive);
    kill =
      (fun pid ->
        w.killed <- pid :: w.killed;
        w.alive <- List.filter (( <> ) pid) w.alive);
    reap = (fun pid -> not (List.mem pid w.alive));
    ready = (fun index -> ready index);
    now = (fun () -> w.time);
    sleep = (fun s -> w.time <- w.time +. s);
    log = ignore;
  }

let cfg children =
  {
    (Supervisor.default_config ~children) with
    backoff_base_ms = 100.;
    backoff_cap_ms = 1000.;
    seed = 7;
    stable_after_s = 5.;
    drain_grace_s = 1.;
    ready_timeout_s = 2.;
  }

let start_ready sup =
  Alcotest.(check (list int)) "every child ready" [] (Supervisor.start sup)

let kill_out_of_band w pid = w.alive <- List.filter (( <> ) pid) w.alive

(* - start - *)

let test_start_reports_unready_child () =
  let w = make_world () in
  let sup =
    Supervisor.create (ops_of w ~ready:(fun index -> index <> 1) ()) (cfg 3)
  in
  Alcotest.(check (list int)) "the silent child is reported" [ 1 ]
    (Supervisor.start sup);
  Alcotest.(check bool) "it was still spawned" true (Supervisor.pid sup 1 > 0);
  (* the wait is bounded by ready_timeout_s (2 s) of scripted time *)
  Alcotest.(check bool) "waited out the readiness bound, no longer" true
    (w.time >= 2. && w.time < 2.1);
  Alcotest.(check (list int)) "await_ready reports it again" [ 1 ]
    (Supervisor.await_ready sup)

(* - healing - *)

let test_restart_after_backoff_delay () =
  let w = make_world () in
  let sup = Supervisor.create (ops_of w ()) (cfg 2) in
  start_ready sup;
  let pid0 = Supervisor.pid sup 0 in
  Alcotest.(check bool) "both children running" true
    (pid0 > 0 && Supervisor.pid sup 1 > 0);
  kill_out_of_band w pid0;
  Supervisor.tick sup;
  (* the death was observed: child 0 moves to backoff, not instantly back *)
  Alcotest.(check int) "dead child has no pid during backoff" (-1)
    (Supervisor.pid sup 0);
  Alcotest.(check int) "no restart before the delay" 0
    (Supervisor.restarts_total sup);
  (* backoff delays draw from [base, 3*base] capped: advance past the cap *)
  w.time <- w.time +. 1.1;
  Supervisor.tick sup;
  Alcotest.(check int) "restarted after the delay" 1 (Supervisor.restarts_total sup);
  let pid0' = Supervisor.pid sup 0 in
  Alcotest.(check bool) "fresh pid" true (pid0' > 0 && pid0' <> pid0);
  Alcotest.(check int) "the healthy sibling was left alone"
    (pid_of w 1) (Supervisor.pid sup 1)

let test_backoff_escalates_and_resets () =
  let w = make_world () in
  let sup = Supervisor.create (ops_of w ()) (cfg 1) in
  start_ready sup;
  (* crash-loop: kill the child the instant it comes back, three times,
     and record each backoff delay from the phase-change timing *)
  let delay_of_crash () =
    kill_out_of_band w (Supervisor.pid sup 0);
    Supervisor.tick sup;
    let died_at = w.time in
    let rec until_restarted last =
      if Supervisor.pid sup 0 > 0 then w.time -. died_at
      else begin
        w.time <- w.time +. 0.01;
        Supervisor.tick sup;
        until_restarted last
      end
    in
    until_restarted died_at
  in
  let d1 = delay_of_crash () in
  let d2 = delay_of_crash () in
  let _d3 = delay_of_crash () in
  (* decorrelated jitter is random but monotone in expectation; assert
     the mechanism, not the draw: delays stay in [base, cap] and a crash
     loop is allowed to escalate past the base range *)
  List.iteri
    (fun i d ->
      if d < 0.1 -. 1e-9 || d > 1.1 then
        Alcotest.failf "crash %d delay %.3fs outside [base, cap]" (i + 1) d)
    [ d1; d2; _d3 ];
  (* now let it run stably past stable_after_s: the next crash must pay
     a de-escalated (first-range) delay again *)
  w.time <- w.time +. 10.;
  let d4 = delay_of_crash () in
  if d4 > 0.3 +. 0.02 then
    Alcotest.failf "delay %.3fs after a stable run: backoff did not reset" d4

(* - drain - *)

let test_drain_graceful () =
  let w = make_world () in
  let sup = Supervisor.create (ops_of w ()) (cfg 1) in
  start_ready sup;
  let pid = Supervisor.pid sup 0 in
  Alcotest.(check bool) "drain reports graceful" true (Supervisor.drain sup 0);
  Alcotest.(check (list int)) "exactly one SIGTERM" [ pid ] w.termed;
  Alcotest.(check (list int)) "no SIGKILL" [] w.killed;
  Alcotest.(check int) "no forced kills counted" 0
    (Supervisor.forced_kills_total sup);
  (* a drained child stays down: ticks must not resurrect it *)
  Supervisor.tick sup;
  w.time <- w.time +. 5.;
  Supervisor.tick sup;
  Alcotest.(check int) "stopped child not restarted" (-1) (Supervisor.pid sup 0);
  Alcotest.(check int) "no heal counted" 0 (Supervisor.restarts_total sup)

let test_drain_escalates_to_sigkill () =
  let w = make_world () in
  (* term_exits:false scripts a child that ignores SIGTERM *)
  let sup = Supervisor.create (ops_of w ~term_exits:false ()) (cfg 1) in
  start_ready sup;
  let pid = Supervisor.pid sup 0 in
  Alcotest.(check bool) "drain reports forced" false (Supervisor.drain sup 0);
  Alcotest.(check (list int)) "SIGTERM was tried first" [ pid ] w.termed;
  Alcotest.(check (list int)) "then SIGKILL" [ pid ] w.killed;
  Alcotest.(check int) "forced kill counted" 1 (Supervisor.forced_kills_total sup)

let test_resume_requires_stopped () =
  let w = make_world () in
  let sup = Supervisor.create (ops_of w ()) (cfg 1) in
  start_ready sup;
  (match Supervisor.resume sup 0 with
  | _ -> Alcotest.fail "resume of a running child accepted"
  | exception Invalid_argument _ -> ());
  ignore (Supervisor.drain sup 0);
  Alcotest.(check bool) "resume after drain" true (Supervisor.resume sup 0);
  Alcotest.(check bool) "running again" true (Supervisor.pid sup 0 > 0)

(* - rolling restart - *)

let test_rolling_restart_replaces_every_child_in_order () =
  let w = make_world () in
  let sup = Supervisor.create (ops_of w ()) (cfg 3) in
  start_ready sup;
  let before = List.init 3 (Supervisor.pid sup) in
  w.termed <- [];
  Alcotest.(check bool) "rolling restart graceful" true
    (Supervisor.rolling_restart sup);
  let after = List.init 3 (Supervisor.pid sup) in
  List.iteri
    (fun i (old_pid, new_pid) ->
      if new_pid <= 0 || new_pid = old_pid then
        Alcotest.failf "child %d not replaced (old %d, new %d)" i old_pid new_pid)
    (List.combine before after);
  (* one drain per child, oldest first: pids were termed in index order *)
  Alcotest.(check (list int)) "drained in index order" before (List.rev w.termed);
  Alcotest.(check (list int)) "never SIGKILLed" [] w.killed;
  Alcotest.(check int) "rolling restarts are not heal restarts" 0
    (Supervisor.restarts_total sup)

let test_rolling_restart_reports_stuck_child_but_rolls_everyone () =
  let w = make_world () in
  (* child 1 never answers ready after its restart *)
  let restarted = Hashtbl.create 3 in
  let ready index =
    if Hashtbl.mem restarted index then index <> 1
    else begin
      Hashtbl.replace restarted index ();
      true
    end
  in
  let sup = Supervisor.create (ops_of w ~ready ()) (cfg 3) in
  start_ready sup;
  Alcotest.(check bool) "failure reported" false (Supervisor.rolling_restart sup);
  (* the fleet must still be on the new generation everywhere *)
  Alcotest.(check int) "every child was drained" 3 (List.length w.termed)

let suite =
  [
    ( "supervisor",
      [
        Alcotest.test_case "start reports a never-ready child" `Quick
          test_start_reports_unready_child;
        Alcotest.test_case "restart after backoff delay" `Quick
          test_restart_after_backoff_delay;
        Alcotest.test_case "backoff escalates and resets" `Quick
          test_backoff_escalates_and_resets;
        Alcotest.test_case "graceful drain" `Quick test_drain_graceful;
        Alcotest.test_case "drain escalates to SIGKILL" `Quick
          test_drain_escalates_to_sigkill;
        Alcotest.test_case "resume requires stopped" `Quick
          test_resume_requires_stopped;
        Alcotest.test_case "rolling restart replaces every child" `Quick
          test_rolling_restart_replaces_every_child_in_order;
        Alcotest.test_case "rolling restart reports a stuck child" `Quick
          test_rolling_restart_reports_stuck_child_but_rolls_everyone;
      ] );
  ]
