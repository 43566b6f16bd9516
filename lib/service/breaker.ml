type state = Closed | Open | Half_open

let state_name = function Closed -> "closed" | Open -> "open" | Half_open -> "half_open"

type t = {
  failure_threshold : int;
  cooldown_s : float;
  now : unit -> float;
  transition : state -> unit;  (* observability hook; no-op by default *)
  mutable current : state;
  mutable failures : int;  (* consecutive *)
  mutable opened_at : float;
  mutable probe_inflight : bool;
  mutable opened_total : int;
  mutable health_transitions : int;  (* leaving or re-entering Closed *)
}

let create ?(failure_threshold = 3) ?(cooldown_s = 5.) ?obs_label ~now () =
  if failure_threshold < 1 then
    invalid_arg "Breaker.create: failure_threshold must be >= 1";
  if cooldown_s <= 0. then invalid_arg "Breaker.create: cooldown_s must be > 0";
  let transition =
    match obs_label with
    | None -> fun _ -> ()
    | Some backend ->
      let cell st =
        Etx_obs.Obs.counter ~help:"Breaker state transitions"
          ~labels:[ ("backend", backend); ("to", state_name st) ]
          "etx_breaker_transitions_total"
      in
      let to_closed = cell Closed
      and to_open = cell Open
      and to_half_open = cell Half_open in
      fun st ->
        Etx_obs.Obs.inc
          (match st with
          | Closed -> to_closed
          | Open -> to_open
          | Half_open -> to_half_open)
  in
  {
    failure_threshold;
    cooldown_s;
    now;
    transition;
    current = Closed;
    failures = 0;
    opened_at = 0.;
    probe_inflight = false;
    opened_total = 0;
    health_transitions = 0;
  }

(* lazily move Open -> Half_open once the cooldown has elapsed; state is
   only ever advanced through this, so observers agree with [allow] *)
let refresh t =
  if t.current = Open && t.now () -. t.opened_at >= t.cooldown_s then begin
    t.current <- Half_open;
    t.probe_inflight <- false;
    t.transition Half_open
  end

let state t =
  refresh t;
  t.current

let allow t =
  refresh t;
  match t.current with
  | Closed -> true
  | Open -> false
  | Half_open ->
    if t.probe_inflight then false
    else begin
      t.probe_inflight <- true;
      true
    end

let record_success t =
  t.failures <- 0;
  t.probe_inflight <- false;
  if t.current <> Closed then begin
    t.current <- Closed;
    t.health_transitions <- t.health_transitions + 1;
    t.transition Closed
  end

let trip t =
  t.current <- Open;
  t.opened_at <- t.now ();
  t.probe_inflight <- false;
  t.opened_total <- t.opened_total + 1;
  t.transition Open

let record_failure t =
  refresh t;
  t.failures <- t.failures + 1;
  match t.current with
  | Half_open -> trip t
  | Closed ->
    if t.failures >= t.failure_threshold then begin
      t.health_transitions <- t.health_transitions + 1;
      trip t
    end
  | Open -> ()

let opened_total t = t.opened_total
let consecutive_failures t = t.failures
let health_name t = if t.current = Closed then "up" else "down"
let health_transitions t = t.health_transitions
