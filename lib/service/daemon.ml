module Obs = Etx_obs.Obs
module Expo = Etx_obs.Expo

let obs_snapshots =
  Obs.counter ~help:"Metrics snapshot files committed"
    "etx_obs_snapshots_written_total"

(* how long one accept waits before the loop re-checks the stop flag,
   runs the idle hook and considers a paced snapshot *)
let accept_wait_s = 0.25

type t = {
  handle_batch : string list -> string list;
  handler_stopped : unit -> bool;
  metrics_file : string option;
  metrics_every_s : float;
  idle : unit -> unit;
  mutable last_metrics_write : float;
  mutable stopping : bool;
}

let create ?metrics_file ?(metrics_every_s = 5.) ?(idle = ignore) ~stopped
    handle_batch =
  {
    handle_batch;
    handler_stopped = stopped;
    metrics_file;
    metrics_every_s;
    idle;
    (* the first paced snapshot is due at once *)
    last_metrics_write = neg_infinity;
    stopping = false;
  }

let request_stop t = t.stopping <- true
let stopped t = t.stopping || t.handler_stopped ()

(* best-effort (the registry is live in memory; the file is for
   post-mortems) and atomic, so a crash mid-write never leaves a torn
   file *)
let write_metrics t =
  match t.metrics_file with
  | None -> ()
  | Some path -> (
    t.last_metrics_write <- Unix.gettimeofday ();
    match Expo.write_snapshot ~path () with
    | () -> Obs.inc obs_snapshots
    | exception Sys_error _ -> ())

let maybe_write_metrics t =
  if
    t.metrics_file <> None
    && Unix.gettimeofday () -. t.last_metrics_write >= t.metrics_every_s
  then write_metrics t

let flush_batch t batch oc =
  match List.rev batch with
  | [] -> ()
  | lines ->
    List.iter
      (fun line ->
        output_string oc line;
        output_char oc '\n')
      (t.handle_batch lines);
    flush oc

(* one stream: blank line = batch boundary; no final snapshot, since a
   socket connection ending is not the daemon ending *)
let serve_stream t ic oc =
  let rec loop batch =
    match input_line ic with
    | line when String.trim line <> "" -> loop (line :: batch)
    | _ ->
      flush_batch t batch oc;
      maybe_write_metrics t;
      if not (stopped t) then loop []
    | exception End_of_file -> flush_batch t batch oc
  in
  loop []

let run_stdio t ic oc =
  Fun.protect ~finally:(fun () -> write_metrics t) (fun () -> serve_stream t ic oc)

let run_unix t ~socket_path =
  (try Unix.unlink socket_path with Unix.Unix_error _ -> ());
  let sock = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close sock with Unix.Unix_error _ -> ());
      (try Unix.unlink socket_path with Unix.Unix_error _ -> ());
      write_metrics t)
    (fun () ->
      Unix.bind sock (Unix.ADDR_UNIX socket_path);
      Unix.listen sock 16;
      while not (stopped t) do
        match Netio.accept ~timeout_s:accept_wait_s sock with
        | `Interrupted -> () (* EINTR: re-check the stop flag at once *)
        | `Timeout ->
          t.idle ();
          maybe_write_metrics t
        | `Conn fd ->
          (* in and out channels share the fd: flush, then close once *)
          let ic = Unix.in_channel_of_descr fd in
          let oc = Unix.out_channel_of_descr fd in
          (try serve_stream t ic oc
           with Sys_error _ | End_of_file | Unix.Unix_error _ -> ());
          (try flush oc with Sys_error _ -> ());
          (try Unix.close fd with Unix.Unix_error _ -> ())
      done)
