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

(* The longest request line [serve_stream] accepts, in bytes, newline
   excluded.  A longer line is discarded through its newline and
   answered in its place with a [parse_error], so one oversized line
   can neither grow the daemon's memory without bound nor cost the
   connection. *)
let max_line_bytes = 1 lsl 20

type line = Line of string | Too_long

(* Lines read from a channel a chunk at a time: [chunk] holds the bytes
   read but not yet consumed, from [pos] to [len]; [pending] the part
   of the current line seen so far, unless it is [over] the limit. *)
type reader = {
  ic : in_channel;
  chunk : Bytes.t;
  mutable pos : int;
  mutable len : int;
  pending : Buffer.t;
  mutable over : bool;
}

(* The chunk stays small enough for the minor heap: the cluster router
   opens a connection per forwarded batch, so a backend makes a reader
   per batch. *)
let reader ic =
  { ic; chunk = Bytes.create 1024; pos = 0; len = 0; pending = Buffer.create 256; over = false }

let rec newline_at chunk i stop =
  if i >= stop || Bytes.unsafe_get chunk i = '\n' then i else newline_at chunk (i + 1) stop

(* The current line, ended, and the reader ready for the next one. *)
let end_line r =
  let line = if r.over then Too_long else Line (Buffer.contents r.pending) in
  (* back to the initial storage: a long line's does not outlive it *)
  Buffer.reset r.pending;
  r.over <- false;
  line

(* The next line; [None] at end of input.  A last line without a
   newline still counts, as with [input_line]. *)
let rec next_line r =
  if r.pos >= r.len then begin
    r.len <- input r.ic r.chunk 0 (Bytes.length r.chunk);
    r.pos <- 0
  end;
  if r.len = 0 then
    if r.over || Buffer.length r.pending > 0 then Some (end_line r) else None
  else begin
    let stop = newline_at r.chunk r.pos r.len in
    let take = stop - r.pos in
    if not r.over then
      if Buffer.length r.pending + take > max_line_bytes then begin
        Buffer.reset r.pending;
        r.over <- true
      end
      else Buffer.add_subbytes r.pending r.chunk r.pos take;
    if stop < r.len then begin
      r.pos <- stop + 1;
      Some (end_line r)
    end
    else begin
      r.pos <- stop;
      next_line r
    end
  end

let too_long_response =
  Etx_util.Json.to_string
    (Request.error_response Etx_util.Json.Null "parse_error"
       (Printf.sprintf "request line longer than %d bytes" max_line_bytes))

let output_line oc line =
  output_string oc line;
  output_char oc '\n'

(* Each response in its line's place: an oversized line's own error,
   the handler's responses in order for the rest. *)
let rec write_responses oc items responses =
  match (items, responses) with
  | Too_long :: items, _ ->
    output_line oc too_long_response;
    write_responses oc items responses
  | Line _ :: items, response :: rest ->
    output_line oc response;
    write_responses oc items rest
  | Line _ :: items, [] -> write_responses oc items []
  | [], rest -> List.iter (output_line oc) rest

let flush_batch t batch oc =
  match List.rev batch with
  | [] -> ()
  | items ->
    let lines = List.filter_map (function Line line -> Some line | Too_long -> None) items in
    write_responses oc items (if lines = [] then [] else t.handle_batch lines);
    flush oc

(* one stream: blank line = batch boundary; no final snapshot, since a
   socket connection ending is not the daemon ending *)
let serve_stream t ic oc =
  let r = reader ic in
  let rec loop batch =
    match next_line r with
    | Some (Line line) when String.trim line = "" ->
      flush_batch t batch oc;
      maybe_write_metrics t;
      if not (stopped t) then loop []
    | Some item -> loop (item :: batch)
    | None -> flush_batch t batch oc
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
