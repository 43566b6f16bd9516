(* Deadline-aware socket primitives, safe against EINTR.

   Every blocking step is a select-then-syscall loop: a signal landing
   mid-wait (SIGCHLD from a supervised backend, SIGTERM starting a
   drain) interrupts the syscall with EINTR, and the loop retries with
   the *remaining* deadline instead of surfacing Unix_error or silently
   extending the wait.  Deadlines are absolute; [deadline = None] waits
   forever.  Timeouts raise [Failure] with a short message ("connect
   timed out", "write timed out", "response timed out") — the cluster's
   transport error contract.

   Failpoint sites: [net.connect], [net.write], [net.read],
   [net.accept]. *)

module Failpoint = Etx_util.Failpoint

let fp_connect = "net.connect"
let fp_write = "net.write"
let fp_read = "net.read"
let fp_accept = "net.accept"

let expired ~deadline ~now =
  match deadline with None -> false | Some d -> now () -. d >= 0.

(* wait until [fd] is ready; raises [Failure what_timed_out] on deadline *)
let wait_ready ~what ~deadline ~now ~for_write fd =
  let rec go () =
    let remaining =
      match deadline with
      | None -> -1. (* infinite *)
      | Some d ->
        let r = d -. now () in
        if r <= 0. then failwith what else r
    in
    let reads = if for_write then [] else [ fd ] in
    let writes = if for_write then [ fd ] else [] in
    match Unix.select reads writes [] remaining with
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
    | [], [], _ -> failwith what
    | _ -> ()
  in
  go ()

let connect ?deadline ~now path =
  let rec attempt () =
    let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match
      Unix.set_nonblock fd;
      Failpoint.hit fp_connect;
      (try Unix.connect fd (Unix.ADDR_UNIX path) with
      | Unix.Unix_error ((Unix.EINPROGRESS | Unix.EWOULDBLOCK | Unix.EAGAIN), _, _)
        -> (
        wait_ready ~what:"connect timed out" ~deadline ~now ~for_write:true fd;
        match Unix.getsockopt_error fd with
        | None -> ()
        | Some err -> raise (Unix.Unix_error (err, "connect", path))));
      fd
    with
    | fd -> Ok fd
    | exception Unix.Unix_error (Unix.EINTR, _, _) ->
      (* interrupted before the attempt took: retry with what remains
         of the deadline *)
      (try Unix.close fd with Unix.Unix_error _ -> ());
      if expired ~deadline ~now then Error "connect timed out" else attempt ()
    | exception Unix.Unix_error (err, _, _) ->
      (try Unix.close fd with Unix.Unix_error _ -> ());
      Error (Unix.error_message err)
    | exception Failure msg ->
      (try Unix.close fd with Unix.Unix_error _ -> ());
      Error msg
  in
  attempt ()

let write_all ?deadline ~now fd data =
  let len = Bytes.length data in
  let pos = ref 0 in
  while !pos < len do
    wait_ready ~what:"write timed out" ~deadline ~now ~for_write:true fd;
    match
      match Failpoint.check fp_write with
      | None -> Unix.write fd data !pos (len - !pos)
      | Some (Failpoint.Errno e) -> raise (Unix.Unix_error (e, "write", fp_write))
      | Some (Failpoint.Sys_err m) -> raise (Sys_error m)
      | Some (Failpoint.Short n) -> Unix.write fd data !pos (max 1 (min n (len - !pos)))
      | Some (Failpoint.Torn _) | Some Failpoint.Crash -> Failpoint.crash fp_write
    with
    | n -> pos := !pos + n
    | exception
        Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) ->
      ()
  done

(* Bytes read but not yet handed out live in [buf.[start, stop)]; none
   of [buf.[start, scanned)] is a newline, so each byte is scanned once
   however many reads a long line takes, and each line is copied out
   once.  The live bytes move to the front only when a read needs room,
   so they are then one unfinished line; a buffer too small for them
   is replaced by one twice their size (plus a chunk), so the bytes a
   line moves in all stay below twice its length. *)
type reader = {
  fd : Unix.file_descr;
  mutable buf : bytes;
  mutable start : int;
  mutable scanned : int;
  mutable stop : int;
  mutable eof : bool;
}

let chunk = 4096

let reader fd =
  { fd; buf = Bytes.create chunk; start = 0; scanned = 0; stop = 0; eof = false }

(* the first newline in [buf.[i, stop)], -1 for none; [stop] never
   exceeds the buffer's length *)
let rec newline buf i stop =
  if i >= stop then -1
  else if Bytes.unsafe_get buf i = '\n' then i
  else newline buf (i + 1) stop

(* the next complete line, consumed; [None] when the live bytes end
   inside a line *)
let take_line r =
  let i = newline r.buf r.scanned r.stop in
  if i < 0 then begin
    r.scanned <- r.stop;
    None
  end
  else begin
    let line = Bytes.sub_string r.buf r.start (i - r.start) in
    r.start <- i + 1;
    r.scanned <- i + 1;
    Some line
  end

(* at least [chunk] free bytes after [stop] *)
let make_room r =
  if Bytes.length r.buf - r.stop < chunk then begin
    let live = r.stop - r.start in
    let buf =
      if 2 * (live + chunk) <= Bytes.length r.buf then r.buf
      else Bytes.create (2 * (live + chunk))
    in
    Bytes.blit r.buf r.start buf 0 live;
    r.buf <- buf;
    r.scanned <- r.scanned - r.start;
    r.start <- 0;
    r.stop <- live
  end

let read_line ?deadline ~now r =
  let rec go () =
    match take_line r with
    | Some line -> Some line
    | None ->
      if r.eof then
        if r.stop = r.start then None
        else begin
          (* unterminated trailing line: hand it over once *)
          let line = Bytes.sub_string r.buf r.start (r.stop - r.start) in
          r.start <- r.stop;
          Some line
        end
      else begin
        wait_ready ~what:"response timed out" ~deadline ~now ~for_write:false r.fd;
        make_room r;
        (match
           match Failpoint.check fp_read with
           | None -> Unix.read r.fd r.buf r.stop chunk
           | Some (Failpoint.Errno e) -> raise (Unix.Unix_error (e, "read", fp_read))
           | Some (Failpoint.Sys_err m) -> raise (Sys_error m)
           | Some (Failpoint.Short n) -> Unix.read r.fd r.buf r.stop (max 1 (min n chunk))
           | Some (Failpoint.Torn _) | Some Failpoint.Crash -> Failpoint.crash fp_read
         with
        | 0 -> r.eof <- true
        | n -> r.stop <- r.stop + n
        | exception
            Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
          -> ());
        go ()
      end
  in
  go ()

let accept ?timeout_s sock =
  let rec go () =
    match
      Failpoint.hit fp_accept;
      Unix.select [ sock ] [] [] (Option.value timeout_s ~default:(-1.))
    with
    | exception Unix.Unix_error (Unix.EINTR, _, _) ->
      (* let the caller's loop re-check its stop flag *)
      `Interrupted
    | [], _, _ -> `Timeout
    | _ -> (
      match Unix.accept ~cloexec:true sock with
      | fd, _ -> `Conn fd
      | exception
          Unix.Unix_error
            ((Unix.EINTR | Unix.ECONNABORTED | Unix.EAGAIN | Unix.EWOULDBLOCK), _, _)
        -> go ())
  in
  go ()
