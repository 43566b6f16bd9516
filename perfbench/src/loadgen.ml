(* Load from one single-threaded client over one connection.

   Every request is its own batch (request line + blank line), so the
   daemon answers in order and a response is matched to its request by
   position; the checks later confirm the echoed [id].

   [open_loop] sends on a fixed schedule whatever the daemon's progress
   (independent users); each request is timed from its scheduled send
   time, so a stall also counts against the requests queued behind it,
   and the generator's own lateness is reported as lag.  Writes are
   non-blocking and interleaved with reads through [select], so neither
   side's socket buffer can wedge the other.  [closed_loop] keeps one
   request in flight. *)

type conn = {
  fd : Unix.file_descr;
  chunk : Bytes.t;
  partial : Buffer.t;
  lines : string Queue.t;
  mutable closed : bool;
}

let connect socket =
  let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (try Unix.connect fd (Unix.ADDR_UNIX socket)
   with e ->
     Unix.close fd;
     raise e);
  { fd; chunk = Bytes.create 65536; partial = Buffer.create 4096; lines = Queue.create ();
    closed = false }

(* idempotent: a descriptor number closed twice could by then name
   another file *)
let close c =
  if not c.closed then begin
    c.closed <- true;
    try Unix.close c.fd with Unix.Unix_error _ -> ()
  end

let rec restart_on_eintr f =
  try f () with Unix.Unix_error (Unix.EINTR, _, _) -> restart_on_eintr f

(* one read; complete lines go to [c.lines] *)
let pump c =
  match restart_on_eintr (fun () -> Unix.read c.fd c.chunk 0 (Bytes.length c.chunk)) with
  | 0 -> failwith "daemon closed the connection"
  | n ->
    let start = ref 0 in
    for i = 0 to n - 1 do
      if Bytes.get c.chunk i = '\n' then begin
        Buffer.add_subbytes c.partial c.chunk !start (i - !start);
        Queue.add (Buffer.contents c.partial) c.lines;
        Buffer.clear c.partial;
        start := i + 1
      end
    done;
    Buffer.add_subbytes c.partial c.chunk !start (n - !start)
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()

let readable c timeout =
  match restart_on_eintr (fun () -> Unix.select [ c.fd ] [] [] timeout) with
  | [], _, _ -> false
  | _ -> true

(* blocking request/response with a deadline *)
let call ?(timeout = 30.) c line =
  let deadline = Common.now () +. timeout in
  let payload = Bytes.of_string (line ^ "\n\n") in
  let off = ref 0 in
  while !off < Bytes.length payload do
    off := !off + restart_on_eintr (fun () ->
      Unix.write c.fd payload !off (Bytes.length payload - !off))
  done;
  while Queue.is_empty c.lines do
    let left = deadline -. Common.now () in
    if left <= 0. then failwith "response timed out";
    if readable c left then pump c
  done;
  Queue.pop c.lines

(* one request over a fresh connection: connect, call, close *)
let request ?timeout socket line =
  let c = connect socket in
  Fun.protect ~finally:(fun () -> close c) (fun () -> call ?timeout c line)

type run = {
  due : float array;  (** scheduled send time *)
  sent : float array;  (** when the request entered the client's output *)
  finished : float array;  (** response received; nan = never *)
  responses : string array;
  indexes : int array;  (** stream index of each request *)
}

(* the runs one after another, as one run *)
let concat runs =
  let cat f = Array.concat (List.map f runs) in
  { due = cat (fun r -> r.due); sent = cat (fun r -> r.sent); finished = cat (fun r -> r.finished);
    responses = cat (fun r -> r.responses); indexes = cat (fun r -> r.indexes) }

let latencies r =
  Array.mapi
    (fun i d -> if Float.is_nan r.finished.(i) then infinity else r.finished.(i) -. d)
    r.due

(* [n] requests at a fixed [interval]; [line i] builds request [first + i].
   [hook i] runs just before request [i] is queued (fault injection for
   the abort test).  Gives up [grace] seconds after the last due time. *)
let open_loop ?(hook = ignore) ?(grace = 20.) c ~first ~n ~interval ~line =
  let t0 = Common.now () +. 0.001 in
  let due = Array.init n (fun i -> t0 +. (float_of_int i *. interval)) in
  let sent = Array.make n nan and finished = Array.make n nan in
  let responses = Array.make n "" in
  let out = Buffer.create 65536 in
  let out_off = ref 0 in
  let next = ref 0 and got = ref 0 in
  let give_up = t0 +. (float_of_int n *. interval) +. grace in
  Unix.set_nonblock c.fd;
  Fun.protect
    ~finally:(fun () -> Unix.clear_nonblock c.fd)
    (fun () ->
      while !got < n && Common.now () < give_up do
        let now = Common.now () in
        while !next < n && due.(!next) <= now do
          hook !next;
          Buffer.add_string out (line (first + !next));
          Buffer.add_string out "\n\n";
          sent.(!next) <- now;
          incr next
        done;
        let pending = Buffer.length out - !out_off in
        if pending > 0 then begin
          match
            Unix.write_substring c.fd (Buffer.contents out) !out_off pending
          with
          | k ->
            out_off := !out_off + k;
            if !out_off = Buffer.length out then begin
              Buffer.clear out;
              out_off := 0
            end
          | exception
              Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> ()
        end;
        let now = Common.now () in
        let timeout =
          if !next < n then Float.max 0. (due.(!next) -. now)
          else Float.max 0. (give_up -. now)
        in
        let want_write = Buffer.length out - !out_off > 0 in
        let timeout = if want_write then Float.min timeout 0.001 else timeout in
        if readable c timeout then begin
          pump c;
          let t = Common.now () in
          while not (Queue.is_empty c.lines) do
            let line = Queue.pop c.lines in
            if !got < n then begin
              finished.(!got) <- t;
              responses.(!got) <- line;
              incr got
            end
          done
        end
      done);
  { due; sent; finished; responses; indexes = Array.init n (fun i -> first + i) }

(* one request in flight until [until], and at least one; returns the
   run and its wall time *)
let closed_loop c ~first ~until ~line =
  let due = ref [] and finished = ref [] and responses = ref [] in
  let i = ref 0 in
  let t0 = Common.now () in
  while !i = 0 || Common.now () < until do
    let s = Common.now () in
    let r = call c (line (first + !i)) in
    due := s :: !due;
    finished := Common.now () :: !finished;
    responses := r :: !responses;
    incr i
  done;
  let arr l = Array.of_list (List.rev l) in
  let due = arr !due in
  ( { due; sent = due; finished = arr !finished; responses = arr !responses;
      indexes = Array.init !i (fun k -> first + k) },
    Common.now () -. t0 )
