(** The serving shell shared by [etx serve] and [etx route]/[etx cluster].

    A daemon is a batch handler ({!Server.handle_batch} or
    {!Cluster.handle_batch}) behind one of two transports speaking the
    same newline-delimited JSON protocol: a {e batch} is a run of
    request lines ended by a blank line (or end of stream), answered
    with one response line per request, in arrival order.

    The shell owns everything around the handler:
    - the stdio loop and the Unix-socket accept loop (stale socket file
      replaced, close-on-exec listen socket, bounded accept waits, a
      connection torn down by its peer — EPIPE/ECONNRESET — costs that
      connection only);
    - request lines of at most 1 MiB, read in chunks: a longer line is
      discarded through its newline and answered in its place with a
      [parse_error] (id [null]), and the connection keeps serving;
    - the stop flag a SIGTERM handler sets through {!request_stop};
    - periodic and final [Etx_obs] metrics snapshots;
    - an idle hook, run on each bounded accept wait that finds no
      connection (the router health-checks its backends there).

    The shell installs no signal handlers: the caller ignores SIGPIPE
    (otherwise a vanished peer kills the process instead of raising
    EPIPE) and routes SIGTERM to {!request_stop}. *)

type t

val create :
  ?metrics_file:string ->
  ?metrics_every_s:float ->
  ?idle:(unit -> unit) ->
  stopped:(unit -> bool) ->
  (string list -> string list) ->
  t
(** [create ~stopped handle_batch] wraps a batch handler.  [stopped]
    reports that the handler served a [shutdown] request; the loops
    exit after the batch in flight once it, or {!request_stop}, says
    so.  With [metrics_file], the loops commit an [Etx_obs.Expo] JSON
    snapshot there (atomic temp + fsync + rename) at most every
    [metrics_every_s] seconds (default 5) between batches and while
    idle, plus a final one whenever a loop returns. *)

val request_stop : t -> unit
(** Ask the loops to exit after the batch in flight: accepted work is
    finished and answered, nothing new is read.  Safe from a signal
    handler or another domain. *)

val run_stdio : t -> in_channel -> out_channel -> unit
(** Serve batches from one stream until end of input or a stop, then
    write the final metrics snapshot. *)

val run_unix : t -> socket_path:string -> unit
(** Bind a Unix domain socket (an existing file at that path is
    replaced) and serve connections one at a time, each with the
    stream protocol, until a stop.  The socket file is removed and the
    final metrics snapshot written before returning.
    @raise Unix.Unix_error if the socket cannot be bound. *)
