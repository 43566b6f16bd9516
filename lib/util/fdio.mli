(** Durable file I/O on raw file descriptors, threaded with failpoints.

    The simulator's persistence layers (checkpoints, the cluster's
    durable result store, metrics snapshots) all follow the same discipline:
    write the framed bytes to a temp file {e in the target directory},
    [fsync], rename over the target, and treat any failure — including
    a failed fsync, after which the kernel may have dropped the dirty
    pages ("fsyncgate") — as a failed write that leaves the previous
    committed state untouched.

    Every syscall consults {!Failpoint} under a site derived from the
    caller's prefix ([<prefix>.tmp] / [.write] / [.fsync] / [.rename] /
    [.commit]), which is what lets the crash-consistency harness
    enumerate and kill every interruption point of the sequence.  Real
    and injected [EINTR] are retried internally. *)

val write_all : ?site:string -> Unix.file_descr -> bytes -> unit
(** Write every byte, absorbing short writes and [EINTR].
    @raise Unix.Unix_error on any other failure. *)

val fsync : ?site:string -> Unix.file_descr -> unit
(** [Unix.fsync] with [EINTR] retry.  A failure here must be treated as
    a failed write: the data may or may not be on disk. *)

val read_file : ?site:string -> string -> bytes
(** Whole-file read.  [EINTR] is retried; an injected [Short n] truncates
    the result to [n] bytes (a torn read the caller's framing must
    reject).  Unix errors are normalized to [Sys_error] so callers keep
    the stdlib contract for missing files.
    @raise Sys_error when the file cannot be opened or read. *)

val sweep_tmps : ?prefix:string -> string -> int
(** Remove crash-leftover temp files ([*.tmp], optionally restricted to
    names starting with [prefix]) from [dir]; returns how many were
    removed.  Temp names written by {!write_file_atomic} embed the
    writer's pid; a temp whose writer is still alive is an in-flight
    write by a sibling process sharing the directory and is left alone.
    Errors are swallowed — sweeping is best-effort recovery. *)

val write_file_atomic : ?fp_prefix:string -> path:string -> bytes -> unit
(** The full temp + write + fsync + rename sequence.  On any failure the
    temp file is removed and [path] still holds its previous bytes (or
    still does not exist).  [fp_prefix] names the failpoint sites
    (default ["file"]).
    @raise Sys_error on failure (Unix errors are normalized). *)
