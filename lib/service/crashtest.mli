(** ALICE-style crash-consistency harness for the persistence layers.

    For each artifact — durable result store, engine checkpoint — the
    harness first runs the write sequence once with
    {!Etx_util.Failpoint} hit recording on, which {e enumerates} every
    interruption point (temp-file creation, each write, fsync, rename,
    post-rename).  It then replays the sequence once per kill point in a
    forked child whose crash hook is [Unix._exit] — no buffer flush, no
    [at_exit], no [Fun.protect] finalizer runs, exactly as in a real
    crash (torn writes additionally truncate the in-flight buffer at a
    seeded offset).  After each simulated crash the parent re-opens the
    artifact and asserts the recovery invariants:

    - no committed entry is lost, and its replayed bytes are
      bit-identical;
    - the interrupted entry is all-or-nothing — either absent or
      complete, never served partially;
    - recovery sweeps leftover [*.tmp] files;
    - the artifact accepts subsequent writes.

    A second, in-process pass injects non-crash failures (ENOSPC, EIO,
    short and interrupted transfers, rename failure, fsync failure) at
    every enumerated site and asserts the writers absorb or report them
    without corrupting committed state.

    Everything is seeded and deterministic; the harness is wrapped as
    QCheck properties in the test suite and exposed as the [crashtest]
    CLI subcommand. *)

type report = {
  part : string;  (** ["store"] or ["checkpoint"]. *)
  seed : int;
  kill_points : int;  (** Forked crash replays performed. *)
  injections : int;  (** In-process failure injections performed. *)
  violations : string list;  (** Empty = every invariant held. *)
}

val store : ?seed:int -> dir:string -> unit -> report
(** Kill-point enumeration over {!Store.add} (fresh key and
    overwrite-in-place), recovery via {!Store.open_dir}. *)

val checkpoint : ?seed:int -> dir:string -> unit -> report
(** Kill-point enumeration over {!Etx_etsim.Checkpoint.write_file}
    replacing an existing frame and creating a fresh one. *)

val run :
  ?seed:int ->
  ?parts:[ `Store | `Checkpoint ] list ->
  dir:string ->
  unit ->
  report list
(** All requested parts (default: both) under a scratch [dir],
    which is created and left behind for inspection. *)
