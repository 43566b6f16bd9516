(** A daemon's bounded table of request names.

    Naming a [simulate] request ({!Handlers.fingerprint}) builds its
    whole configuration: the mesh, the mapping, the AES key schedule.
    A daemon sees the same requests over and over, so each {!Server}
    and each {!Cluster} router keeps one of these tables and names a
    request once.

    The key is the decoded parameter record, compared exactly: its
    [Marshal] bytes, so floats compare by their bits ([-0.0] and [0.0]
    are two keys, as they are two names) and the key order, spacing and
    [id] of the request line play no part.  Only successful names are
    kept; a refused request is named afresh each time.  Other scenarios
    are named directly, their fingerprints being a few list prints.

    Not thread-safe; a daemon names requests from its batch loop. *)

type t

val capacity : int
(** Entries a table holds before its least-recently-used one goes
    (512). *)

val create : unit -> t

val fingerprint : t -> Request.scenario -> (string, string) result
(** {!Handlers.fingerprint}, read from the table when the parameters
    were named before.  An exception while naming is an [Error] carrying
    its text.  A reuse counts in [etx_names_reused_total]. *)

val length : t -> int
(** Names held; never above {!capacity}. *)
