(** Versioned, CRC-protected binary checkpoint encoding.

    Engine checkpoints are written through this module, and the
    {!Writer} / {!Reader} payload idiom also encodes sweep runs' metrics
    for the result store.  A checkpoint file is a single frame:

    {v
      magic   "ETXCKPT1"          8 bytes
      version u32 LE              format version (see {!version})
      length  u64 LE              payload byte count
      payload length bytes
      crc32   u32 LE              IEEE CRC-32 of the payload
    v}

    The payload itself is written and read with the primitive {!Writer} /
    {!Reader} combinators below: fixed-width little-endian integers,
    IEEE-754 bit patterns for floats, and length-prefixed strings.  Both
    sides must agree on the field sequence; there is no self-description.
    Mismatched reads surface as {!Error} values, never as [assert]s or
    out-of-bounds exceptions.

    Writes are atomic: {!write_file} writes to a temporary file in the
    destination directory and renames it into place, so a crash mid-write
    never leaves a truncated checkpoint behind. *)

val version : int
(** Current frame format version; files of any other version are
    rejected with [Unsupported_version]. *)

type error =
  | Truncated  (** file shorter than its frame header promises *)
  | Bad_magic  (** not a checkpoint file *)
  | Unsupported_version of int
  | Crc_mismatch  (** payload bytes corrupted *)
  | Fingerprint_mismatch of { expected : string; found : string }
      (** checkpoint was taken under a different configuration *)
  | Malformed of string  (** field decode ran off the payload or was invalid *)
  | Witness_mismatch of { cycle : int }
      (** replaying the run to the checkpoint's [cycle] did not reproduce
          the counters and charges the checkpoint recorded *)
  | Run_ended of { cycle : int; ended : int }
      (** the run dies at cycle [ended], before the checkpoint's [cycle] *)

exception Error of error

val pp_error : Format.formatter -> error -> unit
val error_to_string : error -> string

val crc32 : ?crc:int32 -> bytes -> pos:int -> len:int -> int32
(** Incremental IEEE CRC-32 (polynomial 0xEDB88320) over a byte range.
    [?crc] chains a previous result; defaults to the empty-message
    initial value. *)

(** Payload serialization. *)
module Writer : sig
  type t

  val create : unit -> t
  val byte : t -> int -> unit

  val int : t -> int -> unit
  (** 8-byte two's-complement LE. *)

  val float : t -> float -> unit
  (** IEEE-754 bit pattern, exact round-trip. *)

  val string : t -> string -> unit
  (** Length-prefixed. *)

  val float_array : t -> float array -> unit

  val contents : t -> bytes
  (** The payload accumulated so far. *)
end

(** Payload deserialization.  Every read checks bounds and raises
    [Error (Malformed _)] instead of running off the buffer. *)
module Reader : sig
  type t

  val create : bytes -> t
  val byte : t -> int
  val int : t -> int
  val float : t -> float
  val string : t -> string
  val float_array : t -> float array

  val expect_end : t -> unit
  (** @raise Error [(Malformed _)] if payload bytes remain. *)
end

val frame : bytes -> bytes
(** Wrap a payload in the magic/version/length/CRC frame. *)

val unframe : bytes -> bytes
(** Validate a frame and return the payload.
    @raise Error on any integrity failure. *)

val sweep_tmp : string -> unit
(** Remove stale [*.tmp] siblings left next to [path] by a crash between
    temp-file creation and rename.  {!write_file} calls this first; it
    is exposed so recovery code can sweep without writing. *)

val write_file : string -> bytes -> unit
(** [write_file path payload] frames [payload] and writes it atomically:
    temp file in [path]'s directory, fsync, rename (stale tmps swept
    first).  A failed fsync is a failed write — the previous committed
    bytes stay untouched.  Its {!Etx_util.Failpoint} sites are
    [checkpoint.tmp], [.write], [.fsync], [.rename] and [.commit].
    @raise Sys_error on I/O failure. *)

val read_file : string -> bytes
(** Read (failpoint site [checkpoint.read]) and validate a framed file,
    returning the payload.
    @raise Error on integrity failure, [Sys_error] on I/O failure. *)
