let version = 1

let magic = "ETXCKPT1"

type error =
  | Truncated
  | Bad_magic
  | Unsupported_version of int
  | Crc_mismatch
  | Fingerprint_mismatch of { expected : string; found : string }
  | Malformed of string
  | Witness_mismatch of { cycle : int }
  | Run_ended of { cycle : int; ended : int }

exception Error of error

let pp_error fmt = function
  | Truncated -> Format.pp_print_string fmt "file truncated"
  | Bad_magic -> Format.pp_print_string fmt "not a checkpoint file (bad magic)"
  | Unsupported_version v -> Format.fprintf fmt "unsupported checkpoint version %d" v
  | Crc_mismatch -> Format.pp_print_string fmt "payload CRC mismatch (file corrupted)"
  | Fingerprint_mismatch { expected; found } ->
    Format.fprintf fmt
      "checkpoint was taken under a different configuration@ (expected %s, found %s)"
      expected found
  | Malformed what -> Format.fprintf fmt "malformed checkpoint: %s" what
  | Witness_mismatch { cycle } ->
    Format.fprintf fmt "the replayed run does not match the checkpoint at cycle %d" cycle
  | Run_ended { cycle; ended } ->
    Format.fprintf fmt "the run ends at cycle %d, before the checkpoint's cycle %d" ended
      cycle

let error_to_string e = Format.asprintf "%a" pp_error e

let () =
  Printexc.register_printer (function
    | Error e -> Some (Printf.sprintf "Checkpoint.Error (%s)" (error_to_string e))
    | _ -> None)

(* IEEE CRC-32, table-driven (polynomial 0xEDB88320, reflected). *)
let crc_table =
  lazy
    (Array.init 256 (fun n ->
         let c = ref (Int32.of_int n) in
         for _ = 0 to 7 do
           c :=
             if Int32.logand !c 1l <> 0l then
               Int32.logxor 0xEDB88320l (Int32.shift_right_logical !c 1)
             else Int32.shift_right_logical !c 1
         done;
         !c))

let crc32 ?(crc = 0l) buf ~pos ~len =
  if pos < 0 || len < 0 || pos + len > Bytes.length buf then
    invalid_arg "Checkpoint.crc32: range out of bounds";
  let table = Lazy.force crc_table in
  let c = ref (Int32.logxor crc 0xFFFFFFFFl) in
  for i = pos to pos + len - 1 do
    let index = Int32.to_int (Int32.logand (Int32.logxor !c (Int32.of_int (Char.code (Bytes.get buf i)))) 0xFFl) in
    c := Int32.logxor table.(index) (Int32.shift_right_logical !c 8)
  done;
  Int32.logxor !c 0xFFFFFFFFl

module Writer = struct
  type t = Buffer.t

  let create () = Buffer.create 4096

  let byte t v = Buffer.add_char t (Char.chr (v land 0xFF))
  let int t v = Buffer.add_int64_le t (Int64.of_int v)
  let float t v = Buffer.add_int64_le t (Int64.bits_of_float v)

  let string t s =
    int t (String.length s);
    Buffer.add_string t s

  let float_array t xs =
    int t (Array.length xs);
    Array.iter (float t) xs

  let contents t = Buffer.to_bytes t
end

module Reader = struct
  type t = { buf : bytes; mutable pos : int }

  let create buf = { buf; pos = 0 }

  let malformed what = raise (Error (Malformed what))

  (* [t.pos + n] could overflow for a hostile length prefix, so compare
     against the remaining byte count instead *)
  let need t n =
    if n < 0 || n > Bytes.length t.buf - t.pos then
      malformed "field runs past end of payload"

  let byte t =
    need t 1;
    let v = Char.code (Bytes.get t.buf t.pos) in
    t.pos <- t.pos + 1;
    v

  let int64 t =
    need t 8;
    let v = Bytes.get_int64_le t.buf t.pos in
    t.pos <- t.pos + 8;
    v

  let int t =
    let v = int64 t in
    let n = Int64.to_int v in
    if Int64.of_int n <> v then malformed "integer out of native int range";
    n

  let float t = Int64.float_of_bits (int64 t)

  let string t =
    let n = int t in
    if n < 0 then malformed "negative string length";
    need t n;
    let v = Bytes.sub_string t.buf t.pos n in
    t.pos <- t.pos + n;
    v

  let float_array t =
    let n = int t in
    if n < 0 then malformed "negative array length";
    (* cheap sanity bound: each element costs at least one payload byte *)
    if n > Bytes.length t.buf - t.pos then malformed "array length exceeds payload";
    Array.init n (fun _ -> float t)

  let expect_end t =
    if t.pos <> Bytes.length t.buf then malformed "trailing bytes after payload"
end

(* Frame layout: magic (8) | version u32 | length u64 | payload | crc u32 *)
let header_len = 8 + 4 + 8
let trailer_len = 4

let frame payload =
  let len = Bytes.length payload in
  let out = Bytes.create (header_len + len + trailer_len) in
  Bytes.blit_string magic 0 out 0 8;
  Bytes.set_int32_le out 8 (Int32.of_int version);
  Bytes.set_int64_le out 12 (Int64.of_int len);
  Bytes.blit payload 0 out header_len len;
  Bytes.set_int32_le out (header_len + len) (crc32 payload ~pos:0 ~len);
  out

let unframe buf =
  if Bytes.length buf < header_len + trailer_len then raise (Error Truncated);
  if Bytes.sub_string buf 0 8 <> magic then raise (Error Bad_magic);
  let v = Int32.to_int (Bytes.get_int32_le buf 8) in
  if v <> version then raise (Error (Unsupported_version v));
  let len64 = Bytes.get_int64_le buf 12 in
  let len = Int64.to_int len64 in
  if Int64.of_int len <> len64 || len < 0 then raise (Error (Malformed "frame length"));
  if Bytes.length buf <> header_len + len + trailer_len then raise (Error Truncated);
  let stored = Bytes.get_int32_le buf (header_len + len) in
  if crc32 buf ~pos:header_len ~len <> stored then raise (Error Crc_mismatch);
  Bytes.sub buf header_len len

(* A crash between temp-file creation and rename strands a *.tmp next to
   the target; it was never visible as committed state, so removing it
   is the recovery.  The sweep skips temps whose writer is still alive
   (another process mid-write next to the same target). *)
let sweep_tmp path =
  ignore
    (Etx_util.Fdio.sweep_tmps ~prefix:(Filename.basename path)
       (Filename.dirname path))

let write_file path payload =
  sweep_tmp path;
  Etx_util.Fdio.write_file_atomic ~fp_prefix:"checkpoint" ~path (frame payload)

let read_file path = unframe (Etx_util.Fdio.read_file ~site:"checkpoint.read" path)
