(* Wire-format tests for Metrics.write / Metrics.read and the checkpoint
   framing they ride on.  The contract under attack: a round trip is the
   identity, and every malformed input — truncated buffers, wrong magic,
   corrupted payloads, absurd length prefixes — surfaces as
   [Checkpoint.Error], never as an out-of-bounds crash, an OOM
   allocation, or a silently wrong record. *)

module Checkpoint = Etx_etsim.Checkpoint
module Metrics = Etx_etsim.Metrics

let metrics =
  lazy
    (Etx_etsim.Engine.simulate (Etextile.Calibration.config ~mesh_size:4 ~seed:1 ()))

let payload_of metrics =
  let w = Checkpoint.Writer.create () in
  Metrics.write w metrics;
  Checkpoint.Writer.contents w

let read_payload payload =
  let r = Checkpoint.Reader.create payload in
  let m = Metrics.read r in
  Checkpoint.Reader.expect_end r;
  m

let test_round_trip () =
  let m = Lazy.force metrics in
  let m' = read_payload (payload_of m) in
  Alcotest.(check bool) "round trip is the identity" true (m = m');
  (* and through the full file frame *)
  let m'' =
    Checkpoint.Reader.create (Checkpoint.unframe (Checkpoint.frame (payload_of m)))
    |> Metrics.read
  in
  Alcotest.(check bool) "frame round trip" true (m = m'')

let expect_checkpoint_error name thunk =
  match thunk () with
  | _ -> Alcotest.failf "%s: accepted" name
  | exception Checkpoint.Error _ -> ()
  | exception exn ->
    Alcotest.failf "%s: raised %s instead of Checkpoint.Error" name
      (Printexc.to_string exn)

let test_truncated_payloads () =
  (* every proper prefix of the payload must fail cleanly: the reader
     runs off the buffer at some field and says so *)
  let payload = payload_of (Lazy.force metrics) in
  let len = Bytes.length payload in
  let step = max 1 (len / 97) in
  let cut = ref 0 in
  while !cut < len do
    let prefix = Bytes.sub payload 0 !cut in
    expect_checkpoint_error
      (Printf.sprintf "prefix of %d bytes" !cut)
      (fun () -> read_payload prefix);
    cut := !cut + step
  done

let test_truncated_frames () =
  let frame = Checkpoint.frame (payload_of (Lazy.force metrics)) in
  List.iter
    (fun keep ->
      expect_checkpoint_error
        (Printf.sprintf "frame cut to %d bytes" keep)
        (fun () -> Checkpoint.unframe (Bytes.sub frame 0 keep)))
    [ 0; 4; 7; 8; 12; 20; Bytes.length frame - 1 ]

let test_wrong_magic () =
  let frame = Checkpoint.frame (payload_of (Lazy.force metrics)) in
  let evil = Bytes.copy frame in
  Bytes.set evil 0 'X';
  expect_checkpoint_error "wrong magic" (fun () -> Checkpoint.unframe evil)

let test_corrupted_payload () =
  let frame = Checkpoint.frame (payload_of (Lazy.force metrics)) in
  let evil = Bytes.copy frame in
  let mid = Bytes.length evil / 2 in
  Bytes.set evil mid (Char.chr (Char.code (Bytes.get evil mid) lxor 0xff));
  expect_checkpoint_error "crc catches the flip" (fun () -> Checkpoint.unframe evil)

(* a hostile length prefix must be rejected by bounds checking before any
   allocation is attempted *)
let test_huge_length_prefixes () =
  List.iter
    (fun n ->
      let w = Checkpoint.Writer.create () in
      Checkpoint.Writer.int w n;
      let payload = Checkpoint.Writer.contents w in
      List.iter
        (fun (what, reader) ->
          expect_checkpoint_error
            (Printf.sprintf "%s with length %d" what n)
            (fun () -> reader (Checkpoint.Reader.create payload)))
        [
          ("string", fun r -> ignore (Checkpoint.Reader.string r));
          ("float array", fun r -> ignore (Checkpoint.Reader.float_array r));
        ])
    [ max_int; max_int - 1; 1 lsl 60; -1; min_int ]

(* feed the metrics decoder byte soups: whatever happens must be a clean
   checkpoint error or a successful decode, never a crash *)
let test_byte_soup () =
  let soups =
    [
      Bytes.make 64 '\xff';
      Bytes.make 8 '\x00';
      Bytes.make 4096 '\x7f';
      Bytes.init 512 (fun i -> Char.chr (i * 131 mod 256));
    ]
  in
  List.iter
    (fun soup ->
      match read_payload soup with
      | (_ : Metrics.t) -> ()
      | exception Checkpoint.Error _ -> ())
    soups

let test_trailing_bytes_rejected () =
  let payload = payload_of (Lazy.force metrics) in
  let padded = Bytes.cat payload (Bytes.make 3 '\x00') in
  expect_checkpoint_error "trailing bytes" (fun () -> read_payload padded)

let suite =
  [
    ( "etsim/metrics-wire",
      [
        Alcotest.test_case "round trip" `Quick test_round_trip;
        Alcotest.test_case "truncated payloads" `Quick test_truncated_payloads;
        Alcotest.test_case "truncated frames" `Quick test_truncated_frames;
        Alcotest.test_case "wrong magic" `Quick test_wrong_magic;
        Alcotest.test_case "corrupted payload" `Quick test_corrupted_payload;
        Alcotest.test_case "huge length prefixes" `Quick test_huge_length_prefixes;
        Alcotest.test_case "byte soup" `Quick test_byte_soup;
        Alcotest.test_case "trailing bytes rejected" `Quick
          test_trailing_bytes_rejected;
      ] );
  ]
