(* Unit tests for the failpoint subsystem and the I/O layers threaded
   with it: arm/check semantics (occurrence, repeat, disarm), the spec
   grammar, seeded random specs, Fdio absorbing short and interrupted
   transfers while surfacing real failures atomically, and Netio
   retrying injected EINTR on live sockets. *)

module Failpoint = Etx_util.Failpoint
module Fdio = Etx_util.Fdio
module Netio = Etx_service.Netio

(* every test must leave the global registry clean *)
let with_clean f =
  Failpoint.reset ();
  Fun.protect ~finally:Failpoint.reset f

let temp_dir =
  let counter = ref 0 in
  fun () ->
    incr counter;
    let dir =
      Filename.concat
        (Filename.get_temp_dir_name ())
        (Printf.sprintf "etx-test-fp-%d-%d" (Unix.getpid ()) !counter)
    in
    (try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
    dir

let read_path path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* - registry semantics - *)

let test_disabled_is_silent () =
  with_clean (fun () ->
      Alcotest.(check bool) "nothing armed" false (Failpoint.enabled ());
      Alcotest.(check bool) "check returns None" true
        (Failpoint.check "store.write" = None);
      (* hit on an unarmed site must be a no-op, not an exception *)
      Failpoint.hit "store.rename")

let test_arm_once_then_disarms () =
  with_clean (fun () ->
      Failpoint.arm "s" (Failpoint.Errno Unix.ENOSPC);
      Alcotest.(check bool) "enabled while armed" true (Failpoint.enabled ());
      Alcotest.(check bool) "first hit fires" true
        (Failpoint.check "s" = Some (Failpoint.Errno Unix.ENOSPC));
      Alcotest.(check bool) "single-shot disarms" true (Failpoint.check "s" = None);
      Alcotest.(check bool) "registry empty again" false (Failpoint.enabled ()))

let test_arm_occurrence_and_repeat () =
  with_clean (fun () ->
      Failpoint.arm ~after:2 "s" (Failpoint.Short 1);
      Alcotest.(check bool) "hit 1 passes" true (Failpoint.check "s" = None);
      Alcotest.(check bool) "hit 2 passes" true (Failpoint.check "s" = None);
      Alcotest.(check bool) "hit 3 fires" true
        (Failpoint.check "s" = Some (Failpoint.Short 1));
      Failpoint.arm ~repeat:true "r" (Failpoint.Errno Unix.EINTR);
      for i = 1 to 5 do
        if Failpoint.check "r" <> Some (Failpoint.Errno Unix.EINTR) then
          Alcotest.failf "repeat arm stopped firing at hit %d" i
      done;
      Failpoint.disarm "r";
      Alcotest.(check bool) "disarm stops it" true (Failpoint.check "r" = None))

let test_hit_exception_mapping () =
  with_clean (fun () ->
      Failpoint.arm "e" (Failpoint.Errno Unix.ENOSPC);
      (match Failpoint.hit "e" with
      | () -> Alcotest.fail "Errno did not raise"
      | exception Unix.Unix_error (Unix.ENOSPC, _, site) ->
        Alcotest.(check string) "site in payload" "e" site);
      Failpoint.arm "m" (Failpoint.Sys_err "disk on fire");
      (match Failpoint.hit "m" with
      | () -> Alcotest.fail "Sys_err did not raise"
      | exception Sys_error msg ->
        Alcotest.(check string) "message" "disk on fire" msg);
      Failpoint.arm "c" Failpoint.Crash;
      match Failpoint.hit "c" with
      | () -> Alcotest.fail "Crash did not raise"
      | exception Failpoint.Crash_point site ->
        Alcotest.(check string) "crash site" "c" site)

let test_recording () =
  with_clean (fun () ->
      Failpoint.record_sites true;
      ignore (Failpoint.check "a");
      ignore (Failpoint.check "b");
      ignore (Failpoint.check "a");
      Failpoint.hit "b";
      Alcotest.(check (list (pair string int)))
        "sorted hit counts"
        [ ("a", 2); ("b", 2) ]
        (Failpoint.sites_hit ()))

(* - spec grammar - *)

let test_arm_spec_roundtrip () =
  with_clean (fun () ->
      (match Failpoint.arm_spec "a=enospc,b=short:3@2,c=eintr!,d=torn:7,e=sys:boom"
       with
      | Ok () -> ()
      | Error reason -> Alcotest.failf "spec rejected: %s" reason);
      Alcotest.(check bool) "a fires enospc" true
        (Failpoint.check "a" = Some (Failpoint.Errno Unix.ENOSPC));
      Alcotest.(check bool) "b occurrence 1 passes" true (Failpoint.check "b" = None);
      Alcotest.(check bool) "b occurrence 2 fires short" true
        (Failpoint.check "b" = Some (Failpoint.Short 3));
      Alcotest.(check bool) "c repeats" true
        (Failpoint.check "c" = Some (Failpoint.Errno Unix.EINTR)
        && Failpoint.check "c" = Some (Failpoint.Errno Unix.EINTR));
      Alcotest.(check bool) "d fires torn" true
        (Failpoint.check "d" = Some (Failpoint.Torn 7));
      Alcotest.(check bool) "e fires sys" true
        (Failpoint.check "e" = Some (Failpoint.Sys_err "boom")))

let test_arm_spec_rejects_malformed () =
  with_clean (fun () ->
      List.iter
        (fun spec ->
          match Failpoint.arm_spec spec with
          | Error _ -> ()
          | Ok () -> Alcotest.failf "malformed spec %S accepted" spec)
        [ "a"; "a=bogus"; "=enospc"; "a=short:x"; "a=enospc@0"; "a=enospc@x"; "a=" ])

let test_random_spec_deterministic () =
  with_clean (fun () ->
      let sites = [ "store.write"; "store.fsync"; "net.read" ] in
      let s1 = Failpoint.random_spec ~seed:42 ~sites in
      let s2 = Failpoint.random_spec ~seed:42 ~sites in
      Alcotest.(check string) "same seed, same spec" s1 s2;
      match Failpoint.arm_spec s1 with
      | Ok () -> ()
      | Error reason -> Alcotest.failf "random spec %S rejected: %s" s1 reason)

(* - Fdio - *)

let test_fdio_absorbs_short_and_eintr () =
  with_clean (fun () ->
      let dir = temp_dir () in
      let path = Filename.concat dir "data.bin" in
      let payload = Bytes.of_string (String.init 300 (fun i -> Char.chr (i mod 256))) in
      Failpoint.arm ~repeat:true "file.write" (Failpoint.Short 7);
      Failpoint.arm "file.fsync" (Failpoint.Errno Unix.EINTR);
      Fdio.write_file_atomic ~path payload;
      Failpoint.reset ();
      Alcotest.(check string) "bytes intact despite short writes"
        (Bytes.to_string payload) (read_path path))

let test_fdio_failure_leaves_previous_bytes () =
  with_clean (fun () ->
      let dir = temp_dir () in
      let path = Filename.concat dir "data.bin" in
      Fdio.write_file_atomic ~path (Bytes.of_string "committed");
      List.iter
        (fun site ->
          Failpoint.reset ();
          Failpoint.arm site (Failpoint.Errno Unix.ENOSPC);
          (match Fdio.write_file_atomic ~path (Bytes.of_string "doomed") with
          | () -> Alcotest.failf "injected failure at %s did not surface" site
          | exception Sys_error _ -> ());
          Failpoint.reset ();
          Alcotest.(check string)
            (Printf.sprintf "previous bytes survive failure at %s" site)
            "committed" (read_path path);
          let leftovers =
            Sys.readdir dir |> Array.to_list
            |> List.filter (fun f -> Filename.check_suffix f ".tmp")
          in
          Alcotest.(check (list string))
            (Printf.sprintf "no temp file left after failure at %s" site)
            [] leftovers)
        [ "file.tmp"; "file.write"; "file.fsync"; "file.rename" ])

let test_fdio_short_read_truncates () =
  with_clean (fun () ->
      let dir = temp_dir () in
      let path = Filename.concat dir "data.bin" in
      Fdio.write_file_atomic ~path (Bytes.of_string "0123456789");
      Failpoint.arm "file.read" (Failpoint.Short 4);
      let truncated = Fdio.read_file ~site:"file.read" path in
      Failpoint.reset ();
      Alcotest.(check string) "torn read returns the prefix" "0123"
        (Bytes.to_string truncated);
      Alcotest.(check string) "clean read returns everything" "0123456789"
        (Bytes.to_string (Fdio.read_file path)))

(* - Netio - *)

let test_netio_retries_injected_eintr () =
  with_clean (fun () ->
      let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Fun.protect
        ~finally:(fun () ->
          (try Unix.close a with Unix.Unix_error _ -> ());
          try Unix.close b with Unix.Unix_error _ -> ())
        (fun () ->
          let now = Unix.gettimeofday in
          Failpoint.arm "net.write" (Failpoint.Errno Unix.EINTR);
          Netio.write_all ~now a (Bytes.of_string "hello ");
          Failpoint.arm ~repeat:true "net.write" (Failpoint.Short 2);
          Netio.write_all ~now a (Bytes.of_string "line\n");
          Failpoint.disarm "net.write";
          Failpoint.arm "net.read" (Failpoint.Errno Unix.EINTR);
          let r = Netio.reader b in
          (match Netio.read_line ~deadline:(now () +. 5.) ~now r with
          | Some line -> Alcotest.(check string) "line intact" "hello line" line
          | None -> Alcotest.fail "eof before line");
          Unix.close a;
          Alcotest.(check bool) "eof after close" true
            (Netio.read_line ~deadline:(now () +. 5.) ~now r = None)))

(* A line far longer than a read, and several lines packed into one
   write, come back intact and in order; the unterminated tail comes
   once, at end of stream.  The writer runs in its own domain, since a
   socket buffer holds far less than the long line. *)
let test_netio_long_and_packed_lines () =
  with_clean (fun () ->
      let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      let long = String.init (1 lsl 20) (fun i -> Char.chr (97 + (i mod 26))) in
      let now = Unix.gettimeofday in
      let writer =
        Domain.spawn (fun () ->
            Fun.protect
              ~finally:(fun () -> Unix.close a)
              (fun () ->
                let deadline = now () +. 30. in
                Netio.write_all ~deadline ~now a (Bytes.of_string (long ^ "\n"));
                Netio.write_all ~deadline ~now a
                  (Bytes.of_string "one\ntwo\n\nthree\ntail")))
      in
      Fun.protect
        ~finally:(fun () ->
          Domain.join writer;
          Unix.close b)
        (fun () ->
          let r = Netio.reader b in
          let next () = Netio.read_line ~deadline:(now () +. 30.) ~now r in
          Alcotest.(check (option string)) "long line" (Some long) (next ());
          List.iter
            (fun line -> Alcotest.(check (option string)) line (Some line) (next ()))
            [ "one"; "two"; ""; "three"; "tail" ];
          Alcotest.(check (option string)) "end of stream" None (next ());
          Alcotest.(check (option string)) "stays ended" None (next ())))

let suite =
  [
    ( "failpoint",
      [
        Alcotest.test_case "disabled is silent" `Quick test_disabled_is_silent;
        Alcotest.test_case "single-shot arm" `Quick test_arm_once_then_disarms;
        Alcotest.test_case "occurrence and repeat" `Quick
          test_arm_occurrence_and_repeat;
        Alcotest.test_case "hit exception mapping" `Quick test_hit_exception_mapping;
        Alcotest.test_case "hit recording" `Quick test_recording;
        Alcotest.test_case "spec grammar" `Quick test_arm_spec_roundtrip;
        Alcotest.test_case "spec rejects malformed" `Quick
          test_arm_spec_rejects_malformed;
        Alcotest.test_case "random spec determinism" `Quick
          test_random_spec_deterministic;
        Alcotest.test_case "fdio absorbs short/EINTR" `Quick
          test_fdio_absorbs_short_and_eintr;
        Alcotest.test_case "fdio failures are atomic" `Quick
          test_fdio_failure_leaves_previous_bytes;
        Alcotest.test_case "fdio short read truncates" `Quick
          test_fdio_short_read_truncates;
        Alcotest.test_case "netio retries injected EINTR" `Quick
          test_netio_retries_injected_eintr;
        Alcotest.test_case "netio long and packed lines" `Quick
          test_netio_long_and_packed_lines;
      ] );
  ]
