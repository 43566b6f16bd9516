(* Crash-consistency properties, as QCheck properties over the seed.

   Each trial runs the ALICE-style harness for one artifact: enumerate
   every kill point in the write sequence, simulate a crash at each
   (fork + _exit, so no finalizer cleans up behind the "crash"), re-open
   the artifact and check the recovery invariants — no committed entry
   lost, nothing partial served, temp files swept, bytes bit-identical —
   plus the in-process injection pass (ENOSPC, EIO, EINTR, short and
   torn transfers, rename failure).

   A failing seed is the QCheck counterexample — replay it with
   `etx crashtest --seed N`. *)

module Crashtest = Etx_service.Crashtest

let scratch part seed =
  Filename.concat
    (Filename.get_temp_dir_name ())
    (Printf.sprintf "etx-crash-test-%s-%d-%d" part (Unix.getpid ()) seed)

let rec remove_tree path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun e -> remove_tree (Filename.concat path e)) (Sys.readdir path);
    (try Unix.rmdir path with Unix.Unix_error _ -> ())
  | _ -> ( try Sys.remove path with Sys_error _ -> ())
  | exception Unix.Unix_error _ -> ()

let property part run seed =
  let dir = scratch part seed in
  remove_tree dir;
  Fun.protect
    ~finally:(fun () -> remove_tree dir)
    (fun () ->
      let (r : Crashtest.report) = run ~seed ~dir () in
      match r.violations with
      | [] ->
        (* an empty enumeration would mean the harness silently tested
           nothing — that is a harness bug, not a pass *)
        if r.kill_points = 0 then
          QCheck.Test.fail_reportf "%s: no kill points enumerated" part
        else if r.injections = 0 then
          QCheck.Test.fail_reportf "%s: no failures injected" part
        else true
      | violations ->
        QCheck.Test.fail_reportf
          "%s crash-consistency violations for seed %d (replay: etx crashtest \
           --seed %d --parts %s):\n%s"
          part seed seed part
          (String.concat "\n" violations))

let make part run count =
  QCheck.Test.make ~count
    ~name:(Printf.sprintf "%s survives every kill point and injection" part)
    QCheck.(int_range 1 10_000)
    (property part run)

let suite =
  [
    ( "crash-consistency",
      [
        QCheck_alcotest.to_alcotest
          (make "store" (fun ~seed ~dir () -> Crashtest.store ~seed ~dir ()) 3);
        QCheck_alcotest.to_alcotest
          (make "checkpoint"
             (fun ~seed ~dir () -> Crashtest.checkpoint ~seed ~dir ())
             3);
      ] );
  ]

let () = Alcotest.run "crash-consistency" suite
