module Failpoint = Etx_util.Failpoint
module Prng = Etx_util.Prng
module Checkpoint = Etx_etsim.Checkpoint

type report = {
  part : string;
  seed : int;
  kill_points : int;
  injections : int;
  violations : string list;
}

(* - scratch-dir plumbing - *)

let rec remove_tree path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun e -> remove_tree (Filename.concat path e)) (Sys.readdir path);
    (try Unix.rmdir path with Unix.Unix_error _ -> ())
  | _ -> ( try Sys.remove path with Sys_error _ -> ())
  | exception Unix.Unix_error _ -> ()

let ensure_parent path =
  let parent = Filename.dirname path in
  try Unix.mkdir parent 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()

let fresh_dir path =
  remove_tree path;
  ensure_parent path;
  (try Unix.mkdir path 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  path

let ensure_dir path =
  (try Unix.mkdir path 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  path

let tmp_files dir =
  match Sys.readdir dir with
  | exception Sys_error _ -> []
  | names ->
    Array.to_list names |> List.filter (fun n -> Filename.check_suffix n ".tmp")

(* - the crash replay: fork, arm, run, _exit -

   The child replaces the crash hook with [Unix._exit], so firing a kill
   point terminates it the way SIGKILL would: channels unflushed,
   finalizers and [Fun.protect] cleanups skipped.  Exit code 77 proves
   the armed point actually fired; 0 means the sequence finished without
   reaching it (an enumeration bug the caller reports). *)

let crash_exit_code = 77

let fork_crash ~arm f =
  flush stdout;
  flush stderr;
  match Unix.fork () with
  | 0 ->
    Failpoint.on_crash := (fun _ -> Unix._exit crash_exit_code);
    arm ();
    (try f () with _ -> ());
    Unix._exit 0
  | pid -> (
    match Unix.waitpid [] pid with
    | _, Unix.WEXITED code -> code
    | _ -> -1)

(* One counting pass: run [f] with hit recording on, return the write
   sites matching [prefix] (reads are not kill points — a crash during a
   read mutates nothing). *)
let enumerate ~prefix f =
  Failpoint.reset ();
  Failpoint.record_sites true;
  Fun.protect
    ~finally:(fun () -> Failpoint.reset ())
    (fun () ->
      f ();
      Failpoint.sites_hit ()
      |> List.filter (fun (site, _) ->
             String.starts_with ~prefix site
             && not (Filename.check_suffix site ".read")))

(* Kill points of one enumerated write sequence: every occurrence of
   every site as a plain crash, plus seeded torn-write offsets at the
   [.write] site. *)
let kill_points ~rng ~data_len sites =
  List.concat_map
    (fun (site, count) ->
      List.concat
        (List.init count (fun i ->
             let occ = i + 1 in
             let crash =
               (Printf.sprintf "crash at %s#%d" site occ, site, occ, Failpoint.Crash)
             in
             if Filename.check_suffix site ".write" then
               crash
               :: List.map
                    (fun torn ->
                      ( Printf.sprintf "torn write of %d bytes at %s#%d" torn site
                          occ,
                        site,
                        occ,
                        Failpoint.Torn torn ))
                    [ 0; 1; Prng.int rng ~bound:(max 1 data_len) ]
             else [ crash ])))
    sites

(* - part 1: the durable result store - *)

let store ?(seed = 1) ~dir () =
  let violations = ref [] in
  let violation fmt = Printf.ksprintf (fun s -> violations := s :: !violations) fmt in
  let rng = Prng.create ~seed in
  let dir_s = fresh_dir (Filename.concat dir "store") in
  let value_of i =
    Bytes.to_string (Prng.bytes rng ~len:(64 + Prng.int rng ~bound:512))
    ^ Printf.sprintf "#%d" i
  in
  let committed = List.init 4 (fun i -> (Printf.sprintf "committed-%d" i, value_of i)) in
  let s0 = Store.open_dir dir_s in
  List.iter (fun (k, v) -> Store.add s0 k v) committed;
  if Store.write_errors s0 > 0 then violation "store: baseline writes failed";
  let check_committed ~when_ store =
    List.iter
      (fun (k, v) ->
        match Store.find store k with
        | Some found when String.equal found v -> ()
        | Some _ -> violation "store: %s: committed %S no longer bit-identical" when_ k
        | None -> violation "store: %s: committed %S lost" when_ k)
      committed
  in
  let sites =
    enumerate ~prefix:"store." (fun () ->
        let s = Store.open_dir dir_s in
        Store.add s "enumerate-victim" "enumerate-value")
  in
  if sites = [] then violation "store: no write sites enumerated";
  let overwrite_key, overwrite_old = List.hd committed in
  let kill_cases = kill_points ~rng ~data_len:700 sites in
  let kills = ref 0 in
  List.iteri
    (fun case (desc, site, occ, failure) ->
      (* fresh-key variant: the interrupted entry must be absent or
         complete, never partial *)
      let victim = Printf.sprintf "victim-%d" case in
      let victim_value = value_of case in
      let code =
        fork_crash
          ~arm:(fun () -> Failpoint.arm ~after:(occ - 1) site failure)
          (fun () ->
            let s = Store.open_dir dir_s in
            Store.add s victim victim_value)
      in
      incr kills;
      if code <> crash_exit_code then
        violation "store: %s never fired (child exit %d)" desc code;
      let s = Store.open_dir dir_s in
      check_committed ~when_:desc s;
      (match Store.find s victim with
      | None -> ()
      | Some v when String.equal v victim_value -> ()
      | Some _ -> violation "store: %s: partial victim entry served" desc);
      (match tmp_files dir_s with
      | [] -> ()
      | ts -> violation "store: %s: %d tmp file(s) survived recovery" desc (List.length ts));
      (* the store must keep accepting writes after recovery *)
      Store.add s victim victim_value;
      (match Store.find s victim with
      | Some v when String.equal v victim_value -> ()
      | _ -> violation "store: %s: re-add after recovery not served" desc);
      (* overwrite variant: interrupting a rewrite of a committed key
         must leave old-or-new, bit-identically *)
      let code =
        fork_crash
          ~arm:(fun () -> Failpoint.arm ~after:(occ - 1) site failure)
          (fun () ->
            let s = Store.open_dir dir_s in
            Store.add s overwrite_key overwrite_old)
      in
      incr kills;
      if code <> crash_exit_code then
        violation "store: overwrite %s never fired (child exit %d)" desc code;
      let s = Store.open_dir dir_s in
      check_committed ~when_:("overwrite " ^ desc) s)
    kill_cases;
  (* - in-process failure injections - *)
  let injections = ref 0 in
  let inject ~desc ~site ~failure ~expect_write_error key =
    Failpoint.reset ();
    Failpoint.arm site failure;
    incr injections;
    let s = Store.open_dir dir_s in
    (match Store.add s key (value_of 9000) with
    | () -> ()
    | exception e ->
      violation "store: %s: add leaked %s" desc (Printexc.to_string e));
    Failpoint.reset ();
    let errors = Store.write_errors s in
    if expect_write_error && errors = 0 then
      violation "store: %s: failure not counted as a write error" desc;
    if (not expect_write_error) && errors > 0 then
      violation "store: %s: recoverable failure counted as a write error" desc;
    if not expect_write_error then begin
      match Store.find s key with
      | Some _ -> ()
      | None -> violation "store: %s: absorbed failure lost the write" desc
    end;
    check_committed ~when_:desc s
  in
  List.iter
    (fun (site, _) ->
      inject
        ~desc:(Printf.sprintf "ENOSPC at %s" site)
        ~site ~failure:(Failpoint.Errno Unix.ENOSPC) ~expect_write_error:true
        "inject-enospc")
    sites;
  inject ~desc:"EIO at store.fsync (fsyncgate)" ~site:"store.fsync"
    ~failure:(Failpoint.Errno Unix.EIO) ~expect_write_error:true "inject-fsync";
  inject ~desc:"Sys_error at store.rename" ~site:"store.rename"
    ~failure:(Failpoint.Sys_err "injected rename failure") ~expect_write_error:true
    "inject-rename";
  inject ~desc:"EINTR at store.write" ~site:"store.write"
    ~failure:(Failpoint.Errno Unix.EINTR) ~expect_write_error:false "inject-eintr";
  inject ~desc:"short write at store.write" ~site:"store.write"
    ~failure:(Failpoint.Short 1) ~expect_write_error:false "inject-short";
  (* short *read*: a truncated entry is corruption — served as a miss,
     dropped, and re-addable *)
  (let s = Store.open_dir dir_s in
   Store.add s "inject-read" "short-read-victim";
   Failpoint.arm "store.read" (Failpoint.Short 3);
   incr injections;
   (match Store.find s "inject-read" with
   | None -> ()
   | Some _ -> violation "store: short read served a truncated entry");
   Failpoint.reset ();
   if Store.corrupt_dropped s = 0 then
     violation "store: short read not dropped as corruption";
   Store.add s "inject-read" "short-read-victim";
   match Store.find s "inject-read" with
   | Some v when String.equal v "short-read-victim" -> ()
   | _ -> violation "store: entry not re-addable after short-read drop");
  Failpoint.reset ();
  {
    part = "store";
    seed;
    kill_points = !kills;
    injections = !injections;
    violations = List.rev !violations;
  }

(* - part 2: engine checkpoints - *)

let checkpoint ?(seed = 1) ~dir () =
  let violations = ref [] in
  let violation fmt = Printf.ksprintf (fun s -> violations := s :: !violations) fmt in
  let rng = Prng.create ~seed in
  let dir_c = fresh_dir (Filename.concat dir "checkpoint") in
  let path = Filename.concat dir_c "engine.etxc" in
  let payload_old = Prng.bytes rng ~len:(256 + Prng.int rng ~bound:1024) in
  let payload_new = Prng.bytes rng ~len:(256 + Prng.int rng ~bound:1024) in
  let restore () = Checkpoint.write_file path payload_old in
  restore ();
  let sites =
    enumerate ~prefix:"checkpoint." (fun () -> Checkpoint.write_file path payload_new)
  in
  restore ();
  if sites = [] then violation "checkpoint: no write sites enumerated";
  let check_old_or_new ~desc path =
    match Checkpoint.read_file path with
    | payload ->
      if not (Bytes.equal payload payload_old || Bytes.equal payload payload_new)
      then violation "checkpoint: %s: recovered payload matches neither state" desc
    | exception Checkpoint.Error _ ->
      violation "checkpoint: %s: committed frame unreadable after crash" desc
    | exception Sys_error _ ->
      violation "checkpoint: %s: committed frame missing after crash" desc
  in
  let kills = ref 0 in
  List.iter
    (fun (desc, site, occ, failure) ->
      (* replace-existing variant *)
      restore ();
      let code =
        fork_crash
          ~arm:(fun () -> Failpoint.arm ~after:(occ - 1) site failure)
          (fun () -> Checkpoint.write_file path payload_new)
      in
      incr kills;
      if code <> crash_exit_code then
        violation "checkpoint: %s never fired (child exit %d)" desc code;
      check_old_or_new ~desc path;
      Checkpoint.sweep_tmp path;
      (match tmp_files dir_c with
      | [] -> ()
      | ts ->
        violation "checkpoint: %s: %d tmp file(s) survived the sweep" desc
          (List.length ts));
      (* fresh-target variant: all-or-nothing on first write *)
      let fresh = Filename.concat dir_c "fresh.etxc" in
      (try Sys.remove fresh with Sys_error _ -> ());
      let code =
        fork_crash
          ~arm:(fun () -> Failpoint.arm ~after:(occ - 1) site failure)
          (fun () -> Checkpoint.write_file fresh payload_new)
      in
      incr kills;
      if code <> crash_exit_code then
        violation "checkpoint: fresh %s never fired (child exit %d)" desc code;
      (if Sys.file_exists fresh then
         match Checkpoint.read_file fresh with
         | payload ->
           if not (Bytes.equal payload payload_new) then
             violation "checkpoint: fresh %s: partial frame committed" desc
         | exception (Checkpoint.Error _ | Sys_error _) ->
           violation "checkpoint: fresh %s: unreadable frame committed" desc);
      Checkpoint.sweep_tmp fresh)
    (kill_points ~rng ~data_len:(Bytes.length payload_new) sites);
  (* - in-process failure injections - *)
  let injections = ref 0 in
  List.iter
    (fun (site, failure, expect_failure, desc) ->
      restore ();
      Failpoint.reset ();
      Failpoint.arm site failure;
      incr injections;
      (match Checkpoint.write_file path payload_new with
      | () ->
        if expect_failure then
          violation "checkpoint: %s: write unexpectedly succeeded" desc
      | exception Sys_error _ ->
        if not expect_failure then violation "checkpoint: %s: write failed" desc
      | exception e ->
        violation "checkpoint: %s: leaked %s" desc (Printexc.to_string e));
      Failpoint.reset ();
      let expect = if expect_failure then payload_old else payload_new in
      (match Checkpoint.read_file path with
      | payload ->
        if not (Bytes.equal payload expect) then
          violation "checkpoint: %s: on-disk payload not the %s state" desc
            (if expect_failure then "previous" else "new")
      | exception (Checkpoint.Error _ | Sys_error _) ->
        violation "checkpoint: %s: frame unreadable" desc);
      match tmp_files dir_c with
      | [] -> ()
      | ts -> violation "checkpoint: %s: %d tmp file(s) left" desc (List.length ts))
    [
      ("checkpoint.write", Failpoint.Errno Unix.ENOSPC, true, "ENOSPC at write");
      ("checkpoint.fsync", Failpoint.Errno Unix.EIO, true, "EIO at fsync (fsyncgate)");
      ("checkpoint.rename", Failpoint.Sys_err "injected", true, "failed rename");
      ("checkpoint.tmp", Failpoint.Errno Unix.ENOSPC, true, "ENOSPC at tmp creation");
      ("checkpoint.write", Failpoint.Errno Unix.EINTR, false, "EINTR at write");
      ("checkpoint.write", Failpoint.Short 1, false, "short write");
    ];
  (* short read of a valid frame must surface as Truncated, not payload *)
  restore ();
  Failpoint.arm "checkpoint.read" (Failpoint.Short 10);
  incr injections;
  (match Checkpoint.read_file path with
  | _ -> violation "checkpoint: short read returned a payload"
  | exception Checkpoint.Error _ -> ()
  | exception e ->
    violation "checkpoint: short read leaked %s" (Printexc.to_string e));
  Failpoint.reset ();
  {
    part = "checkpoint";
    seed;
    kill_points = !kills;
    injections = !injections;
    violations = List.rev !violations;
  }

let run ?(seed = 1) ?(parts = [ `Store; `Checkpoint ]) ~dir () =
  let dir = ensure_dir dir in
  List.map
    (function
      | `Store -> store ~seed ~dir ()
      | `Checkpoint -> checkpoint ~seed ~dir ())
    parts
