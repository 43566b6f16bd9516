(* Process ownership for one benchmark run.

   Every daemon is spawned directly (never through [etx cluster], whose
   backends are reaped only by the router) and recorded by pid.  Its
   socket, log and store live in one private directory under
   [.bench_tmp/], addressed by relative paths so socket names stay short
   wherever the checkout lives.  [teardown] sends each daemon a
   [shutdown] request, escalates to SIGTERM and then SIGKILL after
   bounded grace periods (a daemon mid-compute ignores SIGTERM), reaps
   every pid and removes the directory.  [with_run] runs it on normal
   exit and on any exception; the SIGINT/SIGTERM handlers raise
   [Interrupted] into the main flow so they unwind through the same
   path.  A run that leaves a daemon or its directory behind fails with
   [Left_behind], whatever ended it. *)

exception Interrupted of int
exception Left_behind of string list

type child = { name : string; pid : int; socket : string option; mutable reaped : bool }

type t = {
  dir : string;
  etx : string;
  mutable children : child list;  (* newest first: routers before backends *)
  mutable torn_down : bool;
}

let tmp_root = ".bench_tmp"

let rec rm_rf path =
  match (Unix.lstat path).Unix.st_kind with
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()
  | Unix.S_DIR ->
    Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Unix.unlink path

let path t name = Filename.concat t.dir name

(* A signal that lands inside [uninterrupted] is raised when it ends. *)
let critical = ref false
let pending = ref None

let uninterrupted f =
  critical := true;
  let outcome = match f () with v -> Ok v | exception e -> Error e in
  critical := false;
  match (!pending, outcome) with
  | Some s, _ ->
    pending := None;
    raise (Interrupted s)
  | None, Ok v -> v
  | None, Error e -> raise e

let install_signal_handlers () =
  let raise_on s =
    Sys.Signal_handle (fun _ -> if !critical then pending := Some s else raise (Interrupted s))
  in
  Sys.set_signal Sys.sigint (raise_on Sys.sigint);
  Sys.set_signal Sys.sigterm (raise_on Sys.sigterm);
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore

(* runs made so far by this process; a set-up round runs while the
   measured run is still up, so each run gets a directory of its own *)
let runs = ref 0

let create ~etx =
  let etx = if Filename.is_relative etx then Filename.concat (Sys.getcwd ()) etx else etx in
  (try Unix.mkdir tmp_root 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  incr runs;
  let dir = Filename.concat tmp_root (Printf.sprintf "run-%d-%d" (Unix.getpid ()) !runs) in
  rm_rf dir;
  Unix.mkdir dir 0o700;
  { dir; etx; children = []; torn_down = false }

let spawn t ~name ?socket ?(stdout_file = name ^ ".log") args =
  let out =
    Unix.openfile (path t stdout_file)
      [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC; Unix.O_CLOEXEC ] 0o644
  in
  let err =
    Unix.openfile (path t (name ^ ".err"))
      [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC; Unix.O_CLOEXEC ] 0o644
  in
  let null = Unix.openfile "/dev/null" [ Unix.O_RDONLY; Unix.O_CLOEXEC ] 0 in
  (* env -C execs [etx] inside the run directory under the same pid, so
     daemons name their sockets and store relative to it: the names the
     router hashes onto its ring are the same in every run *)
  let argv = Array.of_list ("env" :: "-C" :: t.dir :: t.etx :: args) in
  (* a signal raised between the fork and the record of the pid would
     leave the child unowned *)
  uninterrupted (fun () ->
    let pid =
      Fun.protect
        ~finally:(fun () -> List.iter Unix.close [ out; err; null ])
        (fun () -> Unix.create_process "env" argv null out err)
    in
    let c = { name; pid; socket; reaped = false } in
    t.children <- c :: t.children;
    c)

let child t name = List.find (fun c -> c.name = name) t.children

let try_reap c =
  if not c.reaped then
    match Unix.waitpid [ Unix.WNOHANG ] c.pid with
    | 0, _ -> ()
    | _ -> c.reaped <- true
    | exception Unix.Unix_error (Unix.ECHILD, _, _) -> c.reaped <- true
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()

let wait_reaped cs ~grace =
  let deadline = Common.now () +. grace in
  let rec go () =
    List.iter try_reap cs;
    if List.exists (fun c -> not c.reaped) cs && Common.now () < deadline then begin
      Unix.sleepf 0.01;
      go ()
    end
  in
  go ()

(* Run a one-shot tool to completion, its stdout captured in the run
   directory; the pid is owned like a daemon's until it is reaped. *)
let run_tool t ~name args =
  let c = spawn t ~name ~stdout_file:(name ^ ".out") args in
  let rec wait () =
    match Unix.waitpid [] c.pid with
    | _, status ->
      c.reaped <- true;
      status
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait ()
  in
  match wait () with
  | Unix.WEXITED 0 -> Common.read_file (path t (name ^ ".out"))
  | _ -> failwith (Printf.sprintf "%s exited abnormally" name)

let ping_line = {|{"scenario":"ping"}|}

(* Poll until the daemon answers a ping.  The interval is short against
   a daemon's ~4 ms start so the poll adds little to [setup_s]. *)
let await_ready c ~timeout =
  let socket = Option.get c.socket in
  let deadline = Common.now () +. timeout in
  let rec go () =
    try_reap c;
    if c.reaped then failwith (c.name ^ " exited during startup");
    let ready =
      Sys.file_exists socket
      &&
      match Loadgen.request ~timeout:1. socket ping_line with
      | _ -> true
      | exception (Unix.Unix_error _ | Failure _) -> false
    in
    if not ready then
      if Common.now () > deadline then failwith (c.name ^ " did not become ready")
      else begin
        Unix.sleepf 0.0002;
        go ()
      end
  in
  go ()

(* a daemon listening on [name].sock in the run directory *)
let serve t ~name args =
  spawn t ~name ~socket:(path t (name ^ ".sock")) (args @ [ "--socket"; name ^ ".sock" ])

let signal cs s =
  List.iter
    (fun c -> if not c.reaped then try Unix.kill c.pid s with Unix.Unix_error _ -> ())
    cs

let teardown t =
  if not t.torn_down then begin
    t.torn_down <- true;
    let cs = t.children in
    List.iter try_reap cs;
    List.iter
      (fun c ->
        match c.socket with
        | Some socket when not c.reaped -> (
          try ignore (Loadgen.request ~timeout:0.5 socket {|{"scenario":"shutdown"}|})
          with Unix.Unix_error _ | Failure _ -> ())
        | _ -> ())
      cs;
    wait_reaped cs ~grace:3.;
    signal cs Sys.sigterm;
    wait_reaped cs ~grace:2.;
    signal cs Sys.sigkill;
    wait_reaped cs ~grace:10.;
    rm_rf t.dir;
    try Unix.rmdir tmp_root with Unix.Unix_error _ -> ()
  end

(* names of recorded children still alive, plus the run directory if it
   survived teardown *)
let leftovers t =
  List.filter_map
    (fun c ->
      match Unix.kill c.pid 0 with
      | () -> Some (Printf.sprintf "%s (pid %d)" c.name c.pid)
      | exception Unix.Unix_error _ -> None)
    t.children
  @ if Sys.file_exists t.dir then [ t.dir ] else []

(* Every process whose working directory lies under this checkout's
   [tmp_root], found through /proc/PID/cwd.  Each daemon runs in its run
   directory, so this sees a survivor whatever its command line, and
   still after the directory was removed (the link then ends in
   " (deleted)"). *)
let holders () =
  let prefix = Filename.concat (Sys.getcwd ()) tmp_root ^ "/" in
  let n = String.length prefix in
  Array.to_list (Sys.readdir "/proc")
  |> List.filter_map (fun entry ->
       match int_of_string_opt entry with
       | None -> None
       | Some pid -> (
         match Unix.readlink (Printf.sprintf "/proc/%d/cwd" pid) with
         | cwd when String.length cwd > n && String.sub cwd 0 n = prefix ->
           Some (Printf.sprintf "pid %d in %s" pid cwd)
         | _ -> None
         | exception Unix.Unix_error _ -> None))

(* Run [f] with a fresh run directory; tear down on every exit path.
   Signals are held off while tearing down so a second Ctrl-C cannot
   cut the cleanup short, then re-armed.  Anything left behind turns
   the outcome, an exception's too, into [Left_behind]. *)
let with_run ~etx f =
  let t = create ~etx in
  let finish () =
    Sys.set_signal Sys.sigint Sys.Signal_ignore;
    Sys.set_signal Sys.sigterm Sys.Signal_ignore;
    teardown t;
    install_signal_handlers ();
    match leftovers t with [] -> () | left -> raise (Left_behind left)
  in
  match f t with
  | v ->
    finish ();
    v
  | exception e ->
    let bt = Printexc.get_raw_backtrace () in
    finish ();
    Printexc.raise_with_backtrace e bt
