(* End-to-end tests of the etx binary: the resilience subcommand, the
   PR 3 fault flags on simulate, checkpoint/resume/audit, and non-zero
   exit codes on invalid values.  Driven through the shell so the whole
   cmdliner wiring (parsing, validation, exit codes) is under test. *)

let exe = "../bin/etx_main.exe"

let contains haystack needle =
  let hl = String.length haystack and nl = String.length needle in
  let rec go i = i + nl <= hl && (String.sub haystack i nl = needle || go (i + 1)) in
  nl = 0 || go 0

(* run [exe args], capturing interleaved stdout+stderr and the exit code *)
let run_command args =
  let out = Filename.temp_file "etx_cli" ".out" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove out with Sys_error _ -> ())
    (fun () ->
      let code = Sys.command (Printf.sprintf "%s %s > %s 2>&1" exe args (Filename.quote out)) in
      let ic = open_in_bin out in
      let output = really_input_string ic (in_channel_length ic) in
      close_in ic;
      (code, output))

(* run a shell script file, capturing interleaved output and exit code *)
let run_script script =
  let out = Filename.temp_file "etx_cli" ".out" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove out with Sys_error _ -> ())
    (fun () ->
      let code =
        Sys.command
          (Printf.sprintf "sh %s > %s 2>&1" (Filename.quote script)
             (Filename.quote out))
      in
      let ic = open_in_bin out in
      let output = really_input_string ic (in_channel_length ic) in
      close_in ic;
      (code, output))

let check_ok name args =
  let code, output = run_command args in
  if code <> 0 then Alcotest.failf "%s: exit %d\n%s" name code output;
  output

let check_fails name args =
  let code, output = run_command args in
  if code = 0 then Alcotest.failf "%s: expected non-zero exit\n%s" name output;
  output

let test_simulate_baseline () =
  let output = check_ok "simulate" "simulate --size 4 --seed 1" in
  Alcotest.(check bool) "prints metrics" true (contains output "jobs completed:")

let test_simulate_fault_flags () =
  let args = "simulate --size 4 --seed 1 --ber 2e-4 --fault-seed 7 --retries 5" in
  let first = check_ok "faulty simulate" args in
  Alcotest.(check bool) "reports corruption counters" true (contains first "faults:");
  (* the fault stream is seeded: the same flags replay the same run *)
  let second = check_ok "faulty simulate (again)" args in
  Alcotest.(check string) "deterministic replay" first second

let test_simulate_invalid_values () =
  List.iter
    (fun (name, args) -> ignore (check_fails name ("simulate --size 4 " ^ args)))
    [
      ("negative ber", "--ber -1e-4");
      ("negative retries", "--retries -2");
      ("upload loss above 1", "--upload-loss 1.5");
      ("negative brownout duration", "--brownout-rate 1e-5 --brownout-cycles -3");
      ("unknown policy", "--policy quantum");
      ("checkpoint-every without file", "--checkpoint-every 100");
      ("non-positive checkpoint-every", "--checkpoint-every 0 --checkpoint-file x.bin");
      ("resume from missing file", "--resume definitely-missing.bin");
    ]

let test_simulate_checkpoint_resume () =
  let file = Filename.temp_file "etx_cli_ckpt" ".bin" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove file with Sys_error _ -> ())
    (fun () ->
      let flags = "--size 4 --seed 2 --ber 1e-4 --fault-seed 3" in
      let uninterrupted = check_ok "uninterrupted" ("simulate " ^ flags) in
      let checkpointed =
        check_ok "checkpointed"
          (Printf.sprintf "simulate %s --checkpoint-every 15000 --checkpoint-file %s"
             flags (Filename.quote file))
      in
      Alcotest.(check string) "checkpointing never changes the run" uninterrupted
        checkpointed;
      (* the file holds a mid-run snapshot; resuming finishes identically *)
      let resumed =
        check_ok "resumed"
          (Printf.sprintf "simulate %s --resume %s" flags (Filename.quote file))
      in
      Alcotest.(check string) "resume is bit-identical" uninterrupted resumed;
      (* resuming under different flags is rejected with a clean error *)
      ignore
        (check_fails "resume under wrong seed"
           (Printf.sprintf "simulate --size 4 --seed 9 --resume %s" (Filename.quote file))))

let test_simulate_audit_flag () =
  let output = check_ok "audited simulate" "simulate --size 4 --seed 1 --audit" in
  Alcotest.(check bool) "audit summary printed" true (contains output "audit:");
  Alcotest.(check bool) "no violations" true (contains output "0 violation(s)")

let test_audit_subcommand () =
  let output = check_ok "audit" "audit --sizes 4 --seeds 1 --every 2" in
  Alcotest.(check bool) "per-config report" true (contains output "4x4 seed 1:");
  Alcotest.(check bool) "clean" true (contains output "0 violation(s)");
  ignore (check_fails "audit invalid cadence" "audit --sizes 4 --seeds 1 --every 0");
  ignore (check_fails "audit invalid size" "audit --sizes 1")

let test_resilience_subcommand () =
  let output =
    check_ok "resilience"
      "resilience --size 4 --ber-rates 0 --wearout-rates 1e-5 --seeds 1 --fault-seed 11"
  in
  Alcotest.(check bool) "bit-error axis" true (contains output "bit-error");
  Alcotest.(check bool) "wear-out axis" true (contains output "wear-out")

let test_resilience_invalid_values () =
  List.iter
    (fun (name, args) -> ignore (check_fails name ("resilience " ^ args)))
    [
      ("mesh too small", "--size 1");
      ("negative rate", "--size 4 --ber-rates -1e-4 --seeds 1");
      ("negative sweep retries", "--size 4 --seeds 1 --sweep-retries -1");
    ]

(* - version / help consistency - *)

let test_version_everywhere () =
  List.iter
    (fun cmd ->
      let output = check_ok ("--version on " ^ cmd) (cmd ^ " --version") in
      if not (contains output "1.1.0") then
        Alcotest.failf "%s --version: %S lacks the version" cmd output)
    [ ""; "simulate"; "fig7"; "audit"; "resilience"; "serve"; "client"; "thm1" ]

let test_help_everywhere () =
  List.iter
    (fun cmd -> ignore (check_ok ("--help on " ^ cmd) (cmd ^ " --help")))
    [ ""; "simulate"; "fig7"; "audit"; "serve"; "client" ]

(* - the simulation service - *)

let write_lines path lines =
  let oc = open_out path in
  List.iter
    (fun line ->
      output_string oc line;
      output_char oc '\n')
    lines;
  close_out oc

let test_serve_stdio_miss_then_hit () =
  let input = Filename.temp_file "etx_cli_serve" ".in" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove input with Sys_error _ -> ())
    (fun () ->
      write_lines input
        [
          {|{"scenario":"simulate","params":{"mesh_size":4},"id":1}|};
          "";
          {|{"scenario":"simulate","params":{"mesh_size":4},"id":2}|};
          "";
        ];
      let output =
        check_ok "serve --stdio"
          (Printf.sprintf "serve --stdio --jobs 1 < %s" (Filename.quote input))
      in
      Alcotest.(check bool) "first is a miss" true (contains output "\"cache\":\"miss\"");
      Alcotest.(check bool) "second is a hit" true (contains output "\"cache\":\"hit\""))

let test_serve_stdio_queue_full () =
  let input = Filename.temp_file "etx_cli_serve" ".in" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove input with Sys_error _ -> ())
    (fun () ->
      write_lines input
        [
          {|{"scenario":"simulate","params":{"mesh_size":4,"seed":1},"id":1}|};
          {|{"scenario":"simulate","params":{"mesh_size":4,"seed":2},"id":2}|};
          "";
          {|{"scenario":"ping","id":3}|};
          "";
        ];
      let output =
        check_ok "serve --stdio --queue-depth 1"
          (Printf.sprintf "serve --stdio --queue-depth 1 --jobs 1 < %s"
             (Filename.quote input))
      in
      Alcotest.(check bool) "burst rejected structurally" true
        (contains output "\"error\":\"queue_full\"");
      (* the server outlived the rejection and answered the next batch *)
      Alcotest.(check bool) "still serving" true (contains output "\"result\":\"pong\""))

let test_serve_invalid_flags () =
  ignore (check_fails "zero queue depth" "serve --stdio --queue-depth 0 < /dev/null");
  ignore (check_fails "negative cache" "serve --stdio --cache-capacity -1 < /dev/null")

let test_serve_bad_failpoints () =
  let output =
    check_fails "malformed failpoint spec"
      "serve --stdio --failpoints 'store.fsync=bogus' < /dev/null"
  in
  Alcotest.(check bool) "names the bad spec" true (contains output "bogus")

let test_crashtest_smoke () =
  let script = Filename.temp_file "etx_cli_crash" ".sh" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove script with Sys_error _ -> ())
    (fun () ->
      let oc = open_out script in
      Printf.fprintf oc
        {|set -e
dir=$(mktemp -d)
trap 'rm -rf "$dir"' EXIT
%s crashtest --seed 3 --dir "$dir"
|}
        exe;
      close_out oc;
      let code, output = run_script script in
      if code <> 0 then Alcotest.failf "crashtest: exit %d\n%s" code output;
      List.iter
        (fun part ->
          Alcotest.(check bool)
            (part ^ " part ran clean") true
            (contains output (Printf.sprintf "crashtest %-10s seed 3" part)))
        [ "store"; "checkpoint"; "manifest" ];
      Alcotest.(check int) "every part reports zero violations" 3
        (List.length
           (String.split_on_char '\n' output
           |> List.filter (fun l -> contains l "0 violation(s)"))))

let test_serve_sigterm_drain () =
  let socket = Filename.temp_file "etx_cli_drain" ".sock" in
  Sys.remove socket;
  let script = Filename.temp_file "etx_cli_drain" ".sh" in
  Fun.protect
    ~finally:(fun () ->
      List.iter (fun f -> try Sys.remove f with Sys_error _ -> ()) [ socket; script ])
    (fun () ->
      let oc = open_out script in
      Printf.fprintf oc
        {|set -e
%s serve --socket %s --jobs 1 &
server=$!
for _ in $(seq 100); do [ -S %s ] && break; sleep 0.1; done
[ -S %s ]
%s client --socket %s '{"scenario":"simulate","params":{"mesh_size":4},"id":1}'
kill -TERM $server
wait $server
echo "drained exit ok"
|}
        exe socket socket socket exe socket;
      close_out oc;
      let code, output = run_script script in
      if code <> 0 then Alcotest.failf "sigterm drain script: exit %d\n%s" code output;
      Alcotest.(check bool) "clean exit after SIGTERM" true
        (contains output "drained exit ok");
      Alcotest.(check bool) "socket removed on drain" false (Sys.file_exists socket))

let test_client_socket_round_trip () =
  let socket = Filename.temp_file "etx_cli_service" ".sock" in
  Sys.remove socket;
  let script = Filename.temp_file "etx_cli_service" ".sh" in
  Fun.protect
    ~finally:(fun () ->
      List.iter (fun f -> try Sys.remove f with Sys_error _ -> ()) [ socket; script ])
    (fun () ->
      (* one shell script so the server is reaped before the test ends *)
      let oc = open_out script in
      Printf.fprintf oc
        {|set -e
%s serve --socket %s --jobs 1 &
server=$!
for _ in $(seq 100); do [ -S %s ] && break; sleep 0.1; done
[ -S %s ]
%s client --socket %s '{"scenario":"simulate","params":{"mesh_size":4},"id":"first"}'
%s client --socket %s '{"scenario":"simulate","params":{"mesh_size":4},"id":"second"}'
if %s client --socket %s '{"scenario":"simulate","params":{"policy":"quantum"}}'; then
  echo "BAD: error response did not fail the client"
  exit 1
fi
%s client --socket %s '{"scenario":"shutdown"}'
wait $server
echo "server exit ok"
|}
        exe socket socket socket exe socket exe socket exe socket exe socket;
      close_out oc;
      let code, output = run_script script in
      if code <> 0 then Alcotest.failf "service script: exit %d\n%s" code output;
      Alcotest.(check bool) "first client misses" true
        (contains output "\"cache\":\"miss\"");
      Alcotest.(check bool) "second client hits the cache" true
        (contains output "\"cache\":\"hit\"");
      Alcotest.(check bool) "clean server exit" true (contains output "server exit ok");
      Alcotest.(check bool) "socket removed" false (Sys.file_exists socket))

(* stdio mode ends at end of input: the final snapshot must count every
   request, not just those seen by the last paced write *)
let test_serve_stdio_final_metrics () =
  let input = Filename.temp_file "etx_cli_serve" ".in" in
  let metrics = Filename.temp_file "etx_cli_serve" ".metrics.json" in
  Fun.protect
    ~finally:(fun () ->
      List.iter (fun f -> try Sys.remove f with Sys_error _ -> ()) [ input; metrics ])
    (fun () ->
      write_lines input
        [
          {|{"scenario":"ping","id":1}|};
          "";
          {|{"scenario":"ping","id":2}|};
          {|{"scenario":"ping","id":3}|};
          "";
        ];
      ignore
        (check_ok "serve --stdio --metrics-file"
           (Printf.sprintf "serve --stdio --jobs 1 --metrics-file %s < %s"
              (Filename.quote metrics) (Filename.quote input)));
      let snapshot = In_channel.with_open_bin metrics In_channel.input_all in
      Alcotest.(check bool) "final snapshot counts all 3 requests" true
        (contains snapshot
           {|"name":"etx_server_requests_total","type":"counter","labels":{},"value":3}|}))

(* a serve backend for the route tests; the trap reaps it on any exit *)
let backend_prelude ~backend =
  Printf.sprintf
    {|set -e
%s serve --socket %s --jobs 1 &
backend=$!
trap 'kill $backend 2>/dev/null || true' EXIT
for _ in $(seq 100); do [ -S %s ] && break; sleep 0.1; done
[ -S %s ]
|}
    exe backend backend backend

let with_sockets names f =
  let paths =
    List.map
      (fun name ->
        let path = Filename.temp_file ("etx_cli_" ^ name) ".sock" in
        Sys.remove path;
        path)
      names
  in
  let script = Filename.temp_file "etx_cli_route" ".sh" in
  Fun.protect
    ~finally:(fun () ->
      List.iter (fun f -> try Sys.remove f with Sys_error _ -> ()) (script :: paths))
    (fun () -> f script paths)

let test_route_stdio_answers_locally () =
  with_sockets [ "backend" ] (fun script paths ->
      let backend = List.hd paths in
      let oc = open_out script in
      output_string oc (backend_prelude ~backend);
      Printf.fprintf oc
        {|printf '%%s\n%%s\n\n' '{"scenario":"ping","id":1}' '{"scenario":"stats","id":2}' \
  | %s route --stdio --backends %s
|}
        exe backend;
      close_out oc;
      let code, output = run_script script in
      if code <> 0 then Alcotest.failf "route --stdio script: exit %d\n%s" code output;
      Alcotest.(check bool) "ping answered" true (contains output {|"result":"pong"|});
      Alcotest.(check bool) "stats from the router itself" true
        (contains output {|"role":"cluster-router"|});
      Alcotest.(check bool) "backend reported up" true
        (contains output {|"health":"up"|}))

let test_route_sigterm_drain () =
  with_sockets [ "backend"; "router" ] (fun script paths ->
      let backend = List.nth paths 0 and router = List.nth paths 1 in
      let oc = open_out script in
      output_string oc (backend_prelude ~backend);
      Printf.fprintf oc
        {|%s route --socket %s --backends %s &
router=$!
for _ in $(seq 100); do [ -S %s ] && break; sleep 0.1; done
[ -S %s ]
%s client --socket %s '{"scenario":"simulate","params":{"mesh_size":4},"id":1}'
kill -TERM $router
wait $router
echo "router drained exit ok"
|}
        exe router backend router router exe router;
      close_out oc;
      let code, output = run_script script in
      if code <> 0 then Alcotest.failf "route drain script: exit %d\n%s" code output;
      Alcotest.(check bool) "routed request served" true
        (contains output {|"cache":"miss"|});
      Alcotest.(check bool) "clean exit after SIGTERM" true
        (contains output "router drained exit ok");
      Alcotest.(check bool) "router socket removed" false (Sys.file_exists router))

(* cluster always supervises: a SIGKILLed backend comes back on its
   socket, routing keeps answering ok, and shutdown leaves no backend *)
let test_cluster_heals_and_drains () =
  let dir = Filename.temp_file "etx_cli_cluster" "" in
  Sys.remove dir;
  let script = Filename.temp_file "etx_cli_cluster" ".sh" in
  Fun.protect
    ~finally:(fun () ->
      (try Sys.remove script with Sys_error _ -> ());
      ignore (Sys.command ("rm -rf " ^ Filename.quote dir)))
    (fun () ->
      let oc = open_out script in
      Printf.fprintf oc
        {|set -e
DIR=%s
%s cluster --backends 2 --jobs 1 --dir "$DIR" --socket "$DIR/router.sock" &
router=$!
trap 'kill $router 2>/dev/null || true' EXIT
for _ in $(seq 150); do [ -S "$DIR/router.sock" ] && break; sleep 0.1; done
[ -S "$DIR/router.sock" ]
victim=$(pgrep -f "$DIR/backend0.sock")
kill -KILL $victim
healed=
for _ in $(seq 100); do
  pid=$(pgrep -f "$DIR/backend0.sock" || true)
  if [ -n "$pid" ] && [ "$pid" != "$victim" ] \
     && %s client --socket "$DIR/backend0.sock" --timeout 5 '{"scenario":"ping"}' >/dev/null 2>&1
  then healed=1; break; fi
  sleep 0.1
done
[ -n "$healed" ] || { echo "backend0 was not restarted"; exit 1; }
echo "backend0 healed"
%s client --socket "$DIR/router.sock" --timeout 30 \
  '{"scenario":"simulate","params":{"mesh_size":4},"id":1}'
%s client --socket "$DIR/router.sock" '{"scenario":"shutdown"}' >/dev/null
wait $router
echo "router exit ok"
if pgrep -f "$DIR/backend" >/dev/null; then echo "backend left running"; exit 1; fi
echo "no backend left"
|}
        (Filename.quote dir) exe exe exe exe;
      close_out oc;
      let code, output = run_script script in
      if code <> 0 then Alcotest.failf "cluster script: exit %d\n%s" code output;
      Alcotest.(check bool) "killed backend restarted" true
        (contains output "backend0 healed");
      Alcotest.(check bool) "routed request ok after the kill" true
        (contains output {|"status":"ok"|});
      Alcotest.(check bool) "router exits 0 on shutdown" true
        (contains output "router exit ok");
      Alcotest.(check bool) "every backend drained" true
        (contains output "no backend left"))

let test_resilience_manifest_resume () =
  let file = Filename.temp_file "etx_cli_manifest" ".bin" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove file with Sys_error _ -> ())
    (fun () ->
      let args =
        Printf.sprintf
          "resilience --size 4 --ber-rates 0,1e-4 --wearout-rates 0 --seeds 1 \
           --manifest %s"
          (Filename.quote file)
      in
      let first = check_ok "supervised resilience" args in
      Alcotest.(check bool) "manifest written" true (Sys.file_exists file);
      (* the second invocation replays entirely from the manifest *)
      let second = check_ok "resumed resilience" args in
      Alcotest.(check string) "identical table from stored cells" first second)

let suite =
  [
    ( "cli",
      [
        Alcotest.test_case "simulate baseline" `Quick test_simulate_baseline;
        Alcotest.test_case "simulate fault flags" `Quick test_simulate_fault_flags;
        Alcotest.test_case "simulate invalid values" `Quick test_simulate_invalid_values;
        Alcotest.test_case "checkpoint + resume" `Quick test_simulate_checkpoint_resume;
        Alcotest.test_case "simulate --audit" `Quick test_simulate_audit_flag;
        Alcotest.test_case "audit subcommand" `Quick test_audit_subcommand;
        Alcotest.test_case "resilience subcommand" `Slow test_resilience_subcommand;
        Alcotest.test_case "resilience invalid values" `Quick
          test_resilience_invalid_values;
        Alcotest.test_case "resilience manifest resume" `Slow
          test_resilience_manifest_resume;
        Alcotest.test_case "--version everywhere" `Quick test_version_everywhere;
        Alcotest.test_case "--help everywhere" `Quick test_help_everywhere;
        Alcotest.test_case "serve --stdio miss then hit" `Quick
          test_serve_stdio_miss_then_hit;
        Alcotest.test_case "serve --stdio queue_full" `Quick
          test_serve_stdio_queue_full;
        Alcotest.test_case "serve invalid flags" `Quick test_serve_invalid_flags;
        Alcotest.test_case "serve rejects bad --failpoints" `Quick
          test_serve_bad_failpoints;
        Alcotest.test_case "crashtest smoke" `Slow test_crashtest_smoke;
        Alcotest.test_case "serve drains on SIGTERM" `Slow test_serve_sigterm_drain;
        Alcotest.test_case "client socket round trip" `Slow
          test_client_socket_round_trip;
        Alcotest.test_case "serve --stdio final metrics snapshot" `Quick
          test_serve_stdio_final_metrics;
        Alcotest.test_case "route --stdio answers locally" `Slow
          test_route_stdio_answers_locally;
        Alcotest.test_case "route drains on SIGTERM" `Slow test_route_sigterm_drain;
        Alcotest.test_case "cluster heals a killed backend" `Slow
          test_cluster_heals_and_drains;
      ] );
  ]

let () = Alcotest.run "etx-cli" suite
