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

(* One of the runs the exact shortest-widest maximin kernel changed:
   the lexicographic Floyd-Warshall it replaced completed 87 jobs over
   37042 cycles and 3425 hops here. *)
let test_simulate_maximin_pinned () =
  let output =
    check_ok "maximin simulate" "simulate --size 5 --seed 8 --policy maximin"
  in
  List.iter
    (fun line -> Alcotest.(check bool) line true (contains output line))
    [
      "jobs completed: 89 (verified 89, lost 1)\n";
      "lifetime: 37967 cycles\n";
      "node deaths: 1; recomputations: 47 over 48 frames\n";
      "totals: 2691 acts, 3511 hops\n";
    ]

(* 24x24 runs, past the golden fixture's 12x12, where most routing
   rows are copied from the previous recompute instead of searched: the
   whole report must stay what the searches gave before rows were
   reused. *)
let test_simulate_24_pinned () =
  List.iter
    (fun (args, lines) ->
      Alcotest.(check string) args (String.concat "" lines) (check_ok args args))
    [
      ( "simulate --size 24",
        [
          "jobs completed: 576 (verified 576, lost 1)\n";
          "lifetime: 240790 cycles\n";
          "death: job 576 lost: node 1 depleted while serving it\n";
          "energy (pJ): computation 2193181.3, communication 4665149.7, control 15678201.4 (69.57%)\n";
          "controller compute: 13280371.2\n";
          "stranded in dead nodes: 3528.6; residual in living nodes: 14091798.0\n";
          "node deaths: 1; recomputations: 298 over 301 frames\n";
          "deadlocks: 0 reported, 0 recovered\n";
          "totals: 17301 acts, 22205 hops\n";
          "faults: 0 wear-outs, 0 brownouts, 0 corrupted (0 retransmitted, 0 dropped)\n";
          "control loss: 0 uploads, 0 downloads; stale reports: 0 (worst 0)\n";
        ] );
      ( "simulate --size 24 --policy maximin",
        [
          "jobs completed: 581 (verified 581, lost 1)\n";
          "lifetime: 255865 cycles\n";
          "death: job 581 lost: node 28 depleted while serving it\n";
          "energy (pJ): computation 2212493.5, communication 5008654.3, control 16860944.3 (70.01%)\n";
          "controller compute: 14166499.2\n";
          "stranded in dead nodes: 3830.3; residual in living nodes: 12870956.8\n";
          "node deaths: 1; recomputations: 318 over 320 frames\n";
          "deadlocks: 0 reported, 0 recovered\n";
          "totals: 17453 acts, 23840 hops\n";
          "faults: 0 wear-outs, 0 brownouts, 0 corrupted (0 retransmitted, 0 dropped)\n";
          "control loss: 0 uploads, 0 downloads; stale reports: 0 (worst 0)\n";
        ] );
    ]

let test_simulate_fault_flags () =
  let args = "simulate --size 4 --seed 1 --ber 2e-4 --fault-seed 7 --retries 5" in
  let first = check_ok "faulty simulate" args in
  Alcotest.(check bool) "reports corruption counters" true (contains first "faults:");
  (* the fault stream is seeded: the same flags replay the same run *)
  let second = check_ok "faulty simulate (again)" args in
  Alcotest.(check string) "deterministic replay" first second

(* negative values are attached with '=': after a space cmdliner would
   read "-2" as an unknown option and the case would pass without ever
   reaching the validation it names *)
let test_simulate_invalid_values () =
  List.iter
    (fun (name, args) -> ignore (check_fails name ("simulate --size 4 " ^ args)))
    [
      ("negative ber", "--ber=-1e-4");
      ("negative retries", "--retries=-2");
      ("upload loss above 1", "--upload-loss 1.5");
      ("negative brownout duration", "--brownout-rate 1e-5 --brownout-cycles=-3");
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

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let replace_all s ~sub ~by = String.concat by (Str.split_delim (Str.regexp_string sub) s)

let with_temp_dir f =
  let dir = Filename.temp_file "etx_cli_resume" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o700;
  Fun.protect
    ~finally:(fun () ->
      Array.iter (fun name -> Sys.remove (Filename.concat dir name)) (Sys.readdir dir);
      Sys.rmdir dir)
    (fun () -> f dir)

let resume_flags = "--size 4 --seed 2 --ber 1e-4 --fault-seed 3"

(* A resumed run reports only what follows its checkpoint: the trace,
   the audit and the timeline of the continued run.  Pinned: a resume,
   and a resume of a checkpoint written by a resumed run, as the engine
   state codec printed them.  A replayed prefix emitted again would
   show in the dropped-event count, the audit passes and the timeline. *)
let test_simulate_resume_pinned () =
  with_temp_dir (fun dir ->
      let path name = Filename.quote (Filename.concat dir name) in
      let resumed ~from ~timeline =
        let output =
          check_ok ("resume from " ^ from)
            (Printf.sprintf "simulate %s --trace 20 --timeline %s --audit --heatmap --resume %s"
               resume_flags (path timeline) (path from))
        in
        replace_all output ~sub:(Filename.concat dir timeline) ~by:"TIMELINE"
        ^ "--- timeline\n"
        ^ read_file (Filename.concat dir timeline)
      in
      ignore
        (check_ok "checkpointed"
           (Printf.sprintf "simulate %s --checkpoint-every 15000 --checkpoint-file %s"
              resume_flags (path "first.etxc")));
      let once = resumed ~from:"first.etxc" ~timeline:"once.csv" in
      ignore
        (check_ok "resumed and checkpointed"
           (Printf.sprintf "simulate %s --resume %s --checkpoint-every 1000 --checkpoint-file %s"
              resume_flags (path "first.etxc") (path "second.etxc")));
      let twice = resumed ~from:"second.etxc" ~timeline:"twice.csv" in
      let actual = once ^ "--- double resume\n" ^ twice in
      if actual <> read_file "resume_pinned.txt" then begin
        let oc = open_out_bin "resume_pinned.actual" in
        output_string oc actual;
        close_out oc;
        Alcotest.fail "resumed output differs from resume_pinned.txt (see resume_pinned.actual)"
      end)

(* Every refused checkpoint exits 124, cmdliner's error code, with the
   checkpoint error named: a tampered witness, a file of the engine
   state codec, and a cycle past the run's death. *)
let test_simulate_resume_refusals () =
  let module Checkpoint = Etx_etsim.Checkpoint in
  with_temp_dir (fun dir ->
      let file = Filename.concat dir "run.etxc" in
      ignore
        (check_ok "checkpointed"
           (Printf.sprintf "simulate %s --checkpoint-every 15000 --checkpoint-file %s"
              resume_flags (Filename.quote file)));
      let r = Checkpoint.Reader.create (Checkpoint.read_file file) in
      let fingerprint = Checkpoint.Reader.string r in
      let cycle = Checkpoint.Reader.int r in
      let witness = Checkpoint.Reader.string r in
      let write name ~cycle ~witness =
        let w = Checkpoint.Writer.create () in
        Checkpoint.Writer.string w fingerprint;
        Checkpoint.Writer.int w cycle;
        Checkpoint.Writer.string w witness;
        let path = Filename.concat dir name in
        Checkpoint.write_file path (Checkpoint.Writer.contents w);
        path
      in
      let refused name path message =
        let code, output =
          run_command (Printf.sprintf "simulate %s --resume %s" resume_flags (Filename.quote path))
        in
        Alcotest.(check int) (name ^ ": exit code") 124 code;
        if not (contains output message) then
          Alcotest.failf "%s: expected %S in\n%s" name message output
      in
      refused "tampered witness"
        (write "tampered.etxc" ~cycle ~witness:(String.map (fun _ -> '0') witness))
        "does not match the checkpoint";
      refused "state-codec file" "state_codec_4x4.etxc" "malformed checkpoint";
      refused "cycle past death"
        (write "late.etxc" ~cycle:1_000_000_000 ~witness)
        "before the checkpoint's cycle 1000000000")

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
      ("negative rate", "--size 4 --ber-rates=-1e-4 --seeds 1");
      ("negative sweep retries", "--size 4 --seeds 1 --sweep-retries=-1");
    ]

(* - one scenario schema: the CLI and the wire build the same run - *)

(* the integer right after the first [needle] in [text] *)
let int_after text needle =
  let hl = String.length text and nl = String.length needle in
  let rec find i =
    if i + nl > hl then Alcotest.failf "%S not found in:\n%s" needle text
    else if String.sub text i nl = needle then i + nl
    else find (i + 1)
  in
  let start = find 0 in
  let stop = ref start in
  while !stop < hl && text.[!stop] >= '0' && text.[!stop] <= '9' do
    incr stop
  done;
  int_of_string (String.sub text start (!stop - start))

let serve_one request =
  let input = Filename.temp_file "etx_cli_parity" ".in" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove input with Sys_error _ -> ())
    (fun () ->
      let oc = open_out input in
      output_string oc (request ^ "\n\n");
      close_out oc;
      check_ok "serve --stdio"
        (Printf.sprintf "serve --stdio --jobs 1 < %s" (Filename.quote input)))

let test_cli_wire_parity () =
  let cli =
    check_ok "simulate"
      "simulate --size 4 --workload decrypt --fail-links 4 --brownout-rate 1e-5 \
       --upload-loss 0.1"
  in
  let wire =
    serve_one
      {|{"scenario":"simulate","params":{"mesh_size":4,"workload":"decrypt","fail_links":4,"brownout_rate":1e-5,"upload_loss":0.1},"id":1}|}
  in
  Alcotest.(check int) "jobs_completed" (int_after cli "jobs completed: ")
    (int_after wire {|"jobs_completed":|});
  Alcotest.(check int) "lifetime_cycles" (int_after cli "lifetime: ")
    (int_after wire {|"lifetime_cycles":|});
  let cli = check_ok "audit" "audit --sizes 4 --seeds 1 --ber 2e-4" in
  let wire =
    serve_one {|{"scenario":"audit","params":{"sizes":[4],"seeds":[1],"ber":2e-4},"id":2}|}
  in
  Alcotest.(check int) "audit passes" (int_after cli "4x4 seed 1: ")
    (int_after wire {|"passes":|});
  Alcotest.(check int) "audit violations" (int_after cli " passes, ")
    (int_after wire {|"violations_total":|})

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

(* a request refused at fingerprinting is answered invalid_request and
   takes no --queue-depth slot, so the valid request after it is served *)
let refused_then_valid =
  [
    {|{"scenario":"simulate","params":{"policy":"bogus"},"id":1}|};
    {|{"scenario":"simulate","params":{"mesh_size":4},"id":2}|};
  ]

let check_refused_takes_no_slot output =
  Alcotest.(check bool) "bogus policy refused" true
    (contains output {|{"id":1,"status":"error","error":"invalid_request"|});
  Alcotest.(check bool) "valid request served" true
    (contains output {|{"id":2,"status":"ok"|})

let test_serve_refused_takes_no_slot () =
  let input = Filename.temp_file "etx_cli_serve" ".in" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove input with Sys_error _ -> ())
    (fun () ->
      write_lines input (refused_then_valid @ [ "" ]);
      check_refused_takes_no_slot
        (check_ok "serve --stdio --queue-depth 1"
           (Printf.sprintf "serve --stdio --queue-depth 1 --jobs 1 < %s"
              (Filename.quote input))))

(* a request line over the 1 MiB limit is answered in its place with a
   parse_error and costs neither its neighbours nor the connection *)
let test_serve_stdio_oversized_line () =
  let input = Filename.temp_file "etx_cli_serve" ".in" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove input with Sys_error _ -> ())
    (fun () ->
      write_lines input
        [
          {|{"scenario":"ping","id":1}|};
          String.make (2 lsl 20) 'x';
          {|{"scenario":"ping","id":3}|};
          "";
        ];
      let output =
        check_ok "serve --stdio"
          (Printf.sprintf "serve --stdio --jobs 1 < %s" (Filename.quote input))
      in
      match String.split_on_char '\n' (String.trim output) with
      | [ first; oversized; last ] ->
        Alcotest.(check bool) "first served" true
          (contains first {|{"id":1,"status":"ok"|});
        Alcotest.(check bool) "oversized line refused" true
          (contains oversized {|{"id":null,"status":"error","error":"parse_error"|});
        Alcotest.(check bool) "last served" true (contains last {|{"id":3,"status":"ok"|})
      | lines -> Alcotest.failf "expected 3 responses, got %d:\n%s" (List.length lines) output)

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
        [ "store"; "checkpoint" ];
      Alcotest.(check int) "every part reports zero violations" 2
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

let test_route_refused_takes_no_slot () =
  with_sockets [ "backend" ] (fun script paths ->
      let backend = List.hd paths in
      let oc = open_out script in
      output_string oc (backend_prelude ~backend);
      Printf.fprintf oc
        {|printf '%%s\n%%s\n\n' %s %s | %s route --stdio --queue-depth 1 --backends %s
|}
        (Filename.quote (List.nth refused_then_valid 0))
        (Filename.quote (List.nth refused_then_valid 1))
        exe backend;
      close_out oc;
      let code, output = run_script script in
      if code <> 0 then Alcotest.failf "route --stdio script: exit %d\n%s" code output;
      check_refused_takes_no_slot output)

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

let with_temp_dir f =
  let dir = Filename.temp_file "etx_cli_dir" "" in
  Sys.remove dir;
  Fun.protect
    ~finally:(fun () -> ignore (Sys.command ("rm -rf " ^ Filename.quote dir)))
    (fun () -> f dir)

let test_resilience_store_resume () =
  with_temp_dir (fun dir ->
      let sweep = "resilience --size 4 --ber-rates 0,1e-4 --wearout-rates 0 --seeds 1" in
      let plain = check_ok "plain resilience" sweep in
      let args = Printf.sprintf "%s --store %s" sweep (Filename.quote dir) in
      let first = check_ok "stored resilience" args in
      (* rate 0 is the same run on both axes, so four distinct runs *)
      Alcotest.(check int) "one entry per distinct run" 4 (Array.length (Sys.readdir dir));
      (* the second invocation replays every run from the store *)
      let second = check_ok "resumed resilience" args in
      Alcotest.(check string) "a fresh store changes nothing" plain first;
      Alcotest.(check string) "identical table from stored runs" plain second)

(* The README's failpoint example names sites serve reaches: an fsync
   that fails under --store is a counted write error, never a failed
   request. *)
let test_serve_store_failpoint () =
  with_temp_dir (fun dir ->
      let input = Filename.temp_file "etx_cli_serve" ".in" in
      Fun.protect
        ~finally:(fun () -> try Sys.remove input with Sys_error _ -> ())
        (fun () ->
          write_lines input
            [
              {|{"scenario":"simulate","params":{"mesh_size":4},"id":1}|};
              "";
              {|{"scenario":"stats","id":2}|};
              "";
            ];
          let output =
            check_ok "serve --failpoints store.fsync=eio!"
              (Printf.sprintf
                 "serve --stdio --jobs 1 --store %s --failpoints 'store.fsync=eio!' < %s"
                 (Filename.quote dir) (Filename.quote input))
          in
          Alcotest.(check bool) "the request is answered ok" true
            (contains output {|"id":1,"status":"ok"|});
          let errors =
            try
              ignore (Str.search_forward (Str.regexp {|"write_errors":\([0-9]+\)|}) output 0);
              int_of_string (Str.matched_group 1 output)
            with Not_found -> Alcotest.failf "stats has no store write_errors\n%s" output
          in
          Alcotest.(check bool) "stats counts the failed write" true (errors >= 1)))

(* The [(cmd, flags)] of every [etx_main.exe -- CMD ...] (or bare
   [etx CMD ...]) line in the fenced blocks of [text], backslash
   continuations joined and [#] comments dropped. *)
let documented_commands text =
  let rec fenced inside acc = function
    | [] -> List.rev acc
    | line :: rest when String.starts_with ~prefix:"```" line ->
      fenced (not inside) acc rest
    | _ :: rest when not inside -> fenced inside acc rest
    | line :: next :: rest when String.ends_with ~suffix:"\\" line ->
      fenced inside acc ((String.sub line 0 (String.length line - 1) ^ next) :: rest)
    | line :: rest -> fenced inside (line :: acc) rest
  in
  let command = Str.regexp {|\(.*etx_main\.exe --\|[$ ]*etx\) +\([a-z0-9]+\)\(.*\)|} in
  let flag word =
    if String.length word > 2 && String.starts_with ~prefix:"--" word then
      Some (List.hd (String.split_on_char '=' word))
    else None
  in
  List.filter_map
    (fun line ->
      let line = List.hd (String.split_on_char '#' line) in
      if not (Str.string_match command line 0) then None
      else
        Some
          ( Str.matched_group 2 line,
            List.filter_map flag (String.split_on_char ' ' (Str.matched_group 3 line)) ))
    (fenced false [] (String.split_on_char '\n' text))

(* Every [etx CMD ... --flag] in a fenced block of the README or
   EXPERIMENTS.md names a flag that [CMD --help=plain] lists, so a
   retired flag cannot linger in the docs. *)
let test_documented_flags_exist () =
  Alcotest.(check (list (pair string (list string))))
    "parsing" [ ("fig7", [ "--sizes"; "--jobs" ]); ("serve", [ "--stdio" ]) ]
    (documented_commands
       "```sh\ndune exec bin/etx_main.exe -- fig7 --sizes 4 \\\n  --jobs=2  # --not\n\
        etx serve --stdio\n```\netx fig8 --outside\n");
  let helps = Hashtbl.create 16 in
  let help cmd =
    match Hashtbl.find_opt helps cmd with
    | Some text -> text
    | None ->
      let text = check_ok (cmd ^ " --help=plain") (cmd ^ " --help=plain") in
      Hashtbl.add helps cmd text;
      text
  in
  let checked = ref 0 in
  List.iter
    (fun doc ->
      let text = In_channel.with_open_bin (Filename.concat ".." doc) In_channel.input_all in
      List.iter
        (fun (cmd, flags) ->
          List.iter
            (fun flag ->
              incr checked;
              if
                not
                  (List.exists
                     (fun stop -> contains (help cmd) (flag ^ stop))
                     [ "="; "\n"; ","; " " ])
              then Alcotest.failf "%s: `etx %s %s`: %s --help=plain has no %s" doc cmd flag cmd flag)
            flags)
        (documented_commands text))
    [ "README.md"; "EXPERIMENTS.md" ];
  Alcotest.(check bool) "the docs name some flags" true (!checked > 0)

let suite =
  [
    ( "cli",
      [
        Alcotest.test_case "simulate baseline" `Quick test_simulate_baseline;
        Alcotest.test_case "simulate maximin pinned" `Quick test_simulate_maximin_pinned;
        Alcotest.test_case "simulate 24x24 pinned" `Quick test_simulate_24_pinned;
        Alcotest.test_case "simulate fault flags" `Quick test_simulate_fault_flags;
        Alcotest.test_case "simulate invalid values" `Quick test_simulate_invalid_values;
        Alcotest.test_case "checkpoint + resume" `Quick test_simulate_checkpoint_resume;
        Alcotest.test_case "resume output pinned" `Quick test_simulate_resume_pinned;
        Alcotest.test_case "resume refusals" `Quick test_simulate_resume_refusals;
        Alcotest.test_case "simulate --audit" `Quick test_simulate_audit_flag;
        Alcotest.test_case "audit subcommand" `Quick test_audit_subcommand;
        Alcotest.test_case "resilience subcommand" `Slow test_resilience_subcommand;
        Alcotest.test_case "resilience invalid values" `Quick
          test_resilience_invalid_values;
        Alcotest.test_case "resilience store resume" `Slow
          test_resilience_store_resume;
        Alcotest.test_case "serve --failpoints store.fsync under --store" `Quick
          test_serve_store_failpoint;
        Alcotest.test_case "documented flags exist" `Quick test_documented_flags_exist;
        Alcotest.test_case "cli = wire parity" `Quick test_cli_wire_parity;
        Alcotest.test_case "--version everywhere" `Quick test_version_everywhere;
        Alcotest.test_case "--help everywhere" `Quick test_help_everywhere;
        Alcotest.test_case "serve --stdio miss then hit" `Quick
          test_serve_stdio_miss_then_hit;
        Alcotest.test_case "serve --stdio queue_full" `Quick
          test_serve_stdio_queue_full;
        Alcotest.test_case "serve: a refused request takes no slot" `Quick
          test_serve_refused_takes_no_slot;
        Alcotest.test_case "serve --stdio oversized line" `Quick
          test_serve_stdio_oversized_line;
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
        Alcotest.test_case "route: a refused request takes no slot" `Slow
          test_route_refused_takes_no_slot;
        Alcotest.test_case "route drains on SIGTERM" `Slow test_route_sigterm_drain;
        Alcotest.test_case "cluster heals a killed backend" `Slow
          test_cluster_heals_and_drains;
      ] );
  ]

let () = Alcotest.run "etx-cli" suite
