(* etx - command-line front end for the e-textile energy-aware routing
   reproduction.

   Subcommands regenerate each paper artifact, run one-off simulations
   with custom knobs, and expose the analytic results. *)

open Cmdliner
module Netio = Etx_service.Netio

let version = "1.1.0"

(* every subcommand carries the version, so `etx CMD --version` answers
   (exit 0) anywhere in the tree, not just at the group root *)
let cmd_info name ~doc = Cmd.info name ~version ~doc

(* - scenario parameters, from their one declaration in Request - *)

module Request = Etx_service.Request
module Handlers = Etx_service.Handlers

let conv : type a. a Request.kind -> a Arg.conv = function
  | Request.Int -> Arg.int
  | Request.Float -> Arg.float
  | Request.String -> Arg.string
  | Request.Ints -> Arg.(list int)
  | Request.Floats -> Arg.(list float)

(* the declared bound is checked as the flag is parsed, so an
   out-of-range value is a usage error naming the flag *)
let param_term (p : _ Request.param) =
  let base = conv p.kind in
  let parse s =
    Result.bind (Arg.conv_parser base s) (fun v ->
        match Request.check p v with Ok () -> Ok v | Error m -> Error (`Msg m))
  in
  Arg.(
    value
    & opt (conv (parse, conv_printer base)) p.default
    & info [ p.flag ] ~docv:p.docv ~doc:p.doc)

let rec term : type a. a Request.params -> a Term.t = function
  | Request.Param p -> param_term p
  | Request.Map (f, p) -> Term.(const f $ term p)
  | Request.Pair (a, b) -> Term.(const (fun x y -> (x, y)) $ term a $ term b)

let sizes_term = term Request.sizes
let seeds_term = term Request.seeds
let size_term = term Request.mesh_size

let jobs_arg =
  let doc =
    "Worker domains for the sweep (simulations are independent, so sweeps \
     parallelize; results are bit-identical for any value).  Defaults to the \
     machine's recommended domain count."
  in
  Arg.(
    value
    & opt int (Domain.recommended_domain_count ())
    & info [ "jobs" ] ~docv:"N" ~doc)

(* - paper artifacts - *)

(* supervised-sweep flags shared by fig7 and resilience *)
let sweep_store_arg =
  let doc =
    "Keep the sweep's runs in the result store $(docv) (serve's --store \
     layout, and it may be shared with a daemon): each run is looked up by its \
     configuration fingerprint and written there once computed, so an \
     interrupted invocation resumes without recomputing finished runs."
  in
  Arg.(value & opt (some string) None & info [ "store" ] ~docv:"DIR" ~doc)

let sweep_retries_arg =
  let doc = "Extra attempts for a crashing simulation before its cell is reported failed." in
  Arg.(value & opt int 0 & info [ "sweep-retries" ] ~docv:"N" ~doc)

(* run the units (through the store when one is named), render the
   completed rows, print each failed cell to stderr, and fail the
   invocation if any cell failed *)
let run_sweep ~report ~jobs ~retries ~store units =
  match Option.map Etx_service.Store.open_dir store with
  | exception Sys_error message -> `Error (false, message)
  | store ->
    let simulate =
      Option.map (fun s -> Handlers.store_backed s Etx_etsim.Engine.simulate) store
    in
    let results = Etextile.Experiments.run_units ~domains:jobs ~retries ?simulate units in
    let rows = List.filter_map (function Ok row -> Some row | Error _ -> None) results in
    let failures =
      List.filter_map (function Ok _ -> None | Error f -> Some f) results
    in
    Etextile.Report.print (report rows);
    List.iter
      (fun (f : Etextile.Experiments.sweep_failure) ->
        Printf.eprintf "sweep cell %d failed after %d attempt(s): %s\n%s%!"
          f.unit_index f.attempts (Printexc.to_string f.exn)
          (Printexc.raw_backtrace_to_string f.backtrace))
      failures;
    if failures = [] then `Ok ()
    else
      `Error
        (false, Printf.sprintf "%d sweep cell(s) failed; see stderr" (List.length failures))

let fig7_cmd =
  let run ({ sizes; seeds } : Request.fig7_params) jobs store retries =
    if retries < 0 then `Error (false, "--sweep-retries must be non-negative")
    else
      run_sweep ~report:Etextile.Report.fig7 ~jobs ~retries ~store
        (Etextile.Experiments.fig7_units ~sizes ~seeds)
  in
  let term =
    Term.(ret (const run $ term Request.fig7 $ jobs_arg $ sweep_store_arg
               $ sweep_retries_arg))
  in
  Cmd.v (cmd_info "fig7" ~doc:"Reproduce Fig 7: completed jobs, EAR vs SDR.") term

let table2_cmd =
  let run sizes seeds jobs =
    Etextile.Report.print
      (Etextile.Report.table2
         (Etextile.Experiments.table2 ~sizes ~seeds ~domains:jobs ()))
  in
  let term = Term.(const run $ sizes_term $ seeds_term $ jobs_arg) in
  Cmd.v
    (cmd_info "table2" ~doc:"Reproduce Table 2: EAR vs the Theorem 1 upper bound.")
    term

let fig8_cmd =
  let controllers_arg =
    let doc = "Controller counts to sweep." in
    Arg.(
      value
      & opt (list int) Etextile.Experiments.default_controller_counts
      & info [ "controllers" ] ~docv:"COUNTS" ~doc)
  in
  let run sizes controller_counts seeds jobs =
    Etextile.Report.print
      (Etextile.Report.fig8
         (Etextile.Experiments.fig8 ~sizes ~controller_counts ~seeds ~domains:jobs ()))
  in
  let term = Term.(const run $ sizes_term $ controllers_arg $ seeds_term $ jobs_arg) in
  Cmd.v (cmd_info "fig8" ~doc:"Reproduce Fig 8: lifetime vs number of controllers.") term

let thm1_cmd =
  let run ({ sizes } : Request.upper_bound_params) =
    Etextile.Report.print (Etextile.Report.thm1 (Etextile.Experiments.thm1 ~sizes ()))
  in
  let term = Term.(const run $ term Request.upper_bound) in
  Cmd.v
    (cmd_info "thm1" ~doc:"Evaluate Theorem 1: J* and optimal module replication.")
    term

let ablations_cmd =
  let run mesh_size seeds jobs =
    Etextile.Report.print
      (Etextile.Report.ablation ~title:"Ablation - weight families"
         (Etextile.Experiments.ablation_weights ~mesh_size ~seeds ~domains:jobs ()));
    Etextile.Report.print
      (Etextile.Report.ablation ~title:"Ablation - battery-level quantization"
         (Etextile.Experiments.ablation_quantization ~mesh_size ~seeds ~domains:jobs ()));
    Etextile.Report.print
      (Etextile.Report.ablation ~title:"Ablation - mapping strategy"
         (Etextile.Experiments.ablation_mapping ~mesh_size ~seeds ~domains:jobs ()));
    Etextile.Report.print
      (Etextile.Report.ablation ~title:"Ablation - battery model x policy"
         (Etextile.Experiments.ablation_battery ~mesh_size ~seeds ~domains:jobs ()))
  in
  let term = Term.(const run $ size_term $ seeds_term $ jobs_arg) in
  Cmd.v (cmd_info "ablations" ~doc:"Run the design-choice ablation sweeps.") term

let concurrency_cmd =
  let depths_arg =
    let doc = "Numbers of concurrent jobs to sweep." in
    Arg.(
      value
      & opt (list int) Etextile.Experiments.default_depths
      & info [ "depths" ] ~docv:"DEPTHS" ~doc)
  in
  let run mesh_size depths seeds jobs =
    Etextile.Report.print
      (Etextile.Report.concurrency
         (Etextile.Experiments.concurrency ~mesh_size ~depths ~seeds ~domains:jobs ()))
  in
  let term = Term.(const run $ size_term $ depths_arg $ seeds_term $ jobs_arg) in
  Cmd.v
    (cmd_info "concurrency"
       ~doc:"Sweep concurrent jobs and exercise deadlock recovery.")
    term

let workloads_cmd =
  let run mesh_size seeds jobs =
    Etextile.Report.print
      (Etextile.Report.ablation ~title:"Workload generality (same f vector)"
         (Etextile.Experiments.workloads ~mesh_size ~seeds ~domains:jobs ()))
  in
  let term = Term.(const run $ size_term $ seeds_term $ jobs_arg) in
  Cmd.v
    (cmd_info "workloads"
       ~doc:"Compare AES encrypt / decrypt / synthetic workloads under EAR.")
    term

let generality_cmd =
  let run seeds jobs =
    Etextile.Report.print
      (Etextile.Report.ablation ~title:"Synthetic pipelines of 2..6 modules (6x6)"
         (Etextile.Experiments.generality ~seeds ~domains:jobs ()))
  in
  let term = Term.(const run $ seeds_term $ jobs_arg) in
  Cmd.v
    (cmd_info "generality" ~doc:"EAR-vs-SDR gain across synthetic pipeline depths.")
    term

let failures_cmd =
  let counts_arg =
    let doc = "Numbers of broken interconnects to sweep." in
    Arg.(
      value
      & opt (list int) Etextile.Experiments.default_failure_counts
      & info [ "counts" ] ~docv:"COUNTS" ~doc)
  in
  let run mesh_size failure_counts seeds jobs =
    Etextile.Report.print
      (Etextile.Report.ablation ~title:"Wear-and-tear link failures (EAR)"
         (Etextile.Experiments.link_failures ~mesh_size ~failure_counts ~seeds
            ~domains:jobs ()))
  in
  let term = Term.(const run $ size_term $ counts_arg $ seeds_term $ jobs_arg) in
  Cmd.v
    (cmd_info "failures" ~doc:"Sweep randomly breaking textile interconnects mid-life.")
    term

(* - one-off simulation - *)

(* the scenario itself is the service's [simulate]; the CLI adds only
   run control: tracing, timeline, heatmap, checkpoints and the audit *)
let simulate_cmd =
  let trace_arg =
    let doc = "Print the last N trace events." in
    Arg.(value & opt int 0 & info [ "trace" ] ~docv:"N" ~doc)
  in
  let timeline_arg =
    let doc = "Write a per-frame CSV timeline to FILE." in
    Arg.(value & opt (some string) None & info [ "timeline" ] ~docv:"FILE" ~doc)
  in
  let heatmap_arg =
    let doc = "Render the final charge heatmap." in
    Arg.(value & flag & info [ "heatmap" ] ~doc)
  in
  let checkpoint_every_arg =
    let doc = "Write a checkpoint every N simulated cycles (requires --checkpoint-file)." in
    Arg.(value & opt (some int) None & info [ "checkpoint-every" ] ~docv:"N" ~doc)
  in
  let checkpoint_file_arg =
    let doc = "Checkpoint destination (written atomically; CRC-protected)." in
    Arg.(value & opt (some string) None & info [ "checkpoint-file" ] ~docv:"FILE" ~doc)
  in
  let resume_arg =
    let doc =
      "Resume from a checkpoint file taken under the same flags.  The continued \
       run is bit-identical to an uninterrupted one."
    in
    Arg.(value & opt (some string) None & info [ "resume" ] ~docv:"FILE" ~doc)
  in
  let audit_arg =
    let doc = "Run the invariant auditor every control frame and report violations." in
    Arg.(value & flag & info [ "audit" ] ~doc)
  in
  let run (p : Request.simulate_params) trace timeline_file heatmap checkpoint_every
      checkpoint_file resume audit =
    match Handlers.simulate_config p with
    | Error e -> `Error (false, e)
    | Ok _ when checkpoint_every <> None && checkpoint_file = None ->
      `Error (false, "--checkpoint-every requires --checkpoint-file")
    | Ok _ when (match checkpoint_every with Some n -> n <= 0 | None -> false) ->
      `Error (false, "--checkpoint-every must be positive")
    | Ok config -> (
      let trace_capacity = if trace > 0 then Some trace else None in
      let record_timeline = timeline_file <> None in
      match
        match resume with
        | Some path ->
          Etx_etsim.Engine.restore_from_file ?trace_capacity ~record_timeline config
            path
        | None -> Etx_etsim.Engine.create ?trace_capacity ~record_timeline config
      with
      | exception Etx_etsim.Checkpoint.Error e ->
        `Error (false, Etx_etsim.Checkpoint.error_to_string e)
      | exception Sys_error message -> `Error (false, message)
      | engine ->
      let recorder =
        if audit then begin
          let recorder = Etx_etsim.Audit.create () in
          Etx_etsim.Engine.enable_audit engine recorder;
          Some recorder
        end
        else None
      in
      (* with periodic checkpointing the run advances in --checkpoint-every
         slices, persisting the engine between them; otherwise one shot *)
      let rec advance () =
        let stop =
          match checkpoint_every with
          | Some every -> Etx_etsim.Engine.cycle engine + every
          | None -> max_int
        in
        match Etx_etsim.Engine.run_until engine ~cycle:stop with
        | Etx_etsim.Engine.Finished metrics -> metrics
        | Etx_etsim.Engine.Paused ->
          (match checkpoint_file with
          | Some path -> Etx_etsim.Engine.checkpoint_to_file engine path
          | None -> ());
          advance ()
      in
      let metrics = advance () in
      Format.printf "%a@." Etx_etsim.Metrics.pp metrics;
      begin
        match recorder with
        | None -> ()
        | Some recorder ->
          Format.printf "audit: %d passes, %d violation(s)@."
            (Etx_etsim.Audit.passes recorder)
            (Etx_etsim.Audit.violation_count recorder);
          List.iter
            (fun v -> Format.printf "  %a@." Etx_etsim.Audit.pp_violation v)
            (Etx_etsim.Audit.violations recorder)
      end;
      begin
        match Etx_etsim.Engine.trace engine with
        | Some t when trace > 0 -> Format.printf "@.%a@." Etx_etsim.Trace.pp t
        | Some _ | None -> ()
      end;
      if heatmap then begin
        print_newline ();
        print_string
          (Etextile.Heatmap.render_run
             ~topology:(Etx_graph.Topology.square_mesh ~size:p.mesh_size ())
             ~engine ())
      end;
      begin
        match (timeline_file, Etx_etsim.Engine.timeline engine) with
        | Some file, Some timeline ->
          let channel = open_out file in
          output_string channel (Etx_etsim.Timeline.to_csv timeline);
          close_out channel;
          Printf.printf "timeline written to %s (%d frames)\n" file
            (Etx_etsim.Timeline.length timeline)
        | Some _, None | None, _ -> ()
      end;
      `Ok ())
  in
  let term =
    Term.(
      ret
        (const run $ term Request.simulate $ trace_arg $ timeline_arg $ heatmap_arg
       $ checkpoint_every_arg $ checkpoint_file_arg $ resume_arg $ audit_arg))
  in
  Cmd.v
    (cmd_info "simulate" ~doc:"Run one simulation with custom knobs and print metrics.")
    term

let predict_cmd =
  let run sizes seeds jobs =
    (* every result is computed before the first byte is printed *)
    let summaries =
      List.map
        (fun mesh_size ->
          let problem = Etextile.Calibration.problem ~mesh_size in
          let topology = Etx_graph.Topology.square_mesh ~size:mesh_size () in
          let mapping = Etx_routing.Mapping.checkerboard topology in
          let prediction =
            Etx_routing.Analysis.predict ~problem ~topology ~mapping
              ~module_sequence:Etextile.Experiments.aes_module_sequence ()
          in
          (mesh_size, Etx_routing.Analysis.summary prediction))
        sizes
    in
    let report =
      Etextile.Report.predictions
        (Etextile.Experiments.predictions ~sizes ~seeds ~domains:jobs ())
    in
    List.iter
      (fun (mesh_size, summary) ->
        Printf.printf "== %dx%d ==\n%s\n" mesh_size mesh_size summary)
      summaries;
    Etextile.Report.print report
  in
  let term = Term.(const run $ sizes_term $ seeds_term $ jobs_arg) in
  Cmd.v
    (cmd_info "predict" ~doc:"Static lifetime prediction vs simulation.")
    term

let optimize_cmd =
  let iterations_arg =
    let doc = "Local-search iterations." in
    Arg.(value & opt int 400 & info [ "iterations" ] ~docv:"N" ~doc)
  in
  let run mesh_size iterations seeds jobs =
    let problem = Etextile.Calibration.problem ~mesh_size in
    let topology = Etx_graph.Topology.square_mesh ~size:mesh_size () in
    let result =
      Etx_routing.Placement.optimize ~problem ~topology
        ~module_sequence:Etextile.Experiments.aes_module_sequence ~iterations ()
    in
    let simulate mapping =
      Etextile.Experiments.mean_jobs ~domains:jobs
        (List.map
           (fun seed ->
             Etextile.Calibration.config ~mapping ~mesh_size ~seed ())
           seeds)
    in
    let optimized = simulate result.Etx_routing.Placement.mapping in
    let checkerboard = simulate (Etx_routing.Mapping.checkerboard topology) in
    (* every result is computed before the first byte is printed *)
    Printf.printf
      "local search: predicted %.1f -> %.1f jobs (%d accepted swaps, %d evaluations)\n\n"
      result.Etx_routing.Placement.initial_jobs
      result.prediction.Etx_routing.Analysis.predicted_jobs result.improved_swaps
      result.evaluations;
    Printf.printf "simulated: optimized %.1f vs checkerboard %.1f jobs\n" optimized
      checkerboard
  in
  let term = Term.(const run $ size_term $ iterations_arg $ seeds_term $ jobs_arg) in
  Cmd.v
    (cmd_info "optimize" ~doc:"Optimize the module placement by local search.")
    term

let algorithms_cmd =
  let run sizes seeds jobs =
    Etextile.Report.print
      (Etextile.Report.algorithms
         (Etextile.Experiments.algorithms ~sizes ~seeds ~domains:jobs ()))
  in
  let term = Term.(const run $ sizes_term $ seeds_term $ jobs_arg) in
  Cmd.v
    (cmd_info "algorithms" ~doc:"Three-way sweep: EAR vs max-min residual vs SDR.")
    term

let resilience_cmd =
  let run
      ({ mesh_size; bit_error_rates; wearout_rates; fault_seed; seeds } :
        Request.resilience_params) jobs store retries =
    if retries < 0 then `Error (false, "--sweep-retries must be non-negative")
    else
      match
        Etextile.Experiments.resilience_units ~mesh_size ~bit_error_rates
          ~wearout_rates ~fault_seed ~seeds
      with
      | units -> run_sweep ~report:Etextile.Report.resilience ~jobs ~retries ~store units
      | exception Invalid_argument message -> `Error (false, message)
  in
  let term =
    Term.(
      ret
        (const run $ term Request.resilience $ jobs_arg $ sweep_store_arg
       $ sweep_retries_arg))
  in
  Cmd.v
    (cmd_info "resilience"
       ~doc:"Sweep injected faults (bit errors, link wear-out): EAR vs SDR.")
    term

let scenarios_cmd =
  let run seeds jobs =
    Etextile.Report.print
      (Etextile.Report.scenarios
         (Etextile.Experiments.scenarios ~seeds ~domains:jobs ()))
  in
  let term = Term.(const run $ seeds_term $ jobs_arg) in
  Cmd.v
    (cmd_info "scenarios" ~doc:"EAR vs SDR on the garment presets (shirt, jacket, ...).")
    term

let audit_cmd =
  let run p jobs =
    match Handlers.audit_runs ~domains:jobs p with
    | exception Invalid_argument message -> `Error (false, message)
    | rows ->
      Etextile.Report.print (Etextile.Report.audit rows);
      let total = Etextile.Experiments.audit_violations rows in
      if total = 0 then `Ok ()
      else `Error (false, Printf.sprintf "%d invariant violation(s) found" total)
  in
  let term = Term.(ret (const run $ term Request.audit $ jobs_arg)) in
  Cmd.v
    (cmd_info "audit"
       ~doc:
         "Run the calibrated configurations under the runtime invariant auditor; \
          exits non-zero if any conservation invariant is violated.")
    term

(* - analytic helpers - *)

let battery_curve_cmd =
  let run () =
    let profile = Etx_battery.Profile.li_free_thin_film in
    Printf.printf "Li-free thin-film discharge profile (Fig 2 digitization):\n";
    Printf.printf "%8s %10s\n" "soc" "volts";
    List.iter
      (fun (soc, volts) -> Printf.printf "%8.2f %10.2f\n" soc volts)
      (List.rev (Etx_battery.Profile.points profile));
    Printf.printf "\n3.0 V death threshold crossed at soc = %.3f\n"
      (Etx_battery.Profile.soc_at_voltage profile ~volts:3.0)
  in
  let term = Term.(const run $ const ()) in
  Cmd.v (cmd_info "battery-curve" ~doc:"Print the digitized Fig 2 discharge curve.") term

let aes_cmd =
  let key_arg =
    let doc = "AES key in hex (32, 48 or 64 hex digits)." in
    Arg.(
      value
      & opt string "000102030405060708090a0b0c0d0e0f"
      & info [ "key" ] ~docv:"HEX" ~doc)
  in
  let block_arg =
    let doc = "128-bit block in hex." in
    Arg.(
      value
      & opt string "00112233445566778899aabbccddeeff"
      & info [ "block" ] ~docv:"HEX" ~doc)
  in
  let decrypt_arg =
    let doc = "Decrypt instead of encrypt." in
    Arg.(value & flag & info [ "decrypt"; "d" ] ~doc)
  in
  let run key block decrypt =
    match
      let k = Etx_aes.Aes.key_of_hex key in
      let b = Etx_aes.Block.of_hex block in
      let out = if decrypt then Etx_aes.Aes.decrypt_block k b else Etx_aes.Aes.encrypt_block k b in
      Etx_aes.Block.to_hex out
    with
    | hex ->
      print_endline hex;
      `Ok ()
    | exception Invalid_argument message -> `Error (false, message)
  in
  let term = Term.(ret (const run $ key_arg $ block_arg $ decrypt_arg)) in
  Cmd.v (cmd_info "aes" ~doc:"Run the platform's AES cipher on one block.") term

let all_cmd =
  let run seeds jobs =
    Etextile.Report.print (Etextile.Report.thm1 (Etextile.Experiments.thm1 ()));
    Etextile.Report.print
      (Etextile.Report.fig7 (Etextile.Experiments.fig7 ~seeds ~domains:jobs ()));
    Etextile.Report.print
      (Etextile.Report.table2 (Etextile.Experiments.table2 ~seeds ~domains:jobs ()));
    Etextile.Report.print
      (Etextile.Report.fig8 (Etextile.Experiments.fig8 ~seeds ~domains:jobs ()))
  in
  let term = Term.(const run $ seeds_term $ jobs_arg) in
  Cmd.v (cmd_info "all" ~doc:"Regenerate every paper table and figure.") term

(* - persistent simulation service - *)

let socket_arg =
  let doc = "Unix domain socket path of the server." in
  Arg.(
    value
    & opt string "/tmp/etx-service.sock"
    & info [ "socket" ] ~docv:"PATH" ~doc)

let stdio_flag =
  let doc =
    "Serve newline-delimited JSON on stdin/stdout instead of a socket (one \
     connection, then exit; blank line flushes a batch)."
  in
  Arg.(value & flag & info [ "stdio" ] ~doc)

(* daemons arm the metrics registry at startup; one-shot CLI runs
   (simulate, fig7, ...) never do, keeping paper-scenario output
   bit-identical and the instrumentation at its disarmed fast path *)
let metrics_file_arg =
  let doc =
    "Periodically write an atomic JSON metrics/trace snapshot to $(docv) \
     (and a final one on exit) for post-mortem analysis of chaos runs."
  in
  Arg.(value & opt (some string) None & info [ "metrics-file" ] ~docv:"PATH" ~doc)

let metrics_every_arg =
  let doc = "Seconds between metrics snapshots (with --metrics-file)." in
  Arg.(value & opt float 5. & info [ "metrics-every" ] ~docv:"SECONDS" ~doc)

(* the serving set-up shared by serve, route and cluster: a peer
   vanishing mid-response tears down its connection (EPIPE), not the
   daemon; SIGTERM drains (finish the batch in flight, exit 0 — the
   supervisor's contract); --metrics-file snapshots *)
let run_daemon ~stdio ~socket ~metrics_file ~metrics_every ?idle ~stopped
    handle_batch =
  let daemon =
    Etx_service.Daemon.create ?metrics_file ~metrics_every_s:metrics_every
      ?idle ~stopped handle_batch
  in
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ -> ());
  (try
     Sys.set_signal Sys.sigterm
       (Sys.Signal_handle (fun _ -> Etx_service.Daemon.request_stop daemon))
   with Invalid_argument _ -> ());
  if stdio then Etx_service.Daemon.run_stdio daemon stdin stdout
  else Etx_service.Daemon.run_unix daemon ~socket_path:socket

let serve_cmd =
  let queue_depth_arg =
    let doc =
      "Admission bound: scenario requests beyond $(docv) in one batch are \
       rejected with a queue_full error instead of queueing unboundedly."
    in
    Arg.(value & opt int 64 & info [ "queue-depth" ] ~docv:"N" ~doc)
  in
  let cache_capacity_arg =
    let doc = "Result cache entries (LRU beyond this; 0 disables caching)." in
    Arg.(value & opt int 128 & info [ "cache-capacity" ] ~docv:"N" ~doc)
  in
  let store_arg =
    let doc =
      "Durable result store directory beneath the in-memory LRU: computed \
       results are persisted there (content-addressed, CRC-guarded) and \
       consulted on cache misses, so restarts — and other daemons sharing \
       $(docv) — keep the cache."
    in
    Arg.(value & opt (some string) None & info [ "store" ] ~docv:"DIR" ~doc)
  in
  let failpoints_arg =
    let doc =
      "Arm deterministic failure-injection sites before serving: \
       comma-separated SITE=KIND[@OCCURRENCE][!] terms, e.g. \
       'store.fsync=eio,net.accept=eintr@2'.  serve reaches the store.* \
       sites (under --store) and net.accept (on a --socket); net.read, \
       net.write and net.connect are sites of the router and the client, \
       which serve never reaches.  KIND is enospc, eio, eintr, epipe, \
       sys:MSG, short:N, torn:N or crash.  For fault testing only; without \
       this flag the sites cost a single atomic load."
    in
    Arg.(value & opt (some string) None & info [ "failpoints" ] ~docv:"SPEC" ~doc)
  in
  let run stdio socket queue_depth cache_capacity jobs store_dir failpoints
      metrics_file metrics_every =
    let cfg =
      { Etx_service.Server.queue_depth; cache_capacity; domains = jobs; store_dir }
    in
    Etx_obs.Obs.arm ();
    match
      match failpoints with
      | None -> Ok ()
      | Some spec -> Etx_util.Failpoint.arm_spec spec
    with
    | Error reason ->
      `Error (false, Printf.sprintf "--failpoints: %s" reason)
    | Ok () -> (
      match Etx_service.Server.create cfg with
      | exception Invalid_argument message -> `Error (false, message)
      | exception Sys_error message -> `Error (false, message)
      | server ->
        Fun.protect
          ~finally:(fun () -> Etx_service.Server.shutdown server)
          (fun () ->
            run_daemon ~stdio ~socket ~metrics_file ~metrics_every
              ~stopped:(fun () -> Etx_service.Server.stopped server)
              (Etx_service.Server.handle_batch server));
        `Ok ())
  in
  let term =
    Term.(
      ret
        (const run $ stdio_flag $ socket_arg $ queue_depth_arg $ cache_capacity_arg
       $ jobs_arg $ store_arg $ failpoints_arg
       $ metrics_file_arg $ metrics_every_arg))
  in
  Cmd.v
    (cmd_info "serve"
       ~doc:
         "Run the persistent simulation server: JSON requests over a Unix socket \
          (or --stdio), with admission control and a content-addressed result \
          cache.")
    term

(* One exchange with a running daemon, shared by client and metrics:
   connect, send [payload], half-close, then [read] the responses
   through a function returning the next line ([None] at end of
   stream).  [timeout] (0 = none) bounds the connect, the write and
   each read; Netio retries EINTR'd steps with the remaining deadline,
   so a signal mid-wait neither kills the exchange nor extends it.  A
   write or read past the deadline becomes [timed_out], other i/o
   failures a message naming [socket]; [Error] is a failed connect. *)
let exchange ~socket ~timeout ~timed_out payload read =
  (* a server tearing down mid-batch must surface as an i/o error, not
     kill the command with an unhandled SIGPIPE *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  let now = Unix.gettimeofday in
  let deadline () = if timeout > 0. then Some (now () +. timeout) else None in
  let io_error message =
    `Error (false, Printf.sprintf "i/o error talking to %s: %s" socket message)
  in
  match Netio.connect ?deadline:(deadline ()) ~now socket with
  | Error reason -> Error reason
  | Ok fd ->
    Ok
      (Fun.protect
         ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
         (fun () ->
           match
             Netio.write_all ?deadline:(deadline ()) ~now fd
               (Bytes.of_string payload);
             Unix.shutdown fd Unix.SHUTDOWN_SEND;
             let r = Netio.reader fd in
             read (fun () -> Netio.read_line ?deadline:(deadline ()) ~now r)
           with
           | result -> result
           | exception Failure _ when timeout > 0. -> `Error (false, timed_out)
           | exception Sys_error message -> io_error message
           | exception Unix.Unix_error (err, _, _) ->
             io_error (Unix.error_message err)))

let unreachable ~socket reason =
  `Error (false, Printf.sprintf "cannot reach server at %s: %s" socket reason)

let client_cmd =
  let requests_arg =
    let doc =
      "JSON request lines, e.g. '{\"scenario\":\"simulate\",\"params\":{\"mesh_size\":4}}'."
    in
    Arg.(value & pos_all string [] & info [] ~docv:"REQUEST" ~doc)
  in
  let timeout_arg =
    let doc =
      "Deadline in seconds for connecting and for each response read.  A \
       stalled server makes the client print a clear error and exit non-zero \
       instead of hanging forever.  0 disables the deadline."
    in
    Arg.(value & opt float 0. & info [ "timeout" ] ~docv:"SECONDS" ~doc)
  in
  let run socket timeout requests =
    if requests = [] then
      `Error (true, "provide at least one JSON request argument")
    else if List.exists (fun r -> String.contains r '\n') requests then
      `Error (false, "a request must be a single line of JSON")
    else if timeout < 0. then
      `Error (false, "--timeout must be non-negative")
    else begin
      let timed_out =
        Printf.sprintf
          "timed out: no response from %s within %gs (server hung or \
           overloaded)"
          socket timeout
      in
      let failures = ref 0 in
      let rec drain next_line =
        match next_line () with
        | None ->
          if !failures = 0 then `Ok ()
          else `Error (false, Printf.sprintf "%d request(s) failed" !failures)
        | Some line ->
          print_endline line;
          (match
             Option.bind
               (Result.to_option (Etx_util.Json.parse_result line))
               (Etx_util.Json.member "status")
           with
          | Some (Etx_util.Json.String "ok") -> ()
          | Some _ | None -> incr failures);
          drain next_line
      in
      (* a blank line flushes the batch *)
      match
        exchange ~socket ~timeout ~timed_out
          (String.concat "\n" requests ^ "\n\n")
          drain
      with
      | Ok result -> result
      | Error "connect timed out" -> `Error (false, timed_out)
      | Error reason -> unreachable ~socket reason
    end
  in
  let term = Term.(ret (const run $ socket_arg $ timeout_arg $ requests_arg)) in
  Cmd.v
    (cmd_info "client"
       ~doc:
         "Send request lines to a running server as one batch and print the \
          responses; exits non-zero if any response is an error, and --timeout \
          bounds how long a stalled server can hold the client.")
    term

let metrics_cmd =
  let format_arg =
    let doc =
      "Exposition format: $(b,json) (structured snapshot with spans) or \
       $(b,prometheus) (text exposition, one series per line)."
    in
    Arg.(
      value
      & opt (enum [ ("json", `Json); ("prometheus", `Prometheus) ]) `Prometheus
      & info [ "format" ] ~docv:"FORMAT" ~doc)
  in
  let timeout_arg =
    let doc = "Deadline in seconds for the scrape; 0 disables it." in
    Arg.(value & opt float 5. & info [ "timeout" ] ~docv:"SECONDS" ~doc)
  in
  let run socket format timeout =
    if timeout < 0. then `Error (false, "--timeout must be non-negative")
    else begin
      let fmt = match format with `Json -> "json" | `Prometheus -> "prometheus" in
      let request =
        Printf.sprintf "{\"scenario\":\"metrics\",\"params\":{\"format\":%S}}\n\n"
          fmt
      in
      let timed_out =
        Printf.sprintf "timed out: no metrics from %s within %gs" socket timeout
      in
      let print_snapshot next_line =
        match next_line () with
        | None -> `Error (false, "server closed without a metrics response")
        | Some line -> (
          let open Etx_util.Json in
          match parse_result line with
          | Error message ->
            `Error (false, "unparseable metrics response: " ^ message)
          | Ok json -> (
            match (member "status" json, member "result" json) with
            | Some (String "ok"), Some (String text) ->
              (* prometheus exposition travels as one JSON string *)
              print_string text;
              if text = "" || text.[String.length text - 1] <> '\n' then
                print_newline ();
              `Ok ()
            | Some (String "ok"), Some result ->
              print_endline (to_string result);
              `Ok ()
            | _ -> `Error (false, Printf.sprintf "metrics request failed: %s" line)))
      in
      match exchange ~socket ~timeout ~timed_out request print_snapshot with
      | Ok result -> result
      | Error reason -> unreachable ~socket reason
    end
  in
  let term = Term.(ret (const run $ socket_arg $ format_arg $ timeout_arg)) in
  Cmd.v
    (cmd_info "metrics"
       ~doc:
         "Scrape a running serve/route/cluster daemon's observability \
          snapshot: Prometheus text exposition or a JSON document with \
          metrics and recent trace spans.")
    term

(* - sharded cluster - *)

(* the router flags shared by route and cluster: a config for the
   backends each of them finds *)
let router_config =
  let queue_depth_arg =
    let doc =
      "Admission bound: scenario requests beyond $(docv) in one batch are shed \
       with a degraded/retry_after response, shared fairly across clients."
    in
    Arg.(value & opt int 64 & info [ "queue-depth" ] ~docv:"N" ~doc)
  in
  let attempts_arg =
    let doc =
      "Total dispatch attempts per request before it is answered degraded \
       (failovers walk the consistent-hash ring with jittered backoff)."
    in
    Arg.(value & opt int 4 & info [ "attempts" ] ~docv:"N" ~doc)
  in
  let request_timeout_arg =
    let doc = "Per-response read deadline against a backend, in seconds." in
    Arg.(value & opt float 30. & info [ "request-timeout" ] ~docv:"SECONDS" ~doc)
  in
  let health_period_arg =
    let doc =
      "Quiet time in seconds before a backend is health-checked with a ping."
    in
    Arg.(value & opt float 2. & info [ "health-period" ] ~docv:"SECONDS" ~doc)
  in
  let make attempts request_timeout_s health_period_s queue_depth ~backends =
    {
      (Etx_service.Cluster.default_config ~backends) with
      attempts;
      request_timeout_s;
      health_period_s;
      queue_depth;
    }
  in
  Term.(
    const make $ attempts_arg $ request_timeout_arg $ health_period_arg
    $ queue_depth_arg)

(* idle, the router health-checks its backends: each is pinged once
   per health period of quiet *)
let run_router cfg ~stdio ~socket ~metrics_file ~metrics_every =
  match Etx_service.Cluster.create cfg with
  | exception Invalid_argument message -> `Error (false, message)
  | cluster ->
    run_daemon ~stdio ~socket ~metrics_file ~metrics_every
      ~idle:(fun () -> Etx_service.Cluster.probe cluster)
      ~stopped:(fun () -> Etx_service.Cluster.stopped cluster)
      (Etx_service.Cluster.handle_batch cluster);
    `Ok ()

let route_cmd =
  let backends_arg =
    let doc =
      "Comma-separated Unix-socket paths of running backend daemons to shard \
       across (required)."
    in
    Arg.(value & opt (list string) [] & info [ "backends" ] ~docv:"SOCKETS" ~doc)
  in
  let run stdio socket backends config metrics_file metrics_every =
    if backends = [] then
      `Error (true, "provide --backends with at least one backend socket path")
    else begin
      Etx_obs.Obs.arm ();
      run_router (config ~backends) ~stdio ~socket ~metrics_file ~metrics_every
    end
  in
  let term =
    Term.(
      ret
        (const run $ stdio_flag $ socket_arg $ backends_arg $ router_config
       $ metrics_file_arg $ metrics_every_arg))
  in
  Cmd.v
    (cmd_info "route"
       ~doc:
         "Run the cluster front-end over already-running backend daemons: \
          shard scenario requests by fingerprint on a consistent-hash ring, \
          with health checks, retries with backoff, circuit breakers and fair \
          load shedding.  Speaks the same protocol as serve.")
    term

let cluster_cmd =
  let backends_arg =
    let doc = "Number of backend daemons to spawn." in
    Arg.(value & opt int 3 & info [ "backends" ] ~docv:"N" ~doc)
  in
  let dir_arg =
    let doc =
      "Working directory holding backend sockets, backend logs and the shared \
       durable result store (created if missing)."
    in
    Arg.(value & opt string "/tmp/etx-cluster" & info [ "dir" ] ~docv:"DIR" ~doc)
  in
  let run stdio socket backends dir jobs config metrics_file metrics_every =
    if backends < 1 then `Error (true, "--backends must be at least 1")
    else begin
      Etx_obs.Obs.arm ();
      let module Supervisor = Etx_service.Supervisor in
      let sup =
        Supervisor.create
          (Supervisor.serve_ops ~exe:Sys.executable_name ~dir ~jobs
             ~metrics_every_s:(Option.map (fun _ -> metrics_every) metrics_file)
             ~log:prerr_endline)
          (Supervisor.default_config ~children:backends)
      in
      (* the router's shutdown only stops the router; the backends are
         drained on the way out *)
      Fun.protect
        ~finally:(fun () -> Supervisor.stop_all sup)
        (fun () ->
          match Supervisor.start sup with
          | _ :: _ as stragglers ->
            `Error
              ( false,
                Printf.sprintf "%d backend(s) never became ready (see logs in %s)"
                  (List.length stragglers) dir )
          | [] ->
            let cfg =
              config ~backends:(List.init backends (Supervisor.backend_socket ~dir))
            in
            Supervisor.while_healing sup ~period_s:0.25 (fun () ->
                run_router cfg ~stdio ~socket ~metrics_file ~metrics_every))
    end
  in
  let term =
    Term.(
      ret
        (const run $ stdio_flag $ socket_arg $ backends_arg $ dir_arg $ jobs_arg
       $ router_config $ metrics_file_arg $ metrics_every_arg))
  in
  Cmd.v
    (cmd_info "cluster"
       ~doc:
         "Spawn N backend daemons sharing one durable result store and run the \
          sharding front-end over them.  A supervisor restarts dead backends \
          with jittered backoff while the front-end keeps routing; on exit \
          every backend is drained gracefully (SIGTERM, in-flight batches \
          finish).")
    term

let chaos_cmd =
  let backends_arg =
    let doc = "Backend daemons in the cluster under test." in
    Arg.(value & opt int 3 & info [ "backends" ] ~docv:"N" ~doc)
  in
  let requests_arg =
    let doc =
      "Distinct scenario requests per stream: one routed through the chaos \
       schedule, a second through the rolling restart."
    in
    Arg.(value & opt int 12 & info [ "requests" ] ~docv:"N" ~doc)
  in
  let events_arg =
    let doc =
      "Chaos events injected mid-stream: each kills a backend, hangs one, or \
       leaves the fleet alone."
    in
    Arg.(value & opt int 6 & info [ "events" ] ~docv:"N" ~doc)
  in
  let seed_arg =
    let doc =
      "Schedule seed; a failing run prints it so the exact event sequence can \
       be replayed."
    in
    Arg.(value & opt int 1 & info [ "seed" ] ~docv:"SEED" ~doc)
  in
  let dir_arg =
    let doc =
      "Scratch directory for sockets, logs and the durable store (default: a \
       fresh directory under the system temp dir)."
    in
    Arg.(value & opt (some string) None & info [ "dir" ] ~docv:"DIR" ~doc)
  in
  let quiet_arg =
    let doc = "Suppress the progress log on stderr." in
    Arg.(value & flag & info [ "quiet" ] ~doc)
  in
  let run backends requests events seed dir quiet =
    let dir =
      match dir with
      | Some d -> d
      | None ->
        Filename.concat
          (Filename.get_temp_dir_name ())
          (Printf.sprintf "etx-chaos-%d" (Unix.getpid ()))
    in
    match
      Etx_service.Chaos.config ~backends ~requests ~events ~seed
        ~log:(if quiet then ignore else prerr_endline)
        ~exe:Sys.executable_name ~dir ()
    with
    | exception Invalid_argument message -> `Error (false, message)
    | cfg ->
      let o = Etx_service.Chaos.run cfg in
      Printf.printf
        "chaos seed %d: %d/%d completed bit-identically, %d/%d during the \
         rolling restart, %d client retries, %d kills, %d hangs, %d \
         supervised restarts, %d/%d served from the durable store after full \
         cold restart\n"
        o.seed o.completed requests o.rolling_completed requests o.client_retries
        o.kills o.hangs o.supervised_restarts o.store_served_after_restart
        (2 * requests);
      if o.violations = [] then `Ok ()
      else begin
        List.iter (fun v -> Printf.eprintf "violation: %s\n" v) o.violations;
        `Error
          ( false,
            Printf.sprintf "%d violation(s); replay with --seed %d"
              (List.length o.violations) o.seed )
      end
  in
  let term =
    Term.(
      ret
        (const run $ backends_arg $ requests_arg $ events_arg $ seed_arg $ dir_arg
       $ quiet_arg))
  in
  Cmd.v
    (cmd_info "chaos"
       ~doc:
         "Run the deterministic chaos harness: spawn a supervised cluster, \
          kill and hang backends on a seeded schedule while routing requests, \
          then roll a graceful restart through the fleet under a second \
          stream, and verify the fleet heals itself, no accepted request is \
          lost, no drain escalates to SIGKILL, every result is bit-identical \
          to a single-daemon run, and a fully cold-restarted cluster serves \
          everything from the durable store without recomputation.  Exits \
          non-zero on any violation.")
    term

let crashtest_cmd =
  let seed_arg =
    let doc = "Seed for torn-write offsets and injection choices." in
    Arg.(value & opt int 1 & info [ "seed" ] ~docv:"SEED" ~doc)
  in
  let dir_arg =
    let doc =
      "Scratch directory for the artifacts under test (default: a fresh \
       directory under the system temp dir; left behind for inspection)."
    in
    Arg.(value & opt (some string) None & info [ "dir" ] ~docv:"DIR" ~doc)
  in
  let parts_arg =
    let doc =
      "Artifacts to enumerate kill points over: store, checkpoint or both \
       (default: both)."
    in
    Arg.(
      value
      & opt (list string) [ "store"; "checkpoint" ]
      & info [ "parts" ] ~docv:"PARTS" ~doc)
  in
  let quiet_arg =
    let doc = "Print only the per-part summary lines." in
    Arg.(value & flag & info [ "quiet" ] ~doc)
  in
  let run seed dir parts quiet =
    let dir =
      match dir with
      | Some d -> d
      | None ->
        Filename.concat
          (Filename.get_temp_dir_name ())
          (Printf.sprintf "etx-crashtest-%d" (Unix.getpid ()))
    in
    let part_of_string = function
      | "store" -> Ok `Store
      | "checkpoint" -> Ok `Checkpoint
      | other ->
        Error (Printf.sprintf "unknown part %S (expected store or checkpoint)" other)
    in
    match
      List.fold_left
        (fun acc p ->
          Result.bind acc (fun ps -> Result.map (fun p -> p :: ps) (part_of_string p)))
        (Ok []) parts
    with
    | Error message -> `Error (true, message)
    | Ok [] -> `Error (true, "provide at least one part")
    | Ok rev_parts ->
      let reports =
        Etx_service.Crashtest.run ~seed ~parts:(List.rev rev_parts) ~dir ()
      in
      let total_violations =
        List.fold_left
          (fun n (r : Etx_service.Crashtest.report) ->
            Printf.printf
              "crashtest %-10s seed %d: %d kill points, %d injections, %d \
               violation(s)\n"
              r.part r.seed r.kill_points r.injections (List.length r.violations);
            if not quiet then
              List.iter
                (fun v -> Printf.eprintf "violation[%s]: %s\n" r.part v)
                r.violations;
            n + List.length r.violations)
          0 reports
      in
      if total_violations = 0 then `Ok ()
      else
        `Error
          ( false,
            Printf.sprintf "%d violation(s); replay with --seed %d"
              total_violations seed )
  in
  let term =
    Term.(ret (const run $ seed_arg $ dir_arg $ parts_arg $ quiet_arg))
  in
  Cmd.v
    (cmd_info "crashtest"
       ~doc:
         "Run the ALICE-style crash-consistency harness: enumerate every kill \
          point inside the store and checkpoint write sequences, simulate a \
          crash at each (fork + _exit, torn writes included), and assert \
          recovery loses no committed entry, serves \
          nothing partial, sweeps temp files and stays bit-identical.  Also \
          injects ENOSPC/EIO/EINTR/short/rename failures at every site.  \
          Exits non-zero on any violation.")
    term

let main =
  let doc = "energy-aware routing for e-textiles (DATE 2005) - reproduction" in
  let info = Cmd.info "etx" ~version ~doc in
  Cmd.group info
    [
      fig7_cmd;
      table2_cmd;
      fig8_cmd;
      thm1_cmd;
      ablations_cmd;
      concurrency_cmd;
      workloads_cmd;
      generality_cmd;
      failures_cmd;
      resilience_cmd;
      predict_cmd;
      optimize_cmd;
      scenarios_cmd;
      algorithms_cmd;
      simulate_cmd;
      audit_cmd;
      battery_curve_cmd;
      aes_cmd;
      serve_cmd;
      client_cmd;
      metrics_cmd;
      route_cmd;
      cluster_cmd;
      chaos_cmd;
      crashtest_cmd;
      all_cmd;
    ]

let () = exit (Cmd.eval main)
