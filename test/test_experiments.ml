(* Tests for the etextile facade: calibration, experiment runners, and
   report rendering.  Sweeps are narrowed (one size, one seed) so the
   suite stays fast; the full sweeps live in bench/main.exe. *)

module Calibration = Etextile.Calibration
module Experiments = Etextile.Experiments
module Report = Etextile.Report

let contains = Astring_contains.contains

let test_calibration_problem () =
  let p = Calibration.problem ~mesh_size:4 in
  Alcotest.(check int) "K" 16 p.Etx_routing.Problem.node_budget;
  Alcotest.(check (float 1e-9)) "B" 60000. p.battery_budget_pj

let test_calibration_control_line_grows () =
  Alcotest.(check (float 1e-9)) "4x4" 10. (Etx_etsim.Config.mesh_control_line_cm ~mesh_size:4);
  Alcotest.(check (float 1e-9)) "8x8" 15. (Etx_etsim.Config.mesh_control_line_cm ~mesh_size:8)

let test_calibration_config_shape () =
  let c = Calibration.config ~mesh_size:5 () in
  Alcotest.(check int) "25 nodes" 25 (Etx_etsim.Config.node_count c);
  Alcotest.(check bool) "round robin entry" true
    (c.Etx_etsim.Config.job_source = Etx_etsim.Config.Round_robin_entry);
  Alcotest.(check (float 1e-9)) "variation" 0.1 c.battery_capacity_variation

let test_calibration_levels_override () =
  let c = Calibration.config ~levels_override:4 ~mesh_size:4 () in
  Alcotest.(check int) "levels" 4 c.Etx_etsim.Config.policy.Etx_routing.Policy.levels

let seeds = [ 1 ]

let test_fig7_row_sanity () =
  match Experiments.fig7 ~sizes:[ 4 ] ~seeds () with
  | [ row ] ->
    Alcotest.(check int) "size" 4 row.Experiments.mesh_size;
    Alcotest.(check bool) "EAR wins big" true (row.gain >= 4.);
    Alcotest.(check bool) "overhead small" true (row.ear_overhead < 0.10);
    Alcotest.(check (float 1e-9)) "paper reference wired" 62.8 row.paper_ear_jobs
  | rows -> Alcotest.failf "expected one row, got %d" (List.length rows)

let test_table2_row_sanity () =
  match Experiments.table2 ~sizes:[ 4 ] ~seeds () with
  | [ row ] ->
    Alcotest.(check (float 0.005)) "J* exact" 131.42 row.Experiments.j_star;
    Alcotest.(check bool) "ratio in band" true (row.ratio > 0.35 && row.ratio < 0.60);
    Alcotest.(check bool) "below the bound" true (row.ear_jobs <= row.j_star)
  | rows -> Alcotest.failf "expected one row, got %d" (List.length rows)

let test_fig8_grid_shape () =
  let rows = Experiments.fig8 ~sizes:[ 4 ] ~controller_counts:[ 1; 4 ] ~seeds () in
  Alcotest.(check int) "two rows" 2 (List.length rows);
  let jobs count =
    (List.find (fun r -> r.Experiments.controllers = count) rows).Experiments.jobs
  in
  Alcotest.(check bool) "redundancy helps" true (jobs 4 >= jobs 1)

let test_thm1_rows () =
  let rows = Experiments.thm1 ~sizes:[ 4; 8 ] () in
  Alcotest.(check int) "two rows" 2 (List.length rows);
  let r4 = List.hd rows in
  Alcotest.(check (float 0.005)) "J*" 131.42 r4.Experiments.j_star;
  Alcotest.(check (array int)) "checkerboard" [| 4; 4; 8 |] r4.checkerboard_duplicates;
  Alcotest.(check bool) "mapping bound dominated" true (r4.checkerboard_bound <= r4.j_star)

let test_ablation_weights_has_sdr_and_ear () =
  let rows = Experiments.ablation_weights ~mesh_size:4 ~seeds () in
  let find label =
    List.find (fun r -> Astring_contains.contains r.Experiments.label label) rows
  in
  let sdr = find "SDR" and ear = find "q=2" in
  Alcotest.(check bool) "EAR dominates in the ablation too" true
    (ear.Experiments.jobs > 3. *. sdr.Experiments.jobs)

let test_ablation_quantization_monotone_coarse () =
  let rows = Experiments.ablation_quantization ~mesh_size:4 ~seeds () in
  let jobs levels =
    let row =
      List.find
        (fun (r : Experiments.ablation_row) ->
          r.label = Printf.sprintf "EAR, N_B = %d" levels)
        rows
    in
    (row.jobs : float)
  in
  (* two levels are too coarse to steer well *)
  Alcotest.(check bool) "N_B = 2 is worst" true (jobs 2 < jobs 8)

let test_ablation_mapping_rows () =
  let rows = Experiments.ablation_mapping ~mesh_size:4 ~seeds () in
  Alcotest.(check int) "three variants" 3 (List.length rows);
  List.iter
    (fun (r : Experiments.ablation_row) ->
      Alcotest.(check bool) "both viable" true (r.jobs > 10.))
    rows

let test_ablation_battery_rows () =
  let rows = Experiments.ablation_battery ~mesh_size:4 ~seeds () in
  Alcotest.(check int) "four cases" 4 (List.length rows)

let test_concurrency_rows () =
  let rows = Experiments.concurrency ~mesh_size:4 ~depths:[ 1; 4 ] ~seeds () in
  Alcotest.(check int) "two depths" 2 (List.length rows);
  let deep = List.nth rows 1 in
  Alcotest.(check int) "depth recorded" 4 deep.Experiments.jobs_in_flight

let test_reproduction_regression () =
  (* the engine is fully deterministic for a fixed configuration; these
     exact values pin the calibrated headline results so any future
     change to the dynamics is caught immediately (update deliberately
     if the model changes) *)
  let jobs policy =
    (Etx_etsim.Engine.simulate (Calibration.config ~policy ~mesh_size:4 ~seed:1 ()))
      .Etx_etsim.Metrics.jobs_completed
  in
  Alcotest.(check int) "EAR 4x4 seed 1" 61 (jobs (Calibration.ear ()));
  Alcotest.(check int) "SDR 4x4 seed 1" 9 (jobs (Calibration.sdr ()))

let test_parallel_sweep_determinism () =
  (* the pool must not change a single bit of any row, whatever the
     domain count *)
  let sequential = Experiments.fig7 ~sizes:[ 4 ] ~seeds:[ 1; 2 ] ~domains:1 () in
  let parallel = Experiments.fig7 ~sizes:[ 4 ] ~seeds:[ 1; 2 ] ~domains:4 () in
  Alcotest.(check int) "row count" (List.length sequential) (List.length parallel);
  List.iter2
    (fun (a : Experiments.fig7_row) (b : Experiments.fig7_row) ->
      Alcotest.(check int) "mesh" a.Experiments.mesh_size b.Experiments.mesh_size;
      Alcotest.(check (float 0.)) "ear jobs" a.ear_jobs b.ear_jobs;
      Alcotest.(check (float 0.)) "sdr jobs" a.sdr_jobs b.sdr_jobs;
      Alcotest.(check (float 0.)) "gain" a.gain b.gain;
      Alcotest.(check (float 0.)) "overhead" a.ear_overhead b.ear_overhead)
    sequential parallel

let test_mean_jobs () =
  let configs = [ Calibration.config ~mesh_size:4 ~seed:1 () ] in
  Alcotest.(check bool) "positive" true (Experiments.mean_jobs configs > 0.)

let test_report_fig7_renders () =
  let rows = Experiments.fig7 ~sizes:[ 4 ] ~seeds () in
  let rendered = Report.fig7 rows in
  Alcotest.(check bool) "mentions Fig 7" true (contains rendered "Fig 7");
  Alcotest.(check bool) "mesh label" true (contains rendered "4x4");
  Alcotest.(check bool) "paper column" true (contains rendered "62.8")

let test_report_table2_renders () =
  let rendered = Report.table2 (Experiments.table2 ~sizes:[ 4 ] ~seeds ()) in
  Alcotest.(check bool) "J* printed" true (contains rendered "131.42")

let test_report_thm1_renders () =
  let rendered = Report.thm1 (Experiments.thm1 ~sizes:[ 4 ] ()) in
  Alcotest.(check bool) "duplicates triple" true (contains rendered "(4, 4, 8)")

let test_report_fig8_renders () =
  let rendered =
    Report.fig8 (Experiments.fig8 ~sizes:[ 4 ] ~controller_counts:[ 1 ] ~seeds ())
  in
  Alcotest.(check bool) "controllers column" true (contains rendered "controllers")

let test_report_concurrency_renders () =
  let rendered =
    Report.concurrency (Experiments.concurrency ~mesh_size:4 ~depths:[ 1 ] ~seeds ())
  in
  Alcotest.(check bool) "deadlock column" true (contains rendered "deadlocks")

(* - supervised sweeps - *)

module Handlers = Etx_service.Handlers
module Store = Etx_service.Store
module Failpoint = Etx_util.Failpoint

(* a result store in a fresh directory, removed afterwards *)
let with_temp_store f =
  let dir = Filename.temp_file "etx_sweep_store" "" in
  Sys.remove dir;
  let store = Store.open_dir dir in
  Fun.protect
    ~finally:(fun () ->
      Array.iter (fun name -> Sys.remove (Filename.concat dir name)) (Sys.readdir dir);
      Sys.rmdir dir)
    (fun () -> f store)

let ok_rows results =
  List.map (function Ok row -> row | Error _ -> Alcotest.fail "a sweep cell failed") results

(* a tiny sweep of three one-config units whose rows are the completed
   job counts, with a simulate wrapper that counts calls and can be told
   to crash on one mesh size *)
let supervised_units () =
  List.map
    (fun mesh_size ->
      {
        Experiments.configs = [ Calibration.config ~mesh_size ~seed:1 () ];
        finish =
          (fun runs ->
            (mesh_size, List.map (fun (m : Etx_etsim.Metrics.t) -> m.jobs_completed) runs));
      })
    [ 3; 4; 5 ]

let counting_simulate ?(crash_on_nodes = -1) calls config =
  incr calls;
  if Etx_etsim.Config.node_count config = crash_on_nodes then
    failwith "injected sweep crash";
  Etx_etsim.Engine.simulate config

let test_supervised_survives_crash () =
  (* the 4x4 unit always raises; 3x3 and 5x5 must still complete *)
  let calls = ref 0 in
  let results =
    Experiments.run_units ~retries:1
      ~simulate:(counting_simulate ~crash_on_nodes:16 calls)
      (supervised_units ())
  in
  match results with
  | [ Ok (3, [ a ]); Error failure; Ok (5, [ b ]) ] ->
    Alcotest.(check bool) "3x3 ran" true (a > 0);
    Alcotest.(check bool) "5x5 ran" true (b > 0);
    Alcotest.(check int) "failed unit index" 1 failure.Experiments.unit_index;
    Alcotest.(check bool) "message carries the exception" true
      (contains (Printexc.to_string failure.exn) "injected sweep crash");
    Alcotest.(check int) "both attempts used" 2 failure.attempts
  | _ -> Alcotest.fail "unexpected supervised sweep shape"

(* Two fig7 cells of two runs each, all four runs distinct. *)
let store_units () = Experiments.fig7_units ~sizes:[ 4; 5 ] ~seeds:[ 1 ]

let test_supervised_store_resume () =
  let clean = ok_rows (Experiments.run_units (store_units ())) in
  List.iter
    (fun k ->
      with_temp_store (fun store ->
          (* interrupted after [k] runs: every later run crashes *)
          let calls = ref 0 in
          let interrupted config =
            incr calls;
            if !calls > k then failwith "interrupted";
            Etx_etsim.Engine.simulate config
          in
          ignore
            (Experiments.run_units
               ~simulate:(Handlers.store_backed store interrupted)
               (store_units ()));
          Alcotest.(check int) (Printf.sprintf "%d runs stored" k) k (Store.length store);
          let calls = ref 0 in
          let resumed =
            Experiments.run_units
              ~simulate:(Handlers.store_backed store (counting_simulate calls))
              (store_units ())
          in
          Alcotest.(check int)
            (Printf.sprintf "after %d runs, resume simulates the missing ones" k)
            (4 - k) !calls;
          Alcotest.(check bool) "resumed rows are the clean rows" true
            (ok_rows resumed = clean)))
    [ 0; 1; 3; 4 ]

(* The store is a cache: a failed write or a torn read costs a
   recompute, never a row. *)
let test_supervised_store_faults () =
  let clean = ok_rows (Experiments.run_units (store_units ())) in
  List.iter
    (fun (desc, site, failure, stored_first, fired) ->
      with_temp_store (fun store ->
          let sweep () =
            ok_rows
              (Experiments.run_units
                 ~simulate:(Handlers.store_backed store Etx_etsim.Engine.simulate)
                 (store_units ()))
          in
          if stored_first then ignore (sweep ());
          Fun.protect ~finally:Failpoint.reset (fun () ->
              Failpoint.arm ~repeat:true site failure;
              Alcotest.(check bool) (desc ^ ": clean rows") true (sweep () = clean));
          Alcotest.(check bool) (desc ^ " fired") true (fired store)))
    [
      ( "EIO at store.fsync", "store.fsync", Failpoint.Errno Unix.EIO, false,
        fun store -> Store.write_errors store = 4 && Store.length store = 0 );
      ( "failed store.rename", "store.rename", Failpoint.Sys_err "injected", false,
        fun store -> Store.write_errors store = 4 && Store.length store = 0 );
      ( "short store.read", "store.read", Failpoint.Short 10, true,
        fun store -> Store.corrupt_dropped store = 4 && Store.length store = 4 );
    ];
  (* an entry that is not a metrics encoding is recomputed and replaced *)
  with_temp_store (fun store ->
      let configs = List.concat_map (fun u -> u.Experiments.configs) (store_units ()) in
      let key config = "run;" ^ Etx_etsim.Engine.config_fingerprint config in
      List.iter (fun config -> Store.add store (key config) "not metrics") configs;
      let calls = ref 0 in
      let rows =
        ok_rows
          (Experiments.run_units
             ~simulate:(Handlers.store_backed store (counting_simulate calls))
             (store_units ()))
      in
      Alcotest.(check bool) "undecodable entries: clean rows" true (rows = clean);
      Alcotest.(check int) "every run recomputed" 4 !calls;
      Alcotest.(check bool) "entries replaced" true
        (List.for_all (fun config -> Store.find store (key config) <> Some "not metrics") configs))

let test_supervised_matches_plain_fig7 () =
  let plain = Experiments.fig7 ~sizes:[ 4 ] ~seeds () in
  with_temp_store (fun store ->
      let supervised () =
        Experiments.run_units
          ~simulate:(Handlers.store_backed store Etx_etsim.Engine.simulate)
          (Experiments.fig7_units ~sizes:[ 4 ] ~seeds)
      in
      (match supervised () with
      | [ Ok row ] ->
        Alcotest.(check bool) "same row" true (row = List.hd plain)
      | _ -> Alcotest.fail "expected one Ok row");
      (* resuming from the store must reproduce the identical row *)
      match supervised () with
      | [ Ok row ] ->
        Alcotest.(check bool) "resumed row identical" true (row = List.hd plain)
      | _ -> Alcotest.fail "expected one Ok row on resume")

let test_supervised_resilience_shape () =
  let results =
    Experiments.run_units
      (Experiments.resilience_units ~mesh_size:4 ~bit_error_rates:[ 0.; 1e-4 ]
         ~wearout_rates:[ 0. ] ~fault_seed:1009 ~seeds)
  in
  Alcotest.(check int) "three cells" 3 (List.length results);
  Alcotest.(check bool) "all completed" true
    (List.for_all (function Ok _ -> true | Error _ -> false) results)

(* The one runner against a sequential reference: random unit shapes,
   simulations that always crash or crash only on their first attempt,
   any retry budget, domain count and pool, with or without a result
   store behind [?simulate].  A config's seed is its flat index; the fake simulation stamps it into
   [jobs_completed], so a row shows exactly which runs it was given. *)
let prop_runner_matches_reference =
  let base_config = lazy (Calibration.config ~mesh_size:3 ~seed:0 ()) in
  let base_metrics = lazy (Etx_etsim.Engine.simulate (Lazy.force base_config)) in
  QCheck.Test.make ~count:60
    ~name:"run_units = sequential reference (crashes, retries, domains, pool, store)"
    QCheck.(
      quad
        (small_list (int_range 0 3))
        (pair (small_list small_nat) (small_list small_nat))
        (pair bool (int_range 1 3))
        (pair bool bool))
    (fun (shape, (crash, flaky), (retry, domains), (use_pool, use_store)) ->
      let base_config = Lazy.force base_config in
      let base_metrics = Lazy.force base_metrics in
      let retries = if retry then 1 else 0 in
      let total = List.fold_left ( + ) 0 shape in
      let keys =
        snd
          (List.fold_left_map
             (fun offset size -> (offset + size, List.init size (fun j -> offset + j)))
             0 shape)
      in
      let units =
        List.mapi
          (fun i ks ->
            {
              Experiments.configs =
                List.map (fun k -> { base_config with Etx_etsim.Config.seed = k }) ks;
              finish =
                (fun runs ->
                  (i, List.map (fun (m : Etx_etsim.Metrics.t) -> m.jobs_completed) runs));
            })
          keys
      in
      let crashes ~crash ~flaky ~attempt k =
        List.mem k crash || (List.mem k flaky && attempt = 1)
      in
      let simulate ~crash ~flaky calls =
        let tries = Array.init (max 1 total) (fun _ -> Atomic.make 0) in
        fun (config : Etx_etsim.Config.t) ->
          let k = config.seed in
          Atomic.incr calls;
          let attempt = 1 + Atomic.fetch_and_add tries.(k) 1 in
          if crashes ~crash ~flaky ~attempt k then failwith (Printf.sprintf "crash %d" k);
          { base_metrics with jobs_completed = k }
      in
      let reference ~crash ~flaky =
        List.mapi
          (fun i ks ->
            match
              List.find_opt (crashes ~crash ~flaky ~attempt:(1 + retries)) ks
            with
            | Some k ->
              Error (i, Printexc.to_string (Failure (Printf.sprintf "crash %d" k)), retries + 1)
            | None -> Ok (i, ks))
          keys
      in
      let observe results =
        List.map
          (function
            | Ok row -> Ok row
            | Error (f : Experiments.sweep_failure) ->
              Error (f.unit_index, Printexc.to_string f.exn, f.attempts))
          results
      in
      let run ?store ~crash ~flaky calls =
        let simulate = simulate ~crash ~flaky calls in
        let simulate =
          match store with
          | Some store -> Handlers.store_backed store simulate
          | None -> simulate
        in
        observe
          (if use_pool then
             Etx_util.Pool.with_pool ~domains (fun pool ->
                 Experiments.run_units ~pool ~retries ~simulate units)
           else Experiments.run_units ~domains ~retries ~simulate units)
      in
      let crash = List.map (fun k -> k mod max 1 total) crash in
      let flaky = List.map (fun k -> k mod max 1 total) flaky in
      let expected = reference ~crash ~flaky in
      if not use_store then run ~crash ~flaky (Atomic.make 0) = expected
      else
        with_temp_store (fun store ->
            let first = run ~store ~crash ~flaky (Atomic.make 0) in
            (* the resumed run simulates exactly the runs that crashed *)
            let crashed_runs =
              List.length
                (List.filter
                   (crashes ~crash ~flaky ~attempt:(1 + retries))
                   (List.init total Fun.id))
            in
            let calls = Atomic.make 0 in
            let second = run ~store ~crash:[] ~flaky:[] calls in
            first = expected
            && second = reference ~crash:[] ~flaky:[]
            && Atomic.get calls = crashed_runs))

let test_metrics_serialization_roundtrip () =
  let m = Etx_etsim.Engine.simulate (Calibration.config ~mesh_size:4 ~seed:1 ()) in
  let w = Etx_etsim.Checkpoint.Writer.create () in
  Etx_etsim.Metrics.write w m;
  let r = Etx_etsim.Checkpoint.Reader.create (Etx_etsim.Checkpoint.Writer.contents w) in
  let m' = Etx_etsim.Metrics.read r in
  Etx_etsim.Checkpoint.Reader.expect_end r;
  Alcotest.(check bool) "metrics round-trip bit-identical" true (m = m')

let suite =
  [
    ( "etextile/calibration",
      [
        Alcotest.test_case "problem" `Quick test_calibration_problem;
        Alcotest.test_case "control line grows" `Quick test_calibration_control_line_grows;
        Alcotest.test_case "config shape" `Quick test_calibration_config_shape;
        Alcotest.test_case "levels override" `Quick test_calibration_levels_override;
      ] );
    ( "etextile/experiments",
      [
        Alcotest.test_case "fig7 row sanity" `Slow test_fig7_row_sanity;
        Alcotest.test_case "table2 row sanity" `Slow test_table2_row_sanity;
        Alcotest.test_case "fig8 grid shape" `Slow test_fig8_grid_shape;
        Alcotest.test_case "thm1 rows" `Quick test_thm1_rows;
        Alcotest.test_case "ablation: weights" `Slow test_ablation_weights_has_sdr_and_ear;
        Alcotest.test_case "ablation: quantization" `Slow
          test_ablation_quantization_monotone_coarse;
        Alcotest.test_case "ablation: mapping" `Slow test_ablation_mapping_rows;
        Alcotest.test_case "ablation: battery" `Slow test_ablation_battery_rows;
        Alcotest.test_case "concurrency" `Slow test_concurrency_rows;
        Alcotest.test_case "mean jobs" `Slow test_mean_jobs;
        Alcotest.test_case "parallel sweep determinism" `Slow
          test_parallel_sweep_determinism;
        Alcotest.test_case "reproduction regression" `Slow test_reproduction_regression;
      ] );
    ( "etextile/supervised",
      [
        Alcotest.test_case "sweep survives a crashing cell" `Slow
          test_supervised_survives_crash;
        Alcotest.test_case "store resume" `Slow test_supervised_store_resume;
        Alcotest.test_case "store faults cost a recompute" `Slow
          test_supervised_store_faults;
        Alcotest.test_case "fig7 supervised = plain" `Slow
          test_supervised_matches_plain_fig7;
        Alcotest.test_case "resilience supervised shape" `Slow
          test_supervised_resilience_shape;
        Alcotest.test_case "metrics serialization round-trip" `Quick
          test_metrics_serialization_roundtrip;
        QCheck_alcotest.to_alcotest prop_runner_matches_reference;
      ] );
    ( "etextile/report",
      [
        Alcotest.test_case "fig7 renders" `Slow test_report_fig7_renders;
        Alcotest.test_case "table2 renders" `Slow test_report_table2_renders;
        Alcotest.test_case "thm1 renders" `Quick test_report_thm1_renders;
        Alcotest.test_case "fig8 renders" `Slow test_report_fig8_renders;
        Alcotest.test_case "concurrency renders" `Slow test_report_concurrency_renders;
      ] );
  ]
