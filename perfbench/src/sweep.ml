(* The [sweep] workload: the paper-reproduction path.

   A Fig 7-style EAR vs SDR sweep over 4x4..12x12 meshes through
   [Experiments.fig7] on a persistent 2-domain pool, repeated back to
   back for the measurement window.  The simulation seeds derive from
   the workload seed; every pass runs the same cells, so passes are
   comparable and must agree bit for bit.  No service layer runs. *)

module Experiments = Etextile.Experiments
module Pool = Etx_util.Pool

let sizes = [ 4; 5; 6; 7; 8; 9; 10; 11; 12 ]
let domains = 2
let seeds_of wseed = [ (3 * wseed) + 1; (3 * wseed) + 2; (3 * wseed) + 3 ]
let cells_per_pass seeds = 2 * List.length sizes * List.length seeds

let csv xs = String.concat "," (List.map string_of_int xs)

(* set-up: the pool started and answering, one trivial task per domain.
   It runs no warm-up simulation: a pass takes ~4 s, so first-touch costs
   are lost in it, and a compute in set-up would make set-up time follow
   the shared host's compute-speed swings (up to 1.8x, for seconds to a
   minute at a time) instead of the pool's start. *)
let setup () =
  let t0 = Common.now () in
  let pool = Pool.create ~domains () in
  ignore (Pool.run pool Fun.id (List.init domains Fun.id));
  (pool, Common.now () -. t0)

(* set-ups per round, of three (see Common.setup_s), each on a pool of its own *)
let per_round = 5

let setup_round n =
  List.init n (fun _ ->
    let pool, s = setup () in
    Pool.shutdown pool;
    s)

(* the cells of one pass, in sweep order *)
let cells seeds =
  List.concat_map
    (fun mesh_size ->
      List.concat_map
        (fun policy ->
          List.map
            (fun seed -> Etextile.Calibration.config ~policy:(policy ()) ~mesh_size ~seed ())
            seeds)
        [ Etextile.Calibration.ear; Etextile.Calibration.sdr ])
    sizes

(* Traced replay: one timed pass on the pool (for the pool's busy
   fraction), the same cells sequentially under per-cell spans, and the
   unit prices that split simulation time by layer.  The sequential
   cells also run once untraced first; the ratio is the tracing
   overhead. *)
let traced tr ~pool ~seeds =
  let configs = cells seeds in
  let t0 = Common.now () in
  List.iter (fun c -> ignore (Etx_etsim.Engine.simulate c)) configs;
  let bare = Common.now () -. t0 in
  tr.Tracer.recording <- true;
  let wall0 = Common.now () in
  (* the pool's busy fraction is the CPU its domains burned over the
     pass, against domains x wall; the main domain only waits *)
  let fig7_wall, fig7_cpu =
    Tracer.span tr "core.fig7" (fun () ->
      let s = Common.now () and c = Common.cpu_self () in
      ignore (Experiments.fig7 ~sizes ~seeds ~pool ());
      (Common.now () -. s, Common.cpu_self () -. c))
  in
  let prices = Engine_split.prices () in
  let c0 = Common.now () in
  let priced = ref 0. in
  let sims =
    List.mapi
      (fun i config ->
        Tracer.set_request tr i;
        let p0 = Common.now () in
        ignore (Engine_split.price prices tr config);
        priced := !priced +. (Common.now () -. p0);
        let s = Common.now () in
        let m = Tracer.span tr "etsim.simulate" (fun () -> Etx_etsim.Engine.simulate config) in
        Engine_split.of_metrics config (Common.now () -. s) m)
      configs
  in
  let replay = Common.now () -. c0 -. !priced in
  let split = Engine_split.metrics prices tr sims in
  let wall = Common.now () -. wall0 in
  tr.Tracer.recording <- false;
  let cell_max =
    List.fold_left (fun acc (s : Engine_split.sim) -> Float.max acc s.seconds) 0. sims
  in
  let m = Common.metric in
  ( wall,
    [
      m "core.cells" (float_of_int (List.length sims));
      m "core.cell_ms_max" (1000. *. cell_max);
      m "util.pool.busy_frac" (fig7_cpu /. (float_of_int domains *. fig7_wall));
      m "trace.overhead_frac" ((replay /. bare) -. 1.);
    ]
    @ split )

let run ~proc ~wseed ~seconds ~trace =
  let seeds = seeds_of wseed in
  let cells = cells_per_pass seeds in
  (* the first round ends with the set-up of the measured pool *)
  let before = setup_round (per_round - 1) in
  let pool, s = setup () in
  Fun.protect
    ~finally:(fun () -> Pool.shutdown pool)
    (fun () ->
      let cpu0 = Common.cpu_self () in
      let t0 = Common.now () in
      (* the halfway round's wall and CPU time are not the window's *)
      let halfway = ref None and paused = ref 0. and paused_cpu = ref 0. in
      let measured () = Common.now () -. t0 -. !paused in
      let passes = ref [] in
      while measured () < seconds || List.length !passes < 2 do
        let s = Common.now () in
        let rows = Experiments.fig7 ~sizes ~seeds ~pool () in
        passes := (Common.now () -. s, rows) :: !passes;
        if !halfway = None && measured () >= seconds /. 2. then begin
          let s = Common.now () and c = Common.cpu_self () in
          halfway := Some (setup_round per_round);
          paused := Common.now () -. s;
          paused_cpu := Common.cpu_self () -. c
        end
      done;
      let window = measured () in
      let cpu = Common.cpu_self () -. cpu0 -. !paused_cpu in
      let after = setup_round per_round in
      let setup_s =
        Common.setup_s ((s :: before) @ Option.value !halfway ~default:[] @ after)
      in
      let passes = List.rev !passes in
      let n = List.length passes in
      (* every pass must print exactly what `etx fig7` prints for the
         same sizes and seeds *)
      let reference =
        Proc.run_tool proc ~name:"fig7"
          [ "fig7"; "--sizes"; csv sizes; "--seeds"; csv seeds; "--jobs"; string_of_int domains ]
      in
      let wrong =
        List.length
          (List.filter
             (fun (_, rows) -> Etextile.Report.fig7 rows ^ "\n" <> reference)
             passes)
      in
      let walls = Array.of_list (List.map (fun (w, _) -> 1000. *. w) passes) in
      let ops = n * cells in
      let m = Common.metric in
      let e2e =
        [
          m "setup_s" setup_s;
          m "latency_p50_ms" (Common.median walls);
          m "capacity_ops_s" (float_of_int ops /. window);
          m "cpu_ms_per_op" (1000. *. cpu /. float_of_int ops);
          m "peak_rss_mb" (Common.peak_rss_mb "self");
        ]
      in
      let layers, table =
        if not trace then ([], None)
        else begin
          let tr = Tracer.create () in
          let wall, layers = traced tr ~pool ~seeds in
          let text, residual = Tracer.table tr ~wall in
          Tracer.write tr (Tracer.out_path ~workload:"sweep" ~seed:wseed);
          ( layers
            @ [
                m "trace.wall_s" wall;
                m "trace.residual_frac" (residual /. wall);
                m "loadgen.sent" (float_of_int ops);
                m "tail.latency_p90_ms" (Common.percentile walls 0.9);
                m "tail.latency_p99_ms" (Common.percentile walls 0.99);
              ],
            Some text )
        end
      in
      {
        Common.attempted = ops;
        failed = wrong * cells;
        checks = [ ("sweep passes match etx fig7", wrong = 0) ];
        e2e;
        layers;
        table;
      })
