(* Benchmark & reproduction harness.

   Two halves:
   - Bechamel micro/meso benchmarks: one Test.make per paper artifact
     (its regeneration kernel) plus the underlying algorithmic kernels.
   - The reproduction run: regenerates every table and figure of the
     paper with the calibrated configuration and prints the rows next to
     the published values. *)

open Bechamel
open Toolkit

let kernel_config ?policy ?battery_kind ?controllers () =
  Etextile.Calibration.config ?policy ?battery_kind ?controllers ~mesh_size:4 ~seed:1 ()

let fig7_kernel () =
  ignore (Etx_etsim.Engine.simulate (kernel_config ~policy:(Etextile.Calibration.ear ()) ()))

let table2_kernel () =
  ignore
    (Etx_etsim.Engine.simulate (kernel_config ~battery_kind:Etx_battery.Battery.Ideal ()))

let fig8_kernel () =
  ignore
    (Etx_etsim.Engine.simulate
       (kernel_config ~controllers:(Etx_etsim.Config.Battery_controllers { count = 2 }) ()))

let thm1_kernel () =
  List.iter
    (fun mesh_size ->
      let problem = Etextile.Calibration.problem ~mesh_size in
      ignore (Etx_routing.Upper_bound.jobs problem);
      ignore (Etx_routing.Upper_bound.optimal_duplicates problem))
    [ 4; 5; 6; 7; 8 ]

let floyd_warshall_kernel =
  let topology = Etx_graph.Topology.square_mesh ~size:8 () in
  let w = Etx_graph.Digraph.adjacency_matrix topology.Etx_graph.Topology.graph in
  fun () -> ignore (Etx_graph.Floyd_warshall.run w)

(* The router copies every row whose inputs did not move since the
   workspace's last recompute, so a kernel replaying one snapshot would
   time only that check.  The recompute kernels alternate two snapshots
   that differ in every node's level, so every weight the searches read
   changes and each call is a full recompute. *)
let alternate first second =
  let flip = ref false in
  fun () ->
    flip := not !flip;
    if !flip then first else second

(* [~size:12] is the 144-node mesh that dominates the fig7 sweep's
   routing time. *)
let ear_recompute_kernel ~size =
  let topology = Etx_graph.Topology.square_mesh ~size () in
  let mapping = Etx_routing.Mapping.checkerboard topology in
  let full = Etx_routing.Router.full_snapshot ~node_count:(size * size) ~levels:8 in
  let next =
    alternate full { full with battery_level = Array.make (size * size) 6 }
  in
  (* Persistent workspace, like the controller's per-frame path: the
     scratch state is reused across recomputes instead of
     reallocated. *)
  let workspace = Etx_routing.Router.create_workspace () in
  fun () ->
    ignore
      (Etx_routing.Router.compute ~workspace ~graph:topology.Etx_graph.Topology.graph
         ~mapping ~module_count:3
         ~weight:(Etx_routing.Weight.Exponential { q = 2. })
         (next ()))

(* The controller's common case: one node's level moves per recompute
   (node after node, each flipping between two levels), so only the
   sources whose searches settled it (or, as it refills, a neighbour)
   search again. *)
let ear_one_node_kernel ~size =
  let topology = Etx_graph.Topology.square_mesh ~size () in
  let mapping = Etx_routing.Mapping.checkerboard topology in
  let snapshot = Etx_routing.Router.full_snapshot ~node_count:(size * size) ~levels:8 in
  let level = snapshot.Etx_routing.Router.battery_level and node = ref 0 in
  let workspace = Etx_routing.Router.create_workspace () in
  fun () ->
    level.(!node) <- 13 - level.(!node);
    node := (!node + 1) mod (size * size);
    ignore
      (Etx_routing.Router.compute ~workspace ~graph:topology.Etx_graph.Topology.graph
         ~mapping ~module_count:3
         ~weight:(Etx_routing.Weight.Exponential { q = 2. })
         snapshot)

let aes_kernel =
  let key = Etx_aes.Aes.key_of_hex "000102030405060708090a0b0c0d0e0f" in
  let block = Etx_aes.Block.of_hex "00112233445566778899aabbccddeeff" in
  fun () -> ignore (Etx_aes.Aes.encrypt_block key block)

let battery_kernel () =
  let battery =
    Etx_battery.Battery.create
      ~kind:(Etx_battery.Battery.Thin_film Etx_battery.Battery.default_thin_film)
      ~capacity_pj:60000.
  in
  for _ = 1 to 100 do
    ignore (Etx_battery.Battery.draw battery ~energy_pj:20.);
    Etx_battery.Battery.tick battery ~cycles:50
  done

let maximin_kernel =
  let topology = Etx_graph.Topology.square_mesh ~size:8 () in
  let mapping = Etx_routing.Mapping.checkerboard topology in
  (* The widest kernel's passes read physical lengths, cut below each
     reported level, so uniform levels would leave them unchanged: the
     two snapshots swap levels 7 and 6 between odd and even nodes
     instead, which moves every node's level and every weight of the
     first pass. *)
  let levels parity =
    { (Etx_routing.Router.full_snapshot ~node_count:64 ~levels:8) with
      battery_level = Array.init 64 (fun i -> if i land 1 = parity then 7 else 6) }
  in
  let next = alternate (levels 0) (levels 1) in
  (* Persistent workspace, like the controller's per-frame path. *)
  let workspace = Etx_routing.Maximin.create_workspace () in
  fun () ->
    ignore
      (Etx_routing.Maximin.compute ~workspace ~graph:topology.Etx_graph.Topology.graph
         ~mapping ~module_count:3 (next ()))

(* the hardened frame loop under a lossy fault environment: per-packet
   CRC draws, retransmissions, and upload loss on an 8x8 fabric *)
let fault_frame_kernel =
  let fault =
    Etx_fault.Spec.make ~seed:7 ~bit_error_rate:1e-4 ~upload_loss_rate:0.02 ()
  in
  let config = Etextile.Calibration.config ~fault ~mesh_size:8 ~seed:1 () in
  fun () ->
    let engine = Etx_etsim.Engine.create config in
    Etx_etsim.Engine.run_frames engine ~count:64

(* baseline frame loop on a clean 8x8 fabric with observability
   disarmed: the denominator for kernel/obs-overhead *)
let frame_loop_kernel =
  let config = Etextile.Calibration.config ~mesh_size:8 ~seed:1 () in
  fun () ->
    let engine = Etx_etsim.Engine.create config in
    Etx_etsim.Engine.run_frames engine ~count:64

(* the identical loop with the metrics registry armed: the gap over
   kernel/frame-loop-64 is what live counters cost the hot path *)
let obs_overhead_kernel =
  let config = Etextile.Calibration.config ~mesh_size:8 ~seed:1 () in
  fun () ->
    Etx_obs.Obs.arm ();
    Fun.protect ~finally:Etx_obs.Obs.disarm (fun () ->
        let engine = Etx_etsim.Engine.create config in
        Etx_etsim.Engine.run_frames engine ~count:64)

(* server round trip on the cache-hit path: parse the request line,
   canonicalize the scenario into its fingerprint, hit the LRU and
   serialize the response — the per-request overhead a warm service
   adds on top of the simulation itself *)
let service_roundtrip_kernel =
  let server =
    Etx_service.Server.create { Etx_service.Server.default_config with domains = 1 }
  in
  let line = {|{"scenario":"simulate","params":{"mesh_size":4},"id":0}|} in
  ignore (Etx_service.Server.handle_batch server [ line ]);
  fun () -> ignore (Etx_service.Server.handle_batch server [ line ])

(* durable-store read path: open, length-check and CRC-verify one entry
   file — the per-request cost of a cold-restarted backend serving from
   disk instead of recomputing *)
let store_read_kernel =
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "etx-bench-store-%d" (Unix.getpid ()))
  in
  let store = Etx_service.Store.open_dir dir in
  let key = "simulate;bench-fingerprint" in
  let value = String.make 2048 'r' in
  Etx_service.Store.add store key value;
  fun () ->
    match Etx_service.Store.find store key with
    | Some _ -> ()
    | None -> failwith "store-read bench lost its entry"

(* router overhead on the hit path: request parse, fingerprint, ring
   lookup, health/breaker bookkeeping and dispatch to an in-process
   backend answering from its LRU — what the cluster front-end adds per
   request on top of a single server's round trip *)
let cluster_roundtrip_kernel =
  let backend =
    Etx_service.Server.create { Etx_service.Server.default_config with domains = 1 }
  in
  let rpc ~path:_ ~timeout_s:_ line =
    match Etx_service.Server.handle_batch backend [ line ] with
    | [ response ] -> Ok response
    | _ -> Error "backend answered with the wrong shape"
  in
  let cluster =
    Etx_service.Cluster.create ~rpc
      {
        (Etx_service.Cluster.default_config ~backends:[ "inproc.sock" ]) with
        (* startup probes once, then stays quiet for the whole run *)
        Etx_service.Cluster.health_period_s = 1e9;
      }
  in
  let line = {|{"scenario":"simulate","params":{"mesh_size":4},"id":0}|} in
  ignore (Etx_service.Cluster.handle_batch cluster [ line ]);
  fun () -> ignore (Etx_service.Cluster.handle_batch cluster [ line ])

let analysis_kernel =
  let problem = Etextile.Calibration.problem ~mesh_size:8 in
  let topology = Etx_graph.Topology.square_mesh ~size:8 () in
  let mapping = Etx_routing.Mapping.checkerboard topology in
  fun () ->
    ignore
      (Etx_routing.Analysis.predict ~problem ~topology ~mapping
         ~module_sequence:Etextile.Experiments.aes_module_sequence ())

(* The kernel roster as a named (name, fn) list: [Test.make] wraps each
   closure for Bechamel, and the same closure is what [--warmup]
   executes directly before measurement. *)
let entries =
  [
    ("fig7/ear-4x4-run", fig7_kernel);
    ("table2/ideal-4x4-run", table2_kernel);
    ("fig8/2-controllers-4x4-run", fig8_kernel);
    ("thm1/upper-bounds", thm1_kernel);
    ("kernel/floyd-warshall-64", floyd_warshall_kernel);
    ("kernel/ear-recompute-64", ear_recompute_kernel ~size:8);
    ("kernel/ear-recompute-144", ear_recompute_kernel ~size:12);
    ("kernel/ear-recompute-144-one-node", ear_one_node_kernel ~size:12);
    ("kernel/aes-block", aes_kernel);
    ("kernel/battery-100-steps", battery_kernel);
    ("kernel/maximin-recompute-64", maximin_kernel);
    ("kernel/lifetime-prediction-64", analysis_kernel);
    ("kernel/fault-frame-64", fault_frame_kernel);
    ("kernel/frame-loop-64", frame_loop_kernel);
    ("kernel/obs-overhead", obs_overhead_kernel);
    ("kernel/service-roundtrip-hit", service_roundtrip_kernel);
    ("kernel/cluster-roundtrip-hit", cluster_roundtrip_kernel);
    ("kernel/store-read", store_read_kernel);
  ]

let tests_of entries =
  Test.make_grouped ~name:"etextile"
    (List.map (fun (name, fn) -> Test.make ~name (Staged.stage fn)) entries)

(* { "benchmark-name": { "ns": ns_per_run, "runs": samples } } object,
   hand-rolled so the harness stays dependency-free.  Names are ASCII
   test labels; escape the JSON specials anyway. *)
let write_json path rows =
  let escape name =
    let buffer = Buffer.create (String.length name) in
    String.iter
      (fun c ->
        match c with
        | '"' -> Buffer.add_string buffer "\\\""
        | '\\' -> Buffer.add_string buffer "\\\\"
        | c when Char.code c < 0x20 ->
          Buffer.add_string buffer (Printf.sprintf "\\u%04x" (Char.code c))
        | c -> Buffer.add_char buffer c)
      name;
    Buffer.contents buffer
  in
  let out = open_out path in
  output_string out "{\n";
  List.iteri
    (fun i (name, nanoseconds, runs) ->
      Printf.fprintf out "  \"%s\": { \"ns\": %.1f, \"runs\": %d }%s\n" (escape name)
        nanoseconds runs
        (if i = List.length rows - 1 then "" else ","))
    rows;
  output_string out "}\n";
  close_out out

(* Read back a recorded baseline, accepting both schemata: the current
   { "name": { "ns": x, "runs": n } } object written by [write_json] and
   the legacy flat { "name": ns } form of the older checked-in baselines
   (BENCH_pr2.json).  Hand-rolled like the writer: names are benchmark
   labels (no escapes in practice), values are plain decimal numbers.
   Returns (name, ns) pairs; run counts are informational only. *)
let read_json path =
  let contents =
    let ic = open_in_bin path in
    let n = in_channel_length ic in
    let s = really_input_string ic n in
    close_in ic;
    s
  in
  let len = String.length contents in
  let pos = ref 0 in
  let fail : 'a. string -> 'a =
   fun reason -> failwith (Printf.sprintf "%s: %s" path reason)
  in
  (* everything between tokens (whitespace, ':', ',') is filler *)
  let skip_filler () =
    while
      !pos < len
      && (match contents.[!pos] with
         | '"' | '{' | '}' -> false
         | '0' .. '9' | '-' -> false
         | _ -> true)
    do
      incr pos
    done
  in
  let parse_name () =
    match String.index_from_opt contents (!pos + 1) '"' with
    | None -> fail "unterminated name"
    | Some name_end ->
      let name = String.sub contents (!pos + 1) (name_end - !pos - 1) in
      pos := name_end + 1;
      name
  in
  let parse_number () =
    let start = !pos in
    while
      !pos < len
      && (match contents.[!pos] with
         | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
         | _ -> false)
    do
      incr pos
    done;
    match float_of_string_opt (String.sub contents start (!pos - start)) with
    | Some v -> v
    | None -> fail (Printf.sprintf "bad number at offset %d" start)
  in
  let rows = ref [] in
  skip_filler ();
  if !pos < len && contents.[!pos] = '{' then incr pos;
  let parsing = ref true in
  while !parsing do
    skip_filler ();
    if !pos >= len || contents.[!pos] = '}' then parsing := false
    else begin
      let name = parse_name () in
      skip_filler ();
      if !pos >= len then fail (Printf.sprintf "missing value for %s" name);
      if contents.[!pos] = '{' then begin
        (* object form: pick the "ns" field, ignore the rest *)
        incr pos;
        let ns = ref None in
        let inner = ref true in
        while !inner do
          skip_filler ();
          if !pos >= len then fail (Printf.sprintf "unterminated object for %s" name)
          else if contents.[!pos] = '}' then begin
            incr pos;
            inner := false
          end
          else begin
            let key = parse_name () in
            skip_filler ();
            let v = parse_number () in
            if key = "ns" then ns := Some v
          end
        done;
        match !ns with
        | Some v -> rows := (name, v) :: !rows
        | None -> fail (Printf.sprintf "no \"ns\" field for %s" name)
      end
      else rows := (name, parse_number ()) :: !rows
    end
  done;
  List.rev !rows

(* Per-benchmark ratio table against a recorded baseline; true when any
   benchmark regressed (new/old above 1 + threshold). *)
let compare_against ~baseline_path ~threshold rows =
  let baseline = read_json baseline_path in
  Printf.printf "Comparison against %s (threshold %+.0f%%):\n" baseline_path
    (threshold *. 100.);
  Printf.printf "  %-44s %14s %14s %8s\n" "benchmark" "baseline ns" "new ns" "ratio";
  let regressed = ref false in
  List.iter
    (fun (name, nanoseconds) ->
      match List.assoc_opt name baseline with
      | None -> Printf.printf "  %-44s %14s %14.1f %8s\n" name "-" nanoseconds "new"
      | Some old ->
        let ratio = nanoseconds /. old in
        let flag =
          if ratio > 1. +. threshold then begin
            regressed := true;
            "  REGRESSED"
          end
          else ""
        in
        Printf.printf "  %-44s %14.1f %14.1f %7.2fx%s\n" name old nanoseconds ratio flag)
    rows;
  List.iter
    (fun (name, _) ->
      if not (List.mem_assoc name rows) then
        Printf.printf "  %-44s (missing from this run)\n" name)
    baseline;
  print_newline ();
  !regressed

let run_benchmarks ~smoke ~json ~compare_with ~threshold ~min_runs ~warmup ~only () =
  let entries =
    match only with
    | [] -> entries
    | names ->
      List.iter
        (fun name ->
          if not (List.mem_assoc name entries) then begin
            Printf.eprintf "unknown benchmark %S; known kernels:\n" name;
            List.iter (fun (n, _) -> Printf.eprintf "  %s\n" n) entries;
            exit 2
          end)
        names;
      List.filter (fun (name, _) -> List.mem name names) entries
  in
  let ols = Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |] in
  let instances = Instance.[ monotonic_clock ] in
  let cfg =
    if smoke then
      Benchmark.cfg ~limit:25 ~quota:(Time.second 0.05) ~stabilize:false ~start:min_runs
        ()
    else
      Benchmark.cfg ~limit:200 ~quota:(Time.second 0.5) ~stabilize:false ~start:min_runs
        ()
  in
  if warmup > 0 then begin
    Printf.printf "warming up: %d pass%s over %d kernels\n%!" warmup
      (if warmup = 1 then "" else "es")
      (List.length entries);
    for _ = 1 to warmup do
      List.iter (fun (_, fn) -> fn ()) entries
    done
  end;
  let raw = Benchmark.all cfg instances (tests_of entries) in
  let runs_of name =
    match Hashtbl.find_opt raw name with
    | Some b -> b.Benchmark.stats.Benchmark.samples
    | None -> 0
  in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let rows = Hashtbl.fold (fun name result acc -> (name, result) :: acc) results [] in
  let rows = List.sort (fun (a, _) (b, _) -> compare a b) rows in
  let estimated =
    List.filter_map
      (fun (name, result) ->
        match Analyze.OLS.estimates result with
        | Some [ nanoseconds ] -> Some (name, nanoseconds, runs_of name)
        | Some _ | None -> None)
      rows
  in
  print_endline "Bechamel benchmarks (monotonic clock):";
  List.iter
    (fun (name, result) ->
      match Analyze.OLS.estimates result with
      | Some [ nanoseconds ] ->
        Printf.printf "  %-44s %14.1f ns/run %6d runs\n" name nanoseconds (runs_of name)
      | Some _ | None -> Printf.printf "  %-44s (no estimate)\n" name)
    rows;
  print_newline ();
  (match json with
  | None -> ()
  | Some path ->
    write_json path estimated;
    Printf.printf "wrote %d estimates to %s\n%!" (List.length estimated) path);
  match compare_with with
  | None -> ()
  | Some baseline_path ->
    let pairs = List.map (fun (name, nanoseconds, _) -> (name, nanoseconds)) estimated in
    if compare_against ~baseline_path ~threshold pairs then begin
      Printf.printf "FAIL: kernels regressed beyond %.0f%% of %s\n%!" (threshold *. 100.)
        baseline_path;
      exit 1
    end

let run_reproduction ~domains () =
  print_endline "=== Paper reproduction: regenerating every table and figure ===\n";
  Etextile.Report.print (Etextile.Report.thm1 (Etextile.Experiments.thm1 ()));
  Etextile.Report.print (Etextile.Report.fig7 (Etextile.Experiments.fig7 ~domains ()));
  Etextile.Report.print (Etextile.Report.table2 (Etextile.Experiments.table2 ~domains ()));
  Etextile.Report.print (Etextile.Report.fig8 (Etextile.Experiments.fig8 ~domains ()));
  Etextile.Report.print
    (Etextile.Report.ablation ~title:"Ablation - weight families (6x6 mesh)"
       (Etextile.Experiments.ablation_weights ~domains ()));
  Etextile.Report.print
    (Etextile.Report.ablation ~title:"Ablation - battery-level quantization N_B (6x6)"
       (Etextile.Experiments.ablation_quantization ~domains ()));
  Etextile.Report.print
    (Etextile.Report.ablation ~title:"Ablation - mapping strategy (6x6)"
       (Etextile.Experiments.ablation_mapping ~domains ()));
  Etextile.Report.print
    (Etextile.Report.ablation ~title:"Ablation - battery model x policy (6x6)"
       (Etextile.Experiments.ablation_battery ~domains ()));
  Etextile.Report.print
    (Etextile.Report.ablation ~title:"Extension - workload generality (same f vector, 6x6)"
       (Etextile.Experiments.workloads ~domains ()));
  Etextile.Report.print
    (Etextile.Report.ablation ~title:"Extension - synthetic pipelines of 2..6 modules (6x6)"
       (Etextile.Experiments.generality ~domains ()));
  Etextile.Report.print
    (Etextile.Report.ablation ~title:"Extension - wear-and-tear link failures (6x6, EAR)"
       (Etextile.Experiments.link_failures ~domains ()));
  Etextile.Report.print
    (Etextile.Report.predictions (Etextile.Experiments.predictions ~domains ()));
  Etextile.Report.print
    (Etextile.Report.scenarios (Etextile.Experiments.scenarios ~domains ()));
  Etextile.Report.print
    (Etextile.Report.algorithms (Etextile.Experiments.algorithms ~domains ()));
  Etextile.Report.print
    (Etextile.Report.concurrency (Etextile.Experiments.concurrency ~domains ()))

let usage () =
  prerr_endline
    "usage: main.exe [--bench-only | --repro-only] [--smoke] [--json FILE]\n\
    \                [--compare BASELINE.json] [--threshold FRACTION]\n\
    \                [--only NAME[,NAME...]] [--list] [--min-runs N]\n\
    \                [--warmup N] [--jobs N]";
  exit 2

let () =
  let bench_only = ref false in
  let repro_only = ref false in
  let smoke = ref false in
  let json = ref None in
  let compare = ref None in
  let threshold = ref 0.10 in
  let only = ref [] in
  let min_runs = ref 1 in
  let warmup = ref 0 in
  let jobs = ref (Domain.recommended_domain_count ()) in
  let rec parse = function
    | [] -> ()
    | "--bench-only" :: rest ->
      bench_only := true;
      parse rest
    | "--repro-only" :: rest ->
      repro_only := true;
      parse rest
    | "--smoke" :: rest ->
      smoke := true;
      parse rest
    | "--list" :: _ ->
      List.iter (fun (name, _) -> print_endline name) entries;
      exit 0
    | "--json" :: path :: rest ->
      json := Some path;
      parse rest
    | "--compare" :: path :: rest ->
      compare := Some path;
      parse rest
    | "--only" :: names :: rest -> (
      match
        String.split_on_char ',' names |> List.filter (fun s -> s <> "")
      with
      | [] -> usage ()
      | names ->
        only := !only @ names;
        parse rest)
    | "--threshold" :: x :: rest -> (
      match float_of_string_opt x with
      | Some x when x >= 0. ->
        threshold := x;
        parse rest
      | Some _ | None -> usage ())
    | "--min-runs" :: n :: rest -> (
      match int_of_string_opt n with
      | Some n when n >= 1 ->
        min_runs := n;
        parse rest
      | Some _ | None -> usage ())
    | "--warmup" :: n :: rest -> (
      match int_of_string_opt n with
      | Some n when n >= 0 ->
        warmup := n;
        parse rest
      | Some _ | None -> usage ())
    | "--jobs" :: n :: rest -> (
      match int_of_string_opt n with
      | Some n when n >= 1 ->
        jobs := n;
        parse rest
      | Some _ | None -> usage ())
    | _ -> usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  if not !repro_only then
    run_benchmarks ~smoke:!smoke ~json:!json ~compare_with:!compare ~threshold:!threshold
      ~min_runs:!min_runs ~warmup:!warmup ~only:!only ();
  if not !bench_only then run_reproduction ~domains:!jobs ()
