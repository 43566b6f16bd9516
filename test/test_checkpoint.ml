(* Checkpoint/restore: binary format round-trips, CRC protection, and
   the engine bit-identity guarantee (run-to-N + checkpoint + restore +
   run-to-end = uninterrupted run), including under fault injection. *)

module Checkpoint = Etx_etsim.Checkpoint
module Engine = Etx_etsim.Engine
module Metrics = Etx_etsim.Metrics
module Config = Etx_etsim.Config
module Spec = Etx_fault.Spec
module Policy = Etx_routing.Policy
module Topology = Etx_graph.Topology
module Calibration = Etextile.Calibration
module Workload = Etx_etsim.Workload

(* the config a wire request's [params] (a JSON object's members) build,
   the same the CLI builds from the flags of those names *)
let wire_config params =
  let line = Printf.sprintf {|{"scenario":"simulate","params":{%s}}|} params in
  match Etx_service.Request.of_line line with
  | Ok { Etx_service.Request.body = Scenario (Simulate p); _ } -> (
    match Etx_service.Handlers.simulate_config p with
    | Ok config -> config
    | Error e -> Alcotest.fail e)
  | _ -> Alcotest.failf "not a simulate request: %s" line

(* - format primitives - *)

let test_crc32_vector () =
  (* the standard IEEE CRC-32 check value *)
  let b = Bytes.of_string "123456789" in
  Alcotest.(check int32) "check value" 0xCBF43926l
    (Checkpoint.crc32 b ~pos:0 ~len:(Bytes.length b))

let test_writer_reader_roundtrip () =
  let w = Checkpoint.Writer.create () in
  Checkpoint.Writer.byte w 200;
  Checkpoint.Writer.int w (-123456789);
  Checkpoint.Writer.float w 3.141592653589793;
  Checkpoint.Writer.float w nan;
  Checkpoint.Writer.string w "hello";
  Checkpoint.Writer.float_array w [| 1.5; -2.5 |];
  let r = Checkpoint.Reader.create (Checkpoint.Writer.contents w) in
  Alcotest.(check int) "byte" 200 (Checkpoint.Reader.byte r);
  Alcotest.(check int) "int" (-123456789) (Checkpoint.Reader.int r);
  Alcotest.(check (float 0.)) "float" 3.141592653589793 (Checkpoint.Reader.float r);
  Alcotest.(check bool) "nan round-trips" true
    (Float.is_nan (Checkpoint.Reader.float r));
  Alcotest.(check string) "string" "hello" (Checkpoint.Reader.string r);
  Alcotest.(check (array (float 0.))) "float array" [| 1.5; -2.5 |]
    (Checkpoint.Reader.float_array r);
  (* drained: nothing is left after the last field *)
  Checkpoint.Reader.expect_end r

let test_reader_rejects_overrun () =
  let w = Checkpoint.Writer.create () in
  Checkpoint.Writer.int w 3;
  let r = Checkpoint.Reader.create (Checkpoint.Writer.contents w) in
  ignore (Checkpoint.Reader.int r);
  (match Checkpoint.Reader.int r with
  | _ -> Alcotest.fail "read past end accepted"
  | exception Checkpoint.Error (Checkpoint.Malformed _) -> ());
  (* a length prefix larger than the payload must be rejected, not
     allocated *)
  let w = Checkpoint.Writer.create () in
  Checkpoint.Writer.int w max_int;
  let r = Checkpoint.Reader.create (Checkpoint.Writer.contents w) in
  match Checkpoint.Reader.string r with
  | _ -> Alcotest.fail "oversized length accepted"
  | exception Checkpoint.Error (Checkpoint.Malformed _) -> ()

let test_frame_roundtrip () =
  let payload = Bytes.of_string "some payload bytes" in
  let framed = Checkpoint.frame payload in
  Alcotest.(check bytes) "unframe inverts frame" payload (Checkpoint.unframe framed)

let expect_error name expected f =
  match f () with
  | _ -> Alcotest.fail (name ^ ": accepted")
  | exception Checkpoint.Error e ->
    Alcotest.(check string) name
      (Checkpoint.error_to_string expected)
      (Checkpoint.error_to_string e)

let test_frame_rejections () =
  let payload = Bytes.of_string "some payload bytes" in
  let framed = Checkpoint.frame payload in
  (* corrupted payload byte -> CRC mismatch *)
  let corrupt = Bytes.copy framed in
  let mid = 20 + (Bytes.length payload / 2) in
  Bytes.set corrupt mid (Char.chr (Char.code (Bytes.get corrupt mid) lxor 0x40));
  expect_error "corrupted" Checkpoint.Crc_mismatch (fun () -> Checkpoint.unframe corrupt);
  (* truncation *)
  expect_error "truncated" Checkpoint.Truncated (fun () ->
      Checkpoint.unframe (Bytes.sub framed 0 (Bytes.length framed - 3)));
  expect_error "empty" Checkpoint.Truncated (fun () -> Checkpoint.unframe Bytes.empty);
  (* wrong magic *)
  let bad = Bytes.copy framed in
  Bytes.set bad 0 'X';
  expect_error "magic" Checkpoint.Bad_magic (fun () -> Checkpoint.unframe bad);
  (* future version *)
  let future = Bytes.copy framed in
  Bytes.set_int32_le future 8 99l;
  expect_error "version" (Checkpoint.Unsupported_version 99) (fun () ->
      Checkpoint.unframe future)

let test_file_roundtrip () =
  let path = Filename.temp_file "etx_ckpt" ".bin" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      let payload = Bytes.of_string "persisted" in
      Checkpoint.write_file path payload;
      Alcotest.(check bytes) "read back" payload (Checkpoint.read_file path);
      (* truncated on disk -> rejected *)
      let oc = open_out_bin path in
      output_string oc "ETXCKPT1";
      close_out oc;
      expect_error "truncated file" Checkpoint.Truncated (fun () ->
          Checkpoint.read_file path))

(* - engine bit-identity - *)

let faulty_spec ~seed =
  Spec.make ~seed ~link_wearout_rate:1e-6 ~bit_error_rate:5e-4 ~brownout_rate:2e-5
    ~brownout_duration_cycles:1000 ~upload_loss_rate:0.1 ~download_loss_rate:0.1 ()

let finish engine =
  match Engine.run_until engine ~cycle:max_int with
  | Engine.Finished metrics -> metrics
  | Engine.Paused -> Alcotest.fail "run_until max_int paused"

(* run [config] uninterrupted, then again with a checkpoint/restore break
   at [stop], and insist the metrics are structurally identical.  With
   [must_pause] the run has to still be alive at [stop], so the restore
   is really exercised. *)
let check_bit_identity ?(name = "metrics") ?(must_pause = false) config ~stop =
  let reference = Engine.simulate config in
  let engine = Engine.create config in
  (match Engine.run_until engine ~cycle:stop with
  | Engine.Finished _ when must_pause -> Alcotest.fail (name ^ ": died before the pause")
  | Engine.Finished metrics ->
    (* the run ended before the checkpoint cycle: still must agree *)
    Alcotest.(check bool) (name ^ " (no pause)") true (metrics = reference)
  | Engine.Paused ->
    let payload = Engine.checkpoint engine in
    let restored = Engine.restore config payload in
    let metrics = finish restored in
    Alcotest.(check bool) name true (metrics = reference));
  reference

let test_bit_identity_5x5_ear_with_faults () =
  let config =
    Calibration.config ~mesh_size:5 ~seed:2 ~fault:(faulty_spec ~seed:42) ()
  in
  let reference = Engine.simulate config in
  (* checkpoint at several points across the lifetime, including frame
     boundaries and cycle 0 *)
  let lifetime = reference.Metrics.lifetime_cycles in
  List.iter
    (fun stop ->
      ignore
        (check_bit_identity ~name:(Printf.sprintf "stop at %d" stop) config ~stop))
    [ 0; lifetime / 7; lifetime / 3; lifetime / 2; (lifetime * 9) / 10 ]

let test_bit_identity_through_file_and_double_resume () =
  let config =
    Calibration.config ~mesh_size:4 ~seed:3 ~fault:(faulty_spec ~seed:7) ()
  in
  let reference = Engine.simulate config in
  let lifetime = reference.Metrics.lifetime_cycles in
  let path = Filename.temp_file "etx_ckpt" ".bin" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      let engine = Engine.create config in
      (match Engine.run_until engine ~cycle:(lifetime / 4) with
      | Engine.Finished _ -> Alcotest.fail "died before first pause"
      | Engine.Paused -> Engine.checkpoint_to_file engine path);
      let resumed = Engine.restore_from_file config path in
      (* pause a second time: checkpoints must compose *)
      (match Engine.run_until resumed ~cycle:(lifetime / 2) with
      | Engine.Finished _ -> Alcotest.fail "died before second pause"
      | Engine.Paused -> Engine.checkpoint_to_file resumed path);
      let resumed = Engine.restore_from_file config path in
      Alcotest.(check bool) "metrics identical" true (finish resumed = reference))

let test_bit_identity_sdr_and_controllers () =
  (* exercise the maximin-free path, finite controllers and an ideal
     battery bank through the same guarantee *)
  let config =
    Calibration.config ~mesh_size:4 ~seed:5 ~policy:(Policy.sdr ())
      ~controllers:(Config.Battery_controllers { count = 2 })
      ()
  in
  ignore (check_bit_identity ~name:"sdr/finite controllers" config ~stop:40_000)

let test_bit_identity_ideal_batteries () =
  let config =
    Calibration.config ~battery_kind:Etx_battery.Battery.Ideal ~seed:1 ~mesh_size:4 ()
  in
  let lifetime = (Engine.simulate config).Metrics.lifetime_cycles in
  List.iter
    (fun stop ->
      ignore
        (check_bit_identity ~name:(Printf.sprintf "ideal stop at %d" stop) ~must_pause:true
           config ~stop))
    [ lifetime / 5; lifetime / 2 ]

let test_bit_identity_pending_link_failures () =
  (* paused before every scheduled failure has fired: the restored
     engine must still apply the pending ones *)
  let topology = Topology.square_mesh ~size:5 () in
  let schedule =
    Etextile.Experiments.random_failure_schedule ~topology ~count:4 ~before_cycle:40_000
      ~seed:93
  in
  let config = Calibration.config ~seed:2 ~link_failure_schedule:schedule ~mesh_size:5 () in
  ignore (check_bit_identity ~name:"pending failures" ~must_pause:true config ~stop:20_000)

let test_checkpoint_guards () =
  let config = Calibration.config ~mesh_size:4 ~seed:1 () in
  let engine = Engine.create config in
  (match Engine.checkpoint engine with
  | _ -> Alcotest.fail "checkpoint before start accepted"
  | exception Invalid_argument _ -> ());
  let metrics = finish engine in
  ignore metrics;
  (match Engine.checkpoint engine with
  | _ -> Alcotest.fail "checkpoint after finish accepted"
  | exception Invalid_argument _ -> ());
  match Engine.run_until engine ~cycle:max_int with
  | _ -> Alcotest.fail "run_until after finish accepted"
  | exception Invalid_argument _ -> ()

let test_fingerprint_mismatch () =
  let config = Calibration.config ~mesh_size:4 ~seed:1 () in
  let engine = Engine.create config in
  (match Engine.run_until engine ~cycle:10_000 with
  | Engine.Finished _ -> Alcotest.fail "died before pause"
  | Engine.Paused -> ());
  let payload = Engine.checkpoint engine in
  let other = Calibration.config ~mesh_size:4 ~seed:2 () in
  (match Engine.restore other payload with
  | _ -> Alcotest.fail "restore under different config accepted"
  | exception Checkpoint.Error (Checkpoint.Fingerprint_mismatch _) -> ());
  (* a mangled payload is rejected as malformed, never a crash *)
  let broken = Bytes.sub payload 0 (Bytes.length payload - 5) in
  match Engine.restore config broken with
  | _ -> Alcotest.fail "truncated payload accepted"
  | exception Checkpoint.Error _ -> ()

(* runs whose bit-error rates agree to six digits, or that differ only
   in the controller bank, are different runs: neither may resume the
   other's checkpoint *)
let test_fingerprint_separates_near_configs () =
  let config ?controllers ber =
    Calibration.config ?controllers ~fault:(Spec.make ~seed:3 ~bit_error_rate:ber ())
      ~mesh_size:4 ~seed:1 ()
  in
  let engine = Engine.create (config 1e-4) in
  (match Engine.run_until engine ~cycle:10_000 with
  | Engine.Finished _ -> Alcotest.fail "died before pause"
  | Engine.Paused -> ());
  let payload = Engine.checkpoint engine in
  List.iter
    (fun (name, other) ->
      match Engine.restore other payload with
      | _ -> Alcotest.failf "restore under %s accepted" name
      | exception Checkpoint.Error (Checkpoint.Fingerprint_mismatch _) -> ())
    [
      ("a ber off in the ninth digit", config 1.00000001e-4);
      ( "two battery-powered controllers",
        config ~controllers:(Config.Battery_controllers { count = 2 }) 1e-4 );
    ]

(* the module mapping shapes a run, so it shapes the fingerprint: a
   proportional mapping is spelled out, the checkerboard keeps the form
   it always had, and neither may resume the other's checkpoint *)
let test_fingerprint_separates_mappings () =
  let proportional =
    Etx_routing.Mapping.proportional ~problem:(Calibration.problem ~mesh_size:5) ~node_count:25
  in
  let board = Calibration.config ~mesh_size:5 ~seed:1 () in
  let other = Calibration.config ~mapping:proportional ~mesh_size:5 ~seed:1 () in
  let fp = Engine.config_fingerprint in
  Alcotest.(check bool) "different fingerprints" true (fp board <> fp other);
  Alcotest.(check bool) "the checkerboard is not spelled out" false
    (Astring_contains.contains (fp board) ";map=");
  let engine = Engine.create other in
  (match Engine.run_until engine ~cycle:10_000 with
  | Engine.Finished _ -> Alcotest.fail "died before pause"
  | Engine.Paused -> ());
  match Engine.restore board (Engine.checkpoint engine) with
  | _ -> Alcotest.fail "restore across mappings accepted"
  | exception Checkpoint.Error (Checkpoint.Fingerprint_mismatch _) -> ()

(* the other result-shaping fields no CLI or wire config changes are
   spelled out only off their defaults *)
let test_fingerprint_spells_out_code_only_fields () =
  let topology = Topology.square_mesh ~size:4 () in
  let fp ?job_source ?key_hex ?max_jobs () =
    Engine.config_fingerprint
      (Config.make ~topology ~job_source:(Option.value job_source ~default:Config.Round_robin_entry)
         ?key_hex ?max_jobs ())
  in
  let base = fp () in
  List.iter
    (fun (name, other) ->
      Alcotest.(check bool) name true (other <> base))
    [
      ("fixed entry", fp ~job_source:(Config.Fixed_entry 0) ());
      ("key", fp ~key_hex:"0f0e0d0c0b0a09080706050403020100" ());
      ("job cap", fp ~max_jobs:(Some 5) ());
    ];
  Alcotest.(check string) "defaults spelled out are omitted" base
    (fp ~key_hex:Config.default_key_hex ~max_jobs:None ())

(* A non-default thin-film cell is fingerprinted by a digest of its
   marshalled parameters, so any change to how those parameters are
   represented would silently re-key every stored checkpoint and result.
   Pin one such fingerprint. *)
let test_fingerprint_pins_thin_film_params () =
  let params =
    { Etx_battery.Battery.default_thin_film with Etx_battery.Battery.sag_volts_per_power = 0.02 }
  in
  let config =
    Calibration.config ~battery_kind:(Etx_battery.Battery.Thin_film params) ~mesh_size:4
      ~seed:1 ()
  in
  Alcotest.(check string) "pinned fingerprint"
    "etsim-ckpt-v1;n=16;m=3;edges=48;policy=EAR(q=2)/8;seed=1;frame=800;max=50000000;jobs=1;\
     batt=thin-film#b48d0f28ea3217a1/60000/0.1;wl=aes-128-encrypt;fault=none;retx=3;ack=25;\
     sched=0"
    (Engine.config_fingerprint config)

(* The other off-default branches, pinned the same way: a battery-
   powered bank (fig8), a computation model and mapping of their own
   (the generality sweep's 4-module pipeline), a garment off the square
   mesh (mapping, topology and control medium), and a fault environment
   with its retry budget as the wire builds it. *)
let test_fingerprint_pins_off_default_branches () =
  let generality_config ~p ~seed =
    let mesh_size = 6 in
    let energies = Array.sub [| 100.; 140.; 80.; 160.; 120.; 90. |] 0 p in
    let workload =
      Workload.synthetic ~name:(Printf.sprintf "pipeline-%d" p) ~acts_per_job:(Array.make p 10) ()
    in
    let problem =
      Workload.problem workload ~computation_energy_pj:energies
        ~communication_energy_pj:(Array.make p (261. *. 0.4472))
        ~battery_budget_pj:Calibration.battery_budget_pj ~node_budget:(mesh_size * mesh_size)
    in
    Config.make ~topology:(Topology.square_mesh ~size:mesh_size ()) ~policy:(Calibration.ear ())
      ~mapping:(Etx_routing.Mapping.proportional ~problem ~node_count:(mesh_size * mesh_size))
      ~workloads:[ workload ]
      ~computation:(Etx_energy.Computation.custom ~energies_pj:energies)
      ~computation_cycles:(Array.make p 2) ~battery_capacity_pj:Calibration.battery_budget_pj
      ~battery_capacity_variation:Calibration.battery_capacity_variation
      ~frame_period_cycles:Calibration.frame_period_cycles
      ~reception_energy_fraction:Calibration.reception_energy_fraction
      ~control_line_length_cm:(Config.mesh_control_line_cm ~mesh_size)
      ~job_source:Config.Round_robin_entry ~seed ()
  in
  List.iter
    (fun (name, config, expected) ->
      Alcotest.(check string) name expected (Engine.config_fingerprint config))
    [
      ( "fig8 bank",
        Calibration.config ~policy:(Calibration.ear ())
          ~controllers:(Config.Battery_controllers { count = 2 }) ~mesh_size:5 ~seed:3 (),
        "etsim-ckpt-v1;n=25;m=3;edges=80;policy=EAR(q=2)/8;seed=3;frame=800;max=50000000;\
         jobs=1;batt=thin-film/60000/0.1;wl=aes-128-encrypt;fault=none;retx=3;ack=25;\
         sched=0;ctl=2" );
      ( "generality pipeline",
        generality_config ~p:4 ~seed:2,
        "etsim-ckpt-v1;n=36;m=4;edges=120;policy=EAR(q=2)/8;seed=2;frame=800;max=50000000;\
         jobs=1;batt=thin-film/60000/0.1;wl=pipeline-4#f=10,10,10,10;fault=none;retx=3;\
         ack=25;sched=0;map=0f2b58796809f738;phys=60b4eefd19958c90" );
      ( "jacket garment",
        Etextile.Scenario.config ~seed:2 (Etextile.Scenario.jacket ()),
        "etsim-ckpt-v1;n=32;m=3;edges=100;policy=EAR(q=2)/8;seed=2;frame=800;max=50000000;\
         jobs=1;batt=thin-film/60000/0.1;wl=aes-128-encrypt;fault=none;retx=3;ack=25;\
         sched=0;map=5ddf05d09f6ea792;topo=55413d7c3c0d29bd;tdma=2/4/8/0x1.4p+3;\
         deadlock=1000" );
      ( "fault and retries",
        wire_config {|"mesh_size":5,"ber":2e-4,"fault_seed":7,"retries":1|},
        "etsim-ckpt-v1;n=25;m=3;edges=80;policy=EAR(q=2)/8;seed=1;frame=800;max=50000000;\
         jobs=1;batt=thin-film/60000/0.1;wl=aes-128-encrypt;\
         fault=seed=7,wear=0/2,ber=0.0002,brown=0/2000/preserve,up=0,down=0;retx=1;ack=25;\
         sched=0" );
    ]

(* Under replay the fingerprint is a run's only identity, so every
   Config.t field must either move it or be listed here with what pins
   its value on the CLI and the wire.  One mutator per field; a field
   added to Config.t without one fails the census below. *)
let test_fingerprint_covers_every_field () =
  (* the config of [simulate --size 4 --fail-links 2] *)
  let failures seed =
    Etextile.Experiments.random_failure_schedule ~topology:(Topology.square_mesh ~size:4 ())
      ~count:2 ~before_cycle:40_000 ~seed
  in
  let base = Calibration.config ~mesh_size:4 ~seed:1 ~link_failure_schedule:(failures 31) () in
  let fp = Engine.config_fingerprint in
  let reason_pinned =
    [
      ( "link_failure_schedule",
        "contents drawn from the mesh size, the seed and the fail-links count (n=, \
         seed=, sched=)" );
    ]
  in
  let mutators : (string * (Config.t -> Config.t)) list =
    [
      ( "topology",
        fun c -> { c with topology = Topology.square_mesh ~link_length_cm:2. ~size:4 () } );
      ( "mapping",
        fun c ->
          {
            c with
            mapping =
              Etx_routing.Mapping.custom
                ~assignment:(Array.init 16 (fun i -> (i + 1) mod 3))
                ~module_count:3;
          } );
      ("module_count", fun c -> { c with module_count = 4 });
      ("policy", fun c -> { c with policy = Policy.sdr () });
      ( "computation",
        fun c ->
          { c with computation = Etx_energy.Computation.custom ~energies_pj:[| 1.; 2.; 3. |] } );
      ("computation_cycles", fun c -> { c with computation_cycles = [| 3; 2; 3 |] });
      ("reception_energy_fraction", fun c -> { c with reception_energy_fraction = 0.5 });
      ("battery_kind", fun c -> { c with battery_kind = Etx_battery.Battery.Ideal });
      (* below %g's six digits: the fingerprint prints such a value exactly *)
      ("battery_capacity_pj", fun c -> { c with battery_capacity_pj = 60000.25 });
      ("battery_capacity_variation", fun c -> { c with battery_capacity_variation = 0.1000001 });
      ("frame_period_cycles", fun c -> { c with frame_period_cycles = 900 });
      ("control_line_length_cm", fun c -> { c with control_line_length_cm = 12. });
      (* same length, other links *)
      ("link_failure_schedule", fun c -> { c with link_failure_schedule = failures 32 });
      ("fault", fun c -> { c with fault = Some (Spec.make ~seed:1 ~bit_error_rate:1e-4 ()) });
      ("max_retransmissions", fun c -> { c with max_retransmissions = 2 });
      ("controllers", fun c -> { c with controllers = Config.Battery_controllers { count = 2 } });
      ( "workloads",
        fun c -> { c with workloads = [ Etx_etsim.Workload.aes_decrypt ~key_hex:c.key_hex ] } );
      ("concurrent_jobs", fun c -> { c with concurrent_jobs = 2 });
      ("job_source", fun c -> { c with job_source = Config.Fixed_entry 0 });
      ("key_hex", fun c -> { c with key_hex = "0f0e0d0c0b0a09080706050403020100" });
      ("seed", fun c -> { c with seed = 2 });
      ("max_cycles", fun c -> { c with max_cycles = 1_000_000 });
      ("max_jobs", fun c -> { c with max_jobs = Some 5 });
    ]
  in
  (* the census: each mutator moves exactly one field, and every field
     of the record is moved by one *)
  let field_count = Obj.size (Obj.repr base) in
  let moved (name, mutate) =
    let m = Obj.repr (mutate base) and b = Obj.repr base in
    let fields = List.init field_count Fun.id in
    match List.filter (fun i -> Obj.field m i != Obj.field b i) fields with
    | [ i ] -> i
    | fields -> Alcotest.failf "mutator %s moves %d fields" name (List.length fields)
  in
  Alcotest.(check (list int))
    "one mutator per Config.t field, in declaration order"
    (List.init field_count Fun.id) (List.map moved mutators);
  List.iter
    (fun (name, mutate) ->
      let changed = fp (mutate base) <> fp base in
      match List.assoc_opt name reason_pinned with
      | None -> if not changed then Alcotest.failf "%s does not move the fingerprint" name
      | Some why ->
        if changed then Alcotest.failf "%s moves the fingerprint, yet is listed as %s" name why)
    mutators;
  (* two values of one field that print the same name still part *)
  let workloads list = { base with workloads = list } in
  let synthetic name f = Workload.synthetic ~name ~acts_per_job:f () in
  List.iter
    (fun (name, a, b) -> if fp a = fp b then Alcotest.failf "%s share a fingerprint" name)
    [
      ("EAR at q = 2 and q = 2 + 1e-7", { base with policy = Policy.ear ~q:2.0000001 () }, base);
      ( "a policy named as another",
        { base with policy = { (Policy.ear ()) with algorithm = (Policy.sdr ()).algorithm } },
        base );
      ( "synthetic workloads of one name",
        workloads [ synthetic "s" [| 10; 9; 11 |] ],
        workloads [ synthetic "s" [| 11; 9; 10 |] ] );
      ( "the CLI's synthetic name on another f vector",
        workloads [ synthetic "cli-synthetic" [| 11; 9; 10 |] ],
        workloads [ Workload.cli_synthetic ] );
      ( "a synthetic workload named as AES",
        workloads [ synthetic "aes-128-encrypt" [| 10; 9; 11 |] ],
        base );
      ( "AES under another key",
        workloads [ Workload.aes_encrypt ~key_hex:"0f0e0d0c0b0a09080706050403020100" ],
        base );
    ];
  (* the CLI's and the wire's own configs spell none of these out *)
  List.iter
    (fun mesh_size ->
      let f = fp (Calibration.config ~mesh_size ~seed:1 ()) in
      List.iter
        (fun key ->
          if Astring_contains.contains f key then
            Alcotest.failf "%dx%d mesh: %s spelled out in %s" mesh_size mesh_size key f)
        [ ";topo="; ";phys="; ";tdma=" ])
    [ 2; 4; 5; 8; 12; 64 ];
  List.iter
    (fun params ->
      let f = fp (wire_config params) in
      if String.contains f '#' then Alcotest.failf "%s: digest in %s" params f)
    (List.concat_map
       (fun policy ->
         List.map
           (fun workload -> Printf.sprintf {|"policy":%S,"workload":%S|} policy workload)
           [ "encrypt"; "decrypt"; "duplex"; "synthetic" ])
       [ "ear"; "sdr"; "ear2"; "inverse"; "linear"; "maximin" ])

(* - refusals: each is a structured error, never a crash - *)

(* [payload] re-encoded with its fields passed through [f] *)
let recode payload ~f =
  let r = Checkpoint.Reader.create payload in
  let fingerprint = Checkpoint.Reader.string r in
  let cycle = Checkpoint.Reader.int r in
  let witness = Checkpoint.Reader.string r in
  Checkpoint.Reader.expect_end r;
  let fingerprint, cycle, witness = f (fingerprint, cycle, witness) in
  let w = Checkpoint.Writer.create () in
  Checkpoint.Writer.string w fingerprint;
  Checkpoint.Writer.int w cycle;
  Checkpoint.Writer.string w witness;
  Checkpoint.Writer.contents w

let paused_payload config ~stop =
  let engine = Engine.create config in
  match Engine.run_until engine ~cycle:stop with
  | Engine.Finished _ -> Alcotest.fail "died before pause"
  | Engine.Paused -> (Engine.cycle engine, Engine.checkpoint engine)

let test_refuses_tampered_witness () =
  let config = Calibration.config ~mesh_size:4 ~seed:1 ~fault:(faulty_spec ~seed:5) () in
  let cycle, payload = paused_payload config ~stop:10_000 in
  let flip w = String.mapi (fun i ch -> if i > 0 then ch else if ch = '0' then '1' else '0') w in
  expect_error "tampered witness" (Checkpoint.Witness_mismatch { cycle }) (fun () ->
      Engine.restore config (recode payload ~f:(fun (fp, c, w) -> (fp, c, flip w))));
  (* an honest witness filed under an earlier cycle names another state *)
  let earlier = cycle - 5_000 in
  expect_error "moved cycle" (Checkpoint.Witness_mismatch { cycle = earlier }) (fun () ->
      Engine.restore config (recode payload ~f:(fun (fp, _, w) -> (fp, earlier, w))))

(* a checkpoint the engine state codec wrote, of [simulate --size 4
   --seed 2 --ber 1e-4 --fault-seed 3]: the frame and the fingerprint
   still match, the layout after them does not *)
let test_refuses_state_codec_layout () =
  let config = wire_config {|"mesh_size":4,"seed":2,"ber":1e-4,"fault_seed":3|} in
  match Engine.restore_from_file config "state_codec_4x4.etxc" with
  | _ -> Alcotest.fail "state-codec file accepted"
  | exception Checkpoint.Error (Checkpoint.Malformed _) -> ()

let test_refuses_cycle_past_death () =
  let config = Calibration.config ~mesh_size:4 ~seed:1 () in
  let lifetime = (Engine.simulate config).Metrics.lifetime_cycles in
  let _, payload = paused_payload config ~stop:10_000 in
  let cycle = lifetime + 1 in
  expect_error "cycle past death" (Checkpoint.Run_ended { cycle; ended = lifetime }) (fun () ->
      Engine.restore config (recode payload ~f:(fun (fp, _, w) -> (fp, cycle, w))))

(* - QCheck: restore-then-run is bit-identical across random configs and
   fault plans - *)

type scenario = {
  size : int;
  seed : int;
  fault_seed : int;
  ber : float;
  wearout : float;
  brownout : float;
  upload_loss : float;
  download_loss : float;
  retries : int;
  stop_num : int; (* stop cycle = lifetime * stop_num / 16 *)
}

let scenario_gen =
  QCheck.Gen.(
    map
      (fun ((size, seed, fault_seed, ber, wearout), (brownout, upload_loss, download_loss, retries, stop_num)) ->
        { size; seed; fault_seed; ber; wearout; brownout; upload_loss;
          download_loss; retries; stop_num })
      (pair
         (tup5 (int_range 3 5) (int_range 1 1000) (int_range 0 10_000)
            (float_bound_inclusive 1e-3) (float_bound_inclusive 1e-5))
         (tup5 (float_bound_inclusive 5e-5) (float_bound_inclusive 0.3)
            (float_bound_inclusive 0.3) (int_range 0 3) (int_range 0 16))))

let scenario_print s =
  Printf.sprintf
    "{size=%d seed=%d fault_seed=%d ber=%g wear=%g brown=%g up=%.2f down=%.2f \
     retries=%d stop=%d/16}"
    s.size s.seed s.fault_seed s.ber s.wearout s.brownout s.upload_loss
    s.download_loss s.retries s.stop_num

let scenario_arbitrary = QCheck.make ~print:scenario_print scenario_gen

let scenario_config s =
  let fault =
    Spec.make ~seed:s.fault_seed ~link_wearout_rate:s.wearout ~bit_error_rate:s.ber
      ~brownout_rate:s.brownout ~brownout_duration_cycles:1500
      ~upload_loss_rate:s.upload_loss ~download_loss_rate:s.download_loss ()
  in
  Config.make
    ~topology:(Topology.square_mesh ~size:s.size ())
    ~policy:(Policy.ear ()) ~fault ~max_retransmissions:s.retries
    ~job_source:Config.Round_robin_entry ~seed:s.seed ~max_jobs:(Some 60)
    ~max_cycles:1_000_000 ()

let invariant_restore_bit_identical =
  QCheck.Test.make
    ~name:"checkpoint: restore-then-run is bit-identical to uninterrupted run"
    ~count:30 scenario_arbitrary (fun s ->
      let config = scenario_config s in
      let reference = Engine.simulate config in
      let stop = reference.Metrics.lifetime_cycles * s.stop_num / 16 in
      let engine = Engine.create config in
      match Engine.run_until engine ~cycle:stop with
      | Engine.Finished metrics -> metrics = reference
      | Engine.Paused ->
        let restored = Engine.restore config (Engine.checkpoint engine) in
        finish restored = reference)

let suite =
  [
    ( "checkpoint/format",
      [
        ("crc32 check value", `Quick, test_crc32_vector);
        ("writer/reader round-trip", `Quick, test_writer_reader_roundtrip);
        ("reader rejects overrun", `Quick, test_reader_rejects_overrun);
        ("frame round-trip", `Quick, test_frame_roundtrip);
        ("frame rejections", `Quick, test_frame_rejections);
        ("file round-trip", `Quick, test_file_roundtrip);
      ] );
    ( "checkpoint/engine",
      [
        ("5x5 EAR with faults bit-identity", `Slow, test_bit_identity_5x5_ear_with_faults);
        ( "file round-trip and double resume",
          `Slow,
          test_bit_identity_through_file_and_double_resume );
        ("sdr + finite controllers", `Slow, test_bit_identity_sdr_and_controllers);
        ("ideal batteries bit-identity", `Slow, test_bit_identity_ideal_batteries);
        ( "pending link failures bit-identity",
          `Slow,
          test_bit_identity_pending_link_failures );
        ("checkpoint guards", `Quick, test_checkpoint_guards);
        ("fingerprint mismatch", `Quick, test_fingerprint_mismatch);
        ("fingerprint separates mappings", `Quick, test_fingerprint_separates_mappings);
        ( "fingerprint spells out code-only fields",
          `Quick,
          test_fingerprint_spells_out_code_only_fields );
        ( "fingerprint pins non-default thin-film params",
          `Quick,
          test_fingerprint_pins_thin_film_params );
        ( "fingerprint pins off-default branches",
          `Quick,
          test_fingerprint_pins_off_default_branches );
        ( "fingerprint separates near configs",
          `Quick,
          test_fingerprint_separates_near_configs );
        ("fingerprint covers every config field", `Quick, test_fingerprint_covers_every_field);
        ("refuses a tampered witness", `Quick, test_refuses_tampered_witness);
        ("refuses the state-codec layout", `Quick, test_refuses_state_codec_layout);
        ("refuses a cycle past the run's death", `Quick, test_refuses_cycle_past_death);
        QCheck_alcotest.to_alcotest invariant_restore_bit_identical;
      ] );
  ]
