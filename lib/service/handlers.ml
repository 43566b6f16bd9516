module Json = Etx_util.Json
module Experiments = Etextile.Experiments
module Calibration = Etextile.Calibration
module Workload = Etx_etsim.Workload

let policy_of_string s =
  match String.lowercase_ascii s with
  | "ear" -> Ok (Etx_routing.Policy.ear ())
  | "sdr" -> Ok (Etx_routing.Policy.sdr ())
  | "ear2" -> Ok (Etx_routing.Policy.ear_squared ())
  | "inverse" -> Ok (Etx_routing.Policy.inverse_level ())
  | "linear" -> Ok (Etx_routing.Policy.linear_drain ())
  | "maximin" -> Ok (Etx_routing.Policy.maximin ())
  | other -> Error (Printf.sprintf "unknown policy %S" other)

let battery_of_string s =
  match String.lowercase_ascii s with
  | "thin-film" | "thin_film" | "thinfilm" ->
    Ok (Etx_battery.Battery.Thin_film Etx_battery.Battery.default_thin_film)
  | "ideal" -> Ok Etx_battery.Battery.Ideal
  | other -> Error (Printf.sprintf "unknown battery model %S" other)

let workloads_of_string s =
  let aes make = make ~key_hex:"000102030405060708090a0b0c0d0e0f" in
  match String.lowercase_ascii s with
  | "encrypt" -> Ok None
  | "decrypt" -> Ok (Some [ aes Workload.aes_decrypt ])
  | "duplex" -> Ok (Some [ aes Workload.aes_encrypt; aes Workload.aes_decrypt ])
  | "synthetic" ->
    Ok (Some [ Workload.cli_synthetic ])
  | other -> Error (Printf.sprintf "unknown workload %S" other)

(* [None] when every rate is zero, so the default run takes the
   bit-identical fault-free path *)
let fault_spec (f : Request.fault_params) =
  if
    f.ber = 0. && f.wearout = 0. && f.brownout_rate = 0. && f.upload_loss = 0.
    && f.download_loss = 0.
  then None
  else
    Some
      (Etx_fault.Spec.make ~seed:f.fault_seed ~link_wearout_rate:f.wearout
         ~bit_error_rate:f.ber ~brownout_rate:f.brownout_rate
         ~brownout_duration_cycles:f.brownout_cycles ~upload_loss_rate:f.upload_loss
         ~download_loss_rate:f.download_loss ())

let ( let* ) r f = Result.bind r f

let guard f =
  match f () with x -> Ok x | exception Invalid_argument message -> Error message

(* The one place a simulate config is built, for the CLI and the wire;
   every semantic check lives in the constructors, surfaced as [Error]. *)
let simulate_config (p : Request.simulate_params) =
  let* policy = policy_of_string p.policy in
  let* battery_kind = battery_of_string p.battery in
  let* workloads = workloads_of_string p.workload in
  guard (fun () ->
      let controllers =
        if p.controllers = 0 then Etx_etsim.Config.Infinite_controller
        else Etx_etsim.Config.Battery_controllers { count = p.controllers }
      in
      let link_failure_schedule =
        if p.fail_links = 0 then []
        else
          Experiments.random_failure_schedule
            ~topology:(Etx_graph.Topology.square_mesh ~size:p.mesh_size ())
            ~count:p.fail_links ~before_cycle:40_000 ~seed:(p.seed * 31)
      in
      Calibration.config ~policy ~battery_kind ~controllers ~seed:p.seed
        ~concurrent_jobs:p.concurrent_jobs ?workloads ~link_failure_schedule
        ?fault:(fault_spec p.fault) ~max_retransmissions:p.retries ~mesh_size:p.mesh_size
        ())

(* A sweep run lives in the store under its config fingerprint, behind a
   prefix no request fingerprint has, as [Metrics.write]'s bytes.  The
   store is not thread-safe and this runs on pool workers, so its calls
   share one mutex; the simulation runs outside it. *)
let store_backed store simulate =
  let lock = Mutex.create () in
  fun config ->
    let key = "run;" ^ Etx_etsim.Engine.config_fingerprint config in
    let decode value =
      let r = Etx_etsim.Checkpoint.Reader.create (Bytes.unsafe_of_string value) in
      let metrics = Etx_etsim.Metrics.read r in
      Etx_etsim.Checkpoint.Reader.expect_end r;
      metrics
    in
    match Option.map decode (Mutex.protect lock (fun () -> Store.find store key)) with
    | Some metrics -> metrics
    | None | (exception Etx_etsim.Checkpoint.Error _) ->
      let metrics = simulate config in
      let w = Etx_etsim.Checkpoint.Writer.create () in
      Etx_etsim.Metrics.write w metrics;
      let value = Bytes.to_string (Etx_etsim.Checkpoint.Writer.contents w) in
      Mutex.protect lock (fun () -> Store.add store key value);
      metrics

let audit_runs ?pool ?domains (p : Request.audit_params) =
  Experiments.audit_runs ~sizes:p.sizes ~seeds:p.seeds ~every:p.every
    ?fault:(fault_spec p.fault) ~max_retransmissions:p.retries ?pool ?domains ()

let fingerprint (scenario : Request.scenario) =
  match scenario with
  | Request.Simulate p ->
    (* the checkpoint layer's fingerprint covers everything that shapes
       the run, so it is exactly the result's content address *)
    let* config = simulate_config p in
    Ok ("simulate;" ^ Etx_etsim.Engine.config_fingerprint config)
  | Request.Fig7 { sizes; seeds } -> Ok (Experiments.fig7_fingerprint ~sizes ~seeds)
  | Request.Resilience { mesh_size; bit_error_rates; wearout_rates; fault_seed; seeds }
    ->
    Ok
      (Experiments.resilience_fingerprint ~mesh_size ~bit_error_rates ~wearout_rates
         ~fault_seed ~seeds)
  | Request.Audit p ->
    guard (fun () ->
        Experiments.audit_fingerprint ~sizes:p.sizes ~seeds:p.seeds ~every:p.every
          ?fault:(fault_spec p.fault) ~max_retransmissions:p.retries ())
  | Request.Upper_bound { sizes } ->
    Ok
      (Printf.sprintf "upper-bound;sizes=%s"
         (String.concat "," (List.map string_of_int sizes)))

(* - result encoders - *)

let f x = Json.float_lenient x
let i n = Json.Int n

let fig7_row (r : Experiments.fig7_row) =
  Json.Obj
    [
      ("mesh_size", i r.mesh_size);
      ("ear_jobs", f r.ear_jobs);
      ("sdr_jobs", f r.sdr_jobs);
      ("gain", f r.gain);
      ("ear_overhead", f r.ear_overhead);
      ("paper_ear_jobs", f r.paper_ear_jobs);
      ("paper_overhead", f r.paper_overhead);
    ]

let resilience_row (r : Experiments.resilience_row) =
  Json.Obj
    [
      ("axis", Json.String r.axis);
      ("rate", f r.rate);
      ("ear_jobs", f r.ear_jobs);
      ("sdr_jobs", f r.sdr_jobs);
      ("gain", f r.r_gain);
      ("retransmissions", f r.retransmissions);
      ("packets_dropped", f r.packets_dropped);
      ("wearouts", f r.wearouts);
    ]

let audit_row (r : Experiments.audit_row) =
  Json.Obj
    [
      ("mesh_size", i r.audit_mesh_size);
      ("seed", i r.audit_seed);
      ("passes", i r.passes);
      ("violations_total", i r.audit_violations_total);
      ("violations", Json.List (List.map (fun v -> Json.String v) r.audit_violations));
    ]

let thm1_row (r : Experiments.thm1_row) =
  Json.Obj
    [
      ("mesh_size", i r.mesh_size);
      ("j_star", f r.j_star);
      ( "optimal_duplicates",
        Json.List (Array.to_list (Array.map f r.optimal_duplicates)) );
      ( "checkerboard_duplicates",
        Json.List (Array.to_list (Array.map i r.checkerboard_duplicates)) );
      ("checkerboard_bound", f r.checkerboard_bound);
    ]

let rows encode xs = Json.Obj [ ("rows", Json.List (List.map encode xs)) ]

let execute ~pool (scenario : Request.scenario) =
  match scenario with
  | Request.Simulate p ->
    let* config = simulate_config p in
    Ok (Etx_etsim.Metrics.to_json (Etx_etsim.Engine.simulate config))
  | Request.Fig7 { sizes; seeds } ->
    guard (fun () -> rows fig7_row (Experiments.fig7 ~sizes ~seeds ~pool ()))
  | Request.Resilience { mesh_size; bit_error_rates; wearout_rates; fault_seed; seeds }
    ->
    guard (fun () ->
        rows resilience_row
          (Experiments.resilience ~mesh_size ~bit_error_rates ~wearout_rates ~fault_seed
             ~seeds ~pool ()))
  | Request.Audit p ->
    guard (fun () ->
        let result = audit_runs ~pool p in
        Json.Obj
          [
            ("rows", Json.List (List.map audit_row result));
            ("violations_total", i (Experiments.audit_violations result));
          ])
  | Request.Upper_bound { sizes } ->
    guard (fun () -> rows thm1_row (Experiments.thm1 ~sizes ()))
