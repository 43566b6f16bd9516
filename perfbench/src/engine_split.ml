(* Split of simulation time into routing, AES, battery and the engine's
   own work, measured from outside the engine.

   The engine reports how often it did each kind of work (recomputes,
   jobs, acts, hops, frames); a timed call of the same public function
   on the same mesh prices one unit.  Count x unit price, as a share of
   the measured simulation time, estimates each layer's part; the rest
   is the engine's own (frame loop, scheduling, bookkeeping). *)

module Config = Etx_etsim.Config

type sim = {
  config : Config.t;
  seconds : float;  (** measured wall time of the simulation *)
  recomputes : int;
  frames : int;
  hops : int;
  acts : int;
  jobs : int;
}

let of_metrics config seconds (m : Etx_etsim.Metrics.t) =
  {
    config;
    seconds;
    recomputes = m.recomputations;
    frames = m.frames;
    hops = m.hops_total;
    acts = m.acts_total;
    jobs = m.jobs_completed;
  }

(* battery operations one simulation performs: a draw per act, a send
   and a receive draw per hop, and a status-report draw per node per
   frame; each draw first ticks the battery forward *)
let battery_ops s = s.acts + (2 * s.hops) + (s.frames * Config.node_count s.config)

(* one block through the partitioned acts plus the reference
   encryption that verifies the job *)
let aes_blocks s = 2 * s.jobs

let recompute_seconds tr (config : Config.t) =
  let graph = config.topology.Etx_graph.Topology.graph in
  let snapshot =
    Etx_routing.Router.full_snapshot ~node_count:(Config.node_count config)
      ~levels:config.policy.Etx_routing.Policy.levels
  in
  let mapping = config.mapping and module_count = config.module_count in
  Tracer.span tr "routing.compute" (fun () ->
    match config.policy.Etx_routing.Policy.algorithm with
    | Etx_routing.Policy.Weighted weight ->
      let workspace = Etx_routing.Router.create_workspace () in
      Common.time_per_call (fun () ->
        ignore
          (Etx_routing.Router.compute ~workspace ~graph ~mapping ~module_count ~weight
             snapshot))
    | Etx_routing.Policy.Maximin_residual ->
      let workspace = Etx_routing.Maximin.create_workspace () in
      Common.time_per_call (fun () ->
        ignore
          (Etx_routing.Maximin.compute ~workspace ~graph ~mapping ~module_count snapshot)))

let aes_seconds tr (config : Config.t) =
  let key = Etx_aes.Aes.key_of_hex config.key_hex in
  let block = Bytes.make 16 '\x5a' in
  Tracer.span tr "aes.encrypt_block" (fun () ->
    Common.time_per_call ~min_s:0.01 (fun () ->
      ignore (Etx_aes.Aes.encrypt_block key block)))

let battery_seconds tr (config : Config.t) =
  let b =
    Etx_battery.Battery.create ~kind:config.battery_kind
      ~capacity_pj:config.battery_capacity_pj
  in
  Tracer.span tr "battery.step" (fun () ->
    Common.time_per_call ~min_s:0.01 (fun () ->
      Etx_battery.Battery.tick b ~cycles:config.frame_period_cycles;
      ignore (Etx_battery.Battery.draw b ~energy_pj:1e-6)))

let algorithm_name (config : Config.t) =
  match config.policy.Etx_routing.Policy.algorithm with
  | Etx_routing.Policy.Weighted _ -> "weighted"
  | Etx_routing.Policy.Maximin_residual -> "maximin"

(* Unit prices, measured under [tr] spans once per (mesh size, routing
   algorithm).  The sweep prices a mesh right before its simulations, so
   machine-wide load drifts affect both alike. *)
type prices = (int * string, float * float * float) Hashtbl.t

let prices () : prices = Hashtbl.create 16

let price (prices : prices) tr (config : Config.t) =
  let key = (Config.node_count config, algorithm_name config) in
  match Hashtbl.find_opt prices key with
  | Some p -> p
  | None ->
    let p = (recompute_seconds tr config, aes_seconds tr config, battery_seconds tr config) in
    Hashtbl.replace prices key p;
    p

(* Per-layer metrics over [sims]. *)
let metrics prices tr sims =
  let price s = price prices tr s.config in
  let sum f = List.fold_left (fun acc s -> acc +. f s) 0. sims in
  let isum f = List.fold_left (fun acc s -> acc + f s) 0 sims in
  let total = sum (fun s -> s.seconds) in
  let routing = sum (fun s -> let r, _, _ = price s in float_of_int s.recomputes *. r) in
  let aes = sum (fun s -> let _, a, _ = price s in float_of_int (aes_blocks s) *. a) in
  let battery =
    sum (fun s -> let _, _, b = price s in float_of_int (battery_ops s) *. b)
  in
  let recomputes = isum (fun s -> s.recomputes) in
  let share x = if total > 0. then x /. total else 0. in
  let per n x = if n > 0 then x /. float_of_int n else 0. in
  let m = Common.metric in
  [
    m "etsim.frames" (float_of_int (isum (fun s -> s.frames)));
    m "etsim.hops" (float_of_int (isum (fun s -> s.hops)));
    m "etsim.acts" (float_of_int (isum (fun s -> s.acts)));
    m "etsim.jobs_completed" (float_of_int (isum (fun s -> s.jobs)));
    m "routing.recomputes" (float_of_int recomputes);
    m "routing.recompute_us" (1e6 *. per recomputes routing);
    m "routing.share" (share routing);
    m "aes.block_ns" (1e9 *. per (isum aes_blocks) aes);
    m "aes.share" (share aes);
    m "battery.step_ns" (1e9 *. per (isum battery_ops) battery);
    m "battery.share" (share battery);
    m "etsim.self_share" (share (total -. routing -. aes -. battery));
  ]
