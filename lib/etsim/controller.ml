module Battery = Etx_battery.Battery
module Router = Etx_routing.Router
module Routing_table = Etx_routing.Routing_table
module Obs = Etx_obs.Obs

let obs_recompute =
  Obs.counter ~help:"Routing recomputations charged by the controller"
    "etx_engine_recompute_total"

type outcome =
  | Table_updated of Routing_table.t
  | No_change
  | Exhausted

type bank = Infinite | Finite of { batteries : Battery.t array; mutable active : int }

type t = {
  config : Config.t;
  bank : bank;
  workspace : Router.workspace;
  (* controller-owned copy of the last recomputed-for snapshot: the
     engine refills its snapshot buffer in place every frame, so the
     comparison baseline must not alias it *)
  mutable previous_snapshot : Router.snapshot option;
  (* per-frame energy figures, fixed by the config *)
  dynamic_per_recompute : float;
  instruction_energy : float;
  mutable table : Routing_table.t option;
  mutable recomputations : int;
  mutable download_energy : float;
  mutable compute_energy : float;
  mutable deaths : int;
}

let create (config : Config.t) =
  let bank =
    match config.controllers with
    | Config.Infinite_controller -> Infinite
    | Config.Battery_controllers { count } ->
      Finite
        {
          batteries =
            Array.init count (fun _ ->
                Battery.create ~kind:Config.controller_battery_kind
                  ~capacity_pj:Config.controller_battery_capacity_pj);
          active = 0;
        }
    in
  {
    config;
    bank;
    workspace = Router.create_workspace ();
    previous_snapshot = None;
    dynamic_per_recompute =
      Etx_energy.Controller_power.dynamic_pj_per_cycle
      *. float_of_int (Config.recompute_cycles config);
    instruction_energy = Config.instruction_energy_pj config;
    table = None;
    recomputations = 0;
    download_energy = 0.;
    compute_energy = 0.;
    deaths = 0;
  }

(* Draw [energy] from the active controller, failing over through the
   standby bank; returns false when every controller is depleted. *)
let rec bank_draw t ~energy =
  match t.bank with
  | Infinite -> true
  | Finite f ->
    if f.active >= Array.length f.batteries then false
    else if Battery.draw f.batteries.(f.active) ~energy_pj:energy then true
    else begin
      t.deaths <- t.deaths + 1;
      f.active <- f.active + 1;
      bank_draw t ~energy
    end

(* Whether the snapshot differs from the one last recomputed for, in
   one pass over the arrays.  Engine.build_snapshot delivers
   locked_ports and failed_links sorted, so structural list equality
   suffices (physical identity first: the engine shares unchanged lists
   frame to frame). *)
let snapshot_changed t (snapshot : Router.snapshot) =
  match t.previous_snapshot with
  | None -> true
  | Some previous ->
    let n = Array.length snapshot.alive in
    Array.length previous.alive <> n
    || Array.length previous.battery_level <> Array.length snapshot.battery_level
    || previous.levels <> snapshot.levels
    || (not
          (previous.locked_ports == snapshot.locked_ports
          || previous.locked_ports = snapshot.locked_ports))
    || (not
          (previous.failed_links == snapshot.failed_links
          || previous.failed_links = snapshot.failed_links))
    || begin
      let id = ref 0 in
      while
        !id < n
        && previous.alive.(!id) = snapshot.alive.(!id)
        && previous.battery_level.(!id) = snapshot.battery_level.(!id)
      do
        incr id
      done;
      !id < n
    end

(* Remember the snapshot just recomputed for.  The arrays are blitted
   into a controller-owned buffer (the caller's buffer is refilled next
   frame); the immutable list values are shared by reference. *)
let remember t (snapshot : Router.snapshot) =
  let n = Array.length snapshot.alive in
  match t.previous_snapshot with
  | Some prev
    when Array.length prev.alive = n && prev.levels = snapshot.levels ->
    Array.blit snapshot.alive 0 prev.alive 0 n;
    Array.blit snapshot.battery_level 0 prev.battery_level 0 n;
    prev.locked_ports <- snapshot.locked_ports;
    prev.failed_links <- snapshot.failed_links
  | Some _ | None ->
    t.previous_snapshot <-
      Some
        {
          snapshot with
          Router.alive = Array.copy snapshot.alive;
          battery_level = Array.copy snapshot.battery_level;
        }

(* Phases 1-3 on the controller's workspace.  The workspace copies
   every row whose inputs did not move, so under a policy that ignores
   battery levels (SDR) a frame where only levels moved is billed as a
   recompute but returns an equal table and downloads nothing; the
   workspace counts the entries that moved while it writes them. *)
let compute_table t ~snapshot =
  let graph = t.config.topology.Etx_graph.Topology.graph in
  let mapping = t.config.mapping and module_count = t.config.module_count in
  match t.config.policy.Etx_routing.Policy.algorithm with
  | Etx_routing.Policy.Weighted weight ->
    Router.compute ~workspace:t.workspace ~graph ~mapping ~module_count ~weight snapshot
  | Etx_routing.Policy.Maximin_residual ->
    Etx_routing.Maximin.compute ~workspace:t.workspace ~graph ~mapping
      ~module_count snapshot

let on_frame t ~elapsed_cycles ~snapshot =
  begin
    match t.bank with
    | Finite f when f.active < Array.length f.batteries ->
      Battery.tick f.batteries.(f.active) ~cycles:elapsed_cycles
    | Finite _ | Infinite -> ()
  end;
  let leakage =
    Etx_energy.Controller_power.leakage_pj_per_cycle *. float_of_int elapsed_cycles
  in
  t.compute_energy <- t.compute_energy +. leakage;
  if not (bank_draw t ~energy:leakage) then Exhausted
  else begin
    if not (snapshot_changed t snapshot) then No_change
    else begin
      let dynamic = t.dynamic_per_recompute in
      t.compute_energy <- t.compute_energy +. dynamic;
      if not (bank_draw t ~energy:dynamic) then Exhausted
      else begin
        let table = compute_table t ~snapshot in
        t.recomputations <- t.recomputations + 1;
        Obs.inc obs_recompute;
        let download =
          float_of_int (Router.changed_entries t.workspace) *. t.instruction_energy
        in
        t.download_energy <- t.download_energy +. download;
        if not (bank_draw t ~energy:download) then Exhausted
        else begin
          remember t snapshot;
          t.table <- Some table;
          Table_updated table
        end
      end
    end
  end

let recomputations t = t.recomputations
let download_energy_pj t = t.download_energy
let compute_energy_pj t = t.compute_energy
let deaths t = t.deaths

let survivors t =
  match t.bank with
  | Infinite -> 1
  | Finite f -> Array.length f.batteries - f.active

let stranded_energy_pj t =
  match t.bank with
  | Infinite -> 0.
  | Finite f ->
    let total = ref 0. in
    Array.iter
      (fun b -> if Battery.is_dead b then total := !total +. Battery.remaining_pj b)
      f.batteries;
    !total

let residual_energy_pj t =
  match t.bank with
  | Infinite -> 0.
  | Finite f ->
    let total = ref 0. in
    Array.iter
      (fun b -> if not (Battery.is_dead b) then total := !total +. Battery.remaining_pj b)
      f.batteries;
    !total
