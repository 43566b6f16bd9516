type t = {
  id : int;
  module_index : int;
  battery : Etx_battery.Battery.t;
  mutable synced_to : int;
  mutable busy_until : int;
  mutable occupancy : int;
  mutable locked_hop : int option;
  mutable offline_until : int;
}

let create ~id ~module_index ~battery =
  {
    id;
    module_index;
    battery;
    synced_to = 0;
    busy_until = 0;
    occupancy = 0;
    locked_hop = None;
    offline_until = 0;
  }

let sync t ~cycle =
  if cycle > t.synced_to then begin
    Etx_battery.Battery.tick t.battery ~cycles:(cycle - t.synced_to);
    t.synced_to <- cycle
  end

let draw t ~cycle ~energy_pj =
  sync t ~cycle;
  Etx_battery.Battery.draw t.battery ~energy_pj

let is_dead t = Etx_battery.Battery.is_dead t.battery

let level t ~cycle ~levels =
  sync t ~cycle;
  Etx_battery.Battery.level t.battery ~levels

let remaining_pj t = Etx_battery.Battery.remaining_pj t.battery
