let dynamic_pj_per_cycle = Etx_util.Units.picojoules_per_cycle_of_milliwatts 6.94
let leakage_pj_per_cycle = Etx_util.Units.picojoules_per_cycle_of_milliwatts 0.57
