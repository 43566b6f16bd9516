type death_reason =
  | Job_lost_to_node_death of { node : int; job : int }
  | Module_unreachable of { module_index : int; from_node : int }
  | Entry_node_dead of { node : int }
  | Controllers_exhausted
  | Cycle_limit
  | Job_limit
  | Job_lost_to_brownout of { node : int; job : int }

type t = {
  jobs_completed : int;
  jobs_verified : int;
  jobs_lost : int;
  lifetime_cycles : int;
  death_reason : death_reason;
  computation_energy_pj : float;
  communication_energy_pj : float;
  control_upload_energy_pj : float;
  control_download_energy_pj : float;
  controller_compute_energy_pj : float;
  stranded_node_energy_pj : float;
  residual_node_energy_pj : float;
  stranded_controller_energy_pj : float;
  residual_controller_energy_pj : float;
  node_deaths : int;
  links_failed : int;
  controller_deaths : int;
  recomputations : int;
  frames : int;
  deadlocks_reported : int;
  deadlocks_recovered : int;
  hops_total : int;
  acts_total : int;
  jobs_launched : int;
  retransmissions : int;
  packets_corrupted : int;
  packets_dropped : int;
  link_wearouts : int;
  brownouts : int;
  uploads_dropped : int;
  downloads_dropped : int;
  stale_reports_total : int;
  stale_reports_max : int;
  computation_energy_by_module_pj : float array;
  job_latency_mean_cycles : float;
  job_latency_max_cycles : int;
}

let mean_hops_per_act t =
  if t.acts_total = 0 then 0.
  else float_of_int t.hops_total /. float_of_int t.acts_total

let control_energy_pj t = t.control_upload_energy_pj +. t.control_download_energy_pj

let total_consumed_energy_pj t =
  t.computation_energy_pj +. t.communication_energy_pj +. control_energy_pj t

let control_overhead_fraction t =
  let total = total_consumed_energy_pj t in
  if total <= 0. then 0. else control_energy_pj t /. total

let death_reason_string = function
  | Job_lost_to_node_death { node; job } ->
    Printf.sprintf "job %d lost: node %d depleted while serving it" job node
  | Module_unreachable { module_index; from_node } ->
    Printf.sprintf "no living duplicate of module %d reachable from node %d"
      (module_index + 1) from_node
  | Entry_node_dead { node } -> Printf.sprintf "entry node %d dead" node
  | Controllers_exhausted -> "all central controllers depleted"
  | Cycle_limit -> "cycle limit reached"
  | Job_limit -> "job cap reached"
  | Job_lost_to_brownout { node; job } ->
    Printf.sprintf "job %d lost: node %d browned out while holding it" job node

let pp fmt t =
  Format.fprintf fmt
    "@[<v>jobs completed: %d (verified %d, lost %d)@,\
     lifetime: %d cycles@,\
     death: %s@,\
     energy (pJ): computation %.1f, communication %.1f, control %.1f (%.2f%%)@,\
     controller compute: %.1f@,\
     stranded in dead nodes: %.1f; residual in living nodes: %.1f@,\
     node deaths: %d; recomputations: %d over %d frames@,\
     deadlocks: %d reported, %d recovered@,\
     totals: %d acts, %d hops@,\
     faults: %d wear-outs, %d brownouts, %d corrupted (%d retransmitted, %d \
     dropped)@,\
     control loss: %d uploads, %d downloads; stale reports: %d (worst %d)@]"
    t.jobs_completed t.jobs_verified t.jobs_lost t.lifetime_cycles
    (death_reason_string t.death_reason)
    t.computation_energy_pj t.communication_energy_pj (control_energy_pj t)
    (100. *. control_overhead_fraction t)
    t.controller_compute_energy_pj t.stranded_node_energy_pj t.residual_node_energy_pj
    t.node_deaths t.recomputations t.frames t.deadlocks_reported t.deadlocks_recovered
    t.acts_total t.hops_total t.link_wearouts t.brownouts t.packets_corrupted
    t.retransmissions t.packets_dropped t.uploads_dropped t.downloads_dropped
    t.stale_reports_total t.stale_reports_max

(* Binary serialization for sweep runs' store entries (Checkpoint
   payload idiom: fixed field order, no self-description). *)

let write_death_reason w = function
  | Job_lost_to_node_death { node; job } ->
    Checkpoint.Writer.byte w 0;
    Checkpoint.Writer.int w node;
    Checkpoint.Writer.int w job
  | Module_unreachable { module_index; from_node } ->
    Checkpoint.Writer.byte w 1;
    Checkpoint.Writer.int w module_index;
    Checkpoint.Writer.int w from_node
  | Entry_node_dead { node } ->
    Checkpoint.Writer.byte w 2;
    Checkpoint.Writer.int w node
  | Controllers_exhausted -> Checkpoint.Writer.byte w 3
  | Cycle_limit -> Checkpoint.Writer.byte w 4
  | Job_limit -> Checkpoint.Writer.byte w 5
  | Job_lost_to_brownout { node; job } ->
    Checkpoint.Writer.byte w 6;
    Checkpoint.Writer.int w node;
    Checkpoint.Writer.int w job

let read_death_reason r =
  match Checkpoint.Reader.byte r with
  | 0 ->
    let node = Checkpoint.Reader.int r in
    let job = Checkpoint.Reader.int r in
    Job_lost_to_node_death { node; job }
  | 1 ->
    let module_index = Checkpoint.Reader.int r in
    let from_node = Checkpoint.Reader.int r in
    Module_unreachable { module_index; from_node }
  | 2 -> Entry_node_dead { node = Checkpoint.Reader.int r }
  | 3 -> Controllers_exhausted
  | 4 -> Cycle_limit
  | 5 -> Job_limit
  | 6 ->
    let node = Checkpoint.Reader.int r in
    let job = Checkpoint.Reader.int r in
    Job_lost_to_brownout { node; job }
  | n -> raise (Checkpoint.Error (Checkpoint.Malformed (Printf.sprintf "death reason tag %d" n)))

let write w t =
  Checkpoint.Writer.int w t.jobs_completed;
  Checkpoint.Writer.int w t.jobs_verified;
  Checkpoint.Writer.int w t.jobs_lost;
  Checkpoint.Writer.int w t.lifetime_cycles;
  write_death_reason w t.death_reason;
  Checkpoint.Writer.float w t.computation_energy_pj;
  Checkpoint.Writer.float w t.communication_energy_pj;
  Checkpoint.Writer.float w t.control_upload_energy_pj;
  Checkpoint.Writer.float w t.control_download_energy_pj;
  Checkpoint.Writer.float w t.controller_compute_energy_pj;
  Checkpoint.Writer.float w t.stranded_node_energy_pj;
  Checkpoint.Writer.float w t.residual_node_energy_pj;
  Checkpoint.Writer.float w t.stranded_controller_energy_pj;
  Checkpoint.Writer.float w t.residual_controller_energy_pj;
  Checkpoint.Writer.int w t.node_deaths;
  Checkpoint.Writer.int w t.links_failed;
  Checkpoint.Writer.int w t.controller_deaths;
  Checkpoint.Writer.int w t.recomputations;
  Checkpoint.Writer.int w t.frames;
  Checkpoint.Writer.int w t.deadlocks_reported;
  Checkpoint.Writer.int w t.deadlocks_recovered;
  Checkpoint.Writer.int w t.hops_total;
  Checkpoint.Writer.int w t.acts_total;
  Checkpoint.Writer.int w t.jobs_launched;
  Checkpoint.Writer.int w t.retransmissions;
  Checkpoint.Writer.int w t.packets_corrupted;
  Checkpoint.Writer.int w t.packets_dropped;
  Checkpoint.Writer.int w t.link_wearouts;
  Checkpoint.Writer.int w t.brownouts;
  Checkpoint.Writer.int w t.uploads_dropped;
  Checkpoint.Writer.int w t.downloads_dropped;
  Checkpoint.Writer.int w t.stale_reports_total;
  Checkpoint.Writer.int w t.stale_reports_max;
  Checkpoint.Writer.float_array w t.computation_energy_by_module_pj;
  Checkpoint.Writer.float w t.job_latency_mean_cycles;
  Checkpoint.Writer.int w t.job_latency_max_cycles

let read r =
  let jobs_completed = Checkpoint.Reader.int r in
  let jobs_verified = Checkpoint.Reader.int r in
  let jobs_lost = Checkpoint.Reader.int r in
  let lifetime_cycles = Checkpoint.Reader.int r in
  let death_reason = read_death_reason r in
  let computation_energy_pj = Checkpoint.Reader.float r in
  let communication_energy_pj = Checkpoint.Reader.float r in
  let control_upload_energy_pj = Checkpoint.Reader.float r in
  let control_download_energy_pj = Checkpoint.Reader.float r in
  let controller_compute_energy_pj = Checkpoint.Reader.float r in
  let stranded_node_energy_pj = Checkpoint.Reader.float r in
  let residual_node_energy_pj = Checkpoint.Reader.float r in
  let stranded_controller_energy_pj = Checkpoint.Reader.float r in
  let residual_controller_energy_pj = Checkpoint.Reader.float r in
  let node_deaths = Checkpoint.Reader.int r in
  let links_failed = Checkpoint.Reader.int r in
  let controller_deaths = Checkpoint.Reader.int r in
  let recomputations = Checkpoint.Reader.int r in
  let frames = Checkpoint.Reader.int r in
  let deadlocks_reported = Checkpoint.Reader.int r in
  let deadlocks_recovered = Checkpoint.Reader.int r in
  let hops_total = Checkpoint.Reader.int r in
  let acts_total = Checkpoint.Reader.int r in
  let jobs_launched = Checkpoint.Reader.int r in
  let retransmissions = Checkpoint.Reader.int r in
  let packets_corrupted = Checkpoint.Reader.int r in
  let packets_dropped = Checkpoint.Reader.int r in
  let link_wearouts = Checkpoint.Reader.int r in
  let brownouts = Checkpoint.Reader.int r in
  let uploads_dropped = Checkpoint.Reader.int r in
  let downloads_dropped = Checkpoint.Reader.int r in
  let stale_reports_total = Checkpoint.Reader.int r in
  let stale_reports_max = Checkpoint.Reader.int r in
  let computation_energy_by_module_pj = Checkpoint.Reader.float_array r in
  let job_latency_mean_cycles = Checkpoint.Reader.float r in
  let job_latency_max_cycles = Checkpoint.Reader.int r in
  {
    jobs_completed;
    jobs_verified;
    jobs_lost;
    lifetime_cycles;
    death_reason;
    computation_energy_pj;
    communication_energy_pj;
    control_upload_energy_pj;
    control_download_energy_pj;
    controller_compute_energy_pj;
    stranded_node_energy_pj;
    residual_node_energy_pj;
    stranded_controller_energy_pj;
    residual_controller_energy_pj;
    node_deaths;
    links_failed;
    controller_deaths;
    recomputations;
    frames;
    deadlocks_reported;
    deadlocks_recovered;
    hops_total;
    acts_total;
    jobs_launched;
    retransmissions;
    packets_corrupted;
    packets_dropped;
    link_wearouts;
    brownouts;
    uploads_dropped;
    downloads_dropped;
    stale_reports_total;
    stale_reports_max;
    computation_energy_by_module_pj;
    job_latency_mean_cycles;
    job_latency_max_cycles;
  }

(* JSON serialization for the serving layer: every field of [t], plus
   the derived quantities the paper reports, in one flat object.  Field
   order is fixed, so the rendering is deterministic and cacheable. *)
let to_json t =
  let module J = Etx_util.Json in
  let i n = J.Int n in
  let f x = J.float_lenient x in
  J.Obj
    [
      ("jobs_completed", i t.jobs_completed);
      ("jobs_verified", i t.jobs_verified);
      ("jobs_lost", i t.jobs_lost);
      ("jobs_launched", i t.jobs_launched);
      ("lifetime_cycles", i t.lifetime_cycles);
      ("death_reason", J.String (death_reason_string t.death_reason));
      ("computation_energy_pj", f t.computation_energy_pj);
      ("communication_energy_pj", f t.communication_energy_pj);
      ("control_upload_energy_pj", f t.control_upload_energy_pj);
      ("control_download_energy_pj", f t.control_download_energy_pj);
      ("controller_compute_energy_pj", f t.controller_compute_energy_pj);
      ("stranded_node_energy_pj", f t.stranded_node_energy_pj);
      ("residual_node_energy_pj", f t.residual_node_energy_pj);
      ("stranded_controller_energy_pj", f t.stranded_controller_energy_pj);
      ("residual_controller_energy_pj", f t.residual_controller_energy_pj);
      ("control_energy_pj", f (control_energy_pj t));
      ("control_overhead_fraction", f (control_overhead_fraction t));
      ("mean_hops_per_act", f (mean_hops_per_act t));
      ("node_deaths", i t.node_deaths);
      ("links_failed", i t.links_failed);
      ("controller_deaths", i t.controller_deaths);
      ("recomputations", i t.recomputations);
      ("frames", i t.frames);
      ("deadlocks_reported", i t.deadlocks_reported);
      ("deadlocks_recovered", i t.deadlocks_recovered);
      ("hops_total", i t.hops_total);
      ("acts_total", i t.acts_total);
      ("retransmissions", i t.retransmissions);
      ("packets_corrupted", i t.packets_corrupted);
      ("packets_dropped", i t.packets_dropped);
      ("link_wearouts", i t.link_wearouts);
      ("brownouts", i t.brownouts);
      ("uploads_dropped", i t.uploads_dropped);
      ("downloads_dropped", i t.downloads_dropped);
      ("stale_reports_total", i t.stale_reports_total);
      ("stale_reports_max", i t.stale_reports_max);
      ( "computation_energy_by_module_pj",
        J.List (Array.to_list (Array.map f t.computation_energy_by_module_pj)) );
      ("job_latency_mean_cycles", f t.job_latency_mean_cycles);
      ("job_latency_max_cycles", i t.job_latency_max_cycles);
    ]
