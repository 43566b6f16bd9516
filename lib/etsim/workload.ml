type act = { module_index : int; tag : int }

type kind =
  | Aes of { key_hex : string; schedule : Etx_aes.Key_schedule.t; decrypt : bool }
  | Synthetic

type t = {
  name : string;
  module_count : int;
  plan : act array;
  kind : kind;
}

let name t = t.name
let module_count t = t.module_count
let plan t = Array.copy t.plan
let plan_length t = Array.length t.plan

let act t ~step = t.plan.(step)

let act_at t ~step =
  if step < 0 then invalid_arg "Workload.act_at: negative step"
  else if step >= Array.length t.plan then None
  else Some t.plan.(step)

let acts_per_job t =
  let counts = Array.make t.module_count 0 in
  Array.iter (fun act -> counts.(act.module_index) <- counts.(act.module_index) + 1) t.plan;
  counts

let initial_payload t ~prng =
  ignore t;
  Etx_util.Prng.bytes prng ~len:16

let aes_op_of_act act =
  {
    Etx_aes.Partition.step = 0;
    kind = Etx_aes.Partition.module_of_index act.module_index;
    round = act.tag;
  }

let apply t act payload =
  match t.kind with
  | Synthetic -> payload
  | Aes { schedule; decrypt; _ } ->
    if decrypt then Etx_aes.Partition.apply_decrypt ~schedule (aes_op_of_act act) payload
    else Etx_aes.Partition.apply ~schedule (aes_op_of_act act) payload

let reference t payload =
  match t.kind with
  | Synthetic -> payload
  | Aes { schedule; decrypt; _ } ->
    if decrypt then Etx_aes.Partition.run_decrypt_plan ~schedule payload
    else Etx_aes.Partition.run_plan ~schedule payload

let act_of_aes_op op =
  {
    module_index = Etx_aes.Partition.module_index op.Etx_aes.Partition.kind;
    tag = op.Etx_aes.Partition.round;
  }

let aes_encrypt ~key_hex =
  let schedule = Etx_aes.Aes.schedule (Etx_aes.Aes.key_of_hex key_hex) in
  {
    name = "aes-128-encrypt";
    module_count = Etx_aes.Partition.module_count;
    plan = Array.map act_of_aes_op Etx_aes.Partition.job_plan;
    kind = Aes { key_hex; schedule; decrypt = false };
  }

let aes_decrypt ~key_hex =
  let schedule = Etx_aes.Aes.schedule (Etx_aes.Aes.key_of_hex key_hex) in
  {
    name = "aes-128-decrypt";
    module_count = Etx_aes.Partition.module_count;
    plan = Array.map act_of_aes_op Etx_aes.Partition.decrypt_plan;
    kind = Aes { key_hex; schedule; decrypt = true };
  }

(* Largest-remaining-quota interleaving: at each step pick the module
   lagging most behind its share, avoiding the module of the previous act
   when another module still has acts left. *)
let synthetic ?name:(label = "synthetic") ~acts_per_job () =
  let p = Array.length acts_per_job in
  if p = 0 then invalid_arg "Workload.synthetic: no modules";
  Array.iter
    (fun f -> if f <= 0 then invalid_arg "Workload.synthetic: acts must be positive")
    acts_per_job;
  let total = Array.fold_left ( + ) 0 acts_per_job in
  let done_counts = Array.make p 0 in
  let previous = ref (-1) in
  let pick step =
    let progress i =
      if done_counts.(i) >= acts_per_job.(i) then infinity
      else
        (* fraction of this module's quota already emitted, with a tiny
           bias so earlier modules win exact ties deterministically *)
        (float_of_int done_counts.(i) /. float_of_int acts_per_job.(i))
        +. (float_of_int i *. 1e-9)
    in
    ignore step;
    let best = ref (-1) in
    for i = 0 to p - 1 do
      let viable = progress i < infinity in
      let avoids_repeat = i <> !previous in
      if viable then
        match !best with
        | -1 -> best := i
        | b ->
          let better =
            if avoids_repeat && b = !previous then true
            else if (not avoids_repeat) && b <> !previous then false
            else progress i < progress b
          in
          if better then best := i
    done;
    done_counts.(!best) <- done_counts.(!best) + 1;
    previous := !best;
    !best
  in
  let plan =
    Array.init total (fun step -> { module_index = pick step; tag = step })
  in
  { name = label; module_count = p; plan; kind = Synthetic }

let cli_synthetic = synthetic ~name:"cli-synthetic" ~acts_per_job:[| 10; 9; 11 |] ()

(* An AES workload's plan is fixed by its name, and a synthetic one's by
   its f vector, so the name and what sets the workload apart from the
   one the name stands for are all of it *)
let fingerprint ~key_hex t =
  match t.kind with
  | Aes { key_hex = own; _ } -> if own = key_hex then t.name else t.name ^ "#key=" ^ own
  | Synthetic ->
    if t.name = cli_synthetic.name && t.plan = cli_synthetic.plan then t.name
    else
      t.name ^ "#f="
      ^ String.concat "," (Array.to_list (Array.map string_of_int (acts_per_job t)))

let problem t ~computation_energy_pj ~communication_energy_pj ~battery_budget_pj
    ~node_budget =
  Etx_routing.Problem.make ~acts_per_job:(acts_per_job t) ~computation_energy_pj
    ~communication_energy_pj ~battery_budget_pj ~node_budget
