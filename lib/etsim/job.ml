type phase =
  | Waiting of { node : int; since : int; retry_at : int }
  | Computing of { node : int; until : int }
  | In_transit of { src : int; dst : int; edge : int; until : int; attempt : int }

type t = {
  id : int;
  workload : Workload.t;
  payload0 : Bytes.t;
  expected : Bytes.t;
  mutable payload : Bytes.t;
  mutable step : int;
  mutable phase : phase;
  launched_at : int;
}

let launch ~id ~workload ~payload ~expected ~entry ~cycle =
  {
    id;
    workload;
    payload0 = Bytes.copy payload;
    expected = Bytes.copy expected;
    payload = Bytes.copy payload;
    step = 0;
    phase = Waiting { node = entry; since = cycle; retry_at = cycle };
    launched_at = cycle;
  }

let finished t = t.step >= Workload.plan_length t.workload

let next_act t ~caller =
  if finished t then invalid_arg (caller ^ ": job already finished");
  Workload.act t.workload ~step:t.step

let needed_module t = (next_act t ~caller:"Job.needed_module").Workload.module_index

let apply_act t =
  let act = next_act t ~caller:"Job.apply_act" in
  t.payload <- Workload.apply t.workload act t.payload;
  t.step <- t.step + 1

let verified t = Bytes.equal t.payload t.expected

let ready_at t =
  match t.phase with
  | Waiting { retry_at; _ } -> retry_at
  | Computing { until; _ } -> until
  | In_transit { until; _ } -> until

let current_node t =
  match t.phase with
  | Waiting { node; _ } -> node
  | Computing { node; _ } -> node
  | In_transit { dst; _ } -> dst
