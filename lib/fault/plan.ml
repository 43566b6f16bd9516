module Prng = Etx_util.Prng
module Topology = Etx_graph.Topology
module Digraph = Etx_graph.Digraph

type event =
  | Link_wearout of { a : int; b : int }
  | Brownout of { node : int }

type t = {
  spec : Spec.t;
  cycles : int array;  (* sorted ascending; ties keep generation order *)
  timed : event array;
  mutable cursor : int;
  data_prng : Prng.t;  (* per-packet bit-error draws *)
  control_prng : Prng.t;  (* per-frame upload/download loss draws *)
}

(* Weibull inverse-CDF: survival exp(-(t/eta)^k) inverted at a uniform
   u in [0, 1).  Characteristic life eta = 1 / (rate * length_cm): the
   hazard is proportional to the physical length of the interconnect. *)
let weibull_death ~rate ~shape ~length_cm u =
  let eta = 1. /. (rate *. length_cm) in
  eta *. ((-.log (1. -. u)) ** (1. /. shape))

let compile ~(spec : Spec.t) ~(topology : Topology.t) ~horizon () =
  if horizon <= 0 then invalid_arg "Fault.Plan.compile: horizon must be positive";
  let horizon_f = float_of_int horizon in
  let events = ref [] and count = ref 0 in
  let add cycle event =
    events := (cycle, !count, event) :: !events;
    incr count
  in
  if spec.Spec.link_wearout_rate > 0. then begin
    (* one death-time draw per undirected link, in edge id order,
       independent of the rate: raising the rate with the same seed only
       scales every death time down, so wear-out is monotone in the rate *)
    let wear_prng = Prng.create ~seed:(spec.Spec.seed lxor 0x57454152) in
    let index = Digraph.index topology.Topology.graph in
    Array.iteri
      (fun e dst ->
        let src = index.tails.(e) and length = index.lengths.(e) in
        if src < dst then begin
          let u = Prng.float wear_prng ~bound:1. in
          let death =
            weibull_death ~rate:spec.Spec.link_wearout_rate
              ~shape:spec.Spec.link_wearout_shape ~length_cm:length u
          in
          if death < horizon_f then
            add (int_of_float death) (Link_wearout { a = src; b = dst })
        end)
      index.targets
  end;
  if spec.Spec.brownout_rate > 0. then begin
    let brown_prng = Prng.create ~seed:(spec.Spec.seed lxor 0x42524F57) in
    for node = 0 to Topology.node_count topology - 1 do
      let clock = ref 0. in
      while !clock < horizon_f do
        let u = Prng.float brown_prng ~bound:1. in
        (* exponential inter-arrival, floored at one cycle so absurd
           rates still terminate *)
        let dt = Float.max 1. (-.log (1. -. u) /. spec.Spec.brownout_rate) in
        clock := !clock +. dt;
        if !clock < horizon_f then add (int_of_float !clock) (Brownout { node })
      done
    done
  end;
  let indexed = Array.of_list !events in
  Array.sort
    (fun (c1, i1, _) (c2, i2, _) -> if c1 <> c2 then compare c1 c2 else compare i1 i2)
    indexed;
  {
    spec;
    cycles = Array.map (fun (c, _, _) -> c) indexed;
    timed = Array.map (fun (_, _, e) -> e) indexed;
    cursor = 0;
    data_prng = Prng.create ~seed:(spec.Spec.seed lxor 0x44415441);
    control_prng = Prng.create ~seed:(spec.Spec.seed lxor 0x4354524C);
  }

let spec t = t.spec
let event_count t = Array.length t.timed

let events t = List.init (Array.length t.timed) (fun i -> (t.cycles.(i), t.timed.(i)))

let next_cycle t = if t.cursor < Array.length t.cycles then t.cycles.(t.cursor) else max_int

let iter_due t ~cycle ~f =
  while t.cursor < Array.length t.cycles && t.cycles.(t.cursor) <= cycle do
    let event = t.timed.(t.cursor) in
    t.cursor <- t.cursor + 1;
    f event
  done

let error_probability t ~bits ~length_cm =
  let ber = t.spec.Spec.bit_error_rate in
  if ber <= 0. then 0. else -.Float.expm1 (-.ber *. float_of_int bits *. length_cm)

let corrupt_packet t ~bits ~length_cm =
  let p = error_probability t ~bits ~length_cm in
  p > 0. && Prng.float t.data_prng ~bound:1. < p

let bernoulli prng rate = rate > 0. && Prng.float prng ~bound:1. < rate

let drop_upload t = bernoulli t.control_prng t.spec.Spec.upload_loss_rate
let drop_download t = bernoulli t.control_prng t.spec.Spec.download_loss_rate
