type thin_film_params = {
  profile : Profile.t;
  cutoff_volts : float;
  available_fraction : float;
  diffusion_per_cycle : float;
  sag_volts_per_power : float;
  load_window_cycles : float;
}

type kind = Ideal | Thin_film of thin_film_params

(* What every battery of one thin-film kind shares, derived once from
   the params: the curve in flat form, the load half of the death-test
   guard and the tick decay factors.  Kept out of [thin_film_params] so
   a marshalled params record (a fingerprint digests one) keeps its
   bytes. *)
type thin_film_model = {
  params : thin_film_params;
  curve : Profile.curve;
  guard_soc : float; (* s_k of [guard]; nan when the guard is off *)
  safe_load : float;
  (* exp (-dt / window) and 1 - exp (-rate * dt) by tick length dt,
     filled on first use (nan until then) *)
  decay : float array;
  transfer : float array;
}

(* The mutable charge state lives in standalone all-float records: those
   get the flat float representation, so the per-draw and per-tick writes
   do not box.  (Inline records inside the variant cannot be flat - the
   block must carry the constructor tag - so mutable float fields there
   would allocate on every write.) *)
type ideal_state = { mutable charge : float }

type thin_film_wells = {
  mutable available : float;
  mutable bound : float;
  mutable load_power : float; (* EWMA, pJ per cycle *)
  (* the capacity half of the death-test guard: while [available >=
     safe_available] and [load_power <= model.safe_load] the output
     voltage provably clears the cutoff, so a draw skips computing it *)
  safe_available : float;
}

type state =
  | Ideal_state of ideal_state
  | Thin_film_state of { model : thin_film_model; wells : thin_film_wells }

type t = {
  kind : kind;
  capacity : float;
  state : state;
  mutable dead : bool;
  (* one-cell array: a mutable float field of this mixed record would
     box on every draw, and draw runs once per node per frame *)
  delivered : float array;
}

let default_thin_film =
  {
    profile = Profile.li_free_thin_film;
    cutoff_volts = 3.0;
    available_fraction = 0.5;
    diffusion_per_cycle = 4e-3;
    sag_volts_per_power = 0.015;
    load_window_cycles = 400.;
  }

(* The death-test guard, derived from the params alone.  Let [k] be the
   lowest curve point from which every point on up lies above the cutoff
   by more than [2 * slack], [v_g] the lowest of those voltages and
   [margin = v_g - cutoff - 2 * slack].  [slack] bounds the rounding of
   one interpolation (a few ulps of the largest voltage) and of the
   margin's own arithmetic.  Then:
   - [available >= safe_available] gives an available-well soc of at
     least [s_k] after [voltage]'s division (the threshold is [s_k]
     times the well capacity, rounded up), so the open-circuit voltage
     is at least [v_g - slack];
   - [load_power <= safe_load = margin / (2 * sag)] bounds the sag by
     [margin], rounding included;
   so the output is at least [cutoff + slack] and the battery is alive.
   When no point clears the cutoff the guard is off and every draw
   computes the voltage.  Returns [(s_k, safe_load)]. *)
let guard params =
  let points = Array.of_list (Profile.points params.profile) in
  let cutoff = params.cutoff_volts in
  let vmax = Array.fold_left (fun acc (_, v) -> Float.max acc (Float.abs v)) 0. points in
  let slack = 16. *. epsilon_float *. (vmax +. Float.abs cutoff) in
  (* walk down from the top point while the suffix minimum still clears *)
  let rec lowest k v_g best =
    if k < 0 then best
    else begin
      let v_g = Float.min v_g (snd points.(k)) in
      let margin = v_g -. cutoff -. (2. *. slack) in
      if margin > 0. then lowest (k - 1) v_g (Some (fst points.(k), margin)) else best
    end
  in
  match lowest (Array.length points - 1) infinity None with
  | None -> (nan, neg_infinity)
  | Some (soc, margin) ->
    let sag = params.sag_volts_per_power in
    (soc, if sag <= 0. then infinity else margin /. (2. *. sag))

let thin_film_model ~fn params ~tick_cache =
  if params.available_fraction <= 0. || params.available_fraction > 1. then
    invalid_arg (fn ^ ": available_fraction out of (0, 1]");
  if params.diffusion_per_cycle < 0. then invalid_arg (fn ^ ": negative diffusion rate");
  if params.load_window_cycles <= 0. then invalid_arg (fn ^ ": load window must be positive");
  let guard_soc, safe_load = guard params in
  {
    params;
    curve = Profile.curve params.profile;
    guard_soc;
    safe_load;
    decay = Array.make (tick_cache + 1) nan;
    transfer = Array.make (tick_cache + 1) nan;
  }

let of_model kind model ~capacity_pj =
  let state =
    match model with
    | None -> Ideal_state { charge = capacity_pj }
    | Some model ->
      let c = model.params.available_fraction in
      (* the soc threshold in charge, computed as [voltage] computes the
         well capacity; one ulp up covers the rounding of the product *)
      let safe_available = Float.succ (model.guard_soc *. (c *. capacity_pj)) in
      Thin_film_state
        {
          model;
          wells =
            {
              available = c *. capacity_pj;
              bound = (1. -. c) *. capacity_pj;
              load_power = 0.;
              safe_available =
                (if Float.is_finite safe_available then safe_available else infinity);
            };
        }
  in
  { kind; capacity = capacity_pj; state; dead = false; delivered = [| 0. |] }

let model_of_kind ~fn kind ~tick_cache =
  match kind with
  | Ideal -> None
  | Thin_film params -> Some (thin_film_model ~fn params ~tick_cache)

let check_capacity ~fn capacity_pj =
  if capacity_pj <= 0. then invalid_arg (fn ^ ": capacity must be positive")

let create ~kind ~capacity_pj =
  check_capacity ~fn:"Battery.create" capacity_pj;
  of_model kind (model_of_kind ~fn:"Battery.create" kind ~tick_cache:0) ~capacity_pj

let fleet ~kind ~tick_cache capacities =
  Array.iter (check_capacity ~fn:"Battery.fleet") capacities;
  let model = model_of_kind ~fn:"Battery.fleet" kind ~tick_cache in
  Array.map (fun capacity_pj -> of_model kind model ~capacity_pj) capacities

let kind t = t.kind
let capacity_pj t = t.capacity

let thin_film_voltage t model tf =
  let params = model.params in
  let well_capacity = params.available_fraction *. t.capacity in
  let soc_available = tf.available /. well_capacity in
  let open_circuit = Profile.curve_voltage model.curve ~soc:soc_available in
  let sag = params.sag_volts_per_power *. tf.load_power in
  Float.max 0. (open_circuit -. sag)

let voltage t =
  if t.dead then 0.
  else
    match t.state with
    | Ideal_state _ -> 4.2 (* ideal cell: constant voltage until depletion *)
    | Thin_film_state { model; wells } -> thin_film_voltage t model wells

let draw t ~energy_pj =
  if energy_pj < 0. then invalid_arg "Battery.draw: negative energy";
  if t.dead then false
  else
    match t.state with
    | Ideal_state s ->
      if s.charge >= energy_pj then begin
        s.charge <- s.charge -. energy_pj;
        t.delivered.(0) <- t.delivered.(0) +. energy_pj;
        (* the ideal cell dies when it is empty *)
        if s.charge <= 0. then t.dead <- true;
        true
      end
      else begin
        t.dead <- true;
        false
      end
    | Thin_film_state { model; wells = tf } ->
      if tf.available >= energy_pj then begin
        tf.available <- tf.available -. energy_pj;
        tf.load_power <- tf.load_power +. (energy_pj /. model.params.load_window_cycles);
        t.delivered.(0) <- t.delivered.(0) +. energy_pj;
        (* latch death when the output voltage crosses the cutoff *)
        if
          not (tf.available >= tf.safe_available && tf.load_power <= model.safe_load)
          && thin_film_voltage t model tf < model.params.cutoff_volts
        then t.dead <- true;
        not t.dead
      end
      else begin
        (* deep discharge of the available well: cell collapses *)
        t.dead <- true;
        false
      end

(* The tick factors, read from the model's table for a tick it covers
   (computed on first use) and computed afresh for a longer one. *)
let[@inline] decay_factor model ~cycles =
  let table = model.decay in
  let cached = cycles < Array.length table in
  let v = if cached then table.(cycles) else nan in
  if v = v then v
  else begin
    let v = exp (-.float_of_int cycles /. model.params.load_window_cycles) in
    if cached then table.(cycles) <- v;
    v
  end

let[@inline] transfer_factor model ~cycles =
  let table = model.transfer in
  let cached = cycles < Array.length table in
  let v = if cached then table.(cycles) else nan in
  if v = v then v
  else begin
    let v = 1. -. exp (-.model.params.diffusion_per_cycle *. float_of_int cycles) in
    if cached then table.(cycles) <- v;
    v
  end

let tick t ~cycles =
  if cycles < 0 then invalid_arg "Battery.tick: negative cycles";
  if (not t.dead) && cycles > 0 then
    match t.state with
    | Ideal_state _ -> ()
    | Thin_film_state { model; wells = tf } ->
      let params = model.params in
      let decay = decay_factor model ~cycles in
      tf.load_power <- tf.load_power *. decay;
      (* bound -> available diffusion driven by well-height difference *)
      let c = params.available_fraction in
      let height_available = tf.available /. c in
      let height_bound = if c >= 1. then height_available else tf.bound /. (1. -. c) in
      let gradient = height_bound -. height_available in
      if gradient > 0. then begin
        let transfer_factor = transfer_factor model ~cycles in
        let flow = gradient *. c *. (1. -. c) *. transfer_factor in
        let flow = Float.min flow tf.bound in
        tf.bound <- tf.bound -. flow;
        tf.available <- tf.available +. flow
      end

let is_dead t = t.dead

let remaining_pj t =
  match t.state with
  | Ideal_state s -> Float.max 0. s.charge
  | Thin_film_state { wells = tf; _ } -> tf.available +. tf.bound

let soc t = remaining_pj t /. t.capacity
let delivered_pj t = t.delivered.(0)

type charge = {
  dead : bool;
  delivered_pj : float;
  available_pj : float;
  bound_pj : float;
  load_power : float;
}

let dump (t : t) : charge =
  match t.state with
  | Ideal_state s ->
    { dead = t.dead; delivered_pj = t.delivered.(0); available_pj = s.charge;
      bound_pj = 0.; load_power = 0. }
  | Thin_film_state { wells = tf; _ } ->
    { dead = t.dead; delivered_pj = t.delivered.(0); available_pj = tf.available;
      bound_pj = tf.bound; load_power = tf.load_power }

let level (t : t) ~levels =
  if levels <= 0 then invalid_arg "Battery.level: levels must be positive";
  if t.dead then 0
  else begin
    (* the remaining/soc computation is open-coded: chaining through
       the float-returning helpers boxes an intermediate per call, and
       level runs once per node per control frame *)
    let remaining =
      match t.state with
      | Ideal_state s -> if s.charge > 0. then s.charge else 0.
      | Thin_film_state { wells = tf; _ } -> tf.available +. tf.bound
    in
    let raw = int_of_float (remaining /. t.capacity *. float_of_int levels) in
    if raw >= levels then levels - 1 else if raw < 0 then 0 else raw
  end
