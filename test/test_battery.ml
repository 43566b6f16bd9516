(* Tests for etx_battery: discharge profiles and the ideal / thin-film
   battery models, including the rate-capacity and recovery effects the
   EAR-vs-SDR comparison depends on. *)

module Profile = Etx_battery.Profile
module Battery = Etx_battery.Battery

let check_float = Alcotest.(check (float 1e-9))
let check_float_eps eps = Alcotest.(check (float eps))

let thin_film_kind ?(params = Battery.default_thin_film) () = Battery.Thin_film params

(* - Profile - *)

let test_profile_anchor_exactness () =
  let p = Profile.li_free_thin_film in
  check_float "full" 4.20 (Profile.voltage p ~soc:1.0);
  check_float "half" 3.85 (Profile.voltage p ~soc:0.5);
  check_float "knee" 3.10 (Profile.voltage p ~soc:0.02);
  check_float "empty" 2.50 (Profile.voltage p ~soc:0.0)

let test_profile_interpolates () =
  let p = Profile.piecewise_linear [ (0., 1.); (1., 3.) ] in
  check_float "midpoint" 2. (Profile.voltage p ~soc:0.5);
  check_float "quarter" 1.5 (Profile.voltage p ~soc:0.25)

let test_profile_clamps () =
  let p = Profile.piecewise_linear [ (0.2, 1.); (0.8, 3.) ] in
  check_float "below range" 1. (Profile.voltage p ~soc:0.);
  check_float "above range" 3. (Profile.voltage p ~soc:1.)

let test_profile_monotone () =
  let p = Profile.li_free_thin_film in
  let previous = ref (Profile.voltage p ~soc:0.) in
  for i = 1 to 100 do
    let v = Profile.voltage p ~soc:(float_of_int i /. 100.) in
    Alcotest.(check bool) "non-decreasing in soc" true (v >= !previous);
    previous := v
  done

let test_profile_soc_at_voltage () =
  let p = Profile.li_free_thin_film in
  let soc = Profile.soc_at_voltage p ~volts:3.0 in
  check_float_eps 1e-9 "3.0 V crossing interpolated" soc
    (0.02 *. (3.0 -. 2.50) /. (3.10 -. 2.50));
  (* the curve reaches 3.0 V with very little charge left *)
  Alcotest.(check bool) "little stranded at low rate" true (soc < 0.03);
  check_float "never below: full" 0. (Profile.soc_at_voltage p ~volts:2.0);
  check_float "always below" 1. (Profile.soc_at_voltage p ~volts:5.0)

let test_profile_constant () =
  let p = Profile.constant ~volts:4.0 in
  check_float "flat" 4.0 (Profile.voltage p ~soc:0.3);
  check_float "flat full" 4.0 (Profile.voltage p ~soc:1.)

let test_profile_validation () =
  Alcotest.check_raises "one point"
    (Invalid_argument "Profile.piecewise_linear: need at least two points") (fun () ->
      ignore (Profile.piecewise_linear [ (0.5, 1.) ]));
  Alcotest.check_raises "out of range"
    (Invalid_argument "Profile.piecewise_linear: soc out of [0, 1]") (fun () ->
      ignore (Profile.piecewise_linear [ (0., 1.); (1.5, 2.) ]));
  Alcotest.check_raises "duplicate"
    (Invalid_argument "Profile.piecewise_linear: duplicate soc") (fun () ->
      ignore (Profile.piecewise_linear [ (0.5, 1.); (0.5, 2.); (1., 3.) ]))

let test_profile_points_sorted () =
  let p = Profile.piecewise_linear [ (1., 4.); (0., 2.); (0.5, 3.) ] in
  Alcotest.(check (list (pair (float 0.) (float 0.)))) "sorted ascending"
    [ (0., 2.); (0.5, 3.); (1., 4.) ]
    (Profile.points p)

(* - Ideal battery - *)

let test_ideal_accounting () =
  let b = Battery.create ~kind:Battery.Ideal ~capacity_pj:1000. in
  Alcotest.(check bool) "draw ok" true (Battery.draw b ~energy_pj:400.);
  check_float "remaining" 600. (Battery.remaining_pj b);
  check_float "delivered" 400. (Battery.delivered_pj b);
  check_float "soc" 0.6 (Battery.soc b);
  Alcotest.(check bool) "alive" false (Battery.is_dead b)

let test_ideal_death_at_zero () =
  let b = Battery.create ~kind:Battery.Ideal ~capacity_pj:100. in
  Alcotest.(check bool) "drain exactly" true (Battery.draw b ~energy_pj:100.);
  Alcotest.(check bool) "dead at zero" true (Battery.is_dead b);
  check_float "voltage zero when dead" 0. (Battery.voltage b)

let test_ideal_overdraw_fails () =
  let b = Battery.create ~kind:Battery.Ideal ~capacity_pj:100. in
  Alcotest.(check bool) "overdraw rejected" false (Battery.draw b ~energy_pj:150.);
  Alcotest.(check bool) "and kills" true (Battery.is_dead b);
  Alcotest.(check bool) "subsequent draws fail" false (Battery.draw b ~energy_pj:1.)

let test_ideal_efficiency_100 () =
  (* the paper's ideal cell delivers its whole capacity *)
  let b = Battery.create ~kind:Battery.Ideal ~capacity_pj:1000. in
  let delivered = ref 0. in
  while Battery.draw b ~energy_pj:7. do
    delivered := !delivered +. 7.
  done;
  Alcotest.(check bool) "nearly all capacity delivered" true (!delivered >= 1000. -. 7.)

let test_ideal_tick_noop () =
  let b = Battery.create ~kind:Battery.Ideal ~capacity_pj:100. in
  ignore (Battery.draw b ~energy_pj:40.);
  Battery.tick b ~cycles:100000;
  check_float "no recovery for ideal" 60. (Battery.remaining_pj b)

let test_negative_draw_rejected () =
  let b = Battery.create ~kind:Battery.Ideal ~capacity_pj:100. in
  Alcotest.check_raises "negative" (Invalid_argument "Battery.draw: negative energy")
    (fun () -> ignore (Battery.draw b ~energy_pj:(-1.)))

let test_create_validation () =
  Alcotest.check_raises "capacity" (Invalid_argument "Battery.create: capacity must be positive")
    (fun () -> ignore (Battery.create ~kind:Battery.Ideal ~capacity_pj:0.));
  Alcotest.check_raises "fraction"
    (Invalid_argument "Battery.create: available_fraction out of (0, 1]") (fun () ->
      ignore
        (Battery.create
           ~kind:(thin_film_kind ~params:{ Battery.default_thin_film with available_fraction = 0. } ())
           ~capacity_pj:100.))

(* - Thin-film battery - *)

let test_thin_film_full_voltage () =
  let b = Battery.create ~kind:(thin_film_kind ()) ~capacity_pj:60000. in
  check_float_eps 0.01 "rest voltage = top of Fig 2" 4.20 (Battery.voltage b)

let test_thin_film_draw_reduces_soc () =
  let b = Battery.create ~kind:(thin_film_kind ()) ~capacity_pj:60000. in
  Alcotest.(check bool) "draw" true (Battery.draw b ~energy_pj:6000.);
  check_float "soc" 0.9 (Battery.soc b);
  check_float "remaining" 54000. (Battery.remaining_pj b)

let test_thin_film_sag_under_load () =
  let b = Battery.create ~kind:(thin_film_kind ()) ~capacity_pj:60000. in
  let rested = Battery.voltage b in
  ignore (Battery.draw b ~energy_pj:2000.);
  let loaded = Battery.voltage b in
  Alcotest.(check bool) "voltage sags under load" true (loaded < rested)

let test_thin_film_sag_recovers_when_idle () =
  let b = Battery.create ~kind:(thin_film_kind ()) ~capacity_pj:60000. in
  ignore (Battery.draw b ~energy_pj:2000.);
  let loaded = Battery.voltage b in
  Battery.tick b ~cycles:10_000;
  let rested = Battery.voltage b in
  Alcotest.(check bool) "rest raises voltage" true (rested > loaded)

let test_thin_film_recovery_moves_bound_charge () =
  (* drain the available well, rest, and observe the available well
     partially refill from the bound well *)
  let params = { Battery.default_thin_film with sag_volts_per_power = 0. } in
  let b = Battery.create ~kind:(thin_film_kind ~params ()) ~capacity_pj:1000. in
  (* available well = 500; drain most of it *)
  Alcotest.(check bool) "big draw ok" true (Battery.draw b ~energy_pj:400.);
  let v_drained = Battery.voltage b in
  Battery.tick b ~cycles:5000;
  let v_rested = Battery.voltage b in
  Alcotest.(check bool) "recovery raised open-circuit voltage" true (v_rested > v_drained);
  check_float_eps 1e-6 "total charge conserved" 600. (Battery.remaining_pj b)

let test_thin_film_dies_at_cutoff_with_stranded_energy () =
  let b = Battery.create ~kind:(thin_film_kind ()) ~capacity_pj:60000. in
  let guard = ref 0 in
  while (not (Battery.is_dead b)) && !guard < 1_000_000 do
    ignore (Battery.draw b ~energy_pj:30.);
    Battery.tick b ~cycles:2;
    incr guard
  done;
  Alcotest.(check bool) "died" true (Battery.is_dead b);
  Alcotest.(check bool) "stranded energy wasted (paper Sec 5.1.3)" true
    (Battery.remaining_pj b > 0.);
  check_float "dead voltage" 0. (Battery.voltage b)

let test_thin_film_sustained_load_strands_more () =
  (* the rate-capacity effect: a hammered cell dies with more charge
     stranded than a gently used one *)
  let drain ~energy ~rest =
    let b = Battery.create ~kind:(thin_film_kind ()) ~capacity_pj:60000. in
    let guard = ref 0 in
    while (not (Battery.is_dead b)) && !guard < 2_000_000 do
      ignore (Battery.draw b ~energy_pj:energy);
      Battery.tick b ~cycles:rest;
      incr guard
    done;
    Battery.remaining_pj b
  in
  let hammered = drain ~energy:300. ~rest:1 in
  let gentle = drain ~energy:30. ~rest:100 in
  Alcotest.(check bool) "hammered cell strands more" true (hammered > gentle)

let test_thin_film_delivers_more_with_rest () =
  let total_delivered ~energy ~rest =
    let b = Battery.create ~kind:(thin_film_kind ()) ~capacity_pj:60000. in
    let guard = ref 0 in
    while (not (Battery.is_dead b)) && !guard < 2_000_000 do
      ignore (Battery.draw b ~energy_pj:energy);
      Battery.tick b ~cycles:rest;
      incr guard
    done;
    Battery.delivered_pj b
  in
  Alcotest.(check bool) "rested cell delivers more" true
    (total_delivered ~energy:50. ~rest:200 > total_delivered ~energy:50. ~rest:1)

let test_thin_film_death_latches () =
  let b = Battery.create ~kind:(thin_film_kind ()) ~capacity_pj:60000. in
  while not (Battery.is_dead b) do
    ignore (Battery.draw b ~energy_pj:500.)
  done;
  Battery.tick b ~cycles:1_000_000;
  Alcotest.(check bool) "no resurrection" true (Battery.is_dead b)

let test_level_quantization () =
  let b = Battery.create ~kind:Battery.Ideal ~capacity_pj:1000. in
  Alcotest.(check int) "full = top level" 7 (Battery.level b ~levels:8);
  ignore (Battery.draw b ~energy_pj:500.);
  Alcotest.(check int) "half = level 4 of 8" 4 (Battery.level b ~levels:8);
  ignore (Battery.draw b ~energy_pj:499.);
  Alcotest.(check int) "nearly empty = 0" 0 (Battery.level b ~levels:8);
  ignore (Battery.draw b ~energy_pj:10.);
  Alcotest.(check int) "dead reports 0" 0 (Battery.level b ~levels:8)

let test_level_validation () =
  let b = Battery.create ~kind:Battery.Ideal ~capacity_pj:1. in
  Alcotest.check_raises "levels" (Invalid_argument "Battery.level: levels must be positive")
    (fun () -> ignore (Battery.level b ~levels:0))

let prop_conservation =
  QCheck.Test.make ~name:"battery: delivered + remaining <= capacity" ~count:100
    QCheck.(pair (int_range 1 400) (int_range 0 200))
    (fun (draw_units, rest) ->
      let b = Battery.create ~kind:(thin_film_kind ()) ~capacity_pj:10000. in
      for _ = 1 to 50 do
        ignore (Battery.draw b ~energy_pj:(float_of_int draw_units));
        Battery.tick b ~cycles:rest
      done;
      Battery.delivered_pj b +. Battery.remaining_pj b <= 10000. +. 1e-6)

let prop_level_in_range =
  QCheck.Test.make ~name:"battery: level always in [0, levels)" ~count:100
    QCheck.(pair (int_range 2 32) (int_range 0 120))
    (fun (levels, draws) ->
      let b = Battery.create ~kind:(thin_film_kind ()) ~capacity_pj:5000. in
      let ok = ref true in
      for _ = 1 to draws do
        ignore (Battery.draw b ~energy_pj:50.);
        let l = Battery.level b ~levels in
        if l < 0 || l >= levels then ok := false
      done;
      !ok)

let prop_soc_monotone_under_draws =
  QCheck.Test.make ~name:"battery: soc never increases from draws alone" ~count:100
    QCheck.(list_of_size Gen.(1 -- 60) (int_range 1 200))
    (fun draws ->
      let b = Battery.create ~kind:(thin_film_kind ()) ~capacity_pj:8000. in
      let ok = ref true in
      let previous = ref (Battery.soc b) in
      List.iter
        (fun d ->
          ignore (Battery.draw b ~energy_pj:(float_of_int d));
          let s = Battery.soc b in
          if s > !previous +. 1e-9 then ok := false;
          previous := s)
        draws;
      !ok)

(* - Reference model: the thin-film draw/tick formulas exactly as they
   stood before the death-test guard, the flat curve and the decay
   cache, kept as the oracle those three must match bit for bit - *)

module Reference = struct
  type t = {
    params : Battery.thin_film_params;
    points : (float * float) array;
    capacity : float;
    mutable available : float;
    mutable bound : float;
    mutable load_power : float;
    mutable dead : bool;
    mutable delivered : float;
  }

  let create (params : Battery.thin_film_params) ~capacity =
    let c = params.available_fraction in
    {
      params;
      points = Array.of_list (Profile.points params.profile);
      capacity;
      available = c *. capacity;
      bound = (1. -. c) *. capacity;
      load_power = 0.;
      dead = false;
      delivered = 0.;
    }

  let profile_voltage points ~soc =
    let n = Array.length points in
    if soc <= fst points.(0) then snd points.(0)
    else if soc >= fst points.(n - 1) then snd points.(n - 1)
    else begin
      let rec seek i = if fst points.(i + 1) >= soc then i else seek (i + 1) in
      let i = seek 0 in
      let s0, v0 = points.(i) and s1, v1 = points.(i + 1) in
      v0 +. ((v1 -. v0) *. (soc -. s0) /. (s1 -. s0))
    end

  let voltage r =
    if r.dead then 0.
    else begin
      let well_capacity = r.params.available_fraction *. r.capacity in
      let open_circuit = profile_voltage r.points ~soc:(r.available /. well_capacity) in
      let sag = r.params.sag_volts_per_power *. r.load_power in
      Float.max 0. (open_circuit -. sag)
    end

  let draw r ~energy_pj =
    if r.dead then false
    else if r.available >= energy_pj then begin
      r.available <- r.available -. energy_pj;
      r.load_power <- r.load_power +. (energy_pj /. r.params.load_window_cycles);
      r.delivered <- r.delivered +. energy_pj;
      if voltage r < r.params.cutoff_volts then r.dead <- true;
      not r.dead
    end
    else begin
      r.dead <- true;
      false
    end

  let tick r ~cycles =
    if (not r.dead) && cycles > 0 then begin
      let p = r.params in
      let dt = float_of_int cycles in
      r.load_power <- r.load_power *. exp (-.dt /. p.load_window_cycles);
      let c = p.available_fraction in
      let height_available = r.available /. c in
      let height_bound = if c >= 1. then height_available else r.bound /. (1. -. c) in
      let gradient = height_bound -. height_available in
      if gradient > 0. then begin
        let transfer_factor = 1. -. exp (-.p.diffusion_per_cycle *. dt) in
        let flow = gradient *. c *. (1. -. c) *. transfer_factor in
        let flow = Float.min flow r.bound in
        r.bound <- r.bound -. flow;
        r.available <- r.available +. flow
      end
    end
end

type battery_op = Draw of float | Tick of int

type battery_case = {
  params : Battery.thin_film_params;
  capacity : float;
  tick_cache : int;
  ops : battery_op list;
}

let gen_battery_case =
  let open QCheck.Gen in
  let* shape = int_bound 2 (* 0 monotone, 1 non-monotone, 2 flat *) in
  let* socs = list_size (1 -- 7) (float_bound_inclusive 1.) in
  let* ends = pair bool bool in
  let socs =
    List.sort_uniq compare
      ((if fst ends then [ 0. ] else []) @ (if snd ends then [ 1. ] else []) @ socs)
  in
  let socs = if List.length socs < 2 then [ 0.; 1. ] else socs in
  let* volts = list_repeat (List.length socs) (float_range 2. 4.5) in
  let volts =
    match shape with
    | 0 -> List.sort compare volts
    | 1 -> volts
    | _ -> List.map (fun _ -> List.hd volts) volts
  in
  let points = List.combine socs volts in
  let vmin = List.fold_left Float.min infinity volts in
  let vmax = List.fold_left Float.max neg_infinity volts in
  let* cutoff =
    oneof
      [
        float_range (vmin -. 1.) vmin;
        float_range vmin vmax;
        oneofl volts (* exactly at a point *);
        float_range vmax (vmax +. 1.) (* above the whole curve: the guard is off *);
      ]
  in
  let* available_fraction = oneof [ return 1.; float_range 0.05 1. ] in
  let* diffusion_per_cycle = oneof [ return 0.; float_range 1e-6 1e-2 ] in
  let* sag_volts_per_power = oneof [ return 0.; float_range 1e-4 0.1 ] in
  let* load_window_cycles = float_range 1. 1000. in
  let* capacity = float_range 100. 1e5 in
  let* tick_cache = int_bound 100 in
  let op =
    frequency
      [
        (4, map (fun f -> Draw (f *. capacity /. 200.)) (float_bound_inclusive 1.));
        (1, map (fun f -> Draw (f *. capacity /. 4.)) (float_bound_inclusive 1.));
        (1, return (Draw 0.));
        (1, return (Tick 0));
        (3, map (fun dt -> Tick dt) (1 -- (tick_cache + 1)));
        (1, map (fun dt -> Tick dt) ((tick_cache + 1) -- 5000));
        (1, return (Tick 1_000_000));
      ]
  in
  let* ops = list_size (1 -- 300) op in
  let params =
    {
      Battery.profile = Profile.piecewise_linear points;
      cutoff_volts = cutoff;
      available_fraction;
      diffusion_per_cycle;
      sag_volts_per_power;
      load_window_cycles;
    }
  in
  return { params; capacity; tick_cache; ops }

let print_battery_case c =
  let p = c.params in
  Printf.sprintf
    "points=[%s] cutoff=%h c=%h diffusion=%h sag=%h window=%h capacity=%h cache=%d ops=[%s]"
    (String.concat "; "
       (List.map (fun (s, v) -> Printf.sprintf "%h,%h" s v) (Profile.points p.profile)))
    p.cutoff_volts p.available_fraction p.diffusion_per_cycle p.sag_volts_per_power
    p.load_window_cycles c.capacity c.tick_cache
    (String.concat "; "
       (List.map
          (function Draw e -> Printf.sprintf "draw %h" e | Tick dt -> Printf.sprintf "tick %d" dt)
          c.ops))

let prop_matches_reference =
  QCheck.Test.make ~name:"battery: draw/tick = reference model, bit for bit" ~count:300
    (QCheck.make ~print:print_battery_case gen_battery_case)
    (fun c ->
      let same a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b) in
      let agrees (r : Reference.t) b =
        let d = Battery.dump b in
        Battery.is_dead b = r.dead
        && d.dead = r.dead
        && same (Battery.voltage b) (Reference.voltage r)
        && same d.available_pj r.available && same d.bound_pj r.bound
        && same d.load_power r.load_power && same d.delivered_pj r.delivered
        && same (Battery.delivered_pj b) r.delivered
      in
      let kind = Battery.Thin_film c.params in
      (* a lone battery computes every tick factor; a fleet member reads
         the shared cache for ticks it covers *)
      let single = Battery.create ~kind ~capacity_pj:c.capacity in
      let member =
        (Battery.fleet ~kind ~tick_cache:c.tick_cache [| c.capacity; c.capacity |]).(1)
      in
      List.for_all
        (fun b ->
          let r = Reference.create c.params ~capacity:c.capacity in
          agrees r b
          && List.for_all
               (fun op ->
                 (match op with
                 | Draw e -> Battery.draw b ~energy_pj:e = Reference.draw r ~energy_pj:e
                 | Tick cycles ->
                   Battery.tick b ~cycles;
                   Reference.tick r ~cycles;
                   true)
                 && agrees r b)
               c.ops)
        [ single; member ])

let suite =
  [
    ( "battery/profile",
      [
        Alcotest.test_case "anchor exactness" `Quick test_profile_anchor_exactness;
        Alcotest.test_case "interpolates" `Quick test_profile_interpolates;
        Alcotest.test_case "clamps" `Quick test_profile_clamps;
        Alcotest.test_case "monotone" `Quick test_profile_monotone;
        Alcotest.test_case "soc at voltage" `Quick test_profile_soc_at_voltage;
        Alcotest.test_case "constant" `Quick test_profile_constant;
        Alcotest.test_case "validation" `Quick test_profile_validation;
        Alcotest.test_case "points sorted" `Quick test_profile_points_sorted;
      ] );
    ( "battery/ideal",
      [
        Alcotest.test_case "accounting" `Quick test_ideal_accounting;
        Alcotest.test_case "death at zero" `Quick test_ideal_death_at_zero;
        Alcotest.test_case "overdraw fails" `Quick test_ideal_overdraw_fails;
        Alcotest.test_case "100% efficiency" `Quick test_ideal_efficiency_100;
        Alcotest.test_case "tick is a no-op" `Quick test_ideal_tick_noop;
        Alcotest.test_case "negative draw rejected" `Quick test_negative_draw_rejected;
        Alcotest.test_case "create validation" `Quick test_create_validation;
      ] );
    ( "battery/thin-film",
      [
        Alcotest.test_case "full voltage" `Quick test_thin_film_full_voltage;
        Alcotest.test_case "draw reduces soc" `Quick test_thin_film_draw_reduces_soc;
        Alcotest.test_case "sag under load" `Quick test_thin_film_sag_under_load;
        Alcotest.test_case "sag recovers when idle" `Quick test_thin_film_sag_recovers_when_idle;
        Alcotest.test_case "recovery moves bound charge" `Quick
          test_thin_film_recovery_moves_bound_charge;
        Alcotest.test_case "dies at cutoff, strands energy" `Quick
          test_thin_film_dies_at_cutoff_with_stranded_energy;
        Alcotest.test_case "sustained load strands more" `Quick
          test_thin_film_sustained_load_strands_more;
        Alcotest.test_case "rest increases delivery" `Quick
          test_thin_film_delivers_more_with_rest;
        Alcotest.test_case "death latches" `Quick test_thin_film_death_latches;
        Alcotest.test_case "level quantization" `Quick test_level_quantization;
        Alcotest.test_case "level validation" `Quick test_level_validation;
        QCheck_alcotest.to_alcotest prop_conservation;
        QCheck_alcotest.to_alcotest prop_level_in_range;
        QCheck_alcotest.to_alcotest prop_soc_monotone_under_draws;
        QCheck_alcotest.to_alcotest prop_matches_reference;
      ] );
  ]
