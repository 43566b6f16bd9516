(* Tests for etx_energy: transmission lines, computation constants,
   packets, controller power. *)

module Line = Etx_energy.Transmission_line
module Computation = Etx_energy.Computation
module Packet = Etx_energy.Packet
module Controller_power = Etx_energy.Controller_power

let check_float = Alcotest.(check (float 1e-9))
let check_float_eps eps = Alcotest.(check (float eps))

(* - Transmission lines - *)

let test_line_paper_anchors () =
  (* the four SPICE-measured values of Sec 5.1.2, reproduced exactly *)
  check_float "1 cm" 0.4472 (Line.energy_per_bit Line.paper_lines ~length_cm:1.);
  check_float "10 cm" 4.4472 (Line.energy_per_bit Line.paper_lines ~length_cm:10.);
  check_float "20 cm" 11.867 (Line.energy_per_bit Line.paper_lines ~length_cm:20.);
  check_float "100 cm" 53.082 (Line.energy_per_bit Line.paper_lines ~length_cm:100.)

let test_line_interpolation () =
  (* midpoint of the 10-20 cm segment *)
  check_float "15 cm" ((4.4472 +. 11.867) /. 2.)
    (Line.energy_per_bit Line.paper_lines ~length_cm:15.)

let test_line_monotone () =
  let previous = ref 0. in
  for i = 1 to 120 do
    let e = Line.energy_per_bit Line.paper_lines ~length_cm:(float_of_int i) in
    Alcotest.(check bool) "longer line costs more" true (e > !previous);
    previous := e
  done

let test_line_sub_centimeter_proportional () =
  check_float "0.5 cm scales" (0.4472 /. 2.)
    (Line.energy_per_bit Line.paper_lines ~length_cm:0.5)

let test_line_extrapolation () =
  (* beyond 100 cm: last segment slope continued *)
  let slope = (53.082 -. 11.867) /. 80. in
  check_float_eps 1e-9 "120 cm" (53.082 +. (20. *. slope))
    (Line.energy_per_bit Line.paper_lines ~length_cm:120.)

let test_line_validation () =
  Alcotest.check_raises "empty" (Invalid_argument "Transmission_line.of_measurements: empty")
    (fun () -> ignore (Line.of_measurements []));
  Alcotest.check_raises "bad length" (Invalid_argument "Transmission_line: non-positive length")
    (fun () -> ignore (Line.of_measurements [ (0., 1.) ]));
  Alcotest.check_raises "duplicate" (Invalid_argument "Transmission_line: duplicate length")
    (fun () -> ignore (Line.of_measurements [ (1., 1.); (1., 2.) ]));
  Alcotest.check_raises "query" (Invalid_argument "Transmission_line.energy_per_bit: non-positive length")
    (fun () -> ignore (Line.energy_per_bit Line.paper_lines ~length_cm:0.))

let test_line_single_anchor () =
  let line = Line.of_measurements [ (2., 1.) ] in
  check_float "scales linearly" 2. (Line.energy_per_bit line ~length_cm:4.)

let test_line_anchors_accessor () =
  Alcotest.(check int) "four anchors" 4 (List.length (Line.anchors Line.paper_lines))

let test_line_packet_energy () =
  check_float "packet over 1 cm" (0.4472 *. 261.)
    (Line.packet_energy Line.paper_lines ~length_cm:1. ~bits:261)

(* - Computation - *)

let test_computation_paper_values () =
  check_float "module 1" 120.1 (Computation.energy_per_act Computation.aes ~module_index:0);
  check_float "module 2" 73.34 (Computation.energy_per_act Computation.aes ~module_index:1);
  check_float "module 3" 176.55 (Computation.energy_per_act Computation.aes ~module_index:2);
  Alcotest.(check int) "three modules" 3 (Computation.module_count Computation.aes)

let test_computation_custom () =
  let t = Computation.custom ~energies_pj:[| 1.; 2. |] in
  check_float "entry" 2. (Computation.energy_per_act t ~module_index:1);
  Alcotest.check_raises "bad index"
    (Invalid_argument "Computation.energy_per_act: bad module index") (fun () ->
      ignore (Computation.energy_per_act t ~module_index:2));
  Alcotest.check_raises "empty" (Invalid_argument "Computation.custom: empty table")
    (fun () -> ignore (Computation.custom ~energies_pj:[||]));
  Alcotest.check_raises "negative" (Invalid_argument "Computation.custom: negative energy")
    (fun () -> ignore (Computation.custom ~energies_pj:[| -1. |]))

let test_computation_isolated_from_caller () =
  let energies = [| 5. |] in
  let t = Computation.custom ~energies_pj:energies in
  energies.(0) <- 99.;
  check_float "defensive copy" 5. (Computation.energy_per_act t ~module_index:0)

(* - Packet - *)

let test_packet_default_size () =
  (* 261 bits is the size that makes Theorem 1 reproduce Table 2 *)
  Alcotest.(check int) "261 bits" 261 (Packet.total_bits Packet.aes_default)

let test_packet_hop_energy () =
  check_float "c_i = 116.72 pJ over 1 cm" (261. *. 0.4472)
    (Packet.hop_energy Packet.aes_default ~line:Line.paper_lines ~length_cm:1.)

let test_packet_serialization () =
  Alcotest.(check int) "261 bits over 32-bit link" 9
    (Packet.serialization_cycles Packet.aes_default ~link_width_bits:32);
  Alcotest.(check int) "exact division" 3
    (Packet.serialization_cycles (Packet.make ~payload_bits:6 ~header_bits:0)
       ~link_width_bits:2);
  Alcotest.check_raises "bad width"
    (Invalid_argument "Packet.serialization_cycles: non-positive width") (fun () ->
      ignore (Packet.serialization_cycles Packet.aes_default ~link_width_bits:0))

let test_packet_validation () =
  Alcotest.check_raises "negative" (Invalid_argument "Packet.make: negative field size")
    (fun () -> ignore (Packet.make ~payload_bits:(-1) ~header_bits:0));
  Alcotest.check_raises "zero" (Invalid_argument "Packet.make: zero-bit packet") (fun () ->
      ignore (Packet.make ~payload_bits:0 ~header_bits:0))

(* - Controller power - *)

let test_controller_anchor () =
  check_float_eps 1e-9 "dynamic at 4x4" 69.4 Controller_power.dynamic_pj_per_cycle;
  check_float_eps 1e-9 "leakage at 4x4" 5.7 Controller_power.leakage_pj_per_cycle

(* a K-wide relaxation engine: one recomputation occupies the controller
   for K cycles *)
let test_controller_recompute_cycles () =
  List.iter
    (fun size ->
      let config = Etx_etsim.Config.make ~topology:(Etx_graph.Topology.square_mesh ~size ()) () in
      Alcotest.(check int) "K" (size * size) (Etx_etsim.Config.recompute_cycles config))
    [ 4; 8 ]

let prop_line_interpolation_between_anchors =
  QCheck.Test.make ~name:"line: interpolation stays within anchor bracket" ~count:200
    QCheck.(float_range 1. 100.)
    (fun length_cm ->
      let e = Line.energy_per_bit Line.paper_lines ~length_cm in
      e >= 0.4472 -. 1e-9 && e <= 53.082 +. 1e-9)

let suite =
  [
    ( "energy/transmission-line",
      [
        Alcotest.test_case "paper anchors exact" `Quick test_line_paper_anchors;
        Alcotest.test_case "interpolation" `Quick test_line_interpolation;
        Alcotest.test_case "monotone in length" `Quick test_line_monotone;
        Alcotest.test_case "sub-cm proportional" `Quick test_line_sub_centimeter_proportional;
        Alcotest.test_case "extrapolation" `Quick test_line_extrapolation;
        Alcotest.test_case "validation" `Quick test_line_validation;
        Alcotest.test_case "single anchor" `Quick test_line_single_anchor;
        Alcotest.test_case "anchors accessor" `Quick test_line_anchors_accessor;
        Alcotest.test_case "packet energy" `Quick test_line_packet_energy;
        QCheck_alcotest.to_alcotest prop_line_interpolation_between_anchors;
      ] );
    ( "energy/computation",
      [
        Alcotest.test_case "paper values" `Quick test_computation_paper_values;
        Alcotest.test_case "custom tables" `Quick test_computation_custom;
        Alcotest.test_case "defensive copy" `Quick test_computation_isolated_from_caller;
      ] );
    ( "energy/packet",
      [
        Alcotest.test_case "default 261 bits" `Quick test_packet_default_size;
        Alcotest.test_case "hop energy" `Quick test_packet_hop_energy;
        Alcotest.test_case "serialization" `Quick test_packet_serialization;
        Alcotest.test_case "validation" `Quick test_packet_validation;
      ] );
    ( "energy/controller-power",
      [
        Alcotest.test_case "paper anchor" `Quick test_controller_anchor;
        Alcotest.test_case "recompute cycles" `Quick test_controller_recompute_cycles;
      ] );
  ]
