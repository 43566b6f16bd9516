(* Golden test for the paper outputs: Fig 7 (sizes 4-12), Table 2 and
   Theorem 1 rendered with every float in exact hexadecimal ([%h]), so
   any change to a routing table, a battery step or an average shows up
   as a diff against [golden_paper.txt].  Job counts alone can hide a
   drift in the battery path, so a set of single [simulate] runs (4x4 to
   8x8: EAR, SDR and maximin, a thin-film controller bank, brown-outs
   whose offline gaps span many frames, and the ideal cell) also pins
   every energy total of the run in hex.  The other bit-identity tests
   compare modes of one build (domains, supervision, checkpoint
   resume); this one pins the numbers across commits.

   On a mismatch the fresh rendering is written to [golden_paper.actual]
   next to the fixture in the build tree; a change that is meant to move
   the paper numbers replaces the fixture with it. *)

module Experiments = Etextile.Experiments
module Request = Etx_service.Request

let fixture = "golden_paper.txt"

let render () =
  let buf = Buffer.create 4096 in
  let line fmt = Printf.bprintf buf (fmt ^^ "\n") in
  let floats a = String.concat "," (Array.to_list (Array.map (Printf.sprintf "%h") a)) in
  let ints a = String.concat "," (Array.to_list (Array.map string_of_int a)) in
  line "fig7 mesh ear_jobs sdr_jobs gain ear_overhead paper_ear_jobs paper_overhead";
  List.iter
    (fun (r : Experiments.fig7_row) ->
      line "fig7 %d %h %h %h %h %h %h" r.mesh_size r.ear_jobs r.sdr_jobs r.gain
        r.ear_overhead r.paper_ear_jobs r.paper_overhead)
    (Experiments.fig7 ~sizes:[ 4; 5; 6; 7; 8; 9; 10; 11; 12 ] ());
  line "table2 mesh ear_jobs j_star ratio paper_ear_jobs paper_j_star paper_ratio";
  List.iter
    (fun (r : Experiments.table2_row) ->
      line "table2 %d %h %h %h %h %h %h" r.mesh_size r.ear_jobs r.j_star r.ratio
        r.paper_ear_jobs r.paper_j_star r.paper_ratio)
    (Experiments.table2 ());
  line "thm1 mesh j_star optimal_duplicates checkerboard_duplicates checkerboard_bound";
  List.iter
    (fun (r : Experiments.thm1_row) ->
      line "thm1 %d %h %s %s %h" r.mesh_size r.j_star (floats r.optimal_duplicates)
        (ints r.checkerboard_duplicates) r.checkerboard_bound)
    (Experiments.thm1 ());
  line
    "simulate mesh policy battery controllers brownout jobs computation communication \
     upload download stranded residual stranded_ctl residual_ctl";
  let simulate ?(battery = "thin-film") ?(controllers = 0) ?(brownout = 0.) mesh_size policy =
    let fault =
      {
        Request.ber = 0.;
        wearout = 0.;
        brownout_rate = brownout;
        brownout_cycles = 60_000;
        upload_loss = 0.;
        download_loss = 0.;
        fault_seed = 5;
      }
    in
    let p =
      {
        Request.mesh_size;
        seed = 1;
        policy;
        battery;
        controllers;
        concurrent_jobs = 1;
        workload = "encrypt";
        fail_links = 0;
        fault;
        retries = 3;
      }
    in
    let config =
      match Etx_service.Handlers.simulate_config p with
      | Ok config -> config
      | Error e -> failwith e
    in
    let m : Etx_etsim.Metrics.t = Etx_etsim.Engine.simulate config in
    line "simulate %d %s %s %d %g %d %h %h %h %h %h %h %h %h" mesh_size policy battery
      controllers brownout m.jobs_completed m.computation_energy_pj m.communication_energy_pj
      m.control_upload_energy_pj m.control_download_energy_pj m.stranded_node_energy_pj
      m.residual_node_energy_pj m.stranded_controller_energy_pj
      m.residual_controller_energy_pj
  in
  List.iter
    (fun mesh -> List.iter (simulate mesh) [ "ear"; "sdr"; "maximin" ])
    [ 4; 6; 8 ];
  simulate ~controllers:2 5 "ear";
  simulate ~controllers:2 7 "sdr";
  simulate ~brownout:2e-6 6 "ear";
  simulate ~brownout:2e-6 5 "maximin";
  simulate ~battery:"ideal" 4 "ear";
  simulate ~battery:"ideal" 6 "sdr";
  simulate ~battery:"ideal" 8 "ear";
  Buffer.contents buf

let test_paper_outputs_match_fixture () =
  let expected = In_channel.with_open_bin fixture In_channel.input_all in
  let actual = render () in
  if actual <> expected then begin
    Out_channel.with_open_bin "golden_paper.actual" (fun oc ->
        Out_channel.output_string oc actual);
    Alcotest.(check string) "paper outputs (fresh rendering in golden_paper.actual)"
      expected actual
  end

let suite =
  [
    ( "golden",
      [
        Alcotest.test_case "fig7/table2/thm1 bit-identical to fixture" `Quick
          test_paper_outputs_match_fixture;
      ] );
  ]
