(* etxbench: the repository's end-to-end benchmark.

   etxbench run --workload W --seed N --seconds S --trace 0|1
     Runs one workload in this fresh process and prints, as the last
     line of stdout, {"correct","attempted","failed","metrics"}: the
     end-to-end metrics untraced, the per-layer metrics traced (after
     the layer table).  BENCHMARK.json names the metrics and their
     units.  Exits 1 when an output or self-check fails.
   etxbench abort-test
     Aborts cluster-zipf mid-run (router killed; generator raising; the
     whole benchmark SIGTERMed) and checks nothing survives. *)

module Json = Etx_util.Json

let etx = "_build/default/bin/etx_main.exe"

let workloads = [ "sweep"; "serve-cold"; "cluster-zipf" ]

let usage () =
  prerr_endline
    "usage: etxbench run --workload (sweep|serve-cold|cluster-zipf) --seed N --seconds S \
     --trace (0|1)\n       etxbench abort-test";
  exit 2

(* (name, unit) of each metric BENCHMARK.json lists under [section] *)
let catalogue section =
  let field key m =
    match Option.bind (Json.member key m) Json.to_str with
    | Some s -> s
    | None -> failwith ("BENCHMARK.json: a metric without " ^ key)
  in
  match Option.bind (Json.member section (Json.parse (Common.read_file "BENCHMARK.json"))) Json.to_list with
  | Some ms -> List.map (fun m -> (field "name" m, field "unit" m)) ms
  | None -> failwith ("BENCHMARK.json: no " ^ section)

let number v = if Float.is_finite v then Printf.sprintf "%.17g" v else "-1"

let run_workload ~workload ~seed ~seconds ~trace =
  if not (Sys.file_exists etx && Sys.file_exists "BENCHMARK.json") then begin
    prerr_endline ("etxbench: " ^ etx ^ " or BENCHMARK.json missing; run from the repository root");
    exit 2
  end;
  let catalogue = catalogue (if trace then "per_layer" else "end_to_end") in
  let o =
    match workload with
    | "sweep" ->
      Proc.with_run ~etx (fun proc -> Sweep.run ~proc ~wseed:seed ~seconds ~trace)
    | "serve-cold" -> Daemons.run Daemons.Serve_cold ~etx ~wseed:seed ~seconds ~trace ()
    | "cluster-zipf" -> Daemons.run Daemons.Cluster_zipf ~etx ~wseed:seed ~seconds ~trace ()
    | _ -> usage ()
  in
  let error_rate = float_of_int o.Common.failed /. float_of_int (max 1 o.attempted) in
  let measured = Common.metric "error_rate" error_rate :: o.e2e @ o.layers in
  let value name =
    match List.find_opt (fun (m : Common.metric) -> m.name = name) measured with
    | Some m -> m.value
    | None -> 0. (* the layer is not on this workload's path *)
  in
  Option.iter print_string o.table;
  List.iter
    (fun (name, ok) -> Printf.printf "check %-4s %s\n" (if ok then "ok" else "FAIL") name)
    o.checks;
  let correct = o.failed = 0 && List.for_all snd o.checks in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct o.attempted o.failed
    (String.concat ", "
       (List.map
          (fun (name, unit) ->
            Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (number (value name)) unit)
          catalogue));
  if not correct then exit 1

(* - abort test -

   Survivors are looked for from outside the run, by [Proc.holders]:
   any process whose working directory is a run directory.  Each case
   first sees the four cluster daemons that way, which shows the check
   can find a live daemon, then aborts and requires that none is left
   and that no run directory remains. *)

let daemons = 4 (* three backends and the router *)

let run_dirs_left () =
  match Sys.readdir Proc.tmp_root with
  | entries -> Array.to_list (Array.map (Filename.concat Proc.tmp_root) entries)
  | exception Sys_error _ -> []

let report label ~seen ~outcome =
  let left = Proc.holders () @ run_dirs_left () in
  Printf.printf "abort-test %-26s daemons seen=%d %s left=[%s]\n%!" label seen outcome
    (String.concat ", " left);
  seen = daemons && left = []

(* abort from inside the generator, at open-loop request 100 *)
let abort_case label abort =
  let seen = ref 0 in
  let hook proc i =
    if i = 100 then begin
      seen := List.length (Proc.holders ());
      abort proc
    end
  in
  let aborted, outcome =
    match Daemons.run Daemons.Cluster_zipf ~etx ~wseed:1 ~seconds:4. ~trace:false ~hook () with
    | _ -> (false, "completed (not aborted)")
    | exception (Proc.Interrupted _ as e) -> raise e
    | exception Proc.Left_behind l -> (false, "left behind: " ^ String.concat ", " l)
    | exception e -> (true, "aborted: " ^ Printexc.to_string e)
  in
  report label ~seen:!seen ~outcome && aborted

(* the benchmark itself SIGTERMed while its daemons run *)
let signal_case () =
  let self = Sys.executable_name in
  let null = Unix.openfile "/dev/null" [ Unix.O_WRONLY; Unix.O_CLOEXEC ] 0 in
  let pid =
    Unix.create_process self
      [| self; "run"; "--workload"; "cluster-zipf"; "--seed"; "2"; "--seconds"; "30";
         "--trace"; "0" |]
      Unix.stdin null null
  in
  Unix.close null;
  let deadline = Common.now () +. 60. in
  let rec await_daemons () =
    let n = List.length (Proc.holders ()) in
    if n >= daemons || Common.now () > deadline then n
    else begin
      Unix.sleepf 0.01;
      await_daemons ()
    end
  in
  let seen = await_daemons () in
  Unix.kill pid Sys.sigterm;
  let _, status = Unix.waitpid [] pid in
  let code = match status with Unix.WEXITED c -> c | _ -> -1 in
  report "SIGTERM to the benchmark" ~seen ~outcome:(Printf.sprintf "exit=%d" code) && code = 143

let abort_test () =
  let router_killed =
    abort_case "router killed mid-run" (fun proc ->
      Unix.kill (Proc.child proc "router").Proc.pid Sys.sigkill)
  in
  let generator_raised =
    abort_case "generator raises mid-run" (fun _ -> failwith "injected generator fault")
  in
  let signalled = signal_case () in
  if router_killed && generator_raised && signalled then print_endline "abort-test: ok"
  else begin
    print_endline "abort-test: FAILED";
    exit 1
  end

let () =
  Proc.install_signal_handlers ();
  let args = List.tl (Array.to_list Sys.argv) in
  let rec opts acc = function
    | key :: v :: rest when String.length key > 2 && String.sub key 0 2 = "--" ->
      opts ((String.sub key 2 (String.length key - 2), v) :: acc) rest
    | [] -> acc
    | _ -> usage ()
  in
  try
    match args with
    | "run" :: rest ->
      let o = opts [] rest in
      let get k = match List.assoc_opt k o with Some v -> v | None -> usage () in
      let int k = match int_of_string_opt (get k) with Some n -> n | None -> usage () in
      let workload = get "workload" in
      if not (List.mem workload workloads) then usage ();
      let seconds = int "seconds" and seed = int "seed" in
      if seconds < 1 || seed < 0 then usage ();
      let trace = match get "trace" with "0" -> false | "1" -> true | _ -> usage () in
      run_workload ~workload ~seed ~seconds:(float_of_int seconds) ~trace
    | [ "abort-test" ] -> abort_test ()
    | _ -> usage ()
  with
  | Proc.Interrupted s | Fun.Finally_raised (Proc.Interrupted s) ->
    prerr_endline "etxbench: interrupted; every daemon was torn down";
    exit (if s = Sys.sigint then 130 else 143)
  | Proc.Left_behind left ->
    prerr_endline ("etxbench: left behind after teardown: " ^ String.concat ", " left);
    exit 1
