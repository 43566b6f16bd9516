(* Shared helpers: clocks, order statistics, per-process CPU and memory
   readings, and the metric record every workload reports. *)

let now = Unix.gettimeofday

(* a measured value by metric name; BENCHMARK.json gives its unit *)
type metric = { name : string; value : float }

let metric name value = { name; value }

(* what one workload run reports *)
type outcome = {
  attempted : int;
  failed : int;  (** failed or wrong operations *)
  checks : (string * bool) list;  (** workload self-checks *)
  e2e : metric list;
  layers : metric list;  (** traced runs only *)
  table : string option;  (** the per-layer table of a traced run *)
}

(* Linear interpolation between closest ranks (numpy's default).  An
   infinite sample (a failed request) sorts last and can be returned. *)
let percentile samples p =
  let a = Array.copy samples in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then nan
  else
    let pos = p *. float_of_int (n - 1) in
    let lo = int_of_float pos in
    let hi = min (n - 1) (lo + 1) in
    let frac = pos -. float_of_int lo in
    if frac = 0. || a.(lo) = a.(hi) then a.(lo)
    else a.(lo) +. (frac *. (a.(hi) -. a.(lo)))

let median samples = percentile samples 0.5

(* Harrell-Davis estimate of the [p] quantile: a mean of every order
   statistic weighted by the Beta((n+1)p, (n+1)(1-p)) mass over its
   rank interval (integrated at 8 midpoints each).  Where samples fall
   in groups, such as serve-cold's request classes, it moves smoothly
   while the sample median jumps from one group to the next. *)
let hd_quantile samples p =
  let a = Array.copy samples in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then nan
  else
    let alpha = p *. float_of_int (n + 1) and beta = (1. -. p) *. float_of_int (n + 1) in
    let k = 8 in
    let log_density j =
      let t = (float_of_int j +. 0.5) /. float_of_int (n * k) in
      ((alpha -. 1.) *. log t) +. ((beta -. 1.) *. log (1. -. t))
    in
    let logs = Array.init (n * k) log_density in
    let top = Array.fold_left Float.max neg_infinity logs in
    let w = Array.make n 0. in
    Array.iteri (fun j l -> w.(j / k) <- w.(j / k) +. exp (l -. top)) logs;
    let total = Array.fold_left ( +. ) 0. w in
    let acc = ref 0. in
    Array.iteri (fun i wi -> if wi > 0. then acc := !acc +. (wi *. a.(i))) w;
    !acc /. total

(* [setup_s] is the Harrell-Davis median of the set-ups made in
   three rounds spread over the run: before the measured window, halfway
   through it and after it.  The shared host's speed swings by up to
   1.8x for seconds to a minute at a time, so set-ups made back to back
   often all see one speed; rounds half a window apart see more, and the
   estimate moves smoothly with their mix instead of jumping from one
   speed to the other. *)
let setup_s times = hd_quantile (Array.of_list times) 0.5

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* user + system CPU seconds of this process, every domain included *)
let cpu_self () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

(* user + system CPU seconds of a live child, from /proc/PID/stat
   (fields 14 and 15, in clock ticks of 1/100 s) *)
let cpu_of_pid pid =
  let stat = read_file (Printf.sprintf "/proc/%d/stat" pid) in
  let after = String.sub stat (String.rindex stat ')' + 2)
      (String.length stat - String.rindex stat ')' - 2) in
  let fields = Array.of_list (String.split_on_char ' ' after) in
  (* [after] starts at field 3 (state) *)
  (float_of_string fields.(11) +. float_of_string fields.(12)) /. 100.

(* peak resident set (VmHWM) in MB; [who] is a pid or "self" *)
let peak_rss_mb who =
  let status = read_file (Printf.sprintf "/proc/%s/status" who) in
  let line =
    List.find
      (fun l -> String.length l > 6 && String.sub l 0 6 = "VmHWM:")
      (String.split_on_char '\n' status)
  in
  Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.)

(* Time [f] repeatedly until at least [min_s] seconds have passed;
   returns seconds per call. *)
let time_per_call ?(min_s = 0.02) f =
  f ();
  let t0 = now () in
  let calls = ref 0 in
  while now () -. t0 < min_s do
    f ();
    incr calls
  done;
  (now () -. t0) /. float_of_int !calls
