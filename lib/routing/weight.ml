type t =
  | Shortest_distance
  | Exponential of { q : float }
  | Exponential_squared of { q : float }
  | Inverse_level
  | Linear_drain of { slope : float }

(* lcm(1, 3, ..., 2 levels - 1): every odd number up to it divides it,
   so the inverse-level factors below are whole numbers *)
let odd_lcm levels =
  let rec gcd a b = if b = 0. then a else gcd b (Float.rem a b) in
  let l = ref 1. in
  for level = 1 to levels - 1 do
    let odd = float_of_int ((2 * level) + 1) in
    l := !l /. gcd !l odd *. odd
  done;
  !l

let battery_factor t ~level ~levels =
  if level < 0 || level >= levels then
    invalid_arg
      (Printf.sprintf "Weight.battery_factor: level %d outside [0, %d)" level levels);
  let drained = float_of_int (levels - 1 - level) in
  match t with
  | Shortest_distance -> 1.
  | Exponential { q } -> q ** drained
  | Exponential_squared { q } -> q ** (2. *. drained)
  | Inverse_level ->
    float_of_int (2 * levels) *. (odd_lcm levels /. float_of_int ((2 * level) + 1))
  | Linear_drain { slope } -> 1. +. (slope *. drained)

let is_battery_aware = function
  | Shortest_distance -> false
  | Exponential _ | Exponential_squared _ | Inverse_level | Linear_drain _ -> true

let name = function
  | Shortest_distance -> "SDR"
  | Exponential { q } -> Printf.sprintf "EAR(q=%g)" q
  | Exponential_squared { q } -> Printf.sprintf "EAR2(q=%g)" q
  | Inverse_level -> "INV(floor=0.5)"
  | Linear_drain { slope } -> Printf.sprintf "LIN(slope=%g)" slope
