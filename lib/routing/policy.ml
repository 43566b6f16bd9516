type algorithm = Weighted of Weight.t | Maximin_residual

type t = { name : string; algorithm : algorithm; levels : int }

let default_levels = 8

let check_levels levels =
  if levels < 2 then invalid_arg "Policy: need at least two battery levels";
  levels

let weighted weight levels =
  { name = Weight.name weight; algorithm = Weighted weight; levels = check_levels levels }

let ear ?(q = 2.) ?(levels = default_levels) () =
  if q <= 0. then invalid_arg "Policy.ear: Q must be positive";
  weighted (Weight.Exponential { q }) levels

let sdr ?(levels = default_levels) () =
  {
    name = "SDR";
    algorithm = Weighted Weight.Shortest_distance;
    levels = check_levels levels;
  }

let ear_squared ?(q = 2.) ?(levels = default_levels) () =
  if q <= 0. then invalid_arg "Policy.ear_squared: Q must be positive";
  weighted (Weight.Exponential_squared { q }) levels

let inverse_level ?(levels = default_levels) () = weighted Weight.Inverse_level levels

let linear_drain ?(slope = 1.) ?(levels = default_levels) () =
  if slope < 0. then invalid_arg "Policy.linear_drain: negative slope";
  weighted (Weight.Linear_drain { slope }) levels

let maximin ?(levels = default_levels) () =
  { name = "MAXMIN"; algorithm = Maximin_residual; levels = check_levels levels }

let is_battery_aware t =
  match t.algorithm with
  | Weighted weight -> Weight.is_battery_aware weight
  | Maximin_residual -> true

(* the name alone when it is the algorithm's own, with the parameter in
   it printed exactly by [%g] *)
let fingerprint t =
  let exact x = Float.is_integer x || float_of_string (Printf.sprintf "%g" x) = x in
  let named =
    match t.algorithm with
    | Maximin_residual -> t.name = "MAXMIN"
    | Weighted w -> (
      t.name = Weight.name w
      &&
      match w with
      | Weight.Exponential { q } | Weight.Exponential_squared { q } -> exact q
      | Weight.Linear_drain { slope } -> exact slope
      | Weight.Shortest_distance | Weight.Inverse_level -> true)
  in
  if named then t.name
  else
    t.name ^ "#"
    ^ String.sub (Digest.to_hex (Digest.string (Marshal.to_string t.algorithm []))) 0 16
