type t = {
  mutable count : int;
  mutable mean : float;
  mutable m2 : float;
  mutable min : float;
  mutable max : float;
  mutable total : float;
}

let create () =
  { count = 0; mean = 0.; m2 = 0.; min = infinity; max = neg_infinity; total = 0. }

let add t x =
  t.count <- t.count + 1;
  let delta = x -. t.mean in
  t.mean <- t.mean +. (delta /. float_of_int t.count);
  t.m2 <- t.m2 +. (delta *. (x -. t.mean));
  if x < t.min then t.min <- x;
  if x > t.max then t.max <- x;
  t.total <- t.total +. x

let count t = t.count
let mean t = t.mean
let variance t = if t.count < 2 then 0. else t.m2 /. float_of_int (t.count - 1)
let stddev t = sqrt (variance t)
let min t = t.min
let max t = t.max
let total t = t.total

let merge a b =
  if a.count = 0 then { b with count = b.count }
  else if b.count = 0 then { a with count = a.count }
  else begin
    let n = a.count + b.count in
    let delta = b.mean -. a.mean in
    let mean = a.mean +. (delta *. float_of_int b.count /. float_of_int n) in
    let m2 =
      a.m2 +. b.m2
      +. (delta *. delta *. float_of_int a.count *. float_of_int b.count
          /. float_of_int n)
    in
    {
      count = n;
      mean;
      m2;
      min = Stdlib.min a.min b.min;
      max = Stdlib.max a.max b.max;
      total = a.total +. b.total;
    }
  end

let of_list xs =
  let t = create () in
  List.iter (add t) xs;
  t

let percentile xs ~p =
  match xs with
  | [] -> invalid_arg "Stats.percentile: empty list"
  | xs ->
    let sorted = List.sort compare xs in
    let arr = Array.of_list sorted in
    let n = Array.length arr in
    let rank = p *. float_of_int (n - 1) in
    let lo = int_of_float (floor rank) in
    let hi = int_of_float (ceil rank) in
    if lo = hi then arr.(lo)
    else begin
      let frac = rank -. float_of_int lo in
      (arr.(lo) *. (1. -. frac)) +. (arr.(hi) *. frac)
    end
