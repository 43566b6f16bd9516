type t = { points : (float * float) array } (* increasing soc *)

let piecewise_linear points =
  if List.length points < 2 then
    invalid_arg "Profile.piecewise_linear: need at least two points";
  let sorted = List.sort (fun (a, _) (b, _) -> compare a b) points in
  let check (soc, _) =
    if soc < 0. || soc > 1. then
      invalid_arg "Profile.piecewise_linear: soc out of [0, 1]"
  in
  List.iter check sorted;
  let rec distinct = function
    | (a, _) :: ((b, _) :: _ as rest) ->
      if a = b then invalid_arg "Profile.piecewise_linear: duplicate soc";
      distinct rest
    | _ -> ()
  in
  distinct sorted;
  { points = Array.of_list sorted }

(* The hot form of a profile: the soc and voltage columns as flat float
   arrays.  It is derived, not stored in [t], so a marshalled profile
   (the fingerprint of a non-default cell digests one) keeps its bytes. *)
type curve = { socs : float array; volts : float array }

let curve t = { socs = Array.map fst t.points; volts = Array.map snd t.points }

let[@inline] curve_voltage c ~soc =
  let socs = c.socs and volts = c.volts in
  let n = Array.length socs in
  if soc <= socs.(0) then volts.(0)
  else if soc >= socs.(n - 1) then volts.(n - 1)
  else begin
    (* find segment [i, i+1] containing soc *)
    let i = ref 0 in
    while not (socs.(!i + 1) >= soc) do
      incr i
    done;
    let s0 = socs.(!i) and v0 = volts.(!i) in
    let s1 = socs.(!i + 1) and v1 = volts.(!i + 1) in
    v0 +. ((v1 -. v0) *. (soc -. s0) /. (s1 -. s0))
  end

let voltage t ~soc = curve_voltage (curve t) ~soc

let li_free_thin_film =
  piecewise_linear
    [
      (1.00, 4.20);
      (0.95, 4.12);
      (0.85, 4.05);
      (0.70, 3.95);
      (0.50, 3.85);
      (0.30, 3.75);
      (0.15, 3.65);
      (0.08, 3.50);
      (0.04, 3.30);
      (0.02, 3.10);
      (0.00, 2.50);
    ]

let constant ~volts = piecewise_linear [ (0., volts); (1., volts) ]

let soc_at_voltage t ~volts =
  (* walk from full toward empty; return the soc where the (monotone)
     curve crosses [volts]. *)
  let points = t.points in
  let n = Array.length points in
  let v_min = snd points.(0) and v_max = snd points.(n - 1) in
  if v_max < volts then 1. (* the cell starts below the threshold *)
  else if v_min >= volts then 0. (* the cell never drops below it *)
  else begin
    let rec seek i =
      if i < 0 then 0.
      else begin
        let s0, v0 = points.(i) and s1, v1 = points.(i + 1) in
        if v0 <= volts && volts <= v1 then
          if v1 = v0 then s1 else s0 +. ((s1 -. s0) *. (volts -. v0) /. (v1 -. v0))
        else seek (i - 1)
      end
    in
    seek (n - 2)
  end

let points t = Array.to_list t.points
