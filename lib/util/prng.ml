type t = { mutable state : int64 }

let golden_gamma = 0x9E3779B97F4A7C15L

let create ~seed = { state = Int64.of_int seed }

let copy t = { state = t.state }

(* splitmix64 step: advance by the golden gamma and scramble. *)
let bits64 t =
  t.state <- Int64.add t.state golden_gamma;
  let z = t.state in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let int t ~bound =
  assert (bound > 0);
  let mask = Int64.shift_right_logical (bits64 t) 1 in
  Int64.to_int (Int64.rem mask (Int64.of_int bound))

let float t ~bound =
  assert (bound > 0.);
  let mantissa = Int64.shift_right_logical (bits64 t) 11 in
  Int64.to_float mantissa /. 9007199254740992. *. bound

let bool t = Int64.logand (bits64 t) 1L = 1L

let byte t = int t ~bound:256

let bytes t ~len =
  let buffer = Bytes.create len in
  for i = 0 to len - 1 do
    Bytes.set buffer i (Char.chr (byte t))
  done;
  buffer

let shuffle t arr =
  for i = Array.length arr - 1 downto 1 do
    let j = int t ~bound:(i + 1) in
    let tmp = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- tmp
  done

let split t = { state = bits64 t }
