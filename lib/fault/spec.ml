type job_policy = Preserve | Drop

type t = {
  seed : int;
  link_wearout_rate : float;
  link_wearout_shape : float;
  bit_error_rate : float;
  brownout_rate : float;
  brownout_duration_cycles : int;
  brownout_job_policy : job_policy;
  upload_loss_rate : float;
  download_loss_rate : float;
}

let check_rate name rate =
  if not (Float.is_finite rate) || rate < 0. then
    invalid_arg (Printf.sprintf "Fault.Spec.make: %s must be finite and >= 0" name)

let check_probability name rate =
  check_rate name rate;
  if rate > 1. then
    invalid_arg (Printf.sprintf "Fault.Spec.make: %s must be within [0, 1]" name)

let make ?(seed = 0) ?(link_wearout_rate = 0.) ?(link_wearout_shape = 2.)
    ?(bit_error_rate = 0.) ?(brownout_rate = 0.) ?(brownout_duration_cycles = 2000)
    ?(brownout_job_policy = Preserve) ?(upload_loss_rate = 0.)
    ?(download_loss_rate = 0.) () =
  check_rate "link_wearout_rate" link_wearout_rate;
  if not (Float.is_finite link_wearout_shape) || link_wearout_shape <= 0. then
    invalid_arg "Fault.Spec.make: link_wearout_shape must be positive";
  check_rate "bit_error_rate" bit_error_rate;
  check_rate "brownout_rate" brownout_rate;
  if brownout_duration_cycles <= 0 then
    invalid_arg "Fault.Spec.make: brownout_duration_cycles must be positive";
  check_probability "upload_loss_rate" upload_loss_rate;
  check_probability "download_loss_rate" download_loss_rate;
  {
    seed;
    link_wearout_rate;
    link_wearout_shape;
    bit_error_rate;
    brownout_rate;
    brownout_duration_cycles;
    brownout_job_policy;
    upload_loss_rate;
    download_loss_rate;
  }

let zero = make ()

let is_zero t =
  t.link_wearout_rate = 0. && t.bit_error_rate = 0. && t.brownout_rate = 0.
  && t.upload_loss_rate = 0. && t.download_loss_rate = 0.

(* [%g] when its six significant digits read back as exactly [x] (so
   every fingerprint printed before this form existed is unchanged),
   else the exact hexadecimal [%h]: distinct rates never share a form *)
let exact_float x =
  let short = Printf.sprintf "%g" x in
  if float_of_string short = x then short else Printf.sprintf "%h" x

let fingerprint t =
  Printf.sprintf "seed=%d,wear=%s/%s,ber=%s,brown=%s/%d/%s,up=%s,down=%s" t.seed
    (exact_float t.link_wearout_rate) (exact_float t.link_wearout_shape)
    (exact_float t.bit_error_rate) (exact_float t.brownout_rate)
    t.brownout_duration_cycles
    (match t.brownout_job_policy with Preserve -> "preserve" | Drop -> "drop")
    (exact_float t.upload_loss_rate) (exact_float t.download_loss_rate)

let pp fmt t =
  Format.fprintf fmt
    "@[<h>fault spec: seed %d, wearout %g/cm/cycle (k=%g), ber %g/bit/cm, brownout \
     %g/node/cycle for %d cycles (%s), loss up %g / down %g@]"
    t.seed t.link_wearout_rate t.link_wearout_shape t.bit_error_rate t.brownout_rate
    t.brownout_duration_cycles
    (match t.brownout_job_policy with Preserve -> "jobs preserved" | Drop -> "jobs dropped")
    t.upload_loss_rate t.download_loss_rate
