module Obs = Etx_obs.Obs

let obs_reused =
  Obs.counter ~help:"Simulate requests named from the daemon's name table"
    "etx_names_reused_total"

(* An entry holds about 365 bytes (key and name).  512 of them cover the
   head of a Zipf-popular key set (a router in front of 768 keys with
   exponent 0.99 named 85% of 3,000 repeats from them), and a daemon
   whose every request is new pays about 0.2 MB for the table. *)
let capacity = 512

type t = string Cache.t

let create () = Cache.create ~capacity

let name scenario =
  try Handlers.fingerprint scenario with exn -> Error (Printexc.to_string exn)

let fingerprint t (scenario : Request.scenario) =
  match scenario with
  | Request.Simulate p -> (
    (* [No_sharing]: the bytes depend on the values only, never on which
       strings the decoder happened to share *)
    let key = Marshal.to_string p [ Marshal.No_sharing ] in
    match Cache.find t key with
    | Some fp ->
      Obs.inc obs_reused;
      Ok fp
    | None ->
      let named = name scenario in
      Result.iter (Cache.add t key) named;
      named)
  | _ -> name scenario

let length = Cache.length
