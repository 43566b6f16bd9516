module Json = Etx_util.Json
module Experiments = Etextile.Experiments

(* - the parameter schema - *)

type _ kind =
  | Int : int kind
  | Float : float kind
  | String : string kind
  | Ints : int list kind
  | Floats : float list kind

type 'a param = {
  key : string;
  flag : string;
  docv : string;
  doc : string;
  kind : 'a kind;
  default : 'a;
  at_least : int option;
}

type _ params =
  | Param : 'a param -> 'a params
  | Map : ('a -> 'b) * 'a params -> 'b params
  | Pair : 'a params * 'b params -> ('a * 'b) params

type any_param = Any : 'a param -> any_param

let rec fields : type a. a params -> any_param list = function
  | Param p -> [ Any p ]
  | Map (_, p) -> fields p
  | Pair (a, b) -> fields a @ fields b

let check (type a) (p : a param) (v : a) =
  match p.at_least with
  | None -> Ok ()
  | Some lo -> (
    let numbers : float list =
      match p.kind with
      | Int -> [ float_of_int v ]
      | Float -> [ v ]
      | String -> []
      | Ints -> List.map float_of_int v
      | Floats -> v
    in
    match List.find_opt (fun x -> not (Float.is_finite x && x >= float lo)) numbers with
    | None -> Ok ()
    | Some x -> Error (Printf.sprintf "expected a finite number >= %d, got %g" lo x))

(* a present field of the wrong shape is an error naming it *)
let field (type a) (kind : a kind) key json : (a option, string) result =
  let convert, what =
    match kind with
    | Int -> ((Json.to_int : Json.t -> a option), "an integer")
    | Float -> (Json.to_float, "a number")
    | String -> (Json.to_str, "a string")
    | Ints -> (Json.int_list, "a list of integers")
    | Floats -> (Json.float_list, "a list of numbers")
  in
  match Json.member key json with
  | None -> Ok None
  | Some v -> (
    match convert v with
    | Some x -> Ok (Some x)
    | None -> Error (Printf.sprintf "field %S must be %s" key what))

let ( let* ) r f = Result.bind r f

let rec decode : type a. a params -> Json.t -> (a, string) result =
 fun spec json ->
  match spec with
  | Param p -> (
    match field p.kind p.key json with
    | Error _ as e -> e
    | Ok None -> Ok p.default
    | Ok (Some x) -> (
      match check p x with
      | Ok () -> Ok x
      | Error reason -> Error (Printf.sprintf "field %S: %s" p.key reason)))
  | Map (f, p) -> Result.map f (decode p json)
  | Pair (a, b) -> (
    match decode a json with
    | Error _ as e -> e
    | Ok x -> ( match decode b json with Error _ as e -> e | Ok y -> Ok (x, y)))

(* [flag] defaults to the key with dashes for underscores *)
let param ?flag ?at_least ~docv ~doc key kind default =
  let flag =
    match flag with Some f -> f | None -> String.map (function '_' -> '-' | c -> c) key
  in
  Param { key; flag; docv; doc; kind; default; at_least }

let ( let+ ) p f = Map (f, p)
let ( and+ ) a b = Pair (a, b)

(* - the scenarios' declarations - *)

type fault_params = {
  ber : float;
  wearout : float;
  brownout_rate : float;
  brownout_cycles : int;
  upload_loss : float;
  download_loss : float;
  fault_seed : int;
}

type fig7_params = { sizes : int list; seeds : int list }

type resilience_params = {
  mesh_size : int;
  bit_error_rates : float list;
  wearout_rates : float list;
  fault_seed : int;
  seeds : int list;
}

type audit_params = {
  sizes : int list;
  seeds : int list;
  every : int;
  fault : fault_params;
  retries : int;
}

type upper_bound_params = { sizes : int list }

type simulate_params = {
  mesh_size : int;
  seed : int;
  policy : string;
  battery : string;
  controllers : int;
  concurrent_jobs : int;
  workload : string;
  fail_links : int;
  fault : fault_params;
  retries : int;
}

let sizes =
  param "sizes" Ints Experiments.default_sizes ~at_least:2 ~docv:"SIZES"
    ~doc:"Mesh sizes to sweep (square meshes), e.g. --sizes 4,5,6."

let seeds =
  param "seeds" Ints Etextile.Calibration.default_seeds ~docv:"SEEDS"
    ~doc:"Seeds to average over."

let mesh_size =
  param "mesh_size" Int 6 ~flag:"size" ~at_least:2 ~docv:"N" ~doc:"Square mesh size."

let rate key ~doc = param key Float 0. ~at_least:0 ~docv:"RATE" ~doc
let probability key ~doc = param key Float 0. ~at_least:0 ~docv:"P" ~doc

let fault =
  let+ ber = rate "ber" ~doc:"Transient bit-error rate (per bit per cm of link)."
  and+ wearout =
    rate "wearout" ~doc:"Permanent link wear-out rate (Weibull scale, per cm per cycle)."
  and+ brownout_rate = rate "brownout_rate" ~doc:"Node brown-out rate (per node per cycle)."
  and+ brownout_cycles =
    param "brownout_cycles" Int Etx_fault.Spec.zero.brownout_duration_cycles ~at_least:1
      ~docv:"N" ~doc:"Cycles a browned-out node stays offline."
  and+ upload_loss =
    probability "upload_loss"
      ~doc:"Probability a status upload is lost (per node per frame)."
  and+ download_loss =
    probability "download_loss"
      ~doc:"Probability an instruction download is lost (per recomputation)."
  and+ fault_seed =
    param "fault_seed" Int 0 ~docv:"SEED"
      ~doc:"Seed of the fault event stream (replays the exact faults of a failing run)."
  in
  { ber; wearout; brownout_rate; brownout_cycles; upload_loss; download_loss; fault_seed }

let retries =
  param "retries" Int 3 ~at_least:0 ~docv:"N"
    ~doc:"Retransmission budget per hop after a corrupted delivery."

let simulate =
  let+ mesh_size = mesh_size
  and+ seed = param "seed" Int 1 ~docv:"SEED" ~doc:"PRNG seed."
  and+ policy =
    param "policy" String "ear" ~docv:"POLICY"
      ~doc:"Routing policy: ear, sdr, ear2, inverse, linear, maximin."
  and+ battery =
    param "battery" String "thin-film" ~docv:"MODEL"
      ~doc:"Battery model: thin-film or ideal."
  and+ controllers =
    param "controllers" Int 0 ~at_least:0 ~docv:"N"
      ~doc:"Number of battery-powered controllers (0 = one infinite controller)."
  and+ concurrent_jobs =
    param "concurrent_jobs" Int 1 ~flag:"jobs" ~at_least:1 ~docv:"N"
      ~doc:"Concurrent jobs in flight."
  and+ workload =
    param "workload" String "encrypt" ~docv:"KIND"
      ~doc:"Workload: encrypt, decrypt, duplex, or synthetic."
  and+ fail_links =
    param "fail_links" Int 0 ~at_least:0 ~docv:"N"
      ~doc:"Break N random interconnects during the first half of a nominal life."
  and+ fault = fault
  and+ retries = retries in
  { mesh_size; seed; policy; battery; controllers; concurrent_jobs; workload; fail_links;
    fault; retries }

let fig7 =
  let+ sizes = sizes and+ seeds = seeds in
  ({ sizes; seeds } : fig7_params)

let resilience =
  let+ mesh_size =
    param "mesh_size" Int Experiments.default_resilience_size ~flag:"size" ~at_least:2
      ~docv:"N" ~doc:"Square mesh size (the acceptance scenario is the 5x5 fabric)."
  and+ bit_error_rates =
    param "bit_error_rates" Floats Experiments.default_bit_error_rates ~flag:"ber-rates"
      ~at_least:0 ~docv:"RATES" ~doc:"Bit-error rates to sweep."
  and+ wearout_rates =
    param "wearout_rates" Floats Experiments.default_wearout_rates ~at_least:0
      ~docv:"RATES" ~doc:"Link wear-out rates to sweep."
  and+ fault_seed =
    param "fault_seed" Int Experiments.default_resilience_fault_seed ~docv:"SEED"
      ~doc:"Base seed of the fault streams (the run's fault seed is this + seed)."
  and+ seeds = seeds in
  ({ mesh_size; bit_error_rates; wearout_rates; fault_seed; seeds } : resilience_params)

let audit =
  let+ sizes = sizes
  and+ seeds = seeds
  and+ every =
    param "every" Int 1 ~at_least:1 ~docv:"N"
      ~doc:"Run an audit pass every N control frames."
  and+ fault = fault
  and+ retries = retries in
  ({ sizes; seeds; every; fault; retries } : audit_params)

let upper_bound =
  let+ sizes = sizes in
  ({ sizes } : upper_bound_params)

(* - requests - *)

type scenario =
  | Simulate of simulate_params
  | Fig7 of fig7_params
  | Resilience of resilience_params
  | Audit of audit_params
  | Upper_bound of upper_bound_params

let scenarios =
  [
    ("simulate", Map ((fun p -> Simulate p), simulate));
    ("fig7", Map ((fun p -> Fig7 p), fig7));
    ("resilience", Map ((fun p -> Resilience p), resilience));
    ("audit", Map ((fun p -> Audit p), audit));
    ("upper-bound", Map ((fun p -> Upper_bound p), upper_bound));
  ]

type metrics_format = Metrics_json | Metrics_prometheus

type control = Stats | Ping | Shutdown | Metrics of metrics_format

type body = Scenario of scenario | Control of control

type t = {
  id : Json.t;
  priority : int;
  deadline_ms : int option;
  client : string;
  trace_id : string option;
  body : body;
}

let scenario_name = function
  | Scenario (Simulate _) -> "simulate"
  | Scenario (Fig7 _) -> "fig7"
  | Scenario (Resilience _) -> "resilience"
  | Scenario (Audit _) -> "audit"
  | Scenario (Upper_bound _) -> "upper-bound"
  | Control Stats -> "stats"
  | Control Ping -> "ping"
  | Control Shutdown -> "shutdown"
  | Control (Metrics _) -> "metrics"

let parse_metrics params =
  let* format = field String "format" params in
  match format with
  | None | Some "json" -> Ok (Control (Metrics Metrics_json))
  | Some "prometheus" -> Ok (Control (Metrics Metrics_prometheus))
  | Some other ->
    Error (Printf.sprintf "field \"format\" must be \"json\" or \"prometheus\", got %S" other)

type error = { error_id : Json.t; error_code : string; reason : string }

let of_json json =
  match json with
  | Json.Obj _ -> (
    let id = Option.value (Json.member "id" json) ~default:Json.Null in
    let parsed =
      (* the envelope is as strict as the params: 2.5 or "100" never
         becomes a deadline, nor 7 a client or trace id *)
      let* priority = field Int "priority" json in
      let* deadline_ms = field Int "deadline_ms" json in
      let* () =
        match deadline_ms with
        | Some d when d < 0 -> Error "field \"deadline_ms\" must be non-negative"
        | _ -> Ok ()
      in
      let* client = field String "client" json in
      let* trace_id = field String "trace_id" json in
      let* name = field String "scenario" json in
      let params = Option.value (Json.member "params" json) ~default:(Json.Obj []) in
      match name with
      | None -> Error "missing \"scenario\" field"
      | Some name ->
        let* body =
          match (List.assoc_opt name scenarios, name) with
          | Some spec, _ -> Result.map (fun s -> Scenario s) (decode spec params)
          | None, "stats" -> Ok (Control Stats)
          | None, "ping" -> Ok (Control Ping)
          | None, "shutdown" -> Ok (Control Shutdown)
          | None, "metrics" -> parse_metrics params
          | None, other -> Error (Printf.sprintf "unknown scenario %S" other)
        in
        Ok
          {
            id;
            priority = Option.value priority ~default:0;
            deadline_ms;
            client = Option.value client ~default:"";
            trace_id;
            body;
          }
    in
    match parsed with
    | Ok t -> Ok t
    | Error reason -> Error { error_id = id; error_code = "invalid_request"; reason })
  | _ ->
    Error
      {
        error_id = Json.Null;
        error_code = "invalid_request";
        reason = "request must be a JSON object";
      }

let of_line line =
  match Json.parse_result line with
  | Error reason -> Error { error_id = Json.Null; error_code = "parse_error"; reason }
  | Ok json -> of_json json

(* - responses - *)

let ok_response ?cache ~scenario ~elapsed_ms id result =
  Json.Obj
    ([ ("id", id); ("status", Json.String "ok"); ("scenario", Json.String scenario) ]
    @ (match cache with None -> [] | Some how -> [ ("cache", Json.String how) ])
    @ [ ("elapsed_ms", Json.float_lenient elapsed_ms); ("result", result) ])

(* [ok_response] ends with its result, so the envelope printed around a
   [Null] result ends in [null}]; the result's bytes take that place *)
let ok_line ?cache ~scenario ~elapsed_ms id result =
  let envelope = Json.to_string (ok_response ?cache ~scenario ~elapsed_ms id Json.Null) in
  String.concat "" [ String.sub envelope 0 (String.length envelope - 5); result; "}" ]

let error_response ?(extra = []) id code message =
  Json.Obj
    ([
       ("id", id);
       ("status", Json.String "error");
       ("error", Json.String code);
       ("message", Json.String message);
     ]
    @ extra)
