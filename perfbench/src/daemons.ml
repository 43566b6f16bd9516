(* The daemon workloads: [serve-cold] and [cluster-zipf].

   serve-cold: an open loop of distinct [simulate] requests (meshes
   4..8, EAR/SDR/maximin, unique seeds) on one connection to one
   [etx serve --store DIR].  Every request misses, so compute and store
   writes are the cost.

   cluster-zipf: an open loop of Zipf-popular [simulate] requests
   through [etx route] in front of three [etx serve --store] backends
   sharing one store.  The key set is twice the backends' combined LRU
   and set-up prefills the store, so nothing computes in the measured
   window: head keys hit the LRU, tail keys are read from the store.

   Both run the open loop, then a closed loop with one request in
   flight, then check every response and the daemons' own stats. *)

module Json = Etx_util.Json
module Request = Etx_service.Request
module Handlers = Etx_service.Handlers
module Cache = Etx_service.Cache
module Store = Etx_service.Store
module Ring = Etx_service.Ring
module Server = Etx_service.Server
module Cluster = Etx_service.Cluster

type kind = Serve_cold | Cluster_zipf

let name = function Serve_cold -> "serve-cold" | Cluster_zipf -> "cluster-zipf"

(* - request streams - *)

let simulate_line ~id ~size ~policy ~seed =
  Printf.sprintf
    {|{"scenario":"simulate","params":{"mesh_size":%d,"policy":"%s","seed":%d},"id":%d}|}
    size policy seed id

(* serve-cold: 15 (size, policy) classes in a fixed interleaved cycle,
   each request with its own simulation seed *)
let cold_line ~wseed i =
  let size = [| 4; 8; 5; 7; 6 |].(i mod 5) in
  let policy = [| "ear"; "sdr"; "maximin" |].(i mod 3) in
  simulate_line ~id:i ~size ~policy ~seed:((wseed * 1_000_000) + i)

(* cluster-zipf: [keys] cheap-to-compute keys, twice the three
   backends' combined LRU (3 x 128), so the tail is read from the store.
   Popularity rank r has weight 1/(r+1)^zipf_s; 0.99 is YCSB's default
   Zipfian constant (Cooper et al., SoCC 2010), itself chosen near the
   exponents measured on web request traces (Breslau et al., INFOCOM
   1999).  The workload seed shuffles ranks onto keys, and the ring
   places each key where it hashes, so the seed decides how the hot
   keys fall across backends, as in natural traffic. *)
let keys = 768
let zipf_s = 0.99

let key_line ~wseed ~id k =
  simulate_line ~id ~size:(4 + (k mod 3)) ~policy:"sdr" ~seed:((wseed * 1_000_000) + k)

type zipf = { cdf : float array; key_of_rank : int array; wseed : int }

(* backend sockets as the router names them, relative to the run
   directory; the benchmark's own ring replica uses the same names *)
let backend_names = [ "b0.sock"; "b1.sock"; "b2.sock" ]

let scenario_of line =
  match Request.of_line line with
  | Ok { Request.body = Request.Scenario s; _ } -> s
  | _ -> failwith ("not a scenario request: " ^ line)

let fingerprint s =
  match Handlers.fingerprint s with Ok fp -> fp | Error e -> failwith e

let zipf wseed =
  let w = Array.init keys (fun r -> 1. /. (float_of_int (r + 1) ** zipf_s)) in
  let total = Array.fold_left ( +. ) 0. w in
  let acc = ref 0. in
  let cdf = Array.map (fun x -> acc := !acc +. (x /. total); !acc) w in
  let rng = Random.State.make [| wseed; 0x7a1f |] in
  let key_of_rank = Array.init keys Fun.id in
  for i = keys - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = key_of_rank.(i) in
    key_of_rank.(i) <- key_of_rank.(j);
    key_of_rank.(j) <- t
  done;
  { cdf; key_of_rank; wseed }

(* the key of stream request [i]: a pure function of (seed, i) *)
let zipf_key z i =
  let u = float_of_int (Hashtbl.hash (z.wseed, i, 0x2545f491)) /. float_of_int 0x40000000 in
  let rec search lo hi = if lo >= hi then lo
    else let mid = (lo + hi) / 2 in
      if z.cdf.(mid) < u then search (mid + 1) hi else search lo mid in
  z.key_of_rank.(search 0 (keys - 1))

(* - the live system - *)

type env = {
  front : Proc.child;  (** the daemon the load connects to *)
  backends : Proc.child list;
  conn : Loadgen.conn;
  before : string list;  (** lines the daemons saw during set-up, in order *)
  first_result : (string, string) Hashtbl.t;  (** key line -> first result bytes *)
  rate : float;  (** open-loop requests per second *)
  setup_s : float;
}

let ready_timeout = 30.

(* Bytes of the [result] member: it is the last member of an ok
   response, so they run to the closing brace. *)
let result_bytes line =
  let marker = {|,"result":|} in
  let m = String.length marker in
  let rec find i =
    if i + m > String.length line then None
    else if String.sub line i m = marker then Some i
    else find (i + 1)
  in
  Option.map
    (fun i -> String.sub line (i + m) (String.length line - i - m - 1))
    (find 0)

(* the request line with its id erased: the identity of a key *)
let key_of_line line =
  match String.rindex_opt line ',' with Some i -> String.sub line 0 i | None -> line

(* Check one response to request [id]: ok status, echoed id, every job
   verified, and result bytes identical to any earlier answer for the
   same key. *)
let check env ~id ~request response =
  match Json.parse_result response with
  | Error _ -> false
  | Ok json ->
    let int_at path =
      List.fold_left (fun j k -> Option.bind j (Json.member k)) (Some json) path
      |> fun j -> Option.bind j Json.to_int
    in
    let same_bytes =
      match result_bytes response with
      | None -> false
      | Some bytes -> (
        let key = key_of_line request in
        match Hashtbl.find_opt env.first_result key with
        | Some first -> first = bytes
        | None ->
          Hashtbl.replace env.first_result key bytes;
          true)
    in
    Json.member "status" json = Some (Json.String "ok")
    && int_at [ "id" ] = Some id
    && (match (int_at [ "result"; "jobs_verified" ], int_at [ "result"; "jobs_completed" ]) with
       | Some v, Some c -> v = c && c > 0
       | _ -> false)
    && same_bytes

let stats_line = {|{"scenario":"stats"}|}

let stats_via send =
  match Json.parse_result (send stats_line) with
  | Ok json -> (
    match Json.member "result" json with Some r -> r | None -> failwith "stats: no result")
  | Error e -> failwith ("stats: " ^ e)

let counter json path =
  List.fold_left (fun j k -> Option.bind j (Json.member k)) (Some json) path
  |> (fun j -> Option.bind j Json.to_int)
  |> Option.value ~default:0

(* per backend: cache hits, store hits, store misses (= computed) *)
let backend_counts env =
  List.map
    (fun (b : Proc.child) ->
      let send line =
        if b == env.front then Loadgen.call env.conn line
        else Loadgen.request (Option.get b.socket) line
      in
      let s = stats_via send in
      ( counter s [ "cache"; "hits" ],
        counter s [ "store"; "hits" ],
        counter s [ "store"; "misses" ] ))
    env.backends

let router_counts env =
  let s = stats_via (Loadgen.call env.conn) in
  ( counter s [ "failover_total" ],
    counter s [ "shed_total" ],
    counter s [ "degraded_total" ] )

let sum3 l = List.fold_left (fun (a, b, c) (x, y, z) -> (a + x, b + y, c + z)) (0, 0, 0) l
let sub3 (a, b, c) (x, y, z) = (a - x, b - y, c - z)

let serve_args = [ "serve"; "--jobs"; "1"; "--store"; "store" ]

(* Closed-loop completion rates per slice of [size] consecutive
   completions (one slice if the loop is shorter).  Their median guards
   against a stall of the shared host. *)
let slice_rates ~size finished ~start =
  let n = Array.length finished / size in
  if n = 0 then
    [| float_of_int (Array.length finished) /. (Array.fold_left Float.max start finished -. start) |]
  else
    Array.init n (fun k ->
      let t0 = if k = 0 then start else finished.((k * size) - 1) in
      float_of_int size /. (finished.(((k + 1) * size) - 1) -. t0))

(* cluster-zipf's open loop offers an eighth of the closed-loop
   capacity that set-up measures on the same daemons (1000 Zipf
   requests, one in flight, rated in slices of 250).  Its requests all
   cost about the same, so the backlog of a ~15 ms host stall (about 7
   arrivals) drains within ~2 ms, and the median measures per-request
   cost, not queueing. *)
let utilisation = 0.125
let probe_size = 1000
let probe_slice = 250

(* serve-cold's open loop sends 6 requests/s.  Arrivals 167 ms apart are
   wider than its slowest request (8x8 EAR: ~50 ms, ~85 ms while the
   shared host is slow, ~160 ms when it is busy), so no request queues
   behind another; at 20 req/s the median jumped between 7 and 17 ms
   from run to run.  A fixed rate also sends the same requests for a
   seed in every run, whatever the host's speed. *)
let cold_rate = 6.

(* serve-cold's warm-up: the cheapest simulate, on a seed no window
   request uses (those are wseed * 10^6 + i), so the request path has
   run once end to end *)
let cold_warmup = simulate_line ~id:900_000 ~size:4 ~policy:"sdr" ~seed:900_000

(* Spawn the daemons and wait until they answer.  serve-cold then sends
   its warm-up request; cluster-zipf prefills the store and probes the
   capacity, which also warms its LRUs.  Every answer is checked.  No
   set-up step is a benchmark-sized compute: the shared host's compute
   speed swings by up to 1.8x for seconds to a minute at a time, and
   set-up time is to follow the program's start, not those swings. *)
let setup kind proc ~wseed =
  let t0 = Common.now () in
  let spawn_serve name = Proc.serve proc ~name serve_args in
  let backends, front =
    match kind with
    | Serve_cold ->
      let b = spawn_serve "serve" in
      ([ b ], b)
    | Cluster_zipf ->
      let bs = List.map (fun n -> spawn_serve (Filename.chop_suffix n ".sock")) backend_names in
      (bs, Proc.serve proc ~name:"router" [ "route"; "--backends"; String.concat "," backend_names ])
  in
  List.iter (fun c -> Proc.await_ready c ~timeout:ready_timeout) (backends @ [ front ]);
  let conn = Loadgen.connect (Option.get front.socket) in
  let env =
    { front; backends; conn; before = []; first_result = Hashtbl.create 1024; rate = 0.;
      setup_s = 0. }
  in
  let check_all lines responses =
    Array.iteri
      (fun i response ->
        let id = counter (Json.parse lines.(i)) [ "id" ] in
        if not (check env ~id ~request:lines.(i) response) then
          failwith ("set-up request failed: " ^ lines.(i)))
      responses
  in
  match kind with
  | Serve_cold ->
    check_all [| cold_warmup |] [| Loadgen.call conn cold_warmup |];
    { env with before = [ cold_warmup ]; rate = cold_rate; setup_s = Common.now () -. t0 }
  | Cluster_zipf ->
    (* the prefill is pipelined in one burst *)
    let prefill = Array.init keys (fun k -> key_line ~wseed ~id:(1_000_000 + k) k) in
    let burst =
      Loadgen.open_loop conn ~first:0 ~n:keys ~interval:0. ~line:(fun i -> prefill.(i))
    in
    check_all prefill burst.Loadgen.responses;
    let z = zipf wseed in
    let probe =
      Array.init probe_size (fun j -> key_line ~wseed ~id:(2_000_000 + j) (zipf_key z (-1 - j)))
    in
    let start = Common.now () in
    let responses = Array.make probe_size "" in
    let finished =
      Array.mapi
        (fun i line ->
          responses.(i) <- Loadgen.call conn line;
          Common.now ())
        probe
    in
    check_all probe responses;
    {
      env with
      before = Array.to_list prefill @ Array.to_list probe;
      rate = utilisation *. Common.median (slice_rates ~size:probe_slice finished ~start);
      setup_s = Common.now () -. t0;
    }

(* - traced replay through the public functions - *)

let copy_dir src dst =
  Unix.mkdir dst 0o700;
  Array.iter
    (fun f ->
      let data = Common.read_file (Filename.concat src f) in
      Out_channel.with_open_bin (Filename.concat dst f) (fun oc -> output_string oc data))
    (Sys.readdir src)

let fresh_store kind proc name =
  let dir = Proc.path proc name in
  (match kind with
   | Serve_cold -> Unix.mkdir dir 0o700
   | Cluster_zipf -> copy_dir (Proc.path proc "store") dir);
  dir

(* The server's per-request steps, each a span: parse, fingerprint, ring
   lookup (cluster), LRU, store, compute + store write on a miss, and
   the result's serialisation.  Returns, for a computed result, the
   scenario, compute time and result. *)
let explicit_step tr ~pool ~store ~cache_of ~ring line =
  let sp name f = Tracer.span tr name f in
  let req = sp "service.request.of_line" (fun () -> Request.of_line line) in
  let scenario =
    match req with
    | Ok { Request.body = Request.Scenario s; _ } -> s
    | _ -> failwith "replay: not a scenario"
  in
  let fp =
    match sp "service.handlers.fingerprint" (fun () -> Handlers.fingerprint scenario) with
    | Ok fp -> fp
    | Error e -> failwith e
  in
  let owner =
    match ring with
    | None -> ""
    | Some r -> List.hd (sp "service.ring.ordered" (fun () -> Ring.ordered r fp))
  in
  let cache = cache_of owner in
  let result, computed =
    match sp "service.cache.find" (fun () -> Cache.find cache fp) with
    | Some r -> (r, None)
    | None -> (
      match sp "service.store.find" (fun () -> Store.find store fp) with
      | Some bytes ->
        let r = sp "util.json.parse" (fun () -> Json.parse bytes) in
        Cache.add cache fp r;
        (r, None)
      | None ->
        let s = Common.now () in
        let r =
          match sp "service.handlers.execute" (fun () -> Handlers.execute ~pool scenario) with
          | Ok r -> r
          | Error e -> failwith e
        in
        let seconds = Common.now () -. s in
        let bytes = sp "util.json.to_string" (fun () -> Json.to_string r) in
        sp "service.store.add" (fun () -> Store.add store fp bytes);
        Cache.add cache fp r;
        (r, Some (scenario, seconds, r)))
  in
  ignore (sp "util.json.to_string" (fun () -> Json.to_string result));
  computed

let cache_capacity = Server.default_config.Server.cache_capacity

let caches () =
  let t = Hashtbl.create 4 in
  fun owner ->
    match Hashtbl.find_opt t owner with
    | Some c -> c
    | None ->
      let c = Cache.create ~capacity:cache_capacity in
      Hashtbl.replace t owner c;
      c

(* replay [before] untraced to reach the window's starting state, then
   [lines] traced (if [tr] records); returns the computed sims *)
let explicit_replay kind proc tr ~tag ~ring ~before ~lines =
  let store =
    Tracer.untraced tr (fun () -> Store.open_dir (fresh_store kind proc ("replay-store-" ^ tag)))
  in
  let cache_of = caches () in
  Etx_util.Pool.with_pool ~domains:1 (fun pool ->
    Tracer.untraced tr (fun () ->
      List.iter (fun l -> ignore (explicit_step tr ~pool ~store ~cache_of ~ring l)) before);
    let t0 = Common.now () in
    let sims =
      Array.to_list lines
      |> List.mapi (fun i l ->
           Tracer.set_request tr i;
           explicit_step tr ~pool ~store ~cache_of ~ring l)
      |> List.filter_map Fun.id
    in
    (sims, Common.now () -. t0))

let sim_of (scenario, seconds, result) =
  match scenario with
  | Request.Simulate p ->
    let policy =
      match Handlers.policy_of_string p.Request.policy with Ok p -> p | Error e -> failwith e
    in
    let config =
      Etextile.Calibration.config ~policy ~mesh_size:p.Request.mesh_size ~seed:p.Request.seed ()
    in
    let n k = counter result [ k ] in
    {
      Engine_split.config;
      seconds;
      recomputes = n "recomputations";
      frames = n "frames";
      hops = n "hops_total";
      acts = n "acts_total";
      jobs = n "jobs_completed";
    }
  | _ -> failwith "replay: not a simulate request"

(* In-process servers (one per backend, sharing a store) behind, for the
   cluster, an in-process router whose rpc calls them directly and
   counts each call as one connection. *)
let inprocess_replay kind proc tr ~names ~ping_socket ~before ~lines =
  let servers =
    Tracer.untraced tr (fun () ->
      let store = fresh_store kind proc "replay-store-server" in
      let cfg = { Server.default_config with Server.store_dir = Some store; domains = 1 } in
      List.map (fun n -> (n, Server.create cfg)) names)
  in
  let connects = ref 0 in
  Fun.protect
    ~finally:(fun () -> List.iter (fun (_, s) -> Server.shutdown s) servers)
    (fun () ->
      let serve_line server line =
        List.hd (Tracer.span tr "service.server.handle_batch" (fun () ->
          Server.handle_batch server [ line ]))
      in
      let handle =
        match kind with
        | Serve_cold ->
          let server = snd (List.hd servers) in
          fun line -> ignore (serve_line server line)
        | Cluster_zipf ->
          let rpc ~path ~timeout_s:_ line =
            incr connects;
            Ok (serve_line (List.assoc path servers) line)
          in
          let cluster = Cluster.create ~rpc (Cluster.default_config ~backends:names) in
          fun line ->
            ignore
              (Tracer.span tr "service.cluster.handle_batch" (fun () ->
                 Cluster.handle_batch cluster [ line ]))
      in
      Tracer.untraced tr (fun () -> List.iter handle before);
      connects := 0;
      Array.iteri
        (fun i l ->
          Tracer.set_request tr i;
          handle l)
        lines;
      (* transport: a ping over a fresh connection to the live daemon
         against the same ping handled in process *)
      let server = snd (List.hd servers) in
      for _ = 1 to 200 do
        ignore (Tracer.span tr "service.netio.ping" (fun () ->
          Loadgen.request ping_socket Proc.ping_line));
        ignore (Tracer.span tr "service.server.ping" (fun () ->
          Server.handle_batch server [ Proc.ping_line ]))
      done;
      !connects)

(* Untimed replay of the whole stream through benchmark-owned caches
   and a key set standing in for the store: how each window request
   should have been served, for cross-checking the daemons' counts. *)
let expected_counts ~ring ~before ~window =
  let cache_of = caches () in
  let stored = Hashtbl.create 1024 in
  let serve count line =
    let fp = fingerprint (scenario_of line) in
    let owner = match ring with None -> "" | Some r -> List.hd (Ring.ordered r fp) in
    let cache = cache_of owner in
    let hit, store_hit, computed = count in
    match Cache.find cache fp with
    | Some () -> (hit + 1, store_hit, computed)
    | None ->
      Cache.add cache fp ();
      if Hashtbl.mem stored fp then (hit, store_hit + 1, computed)
      else begin
        Hashtbl.replace stored fp ();
        (hit, store_hit, computed + 1)
      end
  in
  ignore (List.fold_left serve (0, 0, 0) before);
  Array.fold_left serve (0, 0, 0) window

let owner_shares ~ring ~window =
  match ring with
  | None -> 1.
  | Some r ->
    let counts = Hashtbl.create 4 in
    Array.iter
      (fun line ->
        let o = Option.get (Ring.lookup r (fingerprint (scenario_of line))) in
        Hashtbl.replace counts o (1 + Option.value (Hashtbl.find_opt counts o) ~default:0))
      window;
    let top = Hashtbl.fold (fun _ c acc -> max c acc) counts 0 in
    float_of_int top /. float_of_int (Array.length window)

let replay_cap = function Serve_cold -> 80 | Cluster_zipf -> 2000

let traced kind proc env ~wseed ~window ~daemon_counts =
  let tr = Tracer.create () in
  let names = match kind with Serve_cold -> [ "serve.sock" ] | Cluster_zipf -> backend_names in
  let ping_socket = Option.get (List.hd env.backends).Proc.socket in
  let ring = match kind with Serve_cold -> None | Cluster_zipf -> Some (Ring.create names) in
  let sub = Array.sub window 0 (min (Array.length window) (replay_cap kind)) in
  Etx_obs.Obs.arm ();
  (* the untraced replay runs right before the traced one, after an
     untimed round: the first replay in this process also pays for
     growing its heap *)
  let bare tag = snd (explicit_replay kind proc tr ~tag ~ring ~before:env.before ~lines:sub) in
  ignore (bare "warm-up");
  let bare_wall = bare "bare" in
  tr.Tracer.recording <- true;
  let wall0 = Common.now () in
  let sims, explicit_wall =
    explicit_replay kind proc tr ~tag:"traced" ~ring ~before:env.before ~lines:sub
  in
  let connects =
    inprocess_replay kind proc tr ~names ~ping_socket ~before:env.before ~lines:sub
  in
  let split = Engine_split.metrics (Engine_split.prices ()) tr (List.map sim_of sims) in
  let wall = Common.now () -. wall0 -. tr.Tracer.paused in
  tr.Tracer.recording <- false;
  let text, residual = Tracer.table tr ~wall in
  Tracer.write tr (Tracer.out_path ~workload:(name kind) ~seed:wseed);
  let n = float_of_int (Array.length sub) in
  let us name = 1e6 *. Tracer.mean tr name in
  let layer_total =
    List.fold_left
      (fun acc l -> acc +. Tracer.total tr l)
      0.
      [
        "service.request.of_line"; "service.handlers.fingerprint"; "service.cache.find";
        "service.store.find"; "util.json.parse"; "service.handlers.execute";
        "util.json.to_string"; "service.store.add";
      ]
  in
  let hits, store_hits, computed = expected_counts ~ring ~before:env.before ~window in
  let total = float_of_int (Array.length window) in
  let lookups = total -. float_of_int hits in
  let d_hits, d_store, d_computed = daemon_counts in
  let m = Common.metric in
  let cluster x = match kind with Cluster_zipf -> x | Serve_cold -> 0. in
  ( [
      m "service.handlers.execute_ms" (1e3 *. Tracer.mean tr "service.handlers.execute");
      m "service.store.write_us" (us "service.store.add");
      m "service.store.read_us" (us "service.store.find");
      m "service.store.hit_ratio"
        (if lookups > 0. then float_of_int store_hits /. lookups else 0.);
      m "service.request.parse_us" (us "service.request.of_line");
      m "service.handlers.fingerprint_us" (us "service.handlers.fingerprint");
      m "service.cache.find_us" (us "service.cache.find");
      m "service.cache.hit_ratio" (float_of_int hits /. total);
      m "util.json.print_us" (us "util.json.to_string");
      (* where compute dominates, load drift between the two replays
         swamps the difference, so it is resolved on cluster-zipf only *)
      m "service.server.self_us"
        (cluster (us "service.server.handle_batch" -. (1e6 *. layer_total /. n)));
      m "service.netio.rtt_us" (us "service.netio.ping" -. us "service.server.ping");
      m "service.ring.lookup_us" (us "service.ring.ordered");
      m "service.ring.max_share" (cluster (owner_shares ~ring ~window));
      m "service.cluster.router_us"
        (1e6 *. Tracer.mean_self tr "service.cluster.handle_batch");
      m "service.cluster.connects_per_req" (cluster (float_of_int connects /. n));
      m "trace.overhead_frac" ((explicit_wall /. bare_wall) -. 1.);
      m "trace.wall_s" wall;
      m "trace.residual_frac" (residual /. wall);
    ]
    @ split,
    text,
    [
      ( "benchmark-owned caches reproduce the daemons' hit/store/compute counts",
        (hits, store_hits, computed) = (d_hits, d_store, d_computed) );
    ] )

(* - one run - *)

(* A percentile of each consecutive slice of the open loop, reported as
   the median over slices.  The host is a shared 2-vCPU VM that stalls
   for ~15 ms at a time, more often in busy periods; a stall delays
   every request queued behind it, so over a whole window the stall
   count decides the tail, which is why the p90 and p99 carry no bound.
   The median over slices is the latency of a typical slice.  Slices
   hold at least [min_size] requests; a short window is one slice. *)
let slice_percentile ~min_size lat quantile =
  let n = Array.length lat in
  let slices = max 1 (n / min_size) in
  Common.median
    (Array.init slices (fun k ->
       let lo = k * n / slices and hi = (k + 1) * n / slices in
       quantile (Array.sub lat lo (hi - lo))))

let p50 s = Common.hd_quantile s 0.5

(* requests in one cycle of the stream's work mix *)
let cycle = function Serve_cold -> 15 | Cluster_zipf -> 1

(* Closed-loop capacity over the window's closed parts, given as
   (run, wall time, end time).  serve-cold's cost varies with each
   request's simulation seed, so it takes every completion over the
   whole closed time, which averages over the most seeds; a host stall
   is small against its ~20 ms requests.  cluster-zipf's is the median
   over slices of 1000 completions. *)
let capacity kind parts =
  match kind with
  | Serve_cold ->
    let sum f = List.fold_left (fun acc p -> acc +. f p) 0. parts in
    sum (fun ((r : Loadgen.run), _, _) -> float_of_int (Array.length r.finished))
    /. sum (fun (_, wall, _) -> wall)
  | Cluster_zipf ->
    Common.median
      (Array.concat
         (List.map
            (fun ((r : Loadgen.run), wall, stop) ->
              slice_rates ~size:1000 r.finished ~start:(stop -. wall))
            parts))

(* The window runs in [phases] equal parts, each an open loop for
   [open_share] of it and then a closed loop, so both loops sample the
   whole window: a slow spell of the shared host (its compute speed
   swings by up to 1.8x for tens of seconds) falls in part of each
   rather than in all of one. *)
let phases = 4
let open_share = 0.7
let lag_bound_ms = 20.

(* set-ups per round, of three (see Common.setup_s): serve-cold's take ~6 ms,
   cluster-zipf's ~2 s, each already spanning several host states *)
let per_round = function Serve_cold -> 5 | Cluster_zipf -> 1

(* [n] set-ups on daemons of their own, each torn down at once *)
let setup_round kind ~etx ~wseed n =
  List.init n (fun _ ->
    Proc.with_run ~etx (fun proc ->
      let env = setup kind proc ~wseed in
      Loadgen.close env.conn;
      env.setup_s))

(* [hook proc i] runs before open-loop request [i] is queued (fault
   injection for the abort test) *)
let run kind ~etx ~wseed ~seconds ~trace ?(hook = fun _ _ -> ()) () =
  (* the first round ends with the set-up of the measured daemons *)
  let before = setup_round kind ~etx ~wseed (per_round kind - 1) in
  Proc.with_run ~etx (fun proc ->
    let env = setup kind proc ~wseed in
    Fun.protect ~finally:(fun () -> Loadgen.close env.conn) (fun () ->
    let z = zipf wseed in
    let line i =
      match kind with
      | Serve_cold -> cold_line ~wseed i
      | Cluster_zipf -> key_line ~wseed ~id:i (zipf_key z i)
    in
    let pids =
      List.sort_uniq compare (List.map (fun (b : Proc.child) -> b.pid) (env.front :: env.backends))
    in
    let cpu () = List.fold_left (fun acc pid -> acc +. Common.cpu_of_pid pid) 0. pids in
    let counts0 = sum3 (backend_counts env) in
    let router0 = match kind with Cluster_zipf -> router_counts env | Serve_cold -> (0, 0, 0) in
    let cpu0 = cpu () in
    let phase_s = seconds /. float_of_int phases in
    let n_phase =
      let n = int_of_float (env.rate *. phase_s *. open_share) in
      max (cycle kind) (n / cycle kind * cycle kind)
    in
    (* the halfway set-up round runs between two parts, off the clock *)
    let halfway = ref [] and paused = ref 0. and next = ref 0 in
    let t0 = Common.now () in
    let parts =
      List.init phases (fun k ->
        if k = phases / 2 then begin
          let s = Common.now () in
          halfway := setup_round kind ~etx ~wseed (per_round kind);
          paused := Common.now () -. s
        end;
        let first = !next in
        let opened =
          Loadgen.open_loop ~hook:(fun i -> hook proc (first + i)) env.conn ~first ~n:n_phase
            ~interval:(1. /. env.rate) ~line
        in
        let closed, wall =
          Loadgen.closed_loop env.conn ~first:(first + n_phase)
            ~until:(t0 +. !paused +. (float_of_int (k + 1) *. phase_s))
            ~line
        in
        next := first + n_phase + Array.length closed.responses;
        (opened, (closed, wall, Common.now ())))
    in
    let opened = Loadgen.concat (List.map fst parts) in
    let closed_parts = List.map snd parts in
    let closed = Loadgen.concat (List.map (fun (r, _, _) -> r) closed_parts) in
    let n_open = Array.length opened.responses in
    let cpu_s = cpu () -. cpu0 in
    let counts = sub3 (sum3 (backend_counts env)) counts0 in
    let router =
      match kind with
      | Cluster_zipf -> sub3 (router_counts env) router0
      | Serve_cold -> (0, 0, 0)
    in
    let rss =
      List.fold_left (fun acc pid -> Float.max acc (Common.peak_rss_mb (string_of_int pid))) 0. pids
    in
    (* every response, then a few repeats that must replay the same bytes *)
    let failed = ref 0 in
    let check_run (r : Loadgen.run) =
      Array.iteri
        (fun k response ->
          let i = r.indexes.(k) in
          if not (check env ~id:i ~request:(line i) response) then incr failed)
        r.responses
    in
    check_run opened;
    check_run closed;
    let repeats = Array.init 5 (fun k -> k * 7) in
    Array.iter
      (fun i ->
        if not (check env ~id:i ~request:(line i) (Loadgen.call env.conn (line i))) then
          incr failed)
      repeats;
    Loadgen.close env.conn;
    let after = setup_round kind ~etx ~wseed (per_round kind) in
    let setup_s = Common.setup_s ((env.setup_s :: before) @ !halfway @ after) in
    let attempted = n_open + Array.length closed.responses in
    let lat = Array.map (fun s -> 1000. *. s) (Loadgen.latencies opened) in
    let lag = Array.mapi (fun i d -> 1000. *. (opened.sent.(i) -. d)) opened.due in
    let lag_p99 = Common.percentile lag 0.99 in
    let hits, store_hits, computed = counts in
    let failovers, shed, degraded = router in
    let window = Array.init attempted line in
    let checks =
      [
        ("every window request answered", Array.for_all (fun x -> not (Float.is_nan x)) opened.finished);
        (Printf.sprintf "loadgen lag p99 within %g ms" lag_bound_ms, lag_p99 <= lag_bound_ms);
      ]
      @
      match kind with
      | Serve_cold ->
        [ ("serve-cold computed every request", computed = attempted && hits = 0 && store_hits = 0) ]
      | Cluster_zipf ->
        [
          ("cluster-zipf computed nothing in the window", computed = 0);
          ("cluster-zipf served LRU hits and store reads", hits > 0 && store_hits > 0);
          ("cluster-zipf had no failover, shed or degraded", failovers = 0 && shed = 0 && degraded = 0);
        ]
    in
    let m = Common.metric in
    let e2e =
      [
        m "setup_s" setup_s;
        m "latency_p50_ms" (slice_percentile ~min_size:500 lat p50);
        m "capacity_ops_s" (capacity kind closed_parts);
        m "cpu_ms_per_op" (1000. *. cpu_s /. float_of_int attempted);
        m "peak_rss_mb" rss;
      ]
    in
    let base_layers =
      [
        m "loadgen.offered_rps" env.rate;
        m "loadgen.sent" (float_of_int attempted);
        m "loadgen.failed" (float_of_int !failed);
        m "loadgen.lag_p99_ms" lag_p99;
        m "tail.latency_p90_ms"
          (slice_percentile ~min_size:500 lat (fun s -> Common.percentile s 0.9));
        m "tail.latency_p99_ms"
          (slice_percentile ~min_size:1000 lat (fun s -> Common.percentile s 0.99));
        m "daemon.cache_hits" (float_of_int hits);
        m "daemon.store_hits" (float_of_int store_hits);
        m "daemon.computed" (float_of_int computed);
        m "router.failovers" (float_of_int failovers);
        m "router.shed" (float_of_int shed);
      ]
    in
    let layers, table, trace_checks =
      if not trace then (base_layers, None, [])
      else
        let layers, text, checks = traced kind proc env ~wseed ~window ~daemon_counts:counts in
        (base_layers @ layers, Some text, checks)
    in
    {
      Common.attempted;
      failed = !failed;
      checks = checks @ trace_checks;
      e2e;
      layers;
      table;
    }))
