(* In-memory span recorder for the traced run.

   A span records its name, start, end, parent span and the request id
   shared by one request's spans.  Spans stay in memory; [write] dumps
   them at exit as Chrome trace-event JSON, and [table] folds them into
   per-layer self times (duration minus the part covered by child
   spans) that, with an explicit residual, add up to the traced wall
   time. *)

type span = {
  id : int;
  name : string;
  parent : int;  (** 0 = top level *)
  request : int;
  start : float;
  stop : float;
}

type t = {
  mutable recording : bool;
  mutable spans : span list;  (* newest first *)
  mutable next_id : int;
  mutable stack : int list;
  mutable request : int;
  mutable paused_at : float;
  mutable paused : float;  (** seconds spent paused, left out of the wall time *)
}

let create () =
  { recording = false; spans = []; next_id = 1; stack = []; request = 0; paused_at = 0.;
    paused = 0. }

(* [untraced t f] runs [f] with recording off and its time left out of
   the traced wall time (state building between traced sections) *)
let untraced t f =
  if not t.recording then f ()
  else begin
    t.recording <- false;
    t.paused_at <- Common.now ();
    Fun.protect
      ~finally:(fun () ->
        t.paused <- t.paused +. (Common.now () -. t.paused_at);
        t.recording <- true)
      f
  end

let set_request t id = t.request <- id

let span t name f =
  if not t.recording then f ()
  else begin
    let id = t.next_id in
    t.next_id <- id + 1;
    let parent = match t.stack with p :: _ -> p | [] -> 0 in
    t.stack <- id :: t.stack;
    let start = Common.now () in
    let close () =
      let stop = Common.now () in
      t.stack <- List.tl t.stack;
      t.spans <- { id; name; parent; request = t.request; start; stop } :: t.spans
    in
    match f () with
    | v ->
      close ();
      v
    | exception e ->
      close ();
      raise e
  end

let spans t = List.rev t.spans
let dur s = s.stop -. s.start

(* per name: (calls, total duration, self time) in seconds *)
let by_layer t =
  let child_time = Hashtbl.create 256 in
  List.iter
    (fun s ->
      if s.parent <> 0 then
        Hashtbl.replace child_time s.parent
          (dur s +. Option.value (Hashtbl.find_opt child_time s.parent) ~default:0.))
    t.spans;
  let rows = Hashtbl.create 32 in
  List.iter
    (fun s ->
      let self = dur s -. Option.value (Hashtbl.find_opt child_time s.id) ~default:0. in
      let calls, total, selfs =
        Option.value (Hashtbl.find_opt rows s.name) ~default:(0, 0., 0.)
      in
      Hashtbl.replace rows s.name (calls + 1, total +. dur s, selfs +. self))
    t.spans;
  Hashtbl.fold (fun name row acc -> (name, row) :: acc) rows []
  |> List.sort compare

let total t name =
  match List.assoc_opt name (by_layer t) with Some (_, d, _) -> d | None -> 0.

(* mean duration per call in seconds; 0 when the layer never ran *)
let mean t name =
  match List.assoc_opt name (by_layer t) with
  | Some (c, d, _) when c > 0 -> d /. float_of_int c
  | _ -> 0.

let mean_self t name =
  match List.assoc_opt name (by_layer t) with
  | Some (c, _, s) when c > 0 -> s /. float_of_int c
  | _ -> 0.

(* The layer table: self time per layer plus the residual (the
   benchmark's own glue between spans); rows + residual = [wall]. *)
let table t ~wall =
  let rows = by_layer t in
  let covered = List.fold_left (fun acc (_, (_, _, self)) -> acc +. self) 0. rows in
  let residual = wall -. covered in
  let b = Buffer.create 1024 in
  let line name calls self =
    Buffer.add_string b
      (Printf.sprintf "  %-34s %8s %12.3f %7.2f%%\n" name calls (self *. 1000.)
         (100. *. self /. wall))
  in
  Buffer.add_string b
    (Printf.sprintf "  %-34s %8s %12s %8s\n" "layer (span)" "calls" "self ms" "share");
  List.iter (fun (name, (calls, _, self)) -> line name (string_of_int calls) self) rows;
  line "(residual: benchmark glue)" "-" residual;
  line "= traced wall time" "-" (covered +. residual);
  (Buffer.contents b, residual)

let write t path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      let t0 = match spans t with s :: _ -> s.start | [] -> 0. in
      output_string oc "[\n";
      List.iteri
        (fun i s ->
          Printf.fprintf oc
            "%s{\"name\":%S,\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%d,\"parent\":%d,\"request\":%d}}\n"
            (if i = 0 then "" else ",")
            s.name
            ((s.start -. t0) *. 1e6)
            (dur s *. 1e6) s.id s.parent s.request)
        (spans t);
      output_string oc "]\n")

let out_dir = ".bench_out"

let out_path ~workload ~seed =
  (try Unix.mkdir out_dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  Filename.concat out_dir (Printf.sprintf "trace-%s-seed%d.json" workload seed)
