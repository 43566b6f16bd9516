let default_domains () = Domain.recommended_domain_count ()

(* Sequential reference semantics: apply in list order (List.map's
   application order is unspecified, so spell it out). *)
let rec map_seq f = function
  | [] -> []
  | x :: rest ->
    let y = f x in
    y :: map_seq f rest

type 'b slot = Empty | Value of 'b | Raised of exn * Printexc.raw_backtrace

(* The one scheduler.  [t] owns its worker domains for its whole
   lifetime (a server must not pay spawn latency per request, nor leak
   domains from an abandoned call); [run] feeds them tasks through a
   shared queue, each writing its result at its input index, so results
   keep the exact input order and stay bit-identical to a sequential
   run.  [map] is a short-lived
   [t] around one [run]. *)
type t = {
  lock : Mutex.t;
  work_ready : Condition.t;  (* a task was enqueued, or the pool is stopping *)
  task_done : Condition.t;  (* a running [run] may have completed *)
  pending : (unit -> unit) Queue.t;
  mutable stopping : bool;
  mutable members : unit Domain.t list;
  size : int;
}

let size t = t.size

let rec worker_loop t =
  Mutex.lock t.lock;
  let rec next () =
    if t.stopping then None
    else
      match Queue.take_opt t.pending with
      | Some task -> Some task
      | None ->
        Condition.wait t.work_ready t.lock;
        next ()
  in
  let task = next () in
  Mutex.unlock t.lock;
  match task with
  | None -> ()
  | Some task ->
    task ();
    worker_loop t

let create ?domains () =
  let size = max 1 (match domains with Some d -> d | None -> default_domains ()) in
  let t =
    {
      lock = Mutex.create ();
      work_ready = Condition.create ();
      task_done = Condition.create ();
      pending = Queue.create ();
      stopping = false;
      members = [];
      size;
    }
  in
  t.members <- List.init size (fun _ -> Domain.spawn (fun () -> worker_loop t));
  t

let shutdown t =
  Mutex.lock t.lock;
  let members = t.members in
  t.stopping <- true;
  t.members <- [];
  Condition.broadcast t.work_ready;
  Mutex.unlock t.lock;
  (* only the first call sees a non-empty member list, so a double
     shutdown never double-joins *)
  List.iter Domain.join members

let check_open t =
  if t.stopping then invalid_arg "Pool.run: pool has been shut down"

let run t f xs =
  match xs with
  | [] -> []
  | [ x ] ->
    check_open t;
    [ f x ]
  | _ ->
    let input = Array.of_list xs in
    let n = Array.length input in
    let results = Array.make n Empty in
    let remaining = ref n in
    (* Each queued task claims the next index, so indices start in input
       order.  Once one raises, later tasks claim nothing: no element
       that has not started yet will start. *)
    let next = Atomic.make 0 in
    let cancelled = Atomic.make false in
    let task () =
      (if not (Atomic.get cancelled) then
         let i = Atomic.fetch_and_add next 1 in
         match f input.(i) with
         | y -> results.(i) <- Value y
         | exception e ->
           results.(i) <- Raised (e, Printexc.get_raw_backtrace ());
           Atomic.set cancelled true);
      Mutex.lock t.lock;
      decr remaining;
      if !remaining = 0 then Condition.broadcast t.task_done;
      Mutex.unlock t.lock
    in
    Mutex.lock t.lock;
    (match check_open t with
    | () -> ()
    | exception e ->
      Mutex.unlock t.lock;
      raise e);
    for _ = 1 to n do
      Queue.add task t.pending
    done;
    Condition.broadcast t.work_ready;
    while !remaining > 0 do
      Condition.wait t.task_done t.lock
    done;
    Mutex.unlock t.lock;
    (* Every index below a failed one was claimed before it and ran to
       completion, so the lowest-index exception is exactly the one a
       sequential map would have surfaced first. *)
    Array.iter
      (function
        | Raised (e, bt) -> Printexc.raise_with_backtrace e bt
        | Empty | Value _ -> ())
      results;
    Array.to_list
      (Array.map (function Value y -> y | Empty | Raised _ -> assert false) results)

let with_pool ?domains f =
  let t = create ?domains () in
  Fun.protect ~finally:(fun () -> shutdown t) (fun () -> f t)

let map ?domains f xs =
  let domains = match domains with Some d -> d | None -> default_domains () in
  let n = List.length xs in
  if domains <= 1 || n <= 1 then map_seq f xs
  else with_pool ~domains:(min domains n) (fun t -> run t f xs)

type error = {
  exn : exn;
  backtrace : Printexc.raw_backtrace;
  attempts : int;
}

type 'a outcome = Completed of 'a | Crashed of error

let attempt ~retries f =
  if retries < 0 then invalid_arg "Pool.attempt: negative retry budget";
  fun x ->
    let rec go attempts =
      match f x with
      | y -> Completed y
      | exception e ->
        let bt = Printexc.get_raw_backtrace () in
        if attempts <= retries then go (attempts + 1)
        else Crashed { exn = e; backtrace = bt; attempts }
    in
    go 1
