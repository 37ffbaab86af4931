let recommended_jobs () = Domain.recommended_domain_count ()

let run ~jobs ~f tasks =
  let n = Array.length tasks in
  let results = Array.make n None in
  let next = Atomic.make 0 in
  (* First worker exception wins; the rest of the pool drains and joins
     cleanly, then the winner is re-raised with its original backtrace. *)
  let failed = Atomic.make None in
  let worker () =
    let rec loop () =
      if Option.is_none (Atomic.get failed) then begin
        let i = Atomic.fetch_and_add next 1 in
        if i < n then begin
          (match f i tasks.(i) with
          | v -> results.(i) <- Some v
          | exception e ->
              let bt = Printexc.get_raw_backtrace () in
              ignore (Atomic.compare_and_set failed None (Some (e, bt))));
          loop ()
        end
      end
    in
    loop ()
  in
  let jobs = max 1 (min jobs n) in
  if jobs = 1 then worker ()
  else begin
    let others = Array.init (jobs - 1) (fun _ -> Domain.spawn worker) in
    (* Join unconditionally: even if the calling-domain worker dies with
       an asynchronous exception, no spawned domain is leaked. *)
    Fun.protect ~finally:(fun () -> Array.iter Domain.join others) worker
  end;
  match Atomic.get failed with
  | Some (e, bt) -> Printexc.raise_with_backtrace e bt
  | None ->
      Array.map
        (function Some v -> v | None -> invalid_arg "Pool.run: missing result")
        results

let map ~jobs ~f tasks = run ~jobs ~f:(fun _ x -> f x) tasks

(* ------------------------------------------------------------------ *)
(* The long-lived pool: a fixed set of domains fed one job at a time   *)
(* through a bounded queue, with per-job completion callbacks. This is *)
(* the serving-path variant of [run]: jobs arrive continuously (one    *)
(* per request) instead of as one batch, and admission is explicit —   *)
(* a full queue refuses the job instead of growing without bound, so   *)
(* the caller can shed load with a typed response while the workers    *)
(* stay saturated.                                                     *)
(*                                                                     *)
(* Supervision: every job carries a [Qls_cancel] token; an optional    *)
(* watchdog thread compares each busy worker's job heartbeat (start    *)
(* time vs. last token poll) against a hang threshold. A worker stuck  *)
(* past the threshold is declared lost: its job's completion callback  *)
(* fires exactly once with [Error Worker_lost] (an exactly-once flag   *)
(* arbitrates against the worker finishing late), the domain is        *)
(* abandoned — OCaml domains cannot be killed, so it is never joined — *)
(* and a replacement domain restores capacity.                         *)
(* ------------------------------------------------------------------ *)

type submit_result = Submitted | Rejected_full | Rejected_closed

exception Worker_lost of { job_id : int; stalled_ms : int }

let () =
  Printexc.register_printer (function
    | Worker_lost { job_id; stalled_ms } ->
        Some
          (Printf.sprintf "Pool.Worker_lost(job=%d, stalled=%dms)" job_id
             stalled_ms)
    | _ -> None)

type watchdog = {
  hang_threshold_ms : int;
      (* a job with no heartbeat for this long is declared lost *)
  tick_ms : int;  (* monitor wake-up period *)
}

type wjob = {
  j_id : int;
  j_token : Qls_cancel.token;
  j_started_ms : int Atomic.t;  (* 0 until a worker picks it up *)
  j_abandoned : bool Atomic.t;  (* the watchdog gave up on it *)
  j_run : unit -> unit;  (* work + owned completion delivery *)
  j_fail : exn -> unit;  (* completion delivery for the watchdog *)
}

type worker = {
  w_id : int;
  mutable w_domain : unit Domain.t option; (* guarded_by: mutex — None only mid-spawn *)
  w_current : wjob option Atomic.t;
  w_lost : bool Atomic.t;  (* replaced; exit after the current job *)
}

type pool = {
  jobs_queue : wjob Queue.t;  (* guarded_by: mutex *)
  capacity : int;
  mutex : Mutex.t;
  work_ready : Condition.t;  (* signalled per enqueue and at close *)
  all_idle : Condition.t;  (* signalled when running + queued hits 0 *)
  mutable running : int;  (* guarded_by: mutex — jobs executing on a worker *)
  mutable closing : bool;  (* guarded_by: mutex — drain in progress *)
  mutable workers : worker list;  (* guarded_by: mutex — live workers only *)
  mutable next_worker_id : int;  (* guarded_by: mutex *)
  next_job_id : int Atomic.t;
  lost_total : int Atomic.t;
  on_callback_error : exn -> unit;
  watchdog : watchdog option;
  wd_pipe : (Unix.file_descr * Unix.file_descr) option;  (* stop signal *)
  mutable wd_thread : Thread.t option;  (* guarded_by: mutex *)
  wd_last_tick_ms : int Atomic.t;
}

let c_workers_lost = Qls_obs.counter "pool.workers.lost"

let pool_worker p w () =
  let continue_ = ref true in
  while !continue_ do
    Mutex.lock p.mutex;
    while Queue.is_empty p.jobs_queue && not p.closing do
      Condition.wait p.work_ready p.mutex
    done;
    match Queue.take_opt p.jobs_queue with
    | None ->
        (* closing and drained *)
        Mutex.unlock p.mutex;
        continue_ := false
    | Some job ->
        p.running <- p.running + 1;
        Atomic.set job.j_started_ms (Qls_cancel.now_ms ());
        Atomic.set w.w_current (Some job);
        Mutex.unlock p.mutex;
        job.j_run ();
        Mutex.lock p.mutex;
        Atomic.set w.w_current None;
        (* If the watchdog abandoned this job it already took over the
           [running] bookkeeping; a second decrement would corrupt the
           quiescence accounting. *)
        if not (Atomic.get job.j_abandoned) then begin
          p.running <- p.running - 1;
          if p.running = 0 && Queue.is_empty p.jobs_queue then
            Condition.broadcast p.all_idle
        end;
        if Atomic.get w.w_lost then continue_ := false;
        Mutex.unlock p.mutex
  done

(* Must be called with [p.mutex] held. *)
let spawn_worker_locked p =
  let w =
    {
      w_id = p.next_worker_id; (* lint: guarded-by — caller holds p.mutex *)
      w_domain = None;
      w_current = Atomic.make None;
      w_lost = Atomic.make false;
    }
  in
  p.next_worker_id <- p.next_worker_id + 1; (* lint: guarded-by — caller holds p.mutex *)
  w.w_domain <- Some (Domain.spawn (pool_worker p w)); (* lint: guarded-by — caller holds p.mutex *)
  p.workers <- w :: p.workers (* lint: guarded-by — caller holds p.mutex *)

let watchdog_loop p cfg stop_r () =
  let stop = ref false in
  let tick_s = float_of_int cfg.tick_ms /. 1000. in
  while not !stop do
    (match Unix.select [ stop_r ] [] [] tick_s with
    | [], _, _ -> ()
    | _ :: _, _, _ -> stop := true
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
    Atomic.set p.wd_last_tick_ms (Qls_cancel.now_ms ());
    if not !stop then begin
      let now = Qls_cancel.now_ms () in
      let lost = ref [] in
      Mutex.lock p.mutex;
      List.iter
        (fun w ->
          match Atomic.get w.w_current with
          | Some job when not (Atomic.get job.j_abandoned) ->
              let started = Atomic.get job.j_started_ms in
              let hb = max started (Qls_cancel.last_poll_ms job.j_token) in
              let stalled = now - hb in
              if started > 0 && stalled > cfg.hang_threshold_ms then begin
                Atomic.set job.j_abandoned true;
                Atomic.set w.w_lost true;
                (* Take over the lost worker's bookkeeping: the job no
                   longer counts as running, and its worker record makes
                   way for a replacement. The domain itself is abandoned
                   (domains cannot be killed) — drain never joins it. *)
                p.running <- p.running - 1;
                if p.running = 0 && Queue.is_empty p.jobs_queue then
                  Condition.broadcast p.all_idle;
                p.workers <-
                  List.filter (fun w' -> w'.w_id <> w.w_id) p.workers;
                spawn_worker_locked p;
                lost := (job, stalled) :: !lost
              end
          | _ -> ())
        p.workers;
      Mutex.unlock p.mutex;
      List.iter
        (fun (job, stalled) ->
          Atomic.incr p.lost_total;
          Qls_obs.incr c_workers_lost;
          job.j_fail (Worker_lost { job_id = job.j_id; stalled_ms = stalled }))
        (List.rev !lost)
    end
  done

let default_callback_error e =
  Printf.eprintf "pool: completion callback raised: %s\n%!"
    (Printexc.to_string e)

let start ?(capacity = max_int) ?(on_callback_error = default_callback_error)
    ?watchdog ~jobs () =
  if jobs < 1 then invalid_arg "Pool.start: jobs must be >= 1";
  if capacity < 0 then invalid_arg "Pool.start: capacity must be >= 0";
  (match watchdog with
  | Some { hang_threshold_ms; tick_ms } when hang_threshold_ms < 1 || tick_ms < 1
    ->
      invalid_arg "Pool.start: watchdog thresholds must be >= 1ms"
  | _ -> ());
  let wd_pipe = Option.map (fun _ -> Unix.pipe ~cloexec:true ()) watchdog in
  let p =
    {
      jobs_queue = Queue.create ();
      capacity;
      mutex = Mutex.create ();
      work_ready = Condition.create ();
      all_idle = Condition.create ();
      running = 0;
      closing = false;
      workers = [];
      next_worker_id = 0;
      next_job_id = Atomic.make 0;
      lost_total = Atomic.make 0;
      on_callback_error;
      watchdog;
      wd_pipe;
      wd_thread = None;
      wd_last_tick_ms = Atomic.make (Qls_cancel.now_ms ());
    }
  in
  Mutex.lock p.mutex;
  for _ = 1 to jobs do
    spawn_worker_locked p
  done;
  Mutex.unlock p.mutex;
  (match (watchdog, wd_pipe) with
  | Some cfg, Some (stop_r, _) ->
      p.wd_thread <- Some (Thread.create (watchdog_loop p cfg stop_r) ())
  | _ -> ());
  p

let submit ?token p ~work ~complete =
  let token = match token with Some t -> t | None -> Qls_cancel.make () in
  (* Exactly-once completion: the worker that ran the job and a watchdog
     that abandoned it can both try to deliver; the flag arbitrates, and
     the loser's result is dropped. The callback runs on whichever
     domain/thread won; an exception it raises is contained (reported
     through [on_callback_error]) so it can never kill the worker. *)
  let delivered = Atomic.make false in
  let deliver result =
    if Atomic.compare_and_set delivered false true then
      try complete result with e -> p.on_callback_error e
  in
  let job_id = Atomic.fetch_and_add p.next_job_id 1 in
  let job =
    {
      j_id = job_id;
      j_token = token;
      j_started_ms = Atomic.make 0;
      j_abandoned = Atomic.make false;
      j_run =
        (fun () ->
          let result =
            try
              Ok
                (Qls_cancel.with_token token (fun () ->
                     (* Reject up front if the deadline already expired
                        while the job sat in the queue. *)
                     Qls_cancel.poll ();
                     work ()))
            with e -> Error e
          in
          deliver result);
      j_fail = (fun e -> deliver (Error e));
    }
  in
  Mutex.lock p.mutex;
  if p.closing then begin
    Mutex.unlock p.mutex;
    Rejected_closed
  end
  else if Queue.length p.jobs_queue >= p.capacity then begin
    Mutex.unlock p.mutex;
    Rejected_full
  end
  else begin
    Queue.add job p.jobs_queue;
    Condition.signal p.work_ready;
    Mutex.unlock p.mutex;
    Submitted
  end

let queue_depth p = Mutex.protect p.mutex (fun () -> Queue.length p.jobs_queue)

let in_flight p =
  Mutex.protect p.mutex (fun () -> Queue.length p.jobs_queue + p.running)

let closing p = Mutex.protect p.mutex (fun () -> p.closing)
let live_workers p = Mutex.protect p.mutex (fun () -> List.length p.workers)
let lost_workers p = Atomic.get p.lost_total

let watchdog_age_ms p =
  match p.watchdog with
  | None -> None
  | Some _ -> Some (Qls_cancel.now_ms () - Atomic.get p.wd_last_tick_ms)

let drain p =
  Mutex.lock p.mutex;
  if p.closing then begin
    (* Second drainer: just wait for quiescence. *)
    while p.running > 0 || not (Queue.is_empty p.jobs_queue) do
      Condition.wait p.all_idle p.mutex
    done;
    Mutex.unlock p.mutex
  end
  else begin
    p.closing <- true;
    (* Queued jobs still run to completion — drain means "finish what
       was admitted", not "discard it"; only new admissions are
       refused. Workers exit once the queue is empty. *)
    Condition.broadcast p.work_ready;
    (* Wait for quiescence first: the watchdog may replace workers while
       jobs are still in flight, so the set of domains to join is only
       stable once nothing is running. Jobs abandoned by the watchdog
       already left the [running] count — their zombie domains are not
       waited for (they cannot be killed or joined without blocking
       forever). *)
    while p.running > 0 || not (Queue.is_empty p.jobs_queue) do
      Condition.wait p.all_idle p.mutex
    done;
    let to_join = List.filter_map (fun w -> w.w_domain) p.workers in
    Mutex.unlock p.mutex;
    List.iter Domain.join to_join;
    (* Stop the watchdog last so supervision covers the whole drain. *)
    (match (p.wd_thread, p.wd_pipe) with
    | Some t, Some (stop_r, stop_w) ->
        (try ignore (Unix.write stop_w (Bytes.make 1 '\000') 0 1)
         with Unix.Unix_error _ -> ());
        (* lint: unbounded-wait — monitor exits within one tick of the stop byte *)
        Thread.join t;
        (try Unix.close stop_r with Unix.Unix_error _ -> ());
        (try Unix.close stop_w with Unix.Unix_error _ -> ())
    | _ -> ());
    Mutex.lock p.mutex;
    if p.running = 0 && Queue.is_empty p.jobs_queue then
      Condition.broadcast p.all_idle;
    Mutex.unlock p.mutex
  end
