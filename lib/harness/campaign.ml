type config = {
  jobs : int;
  timeout : float option;
  retries : int;
  backoff : float;
  store_path : string option;
  resume : bool;
  rerun_failed : bool;
  fsync : bool;
  failure_budget : float option;
  fallback : (string -> string option) option;
  report : (string -> unit) option;
}

let default_config () =
  {
    jobs = Pool.recommended_jobs ();
    timeout = None;
    retries = 0;
    backoff = Runner.default.Runner.backoff;
    store_path = None;
    resume = false;
    rerun_failed = false;
    fsync = false;
    failure_budget = None;
    fallback = None;
    report = None;
  }

type row = { task : Task.t; status : Task.status; resumed : bool }

let abort_site = "campaign"

let budget_min = 10

let stderr_report ?tty ?emit ~total =
  let tty = match tty with Some b -> b | None -> Unix.isatty Unix.stderr in
  let emit =
    match emit with Some f -> f | None -> fun s -> Printf.eprintf "%s%!" s
  in
  (* Every worker domain calls the sink, so the sequence number must be
     an atomic fetch-and-add: the old [int ref] with [incr] raced across
     domains, losing or duplicating ticks — and with them the ~20
     non-tty progress lines the modulus is meant to meter out. *)
  let seen = Atomic.make 0 in
  let every = max 1 (total / 20) in
  fun line ->
    let n = Atomic.fetch_and_add seen 1 + 1 in
    if tty then emit (Printf.sprintf "\r\027[K%s" line)
    else if n mod every = 0 || n = total then emit (line ^ "\n")

(* Walk the fallback chain from the failed task's tool, cycle-safe. The
   first tool that completes turns the failure into [Degraded]; if the
   whole chain fails too, the original typed error stands. *)
let degrade config ~exec ~guard task err =
  match config.fallback with
  | None -> Task.Failed err
  | Some chain ->
      let rec try_via tried tool =
        match chain tool with
        | None -> Task.Failed err
        | Some via when List.mem via tried || via = task.Task.tool ->
            Task.Failed err
        | Some via -> (
            let fb_task = { task with Task.tool = via } in
            let traced = Qls_obs.enabled () in
            let sp =
              if traced then Qls_obs.start ~site:"harness" "campaign.degrade"
              else Qls_obs.none
            in
            let result =
              Runner.run ~key:(Task.id fb_task)
                ~seed:(Task.rng_seed fb_task) guard
                (fun () -> exec fb_task)
            in
            if traced then
              Qls_obs.stop sp
                ~attrs:
                  [
                    ("id", Qls_obs.Str (Task.id task));
                    ("via", Qls_obs.Str via);
                    ( "rescued",
                      Qls_obs.Int (if Result.is_ok result then 1 else 0) );
                  ];
            match result with
            | Ok (outcome, attempts) ->
                Task.Degraded
                  { Task.outcome = { outcome with Task.attempts }; via; error = err }
            | Error _ -> try_via (via :: tried) via)
      in
      try_via [] task.Task.tool

let run config ~exec tasks =
  let tasks = Array.of_list tasks in
  let total = Array.length tasks in
  let checkpoint, quarantined =
    match config.store_path with
    | Some path when config.resume ->
        let entries, bad = Store.load_verified path in
        (Store.completed entries, bad)
    | _ -> (Hashtbl.create 0, [])
  in
  if not (List.is_empty quarantined) then
    Format.eprintf
      "warning: %d corrupt checkpoint line(s) quarantined on resume (first: \
       line %d, %s); their tasks will be re-run@."
      (List.length quarantined)
      (List.hd quarantined).Store.line_no (List.hd quarantined).Store.reason;
  let from_checkpoint task =
    match Hashtbl.find_opt checkpoint (Task.id task) with
    | Some (Task.Failed _) when config.rerun_failed -> None
    | found -> found
  in
  let store =
    Option.map (Store.open_append ~fsync:config.fsync) config.store_path
  in
  let progress = Progress.create ~total in
  let rows = Array.make total None in
  let pending = ref [] in
  Array.iteri
    (fun i task ->
      match from_checkpoint task with
      | Some status ->
          Progress.record_resumed progress;
          rows.(i) <- Some { task; status; resumed = true }
      | None -> pending := (i, task) :: !pending)
    tasks;
  let pending = Array.of_list (List.rev !pending) in
  let guard =
    {
      Runner.timeout = config.timeout;
      retries = config.retries;
      backoff = config.backoff;
    }
  in
  (* Failure budget: when the fresh-failure rate crosses the threshold
     (after [budget_min] samples), stop starting tasks — a doomed sweep
     should cost minutes, not the night. Already-running tasks finish
     and are recorded; unstarted ones get a retryable "not run" error
     and are *not* checkpointed, so a resume re-runs them. *)
  let aborted = Atomic.make None in
  let fresh_done = Atomic.make 0 and fresh_failed = Atomic.make 0 in
  let note_fresh status =
    ignore (Atomic.fetch_and_add fresh_done 1);
    (match status with
    | Task.Failed _ -> ignore (Atomic.fetch_and_add fresh_failed 1)
    | Task.Done _ | Task.Degraded _ -> ());
    match config.failure_budget with
    | Some budget ->
        let n = Atomic.get fresh_done and f = Atomic.get fresh_failed in
        if
          n >= budget_min
          && float_of_int f /. float_of_int n > budget
          && Option.is_none (Atomic.get aborted)
        then
          Atomic.set aborted
            (Some
               (Printf.sprintf
                  "failure budget exceeded: %d of %d fresh tasks failed \
                   (rate %.2f > budget %.2f)"
                  f n
                  (float_of_int f /. float_of_int n)
                  budget))
    | None -> ()
  in
  let finish_one (i, task) =
    match Atomic.get aborted with
    | Some why ->
        let status =
          Task.Failed
            (Herror.transient ~site:abort_site ("not run: " ^ why))
        in
        Progress.record ~tool:task.Task.tool ~outcome:`Failed progress;
        rows.(i) <- Some { task; status; resumed = false }
    | None ->
        let traced = Qls_obs.enabled () in
        let sp =
          if traced then Qls_obs.start ~site:"harness" "campaign.task"
          else Qls_obs.none
        in
        let status =
          match
            Runner.run ~key:(Task.id task) ~seed:(Task.rng_seed task)
              guard
              (fun () -> exec task)
          with
          | Ok (outcome, attempts) ->
              Task.Done { outcome with Task.attempts }
          | Error err -> degrade config ~exec ~guard task err
        in
        if traced then
          Qls_obs.stop sp
            ~attrs:
              [
                ("id", Qls_obs.Str (Task.id task));
                ("tool", Qls_obs.Str task.Task.tool);
                ( "status",
                  Qls_obs.Str
                    (match status with
                    | Task.Done _ -> "ok"
                    | Task.Degraded _ -> "degraded"
                    | Task.Failed _ -> "failed") );
              ];
        Option.iter
          (fun s -> Store.append s { Store.task_id = Task.id task; status })
          store;
        (match status with
        | Task.Done outcome ->
            Progress.record
              ?ratio:(Task.ratio ~task outcome)
              ~tool:task.Task.tool ~outcome:`Ok progress
        | Task.Degraded _ ->
            Progress.record ~tool:task.Task.tool ~outcome:`Degraded progress
        | Task.Failed _ ->
            Progress.record ~tool:task.Task.tool ~outcome:`Failed progress);
        note_fresh status;
        Option.iter (fun report -> report (Progress.render progress)) config.report;
        rows.(i) <- Some { task; status; resumed = false }
  in
  (* The pool writes straight into [rows] via [finish_one]; the unit
     results are discarded. *)
  ignore (Pool.run ~jobs:config.jobs ~f:(fun _ p -> finish_one p) pending);
  Option.iter Store.close store;
  (match config.report with
  | Some _ when Unix.isatty Unix.stderr -> Printf.eprintf "\n%!"
  | _ -> ());
  Array.to_list rows
  |> List.map (function
       | Some row -> row
       | None -> invalid_arg "Campaign.run: missing row")

let outcomes rows =
  List.filter_map
    (fun r ->
      match r.status with
      | Task.Done o -> Some (r.task, o)
      | Task.Degraded _ | Task.Failed _ -> None)
    rows

let degraded rows =
  List.filter_map
    (fun r ->
      match r.status with
      | Task.Degraded d -> Some (r.task, d)
      | Task.Done _ | Task.Failed _ -> None)
    rows

let failures rows =
  List.filter_map
    (fun r ->
      match r.status with
      | Task.Failed e -> Some (r.task, e)
      | Task.Done _ | Task.Degraded _ -> None)
    rows

let aborted rows =
  List.find_map
    (fun r ->
      match r.status with
      | Task.Failed e
        when e.Herror.site = abort_site
             && String.length e.Herror.message >= 8
             && String.sub e.Herror.message 0 8 = "not run:" ->
          Some e.Herror.message
      | _ -> None)
    rows
