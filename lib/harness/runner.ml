type config = {
  timeout : float option;
  retries : int;
  backoff : float;
  backoff_max : float;
}

let default = { timeout = None; retries = 0; backoff = 0.05; backoff_max = 2.0 }

let site_exec = "runner.exec"

(* FNV-1a fold, as in {!Task.rng_seed}: the jitter stream is a pure
   function of (seed, attempt). *)
let jitter ~seed ~attempt =
  let h = ref 0x811c9dc5 in
  String.iter
    (fun c -> h := (!h lxor Char.code c) * 0x01000193 land 0x3FFFFFFF)
    (Printf.sprintf "%d/%d" seed attempt);
  float_of_int (!h mod 1024) /. 1024.0

let backoff_delay config ~seed ~attempt =
  if config.backoff <= 0.0 then 0.0
  else
    let base =
      Float.min config.backoff_max
        (config.backoff *. (2.0 ** float_of_int attempt))
    in
    (* Deterministic per-task jitter in [0.5, 1.5) x base: retries of a
       whole failed point decorrelate instead of thundering back in
       lockstep, yet the schedule is reproducible from the task seed. *)
    base *. (0.5 +. jitter ~seed ~attempt)

let run_once ~timeout ~site f =
  match timeout with
  | None -> ( try Ok (f ()) with e -> Error (Herror.of_exn ~site e))
  | Some limit ->
      (* Run the task on a sibling thread of this worker domain and block
         until it completes or the wall-clock deadline passes. The thread
         signals completion by writing one byte to a pipe; the worker
         sleeps in [Unix.select] on the read end (stdlib [Condition] has
         no timed wait), so waiting burns no CPU. A task that overruns is reported [Error Timeout] and its
         thread is abandoned — it cannot be killed, but it owns no shared
         state (its result cell is private to this call), so siblings and
         the campaign are unaffected; a reaper thread joins it eventually
         and closes the pipe. *)
      let rd, wr = Unix.pipe ~cloexec:true () in
      let cell = Atomic.make None in
      let thread =
        Thread.create
          (fun () ->
            let r = try Ok (f ()) with e -> Error (Herror.of_exn ~site e) in
            Atomic.set cell (Some r);
            try ignore (Unix.write wr (Bytes.make 1 '!') 0 1) with _ -> ())
          ()
      in
      let close_both () =
        (try Unix.close rd with _ -> ());
        try Unix.close wr with _ -> ()
      in
      (* lint: nondet-source — wall-clock enforces the timeout guard *)
      let deadline = Unix.gettimeofday () +. limit in
      let rec wait () =
        match Atomic.get cell with
        | Some r ->
            (* lint: unbounded-wait — the body already published its result; the join returns at once *)
            Thread.join thread;
            close_both ();
            r
        | None ->
            (* lint: nondet-source — wall-clock enforces the timeout guard *)
            let remaining = deadline -. Unix.gettimeofday () in
            if remaining <= 0.0 then begin
              (* Abandon the body; the reaper keeps the pipe open until
                 the body's completing write can no longer fault. *)
              ignore
                (Thread.create
                   (fun () ->
                     (* lint: unbounded-wait — blocking on the abandoned body is the reaper thread's whole job *)
                     Thread.join thread;
                     close_both ())
                   ());
              Error (Herror.timeout ~site limit)
            end
            else begin
              (try ignore (Unix.select [ rd ] [] [] remaining)
               with Unix.Unix_error (EINTR, _, _) -> ());
              wait ()
            end
      in
      wait ()

let attempt_hist = Qls_obs.histogram "runner.attempt_seconds"

let run ?(site = site_exec) ?(key = "") ?(seed = 0) config f =
  (* The fault hook runs inside the guarded body: an injected exception
     is classified like a real one, an injected delay can trip the real
     timeout. *)
  let body () =
    Qls_faults.exec ~site ~key;
    f ()
  in
  let rec attempt n =
    let traced = Qls_obs.enabled () in
    let sp =
      if traced then Qls_obs.start ~site:"harness" "runner.attempt"
      else Qls_obs.none
    in
    (* lint: nondet-source — attempt timing feeds a histogram only *)
    let t0 = Unix.gettimeofday () in
    let result = run_once ~timeout:config.timeout ~site body in
    (* lint: nondet-source — attempt timing feeds a histogram only *)
    Qls_obs.observe attempt_hist (Unix.gettimeofday () -. t0);
    if traced then
      Qls_obs.stop sp
        ~attrs:
          [
            ("key", Qls_obs.Str key);
            ("attempt", Qls_obs.Int (n + 1));
            ( "result",
              Qls_obs.Str
                (match result with
                | Ok _ -> "ok"
                | Error e -> Herror.klass_name e.Herror.klass) );
          ];
    match result with
    | Ok v -> Ok (v, n + 1)
    | Error e when Herror.retryable e && n < config.retries ->
        let pause = backoff_delay config ~seed ~attempt:n in
        if pause > 0.0 then begin
          let bsp =
            if Qls_obs.enabled () then
              Qls_obs.start ~site:"harness" "runner.backoff"
            else Qls_obs.none
          in
          (* lint: unbounded-wait — finite retry backoff from the policy's pause schedule *)
          Thread.delay pause;
          Qls_obs.stop bsp
        end;
        attempt (n + 1)
    | Error e -> Error { e with Herror.attempts = n + 1 }
  in
  attempt 0
