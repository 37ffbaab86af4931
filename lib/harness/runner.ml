type config = { timeout : float option; retries : int; backoff : float }

let default = { timeout = None; retries = 0; backoff = 0.05 }
let backoff_max = 2.0

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
      Float.min backoff_max (config.backoff *. (2.0 ** float_of_int attempt))
    in
    (* Deterministic per-task jitter in [0.5, 1.5) x base: retries of a
       whole failed point decorrelate instead of thundering back in
       lockstep, yet the schedule is reproducible from the task seed. *)
    base *. (0.5 +. jitter ~seed ~attempt)

let run_once ~timeout ~site f =
  match timeout with
  | None -> ( try Ok (f ()) with e -> Error (Herror.of_exn ~site e))
  | Some limit -> (
      (* The body runs on this domain under a deadline token: its next
         [Qls_cancel.poll] past the deadline raises [Expired], and one
         that returns or raises after it is reported the same way. Whole
         milliseconds, rounded up; 10^9 s or more (infinity) is no limit. *)
      let ms = if limit < 1e9 then Float.ceil (limit *. 1000.) else 1e12 in
      let deadline_ms = max 1 (int_of_float ms) in
      let token = Qls_cancel.make ~deadline_ms () in
      let result =
        try Ok (Qls_cancel.with_token token f) with e -> Error e
      in
      if Qls_cancel.now_ms () - Qls_cancel.created_ms token >= deadline_ms
      then Error (Herror.timeout ~site limit)
      else Result.map_error (Herror.of_exn ~site) result)

let attempt_hist = Qls_obs.histogram "runner.attempt_seconds"

let run ?(site = "runner.exec") ?(key = "") ?(seed = 0) config f =
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
