module Pool = Qls_harness.Pool
module Cache = Qls_harness.Cache
module Device = Qls_arch.Device
module Topologies = Qls_arch.Topologies
module Circuit = Qls_circuit.Circuit
module Qasm = Qls_circuit.Qasm
module Router = Qls_router.Router
module Registry = Qls_router.Registry
module Olsq = Qls_router.Olsq
module Verifier = Qls_layout.Verifier
module Benchmark = Qubikos.Benchmark
module Generator = Qubikos.Generator
module Certificate = Qubikos.Certificate
module Evaluation = Qubikos.Evaluation

type config = {
  socket_path : string option;
  tcp_port : int option;
  jobs : int;
  queue_capacity : int;
  request_log : string option;
  default_deadline_ms : int option;
  io_timeout : float option;
  idle_timeout : float option;
  hang_threshold : float option;
}

let default_config =
  {
    socket_path = None;
    tcp_port = None;
    jobs = 2;
    queue_capacity = 64;
    request_log = None;
    default_deadline_ms = None;
    io_timeout = Some 30.;
    idle_timeout = Some 300.;
    hang_threshold = Some 30.;
  }

(* Cache capacities (LRU entries): devices with their APSP tables,
   certified instances, routed results. *)
let device_cache = 16
let instance_cache = 128
let route_cache = 1024

(* Cached values. The routed result retains the cold run's measured
   seconds: a cache hit replays the {e whole} response byte for byte,
   which is what the bench's bit-identity check pins down. *)
type instance = { bench : Benchmark.t; certified : bool }
type routed = { swaps : int; depth : int; seconds : float; optimal : int option }

type conn = {
  fd : Unix.file_descr;
  cid : int;  (** per-daemon connection sequence; fault-injection key *)
  oc : out_channel;
  wmutex : Mutex.t;  (** serialises response frames on this connection *)
  omutex : Mutex.t;  (** guards [outstanding] *)
  odone : Condition.t;
  mutable outstanding : int;
      (* guarded_by: omutex — submitted jobs not yet responded *)
  mutable broken : bool;  (* guarded_by: wmutex — peer gone; stop writing *)
}

type t = {
  cfg : config;
  pool : Pool.pool;
  devices : Device.t Cache.t;
  instances : instance Cache.t;
  routes : routed Cache.t;
  log : Qls_sealed.Log.t option;
  listeners : Unix.file_descr list;
  tcp_port_bound : int option;
  stop : bool Atomic.t;
  wake_r : Unix.file_descr;
  wake_w : Unix.file_descr;
  conns_mutex : Mutex.t;
  mutable conns : conn list;  (* guarded_by: conns_mutex *)
  mutable threads : Thread.t list;  (* guarded_by: conns_mutex *)
  started_ms : int;  (** daemon start; feeds [uptime_s] *)
  conn_seq : int Atomic.t;
  job_seq : int Atomic.t;  (** fault-injection key for pooled work *)
  reader_parses : bool;
      (** inline circuits are parsed on the reader thread: only when the
          workers leave a core to the main domain (DESIGN.md §12) *)
  (* always-on metrics, independent of the trace sink *)
  c_requests : Qls_obs.counter;
  c_ok : Qls_obs.counter;
  c_errors : Qls_obs.counter;  (* every non-ok response, any kind *)
  c_bad_request : Qls_obs.counter;
  c_overloaded : Qls_obs.counter;
  c_draining : Qls_obs.counter;
  c_deadline : Qls_obs.counter;
  c_internal : Qls_obs.counter;
  c_log_dropped : Qls_obs.counter;
  latency : Qls_obs.histogram;  (** frame receipt to response written *)
  parse_stage : Qls_obs.histogram;  (** frame receipt to submission *)
  queue_wait : Qls_obs.histogram;  (** submission to a worker's pickup *)
}

(* Sub-millisecond buckets at the bottom: cache hits are microseconds,
   and the default task-latency bounds would fold them all into the
   first bucket, flattening the quantiles the stats verb reports. *)
let latency_bounds =
  [|
    5e-5; 1e-4; 2.5e-4; 5e-4; 1e-3; 2.5e-3; 5e-3; 1e-2; 2.5e-2; 5e-2; 0.1;
    0.25; 0.5; 1.; 2.5; 5.; 15.; 60.;
  |]

(* ------------------------------------------------------------------ *)
(* Construction                                                        *)
(* ------------------------------------------------------------------ *)

let listen_unix path =
  if Sys.file_exists path then Unix.unlink path;
  let fd = Unix.socket PF_UNIX SOCK_STREAM 0 in
  Unix.bind fd (ADDR_UNIX path);
  Unix.listen fd 64;
  fd

let listen_tcp port =
  let fd = Unix.socket PF_INET SOCK_STREAM 0 in
  Unix.setsockopt fd SO_REUSEADDR true;
  Unix.bind fd (ADDR_INET (Unix.inet_addr_loopback, port));
  Unix.listen fd 64;
  let bound =
    match Unix.getsockname fd with
    | ADDR_INET (_, p) -> p
    | ADDR_UNIX _ -> port
  in
  (fd, bound)

let create cfg =
  if Option.is_none cfg.socket_path && Option.is_none cfg.tcp_port then
    invalid_arg "Server.create: configure a socket path or a TCP port";
  let unix_l = Option.map listen_unix cfg.socket_path in
  let tcp = Option.map listen_tcp cfg.tcp_port in
  let wake_r, wake_w = Unix.pipe ~cloexec:true () in
  let watchdog =
    Option.map
      (fun thr ->
        let thr_ms = max 1 (int_of_float (thr *. 1000.)) in
        (* Tick a few times per threshold so detection latency stays a
           small multiple of the configured bound. *)
        { Pool.hang_threshold_ms = thr_ms; tick_ms = max 10 (thr_ms / 4) })
      cfg.hang_threshold
  in
  {
    cfg;
    pool = Pool.start ?watchdog ~jobs:cfg.jobs ~capacity:cfg.queue_capacity ();
    devices = Cache.create ~capacity:device_cache "device";
    instances = Cache.create ~capacity:instance_cache "instance";
    routes = Cache.create ~capacity:route_cache "route";
    log = Option.map (fun p -> Qls_sealed.Log.open_append p) cfg.request_log;
    listeners =
      Option.to_list unix_l @ List.map fst (Option.to_list tcp);
    tcp_port_bound = Option.map snd tcp;
    stop = Atomic.make false;
    wake_r;
    wake_w;
    conns_mutex = Mutex.create ();
    conns = [];
    threads = [];
    started_ms = Qls_cancel.now_ms ();
    conn_seq = Atomic.make 0;
    job_seq = Atomic.make 0;
    reader_parses = cfg.jobs < Pool.recommended_jobs ();
    c_requests = Qls_obs.counter "serve.requests";
    c_ok = Qls_obs.counter "serve.ok";
    c_errors = Qls_obs.counter "serve.errors";
    c_bad_request = Qls_obs.counter "serve.bad_request";
    c_overloaded = Qls_obs.counter "serve.overloaded";
    c_draining = Qls_obs.counter "serve.draining";
    c_deadline = Qls_obs.counter "serve.deadline_exceeded";
    c_internal = Qls_obs.counter "serve.internal";
    c_log_dropped = Qls_obs.counter "serve.log.dropped";
    latency = Qls_obs.histogram ~bounds:latency_bounds "serve.request.seconds";
    parse_stage = Qls_obs.histogram ~bounds:latency_bounds "serve.parse.seconds";
    queue_wait = Qls_obs.histogram ~bounds:latency_bounds "serve.queue.seconds";
  }

let bound_tcp_port t = t.tcp_port_bound

let initiate_shutdown t =
  if not (Atomic.exchange t.stop true) then
    (* Self-pipe: one byte wakes the accept loop out of select. Writing
       from a signal handler is fine — OCaml runs handlers at safe
       points, and a 1-byte pipe write cannot block before the reader
       ever closes its end. *)
    ignore (Unix.write t.wake_w (Bytes.make 1 '!') 0 1)

let install_signal_handlers t =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let h = Sys.Signal_handle (fun _ -> initiate_shutdown t) in
  Sys.set_signal Sys.sigterm h;
  Sys.set_signal Sys.sigint h

(* ------------------------------------------------------------------ *)
(* Request execution (runs on pool worker domains)                     *)
(* ------------------------------------------------------------------ *)

let bad fmt = Printf.ksprintf (fun m -> raise (Protocol.Bad_request m)) fmt

let device_of t name =
  Cache.find_or_compute t.devices ~key:name (fun () ->
      match Topologies.by_name name with
      | Some d -> d
      | None -> bad "unknown architecture %S" name)

let instance_of t (g : Protocol.gen_params) =
  Cache.find_or_compute t.instances ~key:(Protocol.gen_key g) (fun () ->
      let device, _ = device_of t g.arch in
      let config =
        {
          Generator.default_config with
          n_swaps = g.n_swaps;
          gate_budget =
            Option.value ~default:(Evaluation.paper_gate_budget device) g.gates;
          seed = g.seed;
        }
      in
      let bench =
        try Generator.generate ~config device
        with Invalid_argument m -> bad "cannot generate: %s" m
      in
      { bench; certified = Result.is_ok (Certificate.check bench) })

let route_key device (p : Protocol.route_params) circuit =
  Protocol.route_key ~device:(Device.name device)
    ~circuit:(Protocol.circuit_hash (Qasm.to_string circuit))
    ~tool:p.tool ~trials:p.trials ~seed:p.gen.seed

(* An inline circuit, parsed, checked against the device and keyed. *)
type inline = { device : Device.t; circuit : Circuit.t; key : string }

let parse_inline t (p : Protocol.route_params) text =
  Qls_obs.with_span ~site:"serve" "serve.parse" (fun () ->
      let device, _ = device_of t p.gen.arch in
      match Qasm.of_string_result text with
      | Error e -> bad "qasm: %s" (Qasm.error_to_string e)
      | Ok c when Circuit.n_qubits c > Device.n_qubits device ->
          bad "qasm: circuit on %d qubits does not fit %s (%d qubits)"
            (Circuit.n_qubits c) (Device.name device) (Device.n_qubits device)
      | Ok c -> { device; circuit = c; key = route_key device p c })

(* [inline] is the reader stage's parse of the request's [qasm]; without
   it an inline circuit is parsed here, on the worker. *)
let routed_of t ?inline (p : Protocol.route_params) =
  let inline =
    match (inline, p.qasm) with
    | None, Some text -> Some (parse_inline t p text)
    | inline, _ -> inline
  in
  let device, circuit, optimal, key =
    match inline with
    | Some { device; circuit; key } -> (device, circuit, None, key)
    | None ->
        let device, _ = device_of t p.gen.arch in
        let inst, _ = instance_of t p.gen in
        let circuit = inst.bench.Benchmark.circuit in
        ( device,
          circuit,
          Some inst.bench.Benchmark.optimal_swaps,
          route_key device p circuit )
  in
  Cache.find_or_compute t.routes ~key (fun () ->
      match Registry.by_name ~sabre_trials:p.trials p.tool with
      | None ->
          bad "unknown tool %S (known: %s)" p.tool
            (String.concat ", " Registry.names)
      | Some router ->
          (* Measured latency is reported data, not routed output; cache
             hits replay the cold measurement. *)
          (* lint: nondet-source — latency telemetry *)
          let t0 = Unix.gettimeofday () in
          let _, report =
            try Router.run_verified router device circuit
            with Olsq.Too_large { clauses; limit } ->
              bad "%s: instance too large to encode (%d clauses, limit %d)"
                p.tool clauses limit
          in
          (* lint: nondet-source — see above *)
          let dt = Unix.gettimeofday () -. t0 in
          (* A count below the certified optimum is an alarm: raising here
             keeps it out of the route cache and answers it as a typed
             error. *)
          Option.iter
            (fun optimum ->
              Certificate.check_routed ~tool:p.tool ~optimum
                report.Verifier.swap_count)
            optimal;
          {
            swaps = report.Verifier.swap_count;
            depth = report.Verifier.depth;
            seconds = dt;
            optimal;
          })

(* ------------------------------------------------------------------ *)
(* Response payloads — deterministic field order, flat JSON            *)
(* ------------------------------------------------------------------ *)

let with_id id body =
  match id with
  | None -> Printf.sprintf "{%s}" body
  | Some id -> Printf.sprintf {|{"id":"%s",%s}|} (Qls_sealed.escape id) body

let error_payload ~id ~kind msg =
  with_id id
    (Printf.sprintf {|"ok":false,"kind":"%s","error":"%s"|} kind
       (Qls_sealed.escape msg))

let route_payload ~id ~verb (p : Protocol.route_params) (r : routed) =
  let ratio =
    match (verb, r.optimal) with
    | "evaluate", Some opt ->
        Printf.sprintf {|,"ratio":%.4f|}
          (float_of_int r.swaps /. float_of_int opt)
    | _ -> ""
  in
  let optimal =
    match r.optimal with
    | Some opt -> Printf.sprintf {|,"optimal":%d|} opt
    | None -> ""
  in
  with_id id
    (Printf.sprintf
       {|"ok":true,"verb":"%s","tool":"%s","arch":"%s","swaps":%d,"depth":%d,"seconds":%.6f%s%s|}
       verb
       (Qls_sealed.escape p.tool)
       (Qls_sealed.escape p.gen.arch)
       r.swaps r.depth r.seconds optimal ratio)

let certify_payload ~id (g : Protocol.gen_params) (inst : instance) =
  with_id id
    (Printf.sprintf
       {|"ok":true,"verb":"certify","arch":"%s","optimal":%d,"gates":%d,"certified":%b|}
       (Qls_sealed.escape g.arch)
       inst.bench.Benchmark.optimal_swaps
       (Benchmark.two_qubit_count inst.bench)
       inst.certified)

let cache_stats_fields prefix (s : Cache.stats) =
  Printf.sprintf
    {|"%s_hits":%d,"%s_misses":%d,"%s_evictions":%d,"%s_size":%d,"%s_capacity":%d|}
    prefix s.Cache.hits prefix s.Cache.misses prefix s.Cache.evictions prefix
    s.Cache.size prefix s.Cache.capacity

let uptime_s t = float_of_int (Qls_cancel.now_ms () - t.started_ms) /. 1000.

(* -1 renders "unsupervised" distinguishably from a freshly-ticked 0. *)
let watchdog_age_field t =
  match Pool.watchdog_age_ms t.pool with Some ms -> ms | None -> -1

(* p50/p95/p99 of one histogram in milliseconds, as stats fields. *)
let quantile_fields prefix h =
  let q p =
    match Qls_obs.approx_quantile h p with Some s -> s *. 1000. | None -> 0.
  in
  Printf.sprintf {|"%sp50_ms":%.3f,"%sp95_ms":%.3f,"%sp99_ms":%.3f|} prefix
    (q 0.50) prefix (q 0.95) prefix (q 0.99)

let stats_payload t ~id =
  with_id id
    (Printf.sprintf
       {|"ok":true,"verb":"stats","uptime_s":%.3f,"requests":%d,"completed":%d,"errors":%d,"bad_request":%d,"overloaded":%d,"draining":%d,"deadline_exceeded":%d,"internal":%d,"log_dropped":%d,"queue_depth":%d,"in_flight":%d,"jobs":%d,"live_workers":%d,"lost_workers":%d,"watchdog_age_ms":%d,"latency_count":%d,%s,%s,%s,%s,%s,%s|}
       (uptime_s t)
       (Qls_obs.counter_value t.c_requests)
       (Qls_obs.counter_value t.c_ok)
       (Qls_obs.counter_value t.c_errors)
       (Qls_obs.counter_value t.c_bad_request)
       (Qls_obs.counter_value t.c_overloaded)
       (Qls_obs.counter_value t.c_draining)
       (Qls_obs.counter_value t.c_deadline)
       (Qls_obs.counter_value t.c_internal)
       (Qls_obs.counter_value t.c_log_dropped)
       (Pool.queue_depth t.pool) (Pool.in_flight t.pool) t.cfg.jobs
       (Pool.live_workers t.pool) (Pool.lost_workers t.pool)
       (watchdog_age_field t)
       (Qls_obs.histogram_total t.latency)
       (quantile_fields "" t.latency)
       (quantile_fields "parse_" t.parse_stage)
       (quantile_fields "queue_" t.queue_wait)
       (cache_stats_fields "device" (Cache.stats t.devices))
       (cache_stats_fields "instance" (Cache.stats t.instances))
       (cache_stats_fields "route" (Cache.stats t.routes)))

(* Readiness, not history: everything a container healthcheck needs to
   decide "is this daemon able to serve right now". Computed inline on
   the reader thread — a saturated pool must not block the probe. *)
let health_payload t ~id =
  let draining = Atomic.get t.stop || Pool.closing t.pool in
  let live = Pool.live_workers t.pool in
  let ready = (not draining) && live > 0 in
  with_id id
    (Printf.sprintf
       {|"ok":true,"verb":"health","ready":%b,"draining":%b,"listeners":%d,"jobs":%d,"live_workers":%d,"lost_workers":%d,"queue_depth":%d,"queue_capacity":%d,"watchdog_age_ms":%d,"uptime_s":%.3f|}
       ready draining
       (List.length t.listeners)
       t.cfg.jobs live
       (Pool.lost_workers t.pool)
       (Pool.queue_depth t.pool)
       t.cfg.queue_capacity (watchdog_age_field t) (uptime_s t))

(* ------------------------------------------------------------------ *)
(* Per-connection plumbing                                             *)
(* ------------------------------------------------------------------ *)

let conn_retain c =
  Mutex.protect c.omutex (fun () -> c.outstanding <- c.outstanding + 1)

let conn_release c =
  Mutex.protect c.omutex (fun () ->
      c.outstanding <- c.outstanding - 1;
      if c.outstanding = 0 then Condition.broadcast c.odone)

let conn_quiesce c =
  Mutex.lock c.omutex;
  while c.outstanding > 0 do
    Condition.wait c.odone c.omutex
  done;
  Mutex.unlock c.omutex

let log_request t ~verb ~status ~hit ~micros ~id =
  match t.log with
  | None -> ()
  | Some log -> (
      let id_field =
        match id with
        | None -> ""
        | Some id -> Printf.sprintf {|"id":"%s",|} (Qls_sealed.escape id)
      in
      (* Fault site: an injected failure here drops this one line — the
         daemon survives and the log stays well-sealed (no partial or
         mangled bytes ever reach it), which the chaos gate asserts. *)
      try
        Qls_faults.exec ~site:"serve.log.append" ~key:verb;
        Qls_sealed.Log.append log ~key:verb
          (Printf.sprintf {|{%s"verb":"%s","status":"%s","hit":%b,"micros":%d}|}
             id_field verb status hit micros)
      with Qls_faults.Injected _ -> Qls_obs.incr t.c_log_dropped)

(* Send one response: frame write under the connection's write mutex,
   then the always-on accounting (latency histogram, status counter,
   request-log line). Write failures mark the connection broken —
   accounting still happens, the daemon outlives any client. *)
let respond t conn ~verb ~status ~hit ~t_recv ~id payload =
  (* [c_errors] keeps its pre-deadline meaning — request-level failures
     only; load-shedding (overloaded/draining) is accounted separately. *)
  (match status with
  | "ok" -> Qls_obs.incr t.c_ok
  | "overloaded" -> Qls_obs.incr t.c_overloaded
  | "draining" -> Qls_obs.incr t.c_draining
  | "bad_request" ->
      Qls_obs.incr t.c_errors;
      Qls_obs.incr t.c_bad_request
  | "deadline_exceeded" ->
      Qls_obs.incr t.c_errors;
      Qls_obs.incr t.c_deadline
  | _ ->
      Qls_obs.incr t.c_errors;
      Qls_obs.incr t.c_internal);
  Mutex.protect conn.wmutex (fun () ->
      if not conn.broken then
        try Protocol.write_frame conn.oc payload
        with Sys_error _ | Unix.Unix_error _ -> conn.broken <- true);
  (* lint: nondet-source — request latency is telemetry, not result data *)
  let dt = Unix.gettimeofday () -. t_recv in
  Qls_obs.observe t.latency dt;
  log_request t ~verb ~status ~hit ~micros:(int_of_float (dt *. 1e6)) ~id

let verb_name = function
  | Protocol.Route _ -> "route"
  | Protocol.Evaluate _ -> "evaluate"
  | Protocol.Certify _ -> "certify"
  | Protocol.Stats -> "stats"
  | Protocol.Health -> "health"

(* Run one parsed request body; returns (payload, hit). Called on a
   pool worker domain, inside the request span. [inline] is the reader
   stage's parse of the request's [qasm]. *)
let execute t ~id ?inline req =
  match req with
  | Protocol.Stats -> (stats_payload t ~id, false)
  | Protocol.Health -> (health_payload t ~id, false)
  | Protocol.Certify { gen = g; _ } ->
      let inst, hit = instance_of t g in
      (certify_payload ~id g inst, hit)
  | Protocol.Route p | Protocol.Evaluate p ->
      let r, hit = routed_of t ?inline p in
      (route_payload ~id ~verb:(verb_name req) p r, hit)

(* The reader stage, on the connection's reader thread before
   admission: with a core to spare for the main domain, an inline
   circuit is parsed, checked against the device and keyed here, so the
   worker only looks up the route cache and routes. A generated instance
   stays whole on the worker, where generation and its deadline belong. *)
let inline_stage t = function
  | Protocol.Route ({ qasm = Some text; _ } as p) when t.reader_parses ->
      Some (parse_inline t p text)
  | _ -> None

let request_deadline_ms t = function
  | Protocol.Route p | Protocol.Evaluate p -> (
      match p.Protocol.deadline_ms with
      | Some _ as d -> d
      | None -> t.cfg.default_deadline_ms)
  | Protocol.Certify { deadline_ms = Some _ as d; _ } -> d
  | Protocol.Certify { deadline_ms = None; _ } -> t.cfg.default_deadline_ms
  | Protocol.Stats | Protocol.Health -> None

(* Admit one request to the pool; its completion writes the response. *)
let submit t conn ~verb ~token ~t_recv ~id ?inline req =
  let job_key = string_of_int (Atomic.fetch_and_add t.job_seq 1) in
  (* lint: nondet-source — stage timing is telemetry *)
  let t_submit = Unix.gettimeofday () in
  Qls_obs.observe t.parse_stage (t_submit -. t_recv);
  conn_retain conn;
  let submitted =
    Pool.submit ~token t.pool
      ~work:(fun () ->
        (* lint: nondet-source — stage timing is telemetry *)
        Qls_obs.observe t.queue_wait (Unix.gettimeofday () -. t_submit);
        (* Fault sites: a [delay] on the hang site simulates a stuck
           worker (no poll happens while sleeping, so the watchdog —
           not the deadline — must recover); an exn on the exn site
           exercises the typed-internal path. *)
        Qls_faults.exec ~site:"serve.work.hang" ~key:job_key;
        Qls_faults.exec ~site:"serve.work.exn" ~key:job_key;
        Qls_obs.with_span ~site:"serve" "serve.request"
          ~attrs:(fun () -> [ ("verb", Qls_obs.Str verb) ])
          (fun () -> execute t ~id ?inline req))
      ~complete:(fun result ->
        (match result with
        | Ok (payload, hit) ->
            respond t conn ~verb ~status:"ok" ~hit ~t_recv ~id payload
        | Error (Protocol.Bad_request msg) ->
            respond t conn ~verb ~status:"bad_request" ~hit:false ~t_recv ~id
              (error_payload ~id ~kind:"bad_request" msg)
        | Error (Qls_cancel.Expired { elapsed_ms; limit_ms }) ->
            respond t conn ~verb ~status:"deadline_exceeded" ~hit:false
              ~t_recv ~id
              (with_id id
                 (Printf.sprintf
                    {|"ok":false,"kind":"deadline_exceeded","error":"deadline exceeded","elapsed_ms":%d,"limit_ms":%d|}
                    elapsed_ms limit_ms))
        | Error (Certificate.Optimality_violated { tool; swaps; optimum }) ->
            respond t conn ~verb ~status:"optimality_violated" ~hit:false
              ~t_recv ~id
              (with_id id
                 (Printf.sprintf
                    {|"ok":false,"kind":"optimality_violated","error":"routed below the certified optimum","tool":"%s","swaps":%d,"optimal":%d|}
                    (Qls_sealed.escape tool) swaps optimum))
        | Error (Pool.Worker_lost { stalled_ms; _ }) ->
            respond t conn ~verb ~status:"internal" ~hit:false ~t_recv ~id
              (error_payload ~id ~kind:"internal"
                 (Printf.sprintf
                    "worker lost: no heartbeat for %dms; request abandoned"
                    stalled_ms))
        | Error e ->
            respond t conn ~verb ~status:"internal" ~hit:false ~t_recv ~id
              (error_payload ~id ~kind:"internal" (Printexc.to_string e)));
        conn_release conn)
  in
  match submitted with
  | Pool.Submitted -> ()
  | Pool.Rejected_full ->
      conn_release conn;
      respond t conn ~verb ~status:"overloaded" ~hit:false ~t_recv ~id
        (with_id id
           (Printf.sprintf
              {|"ok":false,"kind":"overloaded","error":"queue full","queue_depth":%d,"queue_capacity":%d|}
              (Pool.queue_depth t.pool) t.cfg.queue_capacity))
  | Pool.Rejected_closed ->
      conn_release conn;
      respond t conn ~verb ~status:"draining" ~hit:false ~t_recv ~id
        (error_payload ~id ~kind:"draining" "daemon is draining")

let handle_payload t conn payload ~t_recv =
  Qls_obs.incr t.c_requests;
  let id, request = Protocol.request_of_payload payload in
  match request with
  | Error msg ->
      respond t conn ~verb:"?" ~status:"bad_request" ~hit:false ~t_recv ~id
        (error_payload ~id ~kind:"bad_request" msg)
  | Ok Protocol.Stats ->
      (* Answered on the reader thread: stats must stay observable even
         when the pool queue is saturated — that is when you need it. *)
      respond t conn ~verb:"stats" ~status:"ok" ~hit:false ~t_recv ~id
        (stats_payload t ~id)
  | Ok Protocol.Health ->
      (* Same: a liveness probe that queued behind the very saturation
         it should report would be useless. *)
      respond t conn ~verb:"health" ~status:"ok" ~hit:false ~t_recv ~id
        (health_payload t ~id)
  | Ok req -> (
      let verb = verb_name req in
      (* Made before the reader stage: [deadline_ms] covers the whole
         request, parse and queue wait included. *)
      let token = Qls_cancel.make ?deadline_ms:(request_deadline_ms t req) () in
      match inline_stage t req with
      | exception Protocol.Bad_request msg ->
          (* Refused before admission: no queue slot, so a full queue
             answers a malformed circuit bad_request, not overloaded. *)
          respond t conn ~verb ~status:"bad_request" ~hit:false ~t_recv ~id
            (error_payload ~id ~kind:"bad_request" msg)
      | exception e ->
          (* As the pool path answers a raising job: a reader thread
             never dies on a request. *)
          respond t conn ~verb ~status:"internal" ~hit:false ~t_recv ~id
            (error_payload ~id ~kind:"internal" (Printexc.to_string e))
      | inline -> submit t conn ~verb ~token ~t_recv ~id ?inline req)

(* Per-read fault hook for ["serve.frame.read"]: [exec] may delay (slow
   network) or raise (connection torn down mid-read); a [Torn] mangle
   rule shortens the requested read size instead of discarding received
   bytes — a short read, which the frame reassembly must absorb without
   ever corrupting a payload. *)
let frame_read_hook conn want =
  if Qls_faults.is_none (Qls_faults.installed ()) then want
  else begin
    let key = string_of_int conn.cid in
    Qls_faults.exec ~site:"serve.frame.read" ~key;
    String.length
      (Qls_faults.mangle ~site:"serve.frame.read" ~key (String.make want 'x'))
  end

let reader t conn =
  let fr =
    Protocol.reader ?idle_timeout:t.cfg.idle_timeout
      ?io_timeout:t.cfg.io_timeout
      ~read_hook:(frame_read_hook conn)
      conn.fd
  in
  let rec loop () =
    match Protocol.read_frame_fd fr with
    | Protocol.Eof -> ()
    | Protocol.Idle ->
        (* Idle sweep: a connection silent past the idle budget is
           reaped quietly — it wasn't mid-request, nothing is owed. *)
        ()
    | exception Protocol.Bad_request msg ->
        (* Framing is unrecoverable mid-stream (resynchronisation would
           be guesswork): answer once, then hang up. Covers the
           slow-loris case too — the mid-frame io_timeout surfaces
           here. *)
        Qls_obs.incr t.c_requests;
        (* lint: nondet-source — request latency is telemetry *)
        let now = Unix.gettimeofday () in
        respond t conn ~verb:"?" ~status:"bad_request" ~hit:false ~t_recv:now
          ~id:None
          (error_payload ~id:None ~kind:"bad_request" msg)
    | exception (Sys_error _ | Unix.Unix_error _ | Qls_faults.Injected _) -> ()
    | Protocol.Frame payload ->
        (* lint: nondet-source — request latency is telemetry *)
        let t_recv = Unix.gettimeofday () in
        handle_payload t conn payload ~t_recv;
        loop ()
  in
  loop ();
  (* The read side is done (EOF, idle, error, or drain-shutdown).
     In-flight responses for this connection still need the socket: wait
     them out, then close once (closing [oc] closes the fd). *)
  conn_quiesce conn;
  Mutex.protect conn.wmutex (fun () ->
      conn.broken <- true;
      try close_out_noerr conn.oc with _ -> ());
  Mutex.protect t.conns_mutex (fun () ->
      t.conns <- List.filter (fun c -> not (c.fd == conn.fd)) t.conns)

(* ------------------------------------------------------------------ *)
(* Accept loop and drain                                               *)
(* ------------------------------------------------------------------ *)

let accept_conn t lfd =
  match Unix.accept ~cloexec:true lfd with
  | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EINTR | ECONNABORTED), _, _)
    ->
      ()
  | fd, _ ->
      (* Write-side hygiene: a peer that stops reading blocks our
         buffered flush; SO_SNDTIMEO turns that into a Sys_error, which
         [respond] already maps to "connection broken". *)
      (match t.cfg.io_timeout with
      | Some timeout -> (
          try Unix.setsockopt_float fd SO_SNDTIMEO timeout
          with Unix.Unix_error _ | Invalid_argument _ -> ())
      | None -> ());
      let conn =
        {
          fd;
          cid = Atomic.fetch_and_add t.conn_seq 1;
          oc = Unix.out_channel_of_descr fd;
          wmutex = Mutex.create ();
          omutex = Mutex.create ();
          odone = Condition.create ();
          outstanding = 0;
          broken = false;
        }
      in
      let th = Thread.create (fun () -> reader t conn) () in
      Mutex.protect t.conns_mutex (fun () ->
          t.conns <- conn :: t.conns;
          t.threads <- th :: t.threads)

let run t =
  let rec loop () =
    if not (Atomic.get t.stop) then begin
      (match Unix.select (t.wake_r :: t.listeners) [] [] (-1.0) with
      | exception Unix.Unix_error (EINTR, _, _) -> ()
      | readable, _, _ ->
          List.iter
            (fun fd -> if not (fd == t.wake_r) then accept_conn t fd)
            readable);
      loop ()
    end
  in
  loop ();
  (* Drain, in dependency order:
     1. stop accepting: close listeners (and unlink the socket path so
        new clients fail fast instead of hanging on a dead file);
     2. wake every blocked reader with a half-close of the read side —
        in-flight responses still go out on the write side;
     3. let the pool finish everything already admitted (completion
        callbacks write the remaining responses);
     4. join the readers (each waits for its own outstanding responses
        before closing its socket);
     5. flush and close the request log — after this point the file is
        whole: every admitted request has its line. *)
  List.iter (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ())
    t.listeners;
  Option.iter
    (fun p -> try Unix.unlink p with Unix.Unix_error _ -> ())
    t.cfg.socket_path;
  let conns = Mutex.protect t.conns_mutex (fun () -> t.conns) in
  List.iter
    (fun c ->
      try Unix.shutdown c.fd Unix.SHUTDOWN_RECEIVE
      with Unix.Unix_error _ -> ())
    conns;
  Pool.drain t.pool;
  let threads = Mutex.protect t.conns_mutex (fun () -> t.threads) in
  (* lint: unbounded-wait — readers exit on the half-close above; each join is bounded by its conn's in-flight responses, which the pool drain just flushed *)
  List.iter Thread.join threads;
  Option.iter Qls_sealed.Log.close t.log;
  (try Unix.close t.wake_r with Unix.Unix_error _ -> ());
  try Unix.close t.wake_w with Unix.Unix_error _ -> ()
