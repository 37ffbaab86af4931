(* Closed-loop load generator for the qubikos serve daemon.

   Spawns a real daemon process (the same binary users run), drives it
   over its Unix-domain socket from N concurrent client connections,
   and reports:

   - throughput (requests/second) and exact latency quantiles
     (p50/p95/p99, computed from the full sorted sample set — no
     histogram approximation on the client side);
   - cache behaviour from the daemon's own stats verb. The workload
     repeats a fixed set of distinct requests, and the daemon's caches
     are single-flight, so the expected miss count equals the number of
     distinct requests — the hit rate is deterministic, not a
     best-effort observation;
   - correctness: every response for the same request text must be
     byte-identical (cache hits replay the cold response exactly), and
     the daemon's swaps/depth must equal an offline run of the same
     router on the same instance through the library.

   A run writes BENCH_serve.fresh.json and [--update] the committed
   BENCH_serve.json (quick scale: 2 clients x 10 rounds; a plain run is
   4 x 40). [--check] compares a fresh run against that baseline, which
   must hold an entry of the same shape: deterministic fields (errors,
   bit-identity, offline match, hit rate) gate exactly, p50 latency
   gates on a geometric-mean ratio with a generous tolerance (client
   and daemon share one machine; timing noise is real).

   [--drain-test] runs the crash-consistency scenario instead: SIGTERM
   mid-load, then asserts the daemon exits 0, every accepted client got
   a whole-frame answer, and the sealed request log loads with zero
   corrupt lines. *)

module Kit = Bench_kit
module Protocol = Qls_serve.Protocol

(* ------------------------------------------------------------------ *)
(* Daemon process control                                              *)
(* ------------------------------------------------------------------ *)

let default_server () =
  Filename.concat
    (Filename.dirname Sys.executable_name)
    (Filename.concat ".." (Filename.concat "bin" "qubikos_cli.exe"))

type daemon = { pid : int; socket : string; log : string }

let spawn_daemon ?(extra = []) ~server ~jobs ~queue () =
  let dir =
    Filename.temp_file "qubikos_serve_bench" "" |> fun f ->
    Sys.remove f;
    Unix.mkdir f 0o700;
    f
  in
  let socket = Filename.concat dir "serve.sock" in
  let log = Filename.concat dir "requests.jsonl" in
  let pid =
    Unix.create_process server
      (Array.of_list
         ([
            server; "serve"; "--socket"; socket; "--jobs"; string_of_int jobs;
            "--queue"; string_of_int queue; "--request-log"; log;
          ]
         @ extra))
      Unix.stdin Unix.stdout Unix.stderr
  in
  (* Wait for the listener: connect-retry, not sleep-and-hope. *)
  let deadline = 100 in
  let rec wait n =
    if n > deadline then failwith "daemon did not come up";
    let fd = Unix.socket PF_UNIX SOCK_STREAM 0 in
    match Unix.connect fd (ADDR_UNIX socket) with
    | () -> Unix.close fd
    | exception Unix.Unix_error _ ->
        Unix.close fd;
        Thread.delay 0.05;
        wait (n + 1)
  in
  wait 0;
  { pid; socket; log }

let stop_daemon d =
  (match Unix.kill d.pid Sys.sigterm with
  | () -> ()
  | exception Unix.Unix_error _ -> ());
  let _, status = Unix.waitpid [] d.pid in
  status

(* ------------------------------------------------------------------ *)
(* Client                                                              *)
(* ------------------------------------------------------------------ *)

type client_conn = { fd : Unix.file_descr; ic : in_channel; oc : out_channel }

let connect ?recv_timeout socket =
  let fd = Unix.socket PF_UNIX SOCK_STREAM 0 in
  Unix.connect fd (ADDR_UNIX socket);
  Option.iter
    (fun t -> Unix.setsockopt_float fd Unix.SO_RCVTIMEO t)
    recv_timeout;
  { fd; ic = Unix.in_channel_of_descr fd; oc = Unix.out_channel_of_descr fd }

let disconnect c = close_in_noerr c.ic

let rpc c payload =
  Protocol.write_frame c.oc payload;
  match Protocol.read_frame c.ic with
  | Some resp -> resp
  | None -> failwith "connection closed mid-request"

(* A response's fields ([] when it does not parse) and the ones the
   bench reads: [ok], the error [kind], and counters ([-1] if absent). *)
let fields resp = try Kit.entry_of_json resp with Failure _ -> []
let ok resp = List.assoc_opt "ok" (fields resp)

let kind resp =
  match List.assoc_opt "kind" (fields resp) with
  | Some (Kit.String k) -> Some k
  | _ -> None

let count resp key =
  match List.assoc_opt key (fields resp) with Some (Kit.Int i) -> i | _ -> -1

(* ------------------------------------------------------------------ *)
(* Workload: a fixed set of distinct requests, repeated                 *)
(* ------------------------------------------------------------------ *)

type job = { arch : string; swaps : int; gates : int; seed : int }

let workload ~distinct =
  List.init distinct (fun i ->
      {
        arch = (if i mod 2 = 0 then "grid3x3" else "aspen4");
        swaps = 2 + (i mod 2);
        gates = 24;
        seed = 1 + (i / 2);
      })

let request_of_job j =
  Printf.sprintf
    {|{"verb":"route","arch":"%s","swaps":%d,"gates":%d,"seed":%d,"tool":"sabre","trials":1}|}
    j.arch j.swaps j.gates j.seed

(* Offline ground truth: the same route computed in-process through the
   library, exactly as the CLI's route subcommand would. *)
let offline_route j =
  let device = Option.get (Qls_arch.Topologies.by_name j.arch) in
  let config =
    {
      Qubikos.Generator.default_config with
      n_swaps = j.swaps;
      gate_budget = j.gates;
      seed = j.seed;
    }
  in
  let bench = Qubikos.Generator.generate ~config device in
  let router =
    Option.get (Qls_router.Registry.by_name ~sabre_trials:1 "sabre")
  in
  let _, report =
    Qls_router.Router.run_verified router device
      bench.Qubikos.Benchmark.circuit
  in
  ( report.Qls_layout.Verifier.swap_count,
    report.Qls_layout.Verifier.depth,
    bench.Qubikos.Benchmark.optimal_swaps )

(* One client: closed loop over the workload, [rounds] times. Each
   response is appended to this client's private slot — no shared
   mutable state between client threads. *)
type sample = { req : string; resp : string; seconds : float }

let run_client ~socket ~rounds ~jobs_list ~slot ~slots =
  let conn = connect socket in
  let samples = ref [] in
  for _ = 1 to rounds do
    List.iter
      (fun j ->
        let req = request_of_job j in
        let resp, seconds = Kit.timed (fun () -> rpc conn req) in
        samples := { req; resp; seconds } :: !samples)
      jobs_list
  done;
  disconnect conn;
  slots.(slot) <- List.rev !samples

(* ------------------------------------------------------------------ *)
(* Result entry                                                        *)
(* ------------------------------------------------------------------ *)

type entry = {
  scenario : string;
  clients : int;
  rounds : int;
  distinct : int;
  requests : int;
  errors : int;
  bit_identical : bool;
  offline_match : bool;
  hit_rate : float;
  throughput_rps : float;
  p50_ms : float;
  p95_ms : float;
  p99_ms : float;
}

let to_entry e =
  Kit.
    [
      ("scenario", String e.scenario);
      ("clients", Int e.clients);
      ("rounds", Int e.rounds);
      ("distinct", Int e.distinct);
      ("requests", Int e.requests);
      ("errors", Int e.errors);
      ("bit_identical", Bool e.bit_identical);
      ("offline_match", Bool e.offline_match);
      ("hit_rate", Float (4, e.hit_rate));
      ("throughput_rps", Float (1, e.throughput_rps));
      ("p50_ms", Float (3, e.p50_ms));
      ("p95_ms", Float (3, e.p95_ms));
      ("p99_ms", Float (3, e.p99_ms));
    ]

let of_entry f =
  {
    scenario = Kit.string f "scenario";
    clients = Kit.int f "clients";
    rounds = Kit.int f "rounds";
    distinct = Kit.int f "distinct";
    requests = Kit.int f "requests";
    errors = Kit.int f "errors";
    bit_identical = Kit.bool f "bit_identical";
    offline_match = Kit.bool f "offline_match";
    hit_rate = Kit.float f "hit_rate";
    throughput_rps = Kit.float f "throughput_rps";
    p50_ms = Kit.float f "p50_ms";
    p95_ms = Kit.float f "p95_ms";
    p99_ms = Kit.float f "p99_ms";
  }

(* ------------------------------------------------------------------ *)
(* The load scenario                                                   *)
(* ------------------------------------------------------------------ *)

let exact_quantile sorted q =
  let n = Array.length sorted in
  if n = 0 then 0.0
  else sorted.(min (n - 1) (int_of_float (q *. float_of_int n)))

(* The daemon's own view of the run, echoed in every report (telemetry
   for the chaos invariants, a smoke check for plain load runs). *)
let print_daemon_stats stats = Printf.printf "daemon: %s\n" stats

let run_load ~scenario ~server ~clients ~rounds ~distinct ~jobs ~queue =
  let d = spawn_daemon ~server ~jobs ~queue () in
  let jobs_list = workload ~distinct in
  let slots = Array.make clients [] in
  let (), elapsed =
    Kit.timed (fun () ->
        List.init clients (fun slot ->
            Thread.create
              (fun () ->
                run_client ~socket:d.socket ~rounds ~jobs_list ~slot ~slots)
              ())
        |> List.iter Thread.join)
  in
  (* Cache stats from the daemon itself, then drain it. *)
  let conn = connect d.socket in
  let stats = rpc conn {|{"verb":"stats"}|} in
  disconnect conn;
  print_daemon_stats stats;
  let status = stop_daemon d in
  (match status with
  | Unix.WEXITED 0 -> ()
  | _ -> failwith "daemon did not exit cleanly after SIGTERM");
  let samples = Array.to_list slots |> List.concat in
  let requests = List.length samples in
  let errors =
    List.length
      (List.filter
         (fun s ->
           match ok s.resp with Some (Kit.Bool true) -> false | _ -> true)
         samples)
  in
  (* Bit-identity: all responses to one request text are one byte string. *)
  let by_req = Hashtbl.create 16 in
  List.iter
    (fun s ->
      match Hashtbl.find_opt by_req s.req with
      | None -> Hashtbl.replace by_req s.req s.resp
      | Some _ -> ())
    samples;
  let bit_identical =
    List.for_all
      (fun s -> String.equal (Hashtbl.find by_req s.req) s.resp)
      samples
  in
  (* Offline ground truth per distinct job. *)
  let offline_match =
    List.for_all
      (fun j ->
        let swaps, depth, optimal = offline_route j in
        match Hashtbl.find_opt by_req (request_of_job j) with
        | None -> false
        | Some resp ->
            count resp "swaps" = swaps && count resp "depth" = depth
            && count resp "optimal" = optimal)
      jobs_list
  in
  let hit_rate =
    match (count stats "route_hits", count stats "route_misses") with
    | h, m when h >= 0 && m >= 0 && h + m > 0 ->
        float_of_int h /. float_of_int (h + m)
    | _ -> 0.0
  in
  let sorted =
    samples |> List.map (fun s -> s.seconds *. 1000.) |> Array.of_list
  in
  Array.sort Float.compare sorted;
  {
    scenario;
    clients;
    rounds;
    distinct;
    requests;
    errors;
    bit_identical;
    offline_match;
    hit_rate;
    throughput_rps = float_of_int requests /. Float.max elapsed 1e-9;
    p50_ms = exact_quantile sorted 0.50;
    p95_ms = exact_quantile sorted 0.95;
    p99_ms = exact_quantile sorted 0.99;
  }

(* ------------------------------------------------------------------ *)
(* Drain scenario: SIGTERM mid-load, then audit the pieces             *)
(* ------------------------------------------------------------------ *)

let run_drain_test ~server =
  let d = spawn_daemon ~server ~jobs:2 ~queue:64 () in
  let jobs_list = workload ~distinct:4 in
  let slots = Array.make 4 [] in
  let stopped = Array.make 4 0 (* responses cut short, per client *) in
  let drain_client slot =
    match
      let conn = connect d.socket in
      let samples = ref [] in
      (try
         for _ = 1 to 10_000 do
           List.iter
             (fun j ->
               let req = request_of_job j in
               let resp = rpc conn req in
               samples := { req; resp; seconds = 0.0 } :: !samples)
             jobs_list
         done
       with Failure _ | Sys_error _ | End_of_file | Unix.Unix_error _ ->
         (* the drain half-closed our read side — expected *)
         stopped.(slot) <- 1);
      disconnect conn;
      slots.(slot) <- !samples
    with
    | () -> ()
    | exception _ -> stopped.(slot) <- 1
  in
  let threads =
    List.init 4 (fun slot -> Thread.create (fun () -> drain_client slot) ())
  in
  Thread.delay 0.5;
  Unix.kill d.pid Sys.sigterm;
  List.iter Thread.join threads;
  let status = stop_daemon d in
  let clean_exit =
    match status with Unix.WEXITED 0 -> true | _ -> false
  in
  let answered = Array.fold_left (fun n l -> n + List.length l) 0 slots in
  (* Every response the clients did receive must be a whole, valid frame
     payload carrying an "ok" field — the daemon never tears a response.
     ok:false with kind "draining" is a legitimate whole answer for a
     request that landed after shutdown began (a torn frame never gets
     this far: rpc raises mid-read and the sample is dropped). *)
  let whole =
    Array.for_all
      (List.for_all (fun s ->
           match (ok s.resp, kind s.resp) with
           | Some (Kit.Bool true), _ -> true
           | Some (Kit.Bool false), Some ("draining" | "overloaded") -> true
           | _ -> false))
      slots
  in
  (* The sealed request log must load with zero corrupt lines: the drain
     flushed every line whole. *)
  let lines, corrupt = Qls_sealed.Log.load ~parse:Result.ok d.log in
  Printf.printf
    "drain-test: exit_clean=%b responses=%d whole=%b log_lines=%d corrupt=%d\n"
    clean_exit answered whole (List.length lines) (List.length corrupt);
  List.iter
    (fun (c : Qls_sealed.corrupt) ->
      Printf.printf "  corrupt line %d: %s\n" c.line_no c.reason)
    corrupt;
  if clean_exit && whole && List.is_empty corrupt && answered > 0
     && List.length lines > 0
  then 0
  else 1

(* ------------------------------------------------------------------ *)
(* Chaos scenario: hammer a daemon with every serve fault site armed    *)
(* ------------------------------------------------------------------ *)

(* Deterministic fault schedule for the chosen seed: torn socket reads,
   request bodies that raise, request bodies that hang past the watchdog
   threshold, and dropped request-log lines. Rates are tuned so a
   standard run injects a handful of each without dominating the load. *)
let chaos_inject_spec seed =
  Printf.sprintf
    "seed=%d;serve.frame.read:torn:0.10;serve.work.exn:transient:0.05;serve.work.hang:delay@0.8:0.01;serve.log.append:permanent:0.05"
    seed

(* Every chaos request carries a unique id, and the daemon echoes the id
   in the response — so "each request got exactly one well-formed typed
   answer" is checkable per request, not just in aggregate. *)
let chaos_request ~slot ~n j =
  Printf.sprintf
    {|{"id":"c%d-%d","verb":"route","arch":"%s","swaps":%d,"gates":%d,"seed":%d,"tool":"sabre","trials":1}|}
    slot n j.arch j.swaps j.gates j.seed

let run_chaos ~server ~seed =
  let clients = 4 and rounds = 15 and jobs = 2 in
  let d =
    spawn_daemon ~server ~jobs ~queue:64
      ~extra:
        [
          "--inject"; chaos_inject_spec seed; "--hang-threshold"; "0.3";
          "--io-timeout"; "5"; "--idle-timeout"; "60"; "--default-deadline";
          "5000";
        ]
      ()
  in
  let jobs_list = workload ~distinct:8 in
  let anomalies = Array.make clients [] in
  let answered = Array.make clients 0 in
  let hammer slot =
    let conn = connect ~recv_timeout:15.0 d.socket in
    let note fmt = Printf.ksprintf (fun s -> anomalies.(slot) <- s :: anomalies.(slot)) fmt in
    let n = ref 0 in
    for _ = 1 to rounds do
      List.iter
        (fun j ->
          incr n;
          let id = Printf.sprintf "c%d-%d" slot !n in
          let req = chaos_request ~slot ~n:!n j in
          match rpc conn req with
          | resp -> (
              answered.(slot) <- answered.(slot) + 1;
              (match List.assoc_opt "id" (fields resp) with
              | Some (Kit.String rid) when String.equal rid id -> ()
              | Some _ -> note "%s: answered with a foreign id: %s" id resp
              | None -> note "%s: response carries no id" id);
              (* well-formed and typed: ok:true, or ok:false with a kind *)
              match ok resp with
              | Some (Kit.Bool true) -> ()
              | Some (Kit.Bool false) -> (
                  match kind resp with
                  | Some
                      ( "bad_request" | "overloaded" | "draining"
                      | "deadline_exceeded" | "internal" ) ->
                      ()
                  | Some k -> note "%s: unknown error kind %s" id k
                  | None -> note "%s: error response without a kind" id)
              | _ -> note "%s: response lacks ok" id)
          | exception e ->
              note "%s: no response (%s)" id (Printexc.to_string e))
        jobs_list
    done;
    disconnect conn
  in
  let threads =
    List.init clients (fun slot -> Thread.create (fun () -> hammer slot) ())
  in
  List.iter Thread.join threads;
  let problems = ref [] in
  let fail fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt in
  Array.iteri
    (fun slot notes ->
      List.iter (fun n -> fail "client %d: %s" slot n) (List.rev notes))
    anomalies;
  let sent = clients * rounds * List.length jobs_list in
  let got = Array.fold_left ( + ) 0 answered in
  if got <> sent then fail "sent %d requests but saw %d responses" sent got;
  (* probe phase on a clean connection: identity, health, counters *)
  let conn = connect ~recv_timeout:15.0 d.socket in
  let probe_req =
    {|{"verb":"route","arch":"grid3x3","swaps":2,"gates":24,"seed":1,"tool":"sabre","trials":1}|}
  in
  (* fault injection may answer any attempt with a typed error; collect
     the ok responses and require the cache replay to be byte-stable *)
  let oks = ref [] in
  let attempts = ref 0 in
  while List.length !oks < 2 && !attempts < 50 do
    incr attempts;
    match rpc conn probe_req with
    | resp -> (
        match ok resp with
        | Some (Kit.Bool true) -> oks := resp :: !oks
        | _ -> ())
    | exception _ -> ()
  done;
  (match !oks with
  | a :: rest when List.for_all (String.equal a) rest && List.length rest >= 1
    ->
      ()
  | _ :: _ :: _ -> fail "ok responses to one request text were not byte-identical"
  | _ -> fail "could not obtain two ok responses for the identity probe");
  let health = rpc conn {|{"verb":"health"}|} in
  let stats = rpc conn {|{"verb":"stats"}|} in
  disconnect conn;
  print_daemon_stats stats;
  (match List.assoc_opt "ready" (fields health) with
  | Some (Kit.Bool true) -> ()
  | _ -> fail "daemon not ready after the chaos load");
  let lost = count stats "lost_workers" and internal = count stats "internal" in
  if lost < 0 then fail "stats lacks lost_workers";
  if lost > internal then
    fail "lost %d workers but only %d internal responses: a loss went unanswered"
      lost internal;
  if count health "live_workers" <> jobs then
    fail "live_workers %d after the run; every lost worker must be replaced"
      (count health "live_workers");
  let status = stop_daemon d in
  if not (match status with Unix.WEXITED 0 -> true | _ -> false) then
    fail "daemon did not exit 0 on SIGTERM";
  (* the request log stays well-sealed: injected log faults drop whole
     lines (counted by the daemon), they never tear the file *)
  let lines, corrupt = Qls_sealed.Log.load ~parse:Result.ok d.log in
  if not (List.is_empty corrupt) then
    fail "%d corrupt request-log lines after chaos" (List.length corrupt);
  let dropped = count stats "log_dropped" in
  if List.length lines + max dropped 0 < sent then
    fail "log has %d lines + %d dropped for %d requests: lines went missing"
      (List.length lines) dropped sent;
  Printf.printf
    "chaos seed=%d: %d req, %d answered, lost_workers %d, internal %d, \
     log_lines %d (+%d dropped), anomalies %d\n"
    seed sent got lost internal (List.length lines) dropped
    (List.length !problems);
  match List.rev !problems with
  | [] ->
      Printf.printf "chaos: OK\n";
      0
  | ps ->
      List.iter (fun p -> Printf.printf "chaos FAILED: %s\n" p) ps;
      1

(* ------------------------------------------------------------------ *)
(* Check gate and CLI                                                  *)
(* ------------------------------------------------------------------ *)

let key e =
  Printf.sprintf "%s/%dx%d/%d" e.scenario e.clients e.rounds e.distinct

(* p50 geomean slack: 1.0 lets latency double before the gate trips. *)
let p50_tolerance = 1.0

let check entries baseline =
  let g = Kit.gate ~baseline in
  List.iter
    (fun e ->
      Kit.exact g (key e) "errors" ~expected:0 e.errors;
      if not e.bit_identical then
        Kit.fail g "%s: cache hits were not byte-identical to cold responses"
          (key e);
      if not e.offline_match then
        Kit.fail g "%s: served results diverged from the offline library route"
          (key e))
    entries;
  let pairs = Kit.pair g ~key ~base:(Kit.load baseline of_entry) entries in
  (* The hit rate is deterministic (single-flight caches, fixed
     workload): a miss rate above the baseline's beyond the 4-decimal
     quantum is a code change, not noise. *)
  List.iter
    (fun (e, b) ->
      Kit.no_rise g (key e) ~quantum:1e-4 "miss rate" ~base:(1.0 -. b.hit_rate)
        (1.0 -. e.hit_rate))
    pairs;
  Kit.geomean g "load" "p50_ms" ~tolerance:p50_tolerance
    (List.map (fun (e, b) -> (e.p50_ms, b.p50_ms)) pairs);
  Kit.problems g

let () =
  (* A daemon draining mid-write must surface as an exception on the
     client thread, not kill the whole bench. *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let server = ref (default_server ()) in
  let drain = ref false in
  let chaos = ref (-1) in
  let cli =
    Kit.cli ~bench:"serve" ~default:Default ~full:false
      ~extra:
        [
          ("--server", Arg.Set_string server, "PATH qubikos binary to spawn");
          ("--drain-test", Arg.Set drain, " SIGTERM mid-load, audit the drain");
          ( "--chaos",
            Arg.Set_int chaos,
            "SEED Run the fault-injection scenario with this schedule seed" );
        ]
      ()
  in
  if !drain then exit (run_drain_test ~server:!server)
  else if !chaos >= 0 then exit (run_chaos ~server:!server ~seed:!chaos)
  else begin
    let clients, rounds =
      match cli.scale with Quick -> (2, 10) | Default | Full -> (4, 40)
    in
    let e =
      run_load ~scenario:"mixed-route" ~server:!server ~clients ~rounds
        ~distinct:8 ~jobs:2 ~queue:64
    in
    Printf.printf
      "%s: %d req (%d clients x %d rounds, %d distinct) %.0f req/s  p50 %.3fms \
       p95 %.3fms p99 %.3fms  hit_rate %.4f  errors %d  bit_identical %b  \
       offline_match %b\n%!"
      e.scenario e.requests e.clients e.rounds e.distinct e.throughput_rps
      e.p50_ms e.p95_ms e.p99_ms e.hit_rate e.errors e.bit_identical
      e.offline_match;
    Kit.finish ~bench:"serve" cli [ to_entry e ] (check [ e ])
  end
