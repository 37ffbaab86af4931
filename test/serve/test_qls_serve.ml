(* Tests for the serving subsystem: protocol framing and parsing, cache
   key injectivity (QCheck), the bounded single-flight LRU cache, the
   long-lived Pool.submit API, typed tool validation, and an end-to-end
   daemon over a temporary Unix socket (cache hits byte-identical to
   cold responses and to the offline library route). *)

module Protocol = Qls_serve.Protocol
module Cache = Qls_harness.Cache
module Server = Qls_serve.Server
module Pool = Qls_harness.Pool
module Herror = Qls_harness.Herror
module Evaluation = Qubikos.Evaluation
module Qasm = Qls_circuit.Qasm
module Circuit = Qls_circuit.Circuit
module Gate = Qls_circuit.Gate

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)
let test_case name f = Alcotest.test_case name `Quick f

(* ------------------------------------------------------------------ *)
(* Protocol framing                                                    *)
(* ------------------------------------------------------------------ *)

(* Run the framing over a real pipe: the same channel machinery the
   daemon uses on sockets. *)
let roundtrip payloads =
  let r, w = Unix.pipe () in
  let oc = Unix.out_channel_of_descr w in
  let ic = Unix.in_channel_of_descr r in
  List.iter (Protocol.write_frame oc) payloads;
  close_out oc;
  let rec read acc =
    match Protocol.read_frame ic with
    | Some p -> read (p :: acc)
    | None -> List.rev acc
  in
  let got = read [] in
  close_in ic;
  got

let test_frame_roundtrip () =
  let payloads =
    [ {|{"verb":"stats"}|}; ""; "payload\nwith\nnewlines"; String.make 4096 'x' ]
  in
  let got = roundtrip payloads in
  check_int "frame count" (List.length payloads) (List.length got);
  List.iter2 (fun a b -> check_string "frame payload" a b) payloads got

let read_of_string s =
  let path = Filename.temp_file "qls_serve_frame" ".bin" in
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc;
  let ic = open_in_bin path in
  let result =
    match Protocol.read_frame ic with
    | exception Protocol.Bad_request m -> Error m
    | exception End_of_file -> Error "truncated frame"
    | Some p -> Ok (Some p)
    | None -> Ok None
  in
  close_in ic;
  Sys.remove path;
  result

let test_frame_malformed () =
  (match read_of_string "" with
  | Ok None -> ()
  | _ -> Alcotest.fail "clean EOF should be None");
  (match read_of_string "nonsense\n{}" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "non-decimal length must be rejected");
  (match read_of_string "-3\nabc\n" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "negative length must be rejected");
  (match read_of_string "10\nabc" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "truncated payload must be rejected");
  (match read_of_string "3\nabcX" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "missing terminator must be rejected");
  (* CRLF header is tolerated for hand-typed clients *)
  match read_of_string "2\r\nhi\n" with
  | Ok (Some "hi") -> ()
  | _ -> Alcotest.fail "CRLF header should be tolerated"

(* The request of a payload, raising its bad_request reason. *)
let request_of_payload payload =
  match Protocol.request_of_payload payload with
  | _, Ok req -> req
  | _, Error msg -> raise (Protocol.Bad_request msg)

let test_request_parse () =
  (match request_of_payload {|{"verb":"stats"}|} with
  | Protocol.Stats -> ()
  | _ -> Alcotest.fail "stats");
  (match request_of_payload {|{"verb":"route"}|} with
  | Protocol.Route p ->
      check_string "default arch" "aspen4" p.gen.arch;
      check_int "default swaps" 5 p.gen.n_swaps;
      check_bool "default gates" true (Option.is_none p.gen.gates);
      check_string "default tool" "sabre" p.tool;
      check_int "default trials" 20 p.trials
  | _ -> Alcotest.fail "route");
  (match
     request_of_payload
       {|{"verb":"certify","arch":"grid3x3","swaps":2,"gates":30,"seed":7}|}
   with
  | Protocol.Certify { gen = g; deadline_ms = None } ->
      check_string "arch" "grid3x3" g.arch;
      check_int "swaps" 2 g.n_swaps;
      check_bool "gates" true (match g.gates with Some 30 -> true | _ -> false);
      check_int "seed" 7 g.seed
  | _ -> Alcotest.fail "certify");
  let rejects payload =
    match request_of_payload payload with
    | exception Protocol.Bad_request _ -> ()
    | _ -> Alcotest.fail ("should reject: " ^ payload)
  in
  rejects {|{"verb":"warp"}|};
  rejects {|{"arch":"aspen4"}|};
  rejects {|{"verb":"route","swaps":"many"}|};
  rejects {|not json|};
  (* evaluate has no optimum to compare an inline circuit against *)
  rejects {|{"verb":"evaluate","qasm":"OPENQASM 2.0;"}|};
  (* one parse yields the id, also for a request it rejects *)
  check_bool "id" true
    (match Protocol.request_of_payload {|{"id":"r1","verb":"stats"}|} with
    | Some "r1", Ok Protocol.Stats -> true
    | _ -> false);
  check_bool "id of a rejected request" true
    (match Protocol.request_of_payload {|{"id":"r2","verb":"warp"}|} with
    | Some "r2", Error _ -> true
    | _ -> false);
  check_bool "no id without JSON" true
    (match Protocol.request_of_payload "not json" with
    | None, Error _ -> true
    | _ -> false)

let test_request_parse_deadline () =
  (match
     request_of_payload {|{"verb":"route","deadline_ms":250}|}
   with
  | Protocol.Route p ->
      check_bool "route deadline" true
        (match p.deadline_ms with Some 250 -> true | _ -> false)
  | _ -> Alcotest.fail "route with deadline");
  (match
     request_of_payload
       {|{"verb":"certify","arch":"grid3x3","swaps":2,"deadline_ms":100}|}
   with
  | Protocol.Certify { deadline_ms = Some 100; _ } -> ()
  | _ -> Alcotest.fail "certify with deadline");
  (match request_of_payload {|{"verb":"route"}|} with
  | Protocol.Route { deadline_ms = None; _ } -> ()
  | _ -> Alcotest.fail "absent deadline is None");
  (match request_of_payload {|{"verb":"health"}|} with
  | Protocol.Health -> ()
  | _ -> Alcotest.fail "health verb");
  let rejects payload =
    match request_of_payload payload with
    | exception Protocol.Bad_request _ -> ()
    | _ -> Alcotest.fail ("should reject: " ^ payload)
  in
  rejects {|{"verb":"route","deadline_ms":0}|};
  rejects {|{"verb":"route","deadline_ms":-5}|};
  rejects {|{"verb":"route","deadline_ms":"fast"}|}

(* ------------------------------------------------------------------ *)
(* Timeout-aware fd framing: chunked reads, oversize, idle, io budget  *)
(* ------------------------------------------------------------------ *)

let encode_frames payloads =
  let buf = Buffer.create 256 in
  List.iter
    (fun p ->
      Buffer.add_string buf (string_of_int (String.length p));
      Buffer.add_char buf '\n';
      Buffer.add_string buf p;
      Buffer.add_char buf '\n')
    payloads;
  Buffer.contents buf

(* Push [bytes] through a real pipe and read frames back with the fd
   reader, optionally forcing pathological read sizes via the hook. *)
let read_frames_fd ?read_hook bytes =
  let r, w = Unix.pipe () in
  let writer =
    Thread.create
      (fun () ->
        let n = String.length bytes in
        let pos = ref 0 in
        while !pos < n do
          pos := !pos + Unix.write_substring w bytes !pos (n - !pos)
        done;
        Unix.close w)
      ()
  in
  let rd = Protocol.reader ?read_hook r in
  let rec go acc =
    match Protocol.read_frame_fd rd with
    | Protocol.Frame p -> go (p :: acc)
    | Protocol.Eof -> Ok (List.rev acc)
    | Protocol.Idle -> Error "unexpected idle"
    | exception Protocol.Bad_request m -> Error m
  in
  let out = go [] in
  Thread.join writer;
  Unix.close r;
  out

let test_fd_reader_one_byte_reads () =
  let payloads =
    [ {|{"verb":"stats"}|}; ""; "payload\nwith\nnewlines"; String.make 300 'q' ]
  in
  match read_frames_fd ~read_hook:(fun _ -> 1) (encode_frames payloads) with
  | Ok got ->
      check_int "frame count" (List.length payloads) (List.length got);
      List.iter2 (fun a b -> check_string "reassembled" a b) payloads got
  | Error m -> Alcotest.fail ("one-byte reads failed: " ^ m)

let test_fd_reader_oversize_frame () =
  (* an oversize declaration must yield one clean Bad_request before any
     payload allocation, not a hang or a torn read *)
  let header = string_of_int (Protocol.max_frame + 1) ^ "\n" in
  match read_frames_fd header with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "oversize frame must be rejected"

let test_fd_reader_idle_timeout () =
  let r, w = Unix.pipe () in
  let rd = Protocol.reader ~idle_timeout:0.05 r in
  (match Protocol.read_frame_fd rd with
  | Protocol.Idle -> ()
  | _ -> Alcotest.fail "a silent connection must be reported Idle");
  Unix.close r;
  Unix.close w

let test_fd_reader_io_timeout_mid_frame () =
  let r, w = Unix.pipe () in
  (* a slow-loris client: frame started, never finished *)
  ignore (Unix.write_substring w "4\nab" 0 4);
  let rd = Protocol.reader ~io_timeout:0.05 r in
  (match Protocol.read_frame_fd rd with
  | exception Protocol.Bad_request _ -> ()
  | _ -> Alcotest.fail "a stalled mid-frame read must be Bad_request");
  Unix.close r;
  Unix.close w

let chunked_frame_props =
  let open QCheck in
  let payload = string_gen_of_size (Gen.int_range 0 64) Gen.printable in
  [
    Test.make ~name:"fd reader reassembles frames under arbitrary chunking"
      ~count:60
      (pair (list_of_size (Gen.int_range 1 6) payload)
         (list_of_size (Gen.int_range 1 16) (int_range 1 7)))
      (fun (payloads, chunks) ->
        let chunks = Array.of_list chunks in
        let i = ref 0 in
        let hook want =
          let c = chunks.(!i mod Array.length chunks) in
          incr i;
          min want c
        in
        match read_frames_fd ~read_hook:hook (encode_frames payloads) with
        | Ok got -> got = payloads
        | Error _ -> false);
  ]

(* ------------------------------------------------------------------ *)
(* Cache keys: injectivity (QCheck)                                    *)
(* ------------------------------------------------------------------ *)

let key_props =
  let open QCheck in
  let component = string_gen_of_size (Gen.int_range 0 12) Gen.printable in
  let tuple =
    quad component component component (pair small_signed_int small_signed_int)
  in
  [
    Test.make ~name:"route_key injective over its 5-tuple" ~count:500
      (pair tuple tuple)
      (fun ((d1, c1, t1, (tr1, s1)), (d2, c2, t2, (tr2, s2))) ->
        let k1 =
          Protocol.route_key ~device:d1 ~circuit:c1 ~tool:t1 ~trials:tr1
            ~seed:s1
        and k2 =
          Protocol.route_key ~device:d2 ~circuit:c2 ~tool:t2 ~trials:tr2
            ~seed:s2
        in
        String.equal k1 k2
        = (String.equal d1 d2 && String.equal c1 c2 && String.equal t1 t2
           && tr1 = tr2 && s1 = s2));
    Test.make ~name:"gen_key injective over generator params" ~count:500
      (pair
         (quad component small_signed_int (option small_nat) small_signed_int)
         (quad component small_signed_int (option small_nat) small_signed_int))
      (fun ((a1, n1, g1, s1), (a2, n2, g2, s2)) ->
        let mk arch n_swaps gates seed =
          Protocol.gen_key { Protocol.arch; n_swaps; gates; seed }
        in
        String.equal (mk a1 n1 g1 s1) (mk a2 n2 g2 s2)
        = (String.equal a1 a2 && n1 = n2
           && (match (g1, g2) with
              | None, None -> true
              | Some x, Some y -> x = y
              | _ -> false)
           && s1 = s2));
  ]

let test_circuit_hash () =
  let h1 = Protocol.circuit_hash "OPENQASM 2.0;\ncx q[0],q[1];" in
  let h2 = Protocol.circuit_hash "OPENQASM 2.0;\ncx q[0],q[1];" in
  let h3 = Protocol.circuit_hash "OPENQASM 2.0;\ncx q[1],q[0];" in
  check_string "deterministic" h1 h2;
  check_bool "content-sensitive" false (String.equal h1 h3);
  check_int "16 hex digits" 16 (String.length h1)

let generated arch ~swaps ~gates ~seed =
  let device = Option.get (Qls_arch.Topologies.by_name arch) in
  let config =
    { Qubikos.Generator.default_config with n_swaps = swaps; gate_budget = gates; seed }
  in
  (device, (Qubikos.Generator.generate ~config device).Qubikos.Benchmark.circuit)

(* Recorded before [Qasm.to_string] and [circuit_hash] were rewritten:
   the route-cache key of a fixed circuit must not drift. *)
let test_route_key_pinned () =
  let _, c = generated "grid3x3" ~swaps:2 ~gates:24 ~seed:3 in
  let key circuit =
    Protocol.route_key ~device:"grid3x3"
      ~circuit:(Protocol.circuit_hash (Qasm.to_string circuit))
      ~tool:"sabre" ~trials:1 ~seed:3
  in
  check_string "route key" "7:grid3x3|16:40798d89b38adf48|5:sabre|1:1|1:3" (key c);
  (* The key hashes the canonical re-serialisation, so an inline text in
     another layout shares the entry. *)
  let loose =
    "OPENQASM 2.0;\n// same circuit, other spacing\nqreg q[9];\n"
    ^ String.concat ""
        (List.map
           (function
             | Gate.G1 { name; q } -> Printf.sprintf "%s  q[%d] ;\n" name q
             | Gate.G2 { name; a; b } -> Printf.sprintf "%s q[ %d ], q[%d]; // x\n" name a b)
           (Array.to_list (Circuit.gates c)))
  in
  check_string "layout-independent" (key c) (key (Qasm.of_string loose))

(* ------------------------------------------------------------------ *)
(* Allocation on the cold request path                                  *)
(* ------------------------------------------------------------------ *)

(* Minor words per gate of the three non-routing stages of a cold inline
   route, on a 1,500-gate Aspen-4 instance. Before the one-pass reader,
   the Printf-free writer and the one-pass verifier these read about 120,
   116 and 53 words per gate; now about 14, 0 and 0.1. Minor-word counts
   drift with the heap's state on OCaml 5.1, so each bound keeps
   headroom. *)
let words_per_gate n f =
  let w0 = Gc.minor_words () in
  ignore (Sys.opaque_identity (f ()));
  (Gc.minor_words () -. w0) /. float_of_int n

let check_words what per_gate bound =
  check_bool (Printf.sprintf "%s: %.1f minor words per gate <= %.0f" what per_gate bound)
    true (per_gate <= bound)

let request_path_instance =
  lazy
    (let device, c = generated "aspen4" ~swaps:5 ~gates:1500 ~seed:1 in
     let routed =
       Qls_router.Sabre.route
         ~options:{ Qls_router.Sabre.default_options with trials = 1 }
         device c
     in
     (c, Qasm.to_string c, routed))

let allocation_tests =
  let gate what bound f =
    test_case (Printf.sprintf "%s allocates at most %.0f minor words per gate" what bound)
      (fun () ->
        let c, text, routed = Lazy.force request_path_instance in
        check_words what (words_per_gate (Circuit.length c) (fun () -> f c text routed)) bound)
  in
  [
    gate "Qasm.of_string" 40. (fun _ text _ -> ignore (Qasm.of_string text));
    gate "Qasm.to_string + circuit_hash" 5. (fun c _ _ ->
        ignore (Protocol.circuit_hash (Qasm.to_string c)));
    gate "Verifier.check" 5. (fun _ _ routed -> ignore (Qls_layout.Verifier.check routed));
  ]

(* ------------------------------------------------------------------ *)
(* Cache: LRU, single-flight, stats                                    *)
(* ------------------------------------------------------------------ *)

let test_cache_hit_miss () =
  let c = Cache.create ~capacity:8 "t" in
  let calls = ref 0 in
  let compute () = incr calls; "v" in
  let v1, hit1 = Cache.find_or_compute c ~key:"k" compute in
  let v2, hit2 = Cache.find_or_compute c ~key:"k" compute in
  check_string "value" "v" v1;
  check_bool "cold is a miss" false hit1;
  check_bool "second is a hit" true hit2;
  check_bool "hit is the same result" true (String.equal v1 v2);
  check_int "computed once" 1 !calls;
  let s = Cache.stats c in
  check_int "hits" 1 s.Cache.hits;
  check_int "misses" 1 s.Cache.misses;
  check_int "size" 1 s.Cache.size

let test_cache_lru_eviction () =
  let c = Cache.create ~capacity:2 "t" in
  let get key = Cache.find_or_compute c ~key (fun () -> key) in
  ignore (get "a");
  ignore (get "b");
  ignore (get "a");
  (* a is now more recently used than b *)
  ignore (get "c");
  (* over capacity: b (LRU) must go, a must stay *)
  let _, hit_a = get "a" in
  check_bool "a survived" true hit_a;
  let _, hit_b = get "b" in
  check_bool "b was evicted" false hit_b;
  check_int "one eviction before b came back"
    2 (* b's eviction, then a's or c's when b was re-added over capacity *)
    (Cache.stats c).Cache.evictions

let test_cache_capacity_zero () =
  let c = Cache.create ~capacity:0 "t" in
  let calls = ref 0 in
  let compute () = incr calls; !calls in
  let _, h1 = Cache.find_or_compute c ~key:"k" compute in
  let _, h2 = Cache.find_or_compute c ~key:"k" compute in
  check_bool "never hits" false (h1 || h2);
  check_int "always computes" 2 !calls

let test_cache_single_flight () =
  let c = Cache.create ~capacity:8 "t" in
  let computes = Atomic.make 0 in
  let compute () =
    Atomic.incr computes;
    Thread.delay 0.05;
    "slow"
  in
  let results = Array.make 8 ("", false) in
  let threads =
    List.init 8 (fun i ->
        Thread.create
          (fun () -> results.(i) <- Cache.find_or_compute c ~key:"k" compute)
          ())
  in
  List.iter Thread.join threads;
  check_int "exactly one computation" 1 (Atomic.get computes);
  Array.iter (fun (v, _) -> check_string "all see the value" "slow" v) results;
  let hits = Array.to_list results |> List.filter snd |> List.length in
  check_int "waiters count as hits" 7 hits;
  let s = Cache.stats c in
  check_int "stats misses" 1 s.Cache.misses;
  check_int "stats hits" 7 s.Cache.hits

let test_cache_failure_releases_slot () =
  let c = Cache.create ~capacity:8 "t" in
  (match Cache.find_or_compute c ~key:"k" (fun () -> failwith "boom") with
  | exception Failure _ -> ()
  | _ -> Alcotest.fail "exception must propagate");
  let v, hit = Cache.find_or_compute c ~key:"k" (fun () -> "ok") in
  check_string "slot released" "ok" v;
  check_bool "recompute is a miss" false hit

(* ------------------------------------------------------------------ *)
(* Pool.submit / drain                                                 *)
(* ------------------------------------------------------------------ *)

let test_pool_submit_completes () =
  let p = Pool.start ~jobs:2 () in
  let acc = Atomic.make 0 in
  let pending = Atomic.make 0 in
  for i = 1 to 50 do
    Atomic.incr pending;
    match
      Pool.submit p
        ~work:(fun () -> i)
        ~complete:(fun r ->
          (match r with
          | Ok v -> ignore (Atomic.fetch_and_add acc v)
          | Error _ -> ());
          Atomic.decr pending)
    with
    | Pool.Submitted -> ()
    | _ -> Alcotest.fail "submit refused with an unbounded queue"
  done;
  Pool.drain p;
  check_int "all completions ran" 0 (Atomic.get pending);
  check_int "results delivered" (50 * 51 / 2) (Atomic.get acc)

let test_pool_error_result () =
  let p = Pool.start ~jobs:1 () in
  let got = Atomic.make "" in
  (match
     Pool.submit p
       ~work:(fun () -> failwith "task blew up")
       ~complete:(fun r ->
         match r with
         | Error (Failure m) -> Atomic.set got m
         | _ -> ())
   with
  | Pool.Submitted -> ()
  | _ -> Alcotest.fail "submit refused");
  Pool.drain p;
  check_string "exception delivered as Error" "task blew up" (Atomic.get got)

let test_pool_rejects_when_full () =
  let p = Pool.start ~jobs:1 ~capacity:1 () in
  let gate = Atomic.make true in
  let started = Atomic.make false in
  let submit_blocker () =
    Pool.submit p
      ~work:(fun () ->
        Atomic.set started true;
        while Atomic.get gate do
          Thread.yield ()
        done)
      ~complete:(fun _ -> ())
  in
  check_bool "blocker admitted" true
    (match submit_blocker () with Pool.Submitted -> true | _ -> false);
  (* wait until the worker picked it up, so the queue is empty again *)
  while not (Atomic.get started) do
    Thread.yield ()
  done;
  let ok2 =
    Pool.submit p ~work:(fun () -> ()) ~complete:(fun _ -> ())
  in
  check_bool "one queued job fits" true
    (match ok2 with Pool.Submitted -> true | _ -> false);
  let ok3 =
    Pool.submit p ~work:(fun () -> ()) ~complete:(fun _ -> ())
  in
  check_bool "beyond capacity is refused" true
    (match ok3 with Pool.Rejected_full -> true | _ -> false);
  check_int "queue depth visible" 1 (Pool.queue_depth p);
  Atomic.set gate false;
  Pool.drain p;
  check_bool "post-drain submits are refused" true
    (match Pool.submit p ~work:(fun () -> ()) ~complete:(fun _ -> ()) with
    | Pool.Rejected_closed -> true
    | _ -> false)

let test_pool_callback_error_contained () =
  let seen = Atomic.make 0 in
  let p =
    Pool.start ~jobs:1 ~on_callback_error:(fun _ -> Atomic.incr seen) ()
  in
  let after = Atomic.make false in
  ignore
    (Pool.submit p ~work:(fun () -> ()) ~complete:(fun _ -> failwith "cb"));
  ignore
    (Pool.submit p
       ~work:(fun () -> ())
       ~complete:(fun _ -> Atomic.set after true));
  Pool.drain p;
  check_int "callback failure reported" 1 (Atomic.get seen);
  check_bool "worker survived it" true (Atomic.get after)

let test_pool_callback_sees_job_settled () =
  (* serve writes a response from the completion callback: a client
     that has read it and asks [stats] must not find the job in flight. *)
  let p = Pool.start ~jobs:1 () in
  let seen = Atomic.make (-1) in
  ignore
    (Pool.submit p
       ~work:(fun () -> ())
       ~complete:(fun _ ->
         Thread.delay 0.05;
         Atomic.set seen (Pool.in_flight p)));
  Pool.drain p;
  check_int "in_flight inside the callback, after drain" 0 (Atomic.get seen)

(* ------------------------------------------------------------------ *)
(* Deadlines and watchdog supervision                                  *)
(* ------------------------------------------------------------------ *)

let test_cancel_token () =
  (* the ambient token defaults to the inert one: polls are free no-ops *)
  Qls_cancel.poll ();
  let t = Qls_cancel.make ~deadline_ms:1 () in
  (match
     Qls_cancel.with_token t (fun () ->
         Thread.delay 0.01;
         Qls_cancel.poll ();
         `Completed)
   with
  | exception Qls_cancel.Expired { elapsed_ms; limit_ms } ->
      check_int "limit carried" 1 limit_ms;
      check_bool "elapsed >= limit" true (elapsed_ms >= limit_ms)
  | `Completed -> Alcotest.fail "an expired token must raise at the poll");
  (* without a deadline the poll stamps the heartbeat and never raises *)
  let t2 = Qls_cancel.make () in
  Qls_cancel.with_token t2 (fun () ->
      Thread.delay 0.005;
      Qls_cancel.poll ());
  check_bool "heartbeat stamped" true
    (Qls_cancel.last_poll_ms t2 >= Qls_cancel.created_ms t2);
  match Qls_cancel.make ~deadline_ms:0 () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "deadline_ms < 1 must be rejected"

let test_cancel_child_deadline () =
  (* A child keeps its parent's absolute expiry, so a shard started after
     part of the budget is spent expires with the parent's report. *)
  let parent = Qls_cancel.make ~deadline_ms:20 () in
  let child = Qls_cancel.child parent in
  check_int "parent's start" (Qls_cancel.created_ms parent)
    (Qls_cancel.created_ms child);
  Thread.delay 0.03;
  (match Qls_cancel.with_token child Qls_cancel.poll with
  | exception Qls_cancel.Expired { elapsed_ms; limit_ms } ->
      check_int "parent's limit" 20 limit_ms;
      check_bool "elapsed >= limit" true (elapsed_ms >= limit_ms)
  | () -> Alcotest.fail "a child must expire with its parent's budget");
  Qls_cancel.with_token
    (Qls_cancel.child (Qls_cancel.make ~deadline_ms:60_000 ()))
    Qls_cancel.poll;
  check_bool "child none is none" true
    (Qls_cancel.child Qls_cancel.none == Qls_cancel.none)

let test_cancel_child_heartbeat () =
  (* A shard polling on another domain keeps its parent's heartbeat
     fresh, so the watchdog sees the fanned-out job make progress. *)
  let parent = Qls_cancel.make () in
  let child = Qls_cancel.child parent in
  Thread.delay 0.01;
  let before = Qls_cancel.now_ms () in
  Domain.join
    (Domain.spawn (fun () -> Qls_cancel.with_token child Qls_cancel.poll));
  check_bool "child stamped" true (Qls_cancel.last_poll_ms child >= before);
  check_bool "parent stamped through the child" true
    (Qls_cancel.last_poll_ms parent >= before)

let test_pool_deadline_expires () =
  let p = Pool.start ~jobs:1 () in
  let got = Atomic.make None in
  let token = Qls_cancel.make ~deadline_ms:5 () in
  ignore
    (Pool.submit p ~token
       ~work:(fun () ->
         Thread.delay 0.05;
         Qls_cancel.poll ();
         1)
       ~complete:(fun r -> Atomic.set got (Some r)));
  Pool.drain p;
  match Atomic.get got with
  | Some (Error (Qls_cancel.Expired { elapsed_ms; limit_ms })) ->
      check_int "limit carried through the pool" 5 limit_ms;
      check_bool "elapsed >= limit" true (elapsed_ms >= limit_ms)
  | _ -> Alcotest.fail "the deadline must expire inside the pooled job"

let test_pool_watchdog_replaces_lost_worker () =
  let p =
    Pool.start ~jobs:1
      ~watchdog:{ Pool.hang_threshold_ms = 150; tick_ms = 25 }
      ()
  in
  let verdict = Atomic.make None in
  ignore
    (Pool.submit p
       ~work:(fun () -> Thread.delay 0.6)
       ~complete:(fun r -> Atomic.set verdict (Some r)));
  (* the watchdog must deliver the loss well before the stall ends *)
  let give_up = Unix.gettimeofday () +. 5.0 in
  while
    Option.is_none (Atomic.get verdict) && Unix.gettimeofday () < give_up
  do
    Thread.delay 0.01
  done;
  (match Atomic.get verdict with
  | Some (Error (Pool.Worker_lost { stalled_ms; _ })) ->
      check_bool "stall measured past the threshold" true (stalled_ms >= 150)
  | _ -> Alcotest.fail "watchdog must deliver Worker_lost");
  check_int "loss counted" 1 (Pool.lost_workers p);
  check_int "replacement spawned" 1 (Pool.live_workers p);
  check_bool "watchdog is ticking" true
    (match Pool.watchdog_age_ms p with Some a -> a >= 0 | None -> false);
  (* the replacement worker restores capacity *)
  let served = Atomic.make false in
  ignore
    (Pool.submit p
       ~work:(fun () -> ())
       ~complete:(fun r ->
         match r with Ok () -> Atomic.set served true | Error _ -> ()));
  Pool.drain p;
  check_bool "replacement serves new work" true (Atomic.get served);
  (* let the abandoned domain run off its stall before the process ends *)
  Thread.delay 0.7

(* ------------------------------------------------------------------ *)
(* Typed tool validation (campaign --tools)                            *)
(* ------------------------------------------------------------------ *)

let test_validate_tools () =
  Evaluation.validate_tools [ "sabre"; "tket" ];
  (* all unknown names in one typed, Permanent, pre-spawn error *)
  match Evaluation.validate_tools [ "sabre"; "nope"; "bogus" ] with
  | exception Herror.Error e ->
      check_bool "permanent" true
        (match e.Herror.klass with Herror.Permanent -> true | _ -> false);
      check_string "site" "campaign.tools" e.Herror.site;
      let m = e.Herror.message in
      let has needle =
        let n = String.length needle and h = String.length m in
        let rec go i =
          i + n <= h && (String.equal (String.sub m i n) needle || go (i + 1))
        in
        go 0
      in
      check_bool "lists every unknown name and the registry" true
        (has "nope" && has "bogus" && has "sabre")
  | () -> Alcotest.fail "unknown tools must raise"

let test_campaign_tasks_validates () =
  let device = Qls_arch.Topologies.grid 3 3 in
  let config =
    {
      (Evaluation.default_figure_config device) with
      swap_counts = [ 2 ];
      circuits_per_point = 1;
    }
  in
  match Evaluation.campaign_tasks ~names:[ "warp-drive" ] ~config device with
  | exception Herror.Error e -> check_string "site" "campaign.tools" e.Herror.site
  | _ -> Alcotest.fail "campaign_tasks must validate tool names up front"

(* ------------------------------------------------------------------ *)
(* End-to-end: daemon over a temporary Unix socket                     *)
(* ------------------------------------------------------------------ *)

let fresh_socket () =
  let path = Filename.temp_file "qls_serve_test" ".sock" in
  Sys.remove path;
  path

let with_server config f =
  let server = Server.create config in
  let th = Thread.create (fun () -> Server.run server) () in
  Fun.protect
    ~finally:(fun () ->
      Server.initiate_shutdown server;
      Thread.join th)
    (fun () -> f server)

let connect path =
  let fd = Unix.socket PF_UNIX SOCK_STREAM 0 in
  Unix.connect fd (ADDR_UNIX path);
  (fd, Unix.in_channel_of_descr fd, Unix.out_channel_of_descr fd)

let rpc (_, ic, oc) payload =
  Protocol.write_frame oc payload;
  match Protocol.read_frame ic with
  | Some r -> r
  | None -> Alcotest.fail "connection closed before response"

let field resp key =
  match List.assoc_opt key (Qls_sealed.fields_of_line resp) with
  | Some v -> v
  | None -> Alcotest.fail (Printf.sprintf "response lacks %S: %s" key resp)

let test_server_end_to_end () =
  let socket = fresh_socket () in
  with_server
    { Server.default_config with socket_path = Some socket; jobs = 2 }
    (fun _ ->
      let c = connect socket in
      let req =
        {|{"verb":"route","arch":"grid3x3","swaps":2,"gates":24,"seed":3,"tool":"sabre","trials":1}|}
      in
      let cold = rpc c req in
      let hot = rpc c req in
      (* cache hits replay the cold response byte for byte *)
      check_string "hit is bit-identical to cold" cold hot;
      check_string "ok" "true" (field cold "ok");
      (* and both match the offline library computation exactly *)
      let device = Option.get (Qls_arch.Topologies.by_name "grid3x3") in
      let config =
        {
          Qubikos.Generator.default_config with
          n_swaps = 2;
          gate_budget = 24;
          seed = 3;
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
      check_string "swaps match offline route"
        (string_of_int report.Qls_layout.Verifier.swap_count)
        (field cold "swaps");
      check_string "depth matches offline route"
        (string_of_int report.Qls_layout.Verifier.depth)
        (field cold "depth");
      check_string "optimal is the certified optimum"
        (string_of_int bench.Qubikos.Benchmark.optimal_swaps)
        (field cold "optimal");
      (* evaluate reports the ratio against the optimum *)
      let ev =
        rpc c
          {|{"verb":"evaluate","arch":"grid3x3","swaps":2,"gates":24,"seed":3,"tool":"sabre","trials":1}|}
      in
      check_string "evaluate ok" "true" (field ev "ok");
      check_bool "evaluate has ratio" true
        (Option.is_some
           (List.assoc_opt "ratio" (Qls_sealed.fields_of_line ev)));
      (* certify *)
      let ce =
        rpc c {|{"verb":"certify","arch":"grid3x3","swaps":2,"gates":24,"seed":3}|}
      in
      check_string "certified" "true" (field ce "certified");
      check_string "certified optimum" "2" (field ce "optimal");
      (* errors are typed, not dropped connections *)
      let bad = rpc c {|{"verb":"route","arch":"atlantis"}|} in
      check_string "bad arch is bad_request" "bad_request" (field bad "kind");
      let badv = rpc c {|{"verb":"warp"}|} in
      check_string "unknown verb is bad_request" "bad_request"
        (field badv "kind");
      (* stats shows the cache working *)
      let st = rpc c {|{"verb":"stats"}|} in
      check_string "stats ok" "true" (field st "ok");
      check_bool "route cache saw a hit" true
        (int_of_string (field st "route_hits") >= 1);
      check_bool "route cache saw exactly one miss for the repeated key" true
        (int_of_string (field st "route_misses") >= 1);
      let fd, ic, _ = c in
      close_in_noerr ic;
      ignore fd);
  check_bool "socket unlinked after drain" false (Sys.file_exists socket)

(* Inline circuits the parser or the device rejects are the client's
   fault: bad_request, counted as such, never internal. *)
let test_server_bad_inline_qasm () =
  let socket = fresh_socket () in
  with_server
    { Server.default_config with socket_path = Some socket; jobs = 1 }
    (fun _ ->
      let c = connect socket in
      (* the counters are process-wide: compare against a first read *)
      let count key = int_of_string (field (rpc c {|{"verb":"stats"}|}) key) in
      let bad0 = count "bad_request" and internal0 = count "internal" in
      let route qasm =
        rpc c
          (Printf.sprintf {|{"verb":"route","arch":"grid3x3","trials":1,"qasm":"%s"}|}
             (Qls_sealed.escape qasm))
      in
      List.iter
        (fun (what, qasm) ->
          check_string (what ^ " is bad_request") "bad_request" (field (route qasm) "kind"))
        [
          ("repeated operand", "OPENQASM 2.0;\nqreg q[4];\ncx q[1],q[1];\n");
          ("index outside the qreg", "OPENQASM 2.0;\nqreg q[4];\ncx q[0],q[9];\n");
          ("negative index", "OPENQASM 2.0;\nqreg q[4];\nh q[-1];\n");
        ];
      let wide = route "OPENQASM 2.0;\nqreg q[12];\ncx q[0],q[11];\n" in
      check_string "wider than the device is bad_request" "bad_request" (field wide "kind");
      check_string "names both widths"
        "qasm: circuit on 12 qubits does not fit grid3x3 (9 qubits)" (field wide "error");
      check_int "counted as bad_request" 4 (count "bad_request" - bad0);
      check_int "none counted as internal" 0 (count "internal" - internal0))

let test_server_overload () =
  let socket = fresh_socket () in
  with_server
    {
      Server.default_config with
      socket_path = Some socket;
      jobs = 1;
      queue_capacity = 0;
    }
    (fun _ ->
      let c = connect socket in
      (* capacity 0: every poolable request is shed with the typed
         overloaded response; stats still answers inline *)
      let r = rpc c {|{"verb":"route","arch":"grid3x3","swaps":2}|} in
      check_string "typed overload" "overloaded" (field r "kind");
      check_string "not ok" "false" (field r "ok");
      check_bool "reports capacity" true
        (Option.is_some
           (List.assoc_opt "queue_capacity" (Qls_sealed.fields_of_line r)));
      let st = rpc c {|{"verb":"stats"}|} in
      check_string "stats still served" "true" (field st "ok");
      check_bool "overload counted" true
        (int_of_string (field st "overloaded") >= 1);
      let _, ic, _ = c in
      close_in_noerr ic)

let test_server_request_log () =
  let socket = fresh_socket () in
  let log = Filename.temp_file "qls_serve_test" ".jsonl" in
  Sys.remove log;
  with_server
    {
      Server.default_config with
      socket_path = Some socket;
      jobs = 1;
      request_log = Some log;
    }
    (fun _ ->
      let c = connect socket in
      ignore (rpc c {|{"verb":"route","arch":"grid3x3","swaps":2,"trials":1}|});
      ignore (rpc c {|{"verb":"route","arch":"grid3x3","swaps":2,"trials":1}|});
      ignore (rpc c {|{"verb":"warp"}|});
      let _, ic, _ = c in
      close_in_noerr ic);
  (* after the drain the sealed log is whole and complete *)
  let lines, corrupt = Qls_sealed.Log.load ~parse:Result.ok log in
  check_int "no corrupt lines" 0 (List.length corrupt);
  check_int "every request logged" 3 (List.length lines);
  let statuses =
    List.map
      (fun payload ->
        match List.assoc_opt "status" (Qls_sealed.fields_of_line payload) with
        | Some s -> s
        | None -> "?")
      lines
  in
  check_int "two ok lines" 2
    (List.length (List.filter (String.equal "ok") statuses));
  check_int "one bad_request line" 1
    (List.length (List.filter (String.equal "bad_request") statuses));
  Sys.remove log

let install_plan spec =
  match Qls_faults.parse spec with
  | Ok plan -> Qls_faults.install plan
  | Error m -> Alcotest.fail ("bad fault spec: " ^ m)

let test_server_deadline () =
  let socket = fresh_socket () in
  with_server
    { Server.default_config with socket_path = Some socket; jobs = 1 }
    (fun _ ->
      let c = connect socket in
      (* a deterministic 50 ms stall at the start of the request body,
         far beyond the request's 10 ms budget *)
      install_plan "seed=1;serve.work.hang:delay@0.05:1.0";
      let r =
        Fun.protect ~finally:Qls_faults.clear (fun () ->
            rpc c
              {|{"verb":"route","arch":"grid3x3","swaps":2,"gates":24,"seed":5,"tool":"sabre","trials":1,"deadline_ms":10}|})
      in
      check_string "typed deadline response" "deadline_exceeded"
        (field r "kind");
      check_string "not ok" "false" (field r "ok");
      let elapsed = int_of_string (field r "elapsed_ms") in
      let limit = int_of_string (field r "limit_ms") in
      check_int "limit echoes the request" 10 limit;
      check_bool "elapsed covers the whole budget" true (elapsed >= limit);
      (* the worker survives and the cache slot is not poisoned: the same
         request without a deadline completes — and matches the offline
         library route exactly *)
      let ok =
        rpc c
          {|{"verb":"route","arch":"grid3x3","swaps":2,"gates":24,"seed":5,"tool":"sabre","trials":1}|}
      in
      check_string "worker reusable after expiry" "true" (field ok "ok");
      let device = Option.get (Qls_arch.Topologies.by_name "grid3x3") in
      let config =
        {
          Qubikos.Generator.default_config with
          n_swaps = 2;
          gate_budget = 24;
          seed = 5;
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
      check_string "answer unchanged by the earlier expiry"
        (string_of_int report.Qls_layout.Verifier.swap_count)
        (field ok "swaps");
      let st = rpc c {|{"verb":"stats"}|} in
      check_bool "deadline_exceeded counted" true
        (int_of_string (field st "deadline_exceeded") >= 1);
      check_bool "uptime reported" true
        (float_of_string (field st "uptime_s") >= 0.);
      let _, ic, _ = c in
      close_in_noerr ic)

let test_server_worker_lost () =
  let socket = fresh_socket () in
  with_server
    {
      Server.default_config with
      socket_path = Some socket;
      jobs = 1;
      hang_threshold = Some 0.2;
    }
    (fun _ ->
      let c = connect socket in
      (* stall the request body 0.6 s against a 0.2 s hang threshold:
         the watchdog must answer this client and replace the worker *)
      install_plan "seed=1;serve.work.hang:delay@0.6:1.0";
      let r =
        Fun.protect ~finally:Qls_faults.clear (fun () ->
            rpc c
              {|{"verb":"route","arch":"grid3x3","swaps":2,"gates":24,"seed":9,"tool":"sabre","trials":1}|})
      in
      check_string "typed internal response" "internal" (field r "kind");
      check_string "not ok" "false" (field r "ok");
      (* the replacement worker restores capacity *)
      let ok =
        rpc c
          {|{"verb":"route","arch":"grid3x3","swaps":2,"gates":24,"seed":10,"tool":"sabre","trials":1}|}
      in
      check_string "replacement serves" "true" (field ok "ok");
      let h = rpc c {|{"verb":"health"}|} in
      check_string "health ok" "true" (field h "ok");
      check_string "still ready" "true" (field h "ready");
      check_int "loss visible in health" 1
        (int_of_string (field h "lost_workers"));
      check_int "capacity restored" 1 (int_of_string (field h "live_workers"));
      check_bool "watchdog age reported" true
        (int_of_string (field h "watchdog_age_ms") >= 0);
      let st = rpc c {|{"verb":"stats"}|} in
      check_bool "internal counted" true
        (int_of_string (field st "internal") >= 1);
      check_int "lost_workers in stats" 1
        (int_of_string (field st "lost_workers"));
      let _, ic, _ = c in
      close_in_noerr ic);
  (* let the abandoned domain run off its stall before the process ends *)
  Thread.delay 0.7

let inline_route qasm =
  Printf.sprintf {|{"verb":"route","arch":"grid3x3","trials":1,"qasm":"%s"}|}
    (Qls_sealed.escape qasm)

let repeated_operand = "OPENQASM 2.0;\nqreg q[4];\ncx q[1],q[1];\n"

(* The reader parses an inline circuit only when the workers leave the
   main domain a core: [jobs] below the core count. *)
let cores = Qls_harness.Pool.recommended_jobs ()

(* The reader parses an inline circuit before admission, so a malformed
   one is answered at once, not after the queue and its own turn. On one
   core there is no reader stage: the worker parses, as with a worker on
   every core. *)
let test_server_malformed_inline_not_queued () =
  if cores < 2 then Alcotest.skip ();
  let socket = fresh_socket () in
  with_server
    {
      Server.default_config with
      socket_path = Some socket;
      jobs = 1;
      hang_threshold = None;
    }
    (fun _ ->
      let _, held_ic, held_oc = connect socket in
      let ((_, ic, _) as c) = connect socket in
      install_plan "seed=1;serve.work.hang:delay@0.5:1.0";
      Fun.protect ~finally:Qls_faults.clear (fun () ->
          Protocol.write_frame held_oc
            {|{"verb":"route","arch":"grid3x3","swaps":2,"gates":24,"seed":11,"tool":"sabre","trials":1}|};
          let t0 = Unix.gettimeofday () in
          let r = rpc c (inline_route repeated_operand) in
          let dt = Unix.gettimeofday () -. t0 in
          check_string "malformed is bad_request" "bad_request" (field r "kind");
          check_bool
            (Printf.sprintf "answered in %.3f s, under 0.25 s" dt)
            true (dt < 0.25);
          match Protocol.read_frame held_ic with
          | Some ok ->
              check_string "the held request completes" "true" (field ok "ok")
          | None -> Alcotest.fail "held connection closed");
      close_in_noerr ic;
      close_in_noerr held_ic)

(* With no queue slot at all: below one worker per core the reader
   parses before admission, so a malformed circuit is the client's
   fault; with a worker on every core the worker would parse, and the
   request is shed unparsed. A well-formed one is shed either way. The
   second daemon is capped at 8 workers, so a larger machine checks the
   reader stage twice. *)
let test_server_inline_parsed_before_admission () =
  List.iter
    (fun jobs ->
      let socket = fresh_socket () in
      with_server
        {
          Server.default_config with
          socket_path = Some socket;
          jobs;
          queue_capacity = 0;
        }
        (fun _ ->
          let ((_, ic, _) as c) = connect socket in
          let what = Printf.sprintf "jobs %d of %d cores: " jobs cores in
          check_string (what ^ "malformed")
            (if jobs < cores then "bad_request" else "overloaded")
            (field (rpc c (inline_route repeated_operand)) "kind");
          check_string (what ^ "well-formed is overloaded") "overloaded"
            (field
               (rpc c
                  (inline_route "OPENQASM 2.0;\nqreg q[4];\ncx q[0],q[1];\n"))
               "kind");
          close_in_noerr ic))
    (List.sort_uniq compare [ 1; min cores 8 ])

(* Below one worker per core the reader parses an inline circuit, with a
   worker on every core the worker does: the answers are the same. *)
let test_server_inline_same_on_either_thread () =
  let answers jobs =
    let socket = fresh_socket () in
    with_server
      { Server.default_config with socket_path = Some socket; jobs }
      (fun _ ->
        let ((_, ic, _) as c) = connect socket in
        let fields =
          List.concat_map
            (fun (qasm, keys) ->
              let r = rpc c (inline_route qasm) in
              List.map (fun key -> field r key) keys)
            [
              ( "OPENQASM 2.0;\nqreg q[4];\ncx q[0],q[1];\ncx q[1],q[2];\n\
                 cx q[0],q[3];\ncx q[2],q[3];\n",
                [ "ok"; "swaps"; "depth" ] );
              (repeated_operand, [ "kind"; "error" ]);
              ( "OPENQASM 2.0;\nqreg q[12];\ncx q[0],q[11];\n",
                [ "kind"; "error" ] );
            ]
        in
        close_in_noerr ic;
        fields)
  in
  Alcotest.(check (list string))
    (Printf.sprintf "jobs 1 and jobs %d of %d cores" (min cores 8) cores)
    (answers 1)
    (answers (min cores 8))

(* Two requests pipelined on one connection to the only worker, held
   0.3 s each: the second waits out the first in the queue. *)
let test_server_stage_quantiles () =
  let socket = fresh_socket () in
  with_server
    {
      Server.default_config with
      socket_path = Some socket;
      jobs = 1;
      hang_threshold = None;
    }
    (fun _ ->
      (* the histograms are process-wide: start them from zero *)
      Qls_obs.reset_metrics ();
      let ((_, ic, oc) as c) = connect socket in
      install_plan "seed=1;serve.work.hang:delay@0.3:1.0";
      Fun.protect ~finally:Qls_faults.clear (fun () ->
          List.iter
            (fun seed ->
              Protocol.write_frame oc
                (Printf.sprintf
                   {|{"verb":"route","arch":"grid3x3","swaps":2,"gates":24,"seed":%d,"tool":"sabre","trials":1}|}
                   seed))
            [ 12; 13 ];
          for _ = 1 to 2 do
            match Protocol.read_frame ic with
            | Some r -> check_string "ok" "true" (field r "ok")
            | None -> Alcotest.fail "connection closed before response"
          done);
      let st = rpc c {|{"verb":"stats"}|} in
      let ms key = float_of_string (field st key) in
      check_bool
        (Printf.sprintf "queue_p99_ms %.3f >= 250" (ms "queue_p99_ms"))
        true
        (ms "queue_p99_ms" >= 250.);
      List.iter
        (fun key -> check_bool (key ^ " reported") true (ms key >= 0.))
        [
          "parse_p50_ms"; "parse_p95_ms"; "parse_p99_ms"; "queue_p50_ms";
          "queue_p95_ms";
        ];
      close_in_noerr ic)

(* Serve's olsq tool encodes at k = 8: on a 3,000-gate Eagle instance
   that is about 40 M clauses, refused before encoding. *)
let test_server_olsq_too_large () =
  let socket = fresh_socket () in
  with_server
    { Server.default_config with socket_path = Some socket; jobs = 1 }
    (fun _ ->
      let ((_, ic, _) as c) = connect socket in
      let r =
        rpc c
          {|{"verb":"route","arch":"eagle","swaps":5,"gates":3000,"tool":"olsq","deadline_ms":5000}|}
      in
      check_string "bad_request" "bad_request" (field r "kind");
      check_bool "names the size" true
        (String.starts_with ~prefix:"olsq: instance too large to encode ("
           (field r "error"));
      close_in_noerr ic)

let test_server_health () =
  let socket = fresh_socket () in
  with_server
    { Server.default_config with socket_path = Some socket; jobs = 2 }
    (fun _ ->
      let c = connect socket in
      let h = rpc c {|{"verb":"health"}|} in
      check_string "ok" "true" (field h "ok");
      check_string "ready" "true" (field h "ready");
      check_string "not draining" "false" (field h "draining");
      check_int "all workers live" 2 (int_of_string (field h "live_workers"));
      check_int "none lost" 0 (int_of_string (field h "lost_workers"));
      check_bool "listeners bound" true
        (int_of_string (field h "listeners") >= 1);
      check_int "queue empty" 0 (int_of_string (field h "queue_depth"));
      let _, ic, _ = c in
      close_in_noerr ic)

let () =
  Alcotest.run "qls_serve"
    [
      ( "protocol",
        [
          test_case "frame roundtrip" test_frame_roundtrip;
          test_case "malformed frames" test_frame_malformed;
          test_case "request parsing" test_request_parse;
          test_case "deadline_ms and health parsing" test_request_parse_deadline;
          test_case "circuit hash" test_circuit_hash;
          test_case "route key pinned, layout-independent" test_route_key_pinned;
        ] );
      ("allocation", allocation_tests);
      ( "fd-framing",
        [
          test_case "one-byte reads reassemble" test_fd_reader_one_byte_reads;
          test_case "oversize frame is one clean Bad_request"
            test_fd_reader_oversize_frame;
          test_case "idle connections are reaped" test_fd_reader_idle_timeout;
          test_case "mid-frame stalls are Bad_request"
            test_fd_reader_io_timeout_mid_frame;
        ]
        @ List.map QCheck_alcotest.to_alcotest chunked_frame_props );
      ("cache-keys", List.map QCheck_alcotest.to_alcotest key_props);
      ( "cache",
        [
          test_case "hit/miss accounting" test_cache_hit_miss;
          test_case "LRU eviction" test_cache_lru_eviction;
          test_case "capacity zero disables retention" test_cache_capacity_zero;
          test_case "single-flight" test_cache_single_flight;
          test_case "failed compute releases the slot"
            test_cache_failure_releases_slot;
        ] );
      ( "pool",
        [
          test_case "submit completes with results" test_pool_submit_completes;
          test_case "work exceptions become Error" test_pool_error_result;
          test_case "bounded queue refuses overflow" test_pool_rejects_when_full;
          test_case "callback exceptions are contained"
            test_pool_callback_error_contained;
          test_case "a completion callback sees its job settled"
            test_pool_callback_sees_job_settled;
        ] );
      ( "deadlines-watchdog",
        [
          test_case "token expiry semantics" test_cancel_token;
          test_case "a child token mirrors its parent's deadline"
            test_cancel_child_deadline;
          test_case "a child's polls heartbeat its parent"
            test_cancel_child_heartbeat;
          test_case "pooled job deadline expires" test_pool_deadline_expires;
          test_case "watchdog replaces a lost worker"
            test_pool_watchdog_replaces_lost_worker;
        ] );
      ( "tool-validation",
        [
          test_case "validate_tools raises typed Herror" test_validate_tools;
          test_case "campaign_tasks validates up front"
            test_campaign_tasks_validates;
        ] );
      ( "server",
        [
          test_case "end-to-end route/evaluate/certify/stats"
            test_server_end_to_end;
          test_case "typed overload under zero capacity" test_server_overload;
          test_case "sealed request log survives drain" test_server_request_log;
          test_case "deadline_exceeded is typed and non-poisoning"
            test_server_deadline;
          test_case "hung worker is declared lost and replaced"
            test_server_worker_lost;
          test_case "health reports readiness" test_server_health;
          test_case "bad inline circuits are bad_request"
            test_server_bad_inline_qasm;
          test_case "a malformed inline circuit is not queued behind a held job"
            test_server_malformed_inline_not_queued;
          test_case "an inline circuit is parsed before admission"
            test_server_inline_parsed_before_admission;
          test_case "an inline circuit gets one answer on either thread"
            test_server_inline_same_on_either_thread;
          test_case "stats reports parse and queue quantiles"
            test_server_stage_quantiles;
          test_case "an olsq route too large to encode is bad_request"
            test_server_olsq_too_large;
        ] );
    ]
