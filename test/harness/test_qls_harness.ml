(* Tests for the Qls_harness campaign engine: task identity and seed
   derivation, the typed error taxonomy, the CRC-sealed JSONL checkpoint
   store (quarantine + compact), the domain pool, per-task isolation
   (exceptions and timeouts, classified retry with backoff), degradation,
   the failure budget, scheduling-independence of results, and
   resume-from-checkpoint. *)

module Task = Qls_harness.Task
module Herror = Qls_harness.Herror
module Pool = Qls_harness.Pool
module Store = Qls_harness.Store
module Runner = Qls_harness.Runner
module Progress = Qls_harness.Progress
module Campaign = Qls_harness.Campaign
module Topologies = Qls_arch.Topologies
module Metrics = Qls_layout.Metrics
module Sabre = Qls_router.Sabre
module Evaluation = Qubikos.Evaluation

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)
let test_case name f = Alcotest.test_case name `Quick f

let mk_task ?(device = "grid3x3") ?(n_swaps = 2) ?(circuit = 0)
    ?(tool = "sabre") ?(gate_budget = 30) ?(sabre_trials = 2) ?(base_seed = 0)
    () =
  {
    Task.device;
    n_swaps;
    circuit;
    tool;
    gate_budget;
    single_qubit_ratio = 0.0;
    sabre_trials;
    base_seed;
  }

let fresh_store_path () =
  let path = Filename.temp_file "qls_harness_test" ".jsonl" in
  Sys.remove path;
  path

(* A deterministic synthetic workload: outcome is a pure function of the
   task, like real routing, but instant. *)
let synthetic_exec task =
  { Task.swaps = Task.rng_seed task mod 97; seconds = 0.0; attempts = 1 }

let transient_exn msg = Herror.Error (Herror.transient ~site:"test" msg)

(* ------------------------------------------------------------------ *)
(* Task                                                                *)
(* ------------------------------------------------------------------ *)

let task_tests =
  [
    test_case "id distinguishes every field that affects the result"
      (fun () ->
        let base = mk_task () in
        let variants =
          [
            mk_task ~device:"aspen4" ();
            mk_task ~n_swaps:3 ();
            mk_task ~circuit:1 ();
            mk_task ~tool:"tket" ();
            mk_task ~gate_budget:40 ();
            mk_task ~sabre_trials:5 ();
            mk_task ~base_seed:1 ();
          ]
        in
        List.iter
          (fun v ->
            check_bool "distinct id" true (Task.id v <> Task.id base))
          variants);
    test_case "circuit seed matches the sequential suite derivation"
      (fun () ->
        let t = mk_task ~n_swaps:3 ~circuit:2 ~base_seed:7 () in
        check_int "seed" (7 + 3000 + 2) (Task.circuit_seed t));
    test_case "rng seed is a stable pure function of the task" (fun () ->
        let t = mk_task () in
        check_int "stable" (Task.rng_seed t) (Task.rng_seed t);
        check_bool "tool changes the stream" true
          (Task.rng_seed t <> Task.rng_seed (mk_task ~tool:"qmap" ())));
    test_case "ratio divides by the designed optimum" (fun () ->
        let t = mk_task ~n_swaps:4 () in
        match Task.ratio ~task:t { Task.swaps = 10; seconds = 0.0; attempts = 1 } with
        | Some r -> Alcotest.(check (float 1e-9)) "ratio" 2.5 r
        | None -> Alcotest.fail "expected a ratio");
  ]

(* ------------------------------------------------------------------ *)
(* Herror                                                              *)
(* ------------------------------------------------------------------ *)

let herror_tests =
  [
    test_case "retryable is exactly transient and timeout" (fun () ->
        check_bool "transient" true (Herror.retryable (Herror.transient "x"));
        check_bool "timeout" true (Herror.retryable (Herror.timeout 1.0));
        check_bool "permanent" false (Herror.retryable (Herror.permanent "x"));
        check_bool "corrupt" false (Herror.retryable (Herror.corrupt "x")));
    test_case "of_exn classifies exceptions" (fun () ->
        let e = Herror.of_exn ~site:"runner.exec" (Failure "kaput") in
        check_bool "failure is permanent" true (e.Herror.klass = Herror.Permanent);
        check_string "site" "runner.exec" e.Herror.site;
        let e =
          Herror.of_exn ~site:"runner.exec"
            (Unix.Unix_error (Unix.EAGAIN, "read", ""))
        in
        check_bool "eagain is transient" true (e.Herror.klass = Herror.Transient);
        let e =
          Herror.of_exn ~site:"s"
            (Herror.Error (Herror.corrupt ~site:"store.load" "bad line"))
        in
        check_string "Error unwraps with its own site" "store.load" e.Herror.site);
    test_case "injected faults classify by their flag" (fun () ->
        let t =
          Herror.of_exn ~site:"runner.exec"
            (Qls_faults.Injected { site = "runner.exec"; transient = true })
        in
        check_bool "transient" true (t.Herror.klass = Herror.Transient);
        let p =
          Herror.of_exn ~site:"runner.exec"
            (Qls_faults.Injected { site = "runner.exec"; transient = false })
        in
        check_bool "permanent" true (p.Herror.klass = Herror.Permanent));
    test_case "klass names round trip" (fun () ->
        List.iter
          (fun k ->
            check_bool "round trip" true
              (Herror.klass_of_name (Herror.klass_name k) = Some k))
          [ Herror.Transient; Herror.Permanent; Herror.Timeout; Herror.Corrupt ]);
  ]

(* ------------------------------------------------------------------ *)
(* Store                                                               *)
(* ------------------------------------------------------------------ *)

let store_tests =
  [
    test_case "round trip preserves ok, degraded and failed entries"
      (fun () ->
        let path = fresh_store_path () in
        let store = Store.open_append path in
        let err = Herror.v ~site:"runner.exec" ~attempts:2 Herror.Timeout "timeout after 1s" in
        Store.append store
          {
            Store.task_id = "a/1";
            status = Task.Done { Task.swaps = 12; seconds = 0.5; attempts = 1 };
          };
        Store.append store
          {
            Store.task_id = "a/2";
            status =
              Task.Failed (Herror.permanent ~site:"runner.exec" "boom \"quoted\"\n");
          };
        Store.append store
          {
            Store.task_id = "a/3";
            status =
              Task.Degraded
                {
                  Task.outcome = { Task.swaps = 9; seconds = 0.25; attempts = 1 };
                  via = "sabre";
                  error = err;
                };
          };
        Store.close store;
        (match Store.load path with
        | [ e1; e2; e3 ] ->
            check_string "id 1" "a/1" e1.Store.task_id;
            (match e1.Store.status with
            | Task.Done o -> check_int "swaps" 12 o.Task.swaps
            | _ -> Alcotest.fail "entry 1 should be ok");
            (match e2.Store.status with
            | Task.Failed e ->
                check_string "escape round trip" "boom \"quoted\"\n"
                  e.Herror.message;
                check_bool "class" true (e.Herror.klass = Herror.Permanent);
                check_string "site" "runner.exec" e.Herror.site
            | _ -> Alcotest.fail "entry 2 should be failed");
            (match e3.Store.status with
            | Task.Degraded d ->
                check_string "via" "sabre" d.Task.via;
                check_int "fallback swaps" 9 d.Task.outcome.Task.swaps;
                check_bool "original error class" true
                  (d.Task.error.Herror.klass = Herror.Timeout);
                check_int "attempts" 2 d.Task.error.Herror.attempts
            | _ -> Alcotest.fail "entry 3 should be degraded")
        | es ->
            Alcotest.failf "expected 3 entries, got %d" (List.length es));
        Sys.remove path);
    test_case "a truncated final line is quarantined, earlier lines survive"
      (fun () ->
        let path = fresh_store_path () in
        let store = Store.open_append path in
        Store.append store
          {
            Store.task_id = "ok";
            status = Task.Done { Task.swaps = 1; seconds = 0.1; attempts = 1 };
          };
        Store.close store;
        let oc = open_out_gen [ Open_append ] 0o644 path in
        output_string oc {|{"id":"half","status":"o|};
        close_out oc;
        let entries, bad = Store.load_verified path in
        check_int "one entry" 1 (List.length entries);
        check_int "one quarantined line" 1 (List.length bad);
        check_int "it is the torn tail" 2 (List.hd bad).Store.line_no;
        Sys.remove path);
    test_case "an interior bit flip is caught by the crc and quarantined"
      (fun () ->
        let path = fresh_store_path () in
        let store = Store.open_append path in
        List.iter
          (fun i ->
            Store.append store
              {
                Store.task_id = Printf.sprintf "t/%d" i;
                status = Task.Done { Task.swaps = i; seconds = 0.1; attempts = 1 };
              })
          [ 0; 1; 2 ];
        Store.close store;
        (* Flip one digit inside the *middle* line's swaps field: the
           JSON still parses, only the checksum can notice. *)
        let lines =
          In_channel.with_open_text path In_channel.input_lines
        in
        let damaged =
          List.mapi
            (fun i line ->
              if i <> 1 then line
              else
                String.map (fun c -> if c = '1' then '7' else c) line)
            lines
        in
        Out_channel.with_open_text path (fun oc ->
            List.iter (fun l -> Out_channel.output_string oc (l ^ "\n")) damaged);
        let entries, bad = Store.load_verified path in
        check_int "two entries survive" 2 (List.length entries);
        check_int "one quarantined" 1 (List.length bad);
        check_int "line 2 is the damaged one" 2 (List.hd bad).Store.line_no;
        check_string "reason" "crc mismatch" (List.hd bad).Store.reason;
        Sys.remove path);
    test_case "legacy v1 lines without crc are still accepted" (fun () ->
        let path = fresh_store_path () in
        Out_channel.with_open_text path (fun oc ->
            Out_channel.output_string oc
              ("{\"id\":\"old/1\",\"status\":\"ok\",\"swaps\":4,\"seconds\":0.1}\n"
             ^ "{\"id\":\"old/2\",\"status\":\"failed\",\"error\":\"kaput\"}\n"));
        (match Store.load_verified path with
        | [ e1; e2 ], [] ->
            (match e1.Store.status with
            | Task.Done o -> check_int "v1 ok" 4 o.Task.swaps
            | _ -> Alcotest.fail "v1 ok line");
            (match e2.Store.status with
            | Task.Failed e ->
                check_string "v1 message" "kaput" e.Herror.message;
                check_bool "v1 errors default to permanent" true
                  (e.Herror.klass = Herror.Permanent)
            | _ -> Alcotest.fail "v1 failed line")
        | es, bad ->
            Alcotest.failf "expected 2 clean entries, got %d (+%d bad)"
              (List.length es) (List.length bad));
        Sys.remove path);
    test_case "strict unicode escapes: garbage hex is quarantined" (fun () ->
        let path = fresh_store_path () in
        Out_channel.with_open_text path (fun oc ->
            Out_channel.output_string oc
              "{\"id\":\"\\u+9ab\",\"status\":\"ok\",\"swaps\":1,\"seconds\":0.1}\n");
        let entries, bad = Store.load_verified path in
        check_int "rejected" 0 (List.length entries);
        check_int "quarantined" 1 (List.length bad);
        Sys.remove path);
    test_case "unicode escapes decode as UTF-8, not a truncated byte"
      (fun () ->
        let path = fresh_store_path () in
        Out_channel.with_open_text path (fun oc ->
            Out_channel.output_string oc
              "{\"id\":\"q\\u00e9\\u20ac\",\"status\":\"ok\",\"swaps\":1,\"seconds\":0.1}\n");
        (match Store.load path with
        | [ e ] -> check_string "utf-8" "q\xc3\xa9\xe2\x82\xac" e.Store.task_id
        | es -> Alcotest.failf "expected 1 entry, got %d" (List.length es));
        Sys.remove path);
    test_case "completed keeps the last entry per task" (fun () ->
        let completed =
          Store.completed
            [
              { Store.task_id = "t"; status = Task.Failed (Herror.permanent "first") };
              {
                Store.task_id = "t";
                status = Task.Done { Task.swaps = 3; seconds = 0.2; attempts = 1 };
              };
            ]
        in
        match Hashtbl.find_opt completed "t" with
        | Some (Task.Done o) -> check_int "last wins" 3 o.Task.swaps
        | _ -> Alcotest.fail "expected the ok entry");
    test_case "compact drops superseded and corrupt lines atomically"
      (fun () ->
        let path = fresh_store_path () in
        let store = Store.open_append path in
        Store.append store
          { Store.task_id = "t/0"; status = Task.Failed (Herror.timeout 1.0) };
        Store.append store
          {
            Store.task_id = "t/1";
            status = Task.Done { Task.swaps = 5; seconds = 0.1; attempts = 1 };
          };
        Store.append store
          {
            Store.task_id = "t/0";
            status = Task.Done { Task.swaps = 2; seconds = 0.4; attempts = 1 };
          };
        Store.close store;
        (* Splice a corrupt line into the middle of the file. *)
        let lines = In_channel.with_open_text path In_channel.input_lines in
        Out_channel.with_open_text path (fun oc ->
            List.iteri
              (fun i l ->
                if i = 1 then Out_channel.output_string oc "garbage{{{\n";
                Out_channel.output_string oc (l ^ "\n"))
              lines);
        let stats = Store.compact path in
        check_int "kept" 2 stats.Store.kept;
        check_int "superseded" 1 stats.Store.superseded;
        check_int "quarantined" 1 stats.Store.quarantined;
        (match Store.load_verified path with
        | [ e0; e1 ], [] ->
            check_string "first-appearance order" "t/0" e0.Store.task_id;
            (match e0.Store.status with
            | Task.Done o -> check_int "last status wins" 2 o.Task.swaps
            | _ -> Alcotest.fail "t/0 should be ok after compact");
            check_string "second" "t/1" e1.Store.task_id
        | es, bad ->
            Alcotest.failf "expected 2 clean entries, got %d (+%d bad)"
              (List.length es) (List.length bad));
        check_bool "quarantine file exists" true
          (Sys.file_exists (path ^ ".quarantine"));
        Sys.remove path;
        Sys.remove (path ^ ".quarantine"));
  ]

(* ------------------------------------------------------------------ *)
(* Pool                                                                *)
(* ------------------------------------------------------------------ *)

let pool_tests =
  [
    test_case "parallel map equals sequential map, in order" (fun () ->
        let tasks = Array.init 50 Fun.id in
        let f x = (x * 37) mod 101 in
        let seq = Pool.run ~jobs:1 ~f:(fun _ -> f) tasks in
        let par = Pool.run ~jobs:4 ~f:(fun _ -> f) tasks in
        Alcotest.(check (array int)) "identical" seq par);
    test_case "more workers than tasks is fine" (fun () ->
        let r = Pool.run ~jobs:8 ~f:(fun _ -> succ) [| 1; 2 |] in
        Alcotest.(check (array int)) "results" [| 2; 3 |] r);
    test_case "empty input" (fun () ->
        check_int "no results" 0 (Array.length (Pool.run ~jobs:4 ~f:(fun _ -> succ) [||])));
    test_case "f receives each task's own index" (fun () ->
        let r = Pool.run ~jobs:3 ~f:(fun i x -> (i, x)) [| 'a'; 'b'; 'c'; 'd' |] in
        Alcotest.(check (array (pair int char))) "indexed"
          [| (0, 'a'); (1, 'b'); (2, 'c'); (3, 'd') |] r);
    test_case "jobs below 1 is clamped to 1" (fun () ->
        Alcotest.(check (array int)) "clamped to 1" [| 2; 4 |]
          (Pool.run ~jobs:0 ~f:(fun _ x -> 2 * x) [| 1; 2 |]));
    test_case "recommended_jobs is at least 1" (fun () ->
        check_bool "positive" true (Pool.recommended_jobs () >= 1));
    test_case "a worker exception is re-raised, not a missing-result crash"
      (fun () ->
        (* Before PR 3 a worker exception killed its domain silently and
           the caller died on "Pool.run: missing result" with the real
           failure lost. The pool must now join every domain and re-raise
           the first worker exception on the calling domain. *)
        let f x = if x = 13 then failwith "boom" else x * 2 in
        check_bool "failure surfaces" true
          (try
             ignore (Pool.run ~jobs:4 ~f:(fun _ -> f) (Array.init 40 Fun.id));
             false
           with Failure m -> m = "boom"));
    test_case "worker exception with jobs = 1 (inline path)" (fun () ->
        check_bool "failure surfaces" true
          (try
             ignore (Pool.run ~jobs:1 ~f:(fun _ _ -> failwith "inline") [| 0 |]);
             false
           with Failure m -> m = "inline"));
    test_case "only the first exception wins when several workers fail"
      (fun () ->
        (* Every task fails; whichever exception is recorded first must be
           the one re-raised — a Failure from [f], never an internal
           missing-result Invalid_argument. *)
        check_bool "a task failure, not an internal error" true
          (try
             ignore
               (Pool.run ~jobs:4
                  ~f:(fun _ x -> failwith (string_of_int x))
                  (Array.init 20 Fun.id));
             false
           with
           | Failure _ -> true
           | Invalid_argument _ -> false));
    test_case "results before the failure point are not required" (fun () ->
        (* Failing on the very first task index must still tear down
           cleanly even though no result was ever produced. *)
        check_bool "clean teardown" true
          (try
             ignore (Pool.run ~jobs:2 ~f:(fun _ _ -> failwith "early") [| 1; 2; 3 |]);
             false
           with Failure m -> m = "early"));
  ]

(* ------------------------------------------------------------------ *)
(* Runner                                                              *)
(* ------------------------------------------------------------------ *)

let immediate = { Runner.default with Runner.backoff = 0.0 }

let runner_tests =
  [
    test_case "an exception becomes a typed permanent error" (fun () ->
        match Runner.run Runner.default (fun () -> failwith "kaput") with
        | Error e ->
            check_bool "permanent" true (e.Herror.klass = Herror.Permanent);
            check_bool "mentions the exception" true
              (String.index_opt e.Herror.message 'k' <> None);
            check_int "one attempt" 1 e.Herror.attempts
        | Ok _ -> Alcotest.fail "expected an error");
    test_case "a slow task exceeds its wall-clock budget" (fun () ->
        match
          Runner.run
            { immediate with Runner.timeout = Some 0.05 }
            (fun () -> Thread.delay 0.3)
        with
        | Error e -> check_bool "timeout class" true (e.Herror.klass = Herror.Timeout)
        | Ok ((), _) -> Alcotest.fail "expected a timeout");
    test_case "a fast task under a timeout succeeds" (fun () ->
        match
          Runner.run { immediate with Runner.timeout = Some 5.0 } (fun () -> 42)
        with
        | Ok (v, _) -> check_int "result" 42 v
        | Error e -> Alcotest.failf "unexpected error: %s" (Herror.to_string e));
    test_case "bounded retry recovers a flaky (transient) task" (fun () ->
        let attempts = Atomic.make 0 in
        let flaky () =
          if Atomic.fetch_and_add attempts 1 < 2 then raise (transient_exn "flaky")
          else 7
        in
        (match Runner.run { immediate with Runner.retries = 2 } flaky with
        | Ok (v, _) -> check_int "third attempt" 7 v
        | Error e -> Alcotest.failf "unexpected error: %s" (Herror.to_string e));
        check_int "attempts" 3 (Atomic.get attempts));
    test_case "a permanent error is never retried" (fun () ->
        let attempts = Atomic.make 0 in
        let always () =
          Atomic.incr attempts;
          failwith "deterministic"
        in
        (match Runner.run { immediate with Runner.retries = 5 } always with
        | Error e ->
            check_bool "permanent" true (e.Herror.klass = Herror.Permanent);
            check_int "terminal after one attempt" 1 e.Herror.attempts
        | Ok _ -> Alcotest.fail "expected an error");
        check_int "executed exactly once" 1 (Atomic.get attempts));
    test_case "retry budget exhausts and reports attempts" (fun () ->
        let attempts = Atomic.make 0 in
        (match
           Runner.run
             { immediate with Runner.retries = 1 }
             (fun () ->
               Atomic.incr attempts;
               raise (transient_exn "always"))
         with
        | Error e -> check_int "attempts recorded" 2 e.Herror.attempts
        | Ok _ -> Alcotest.fail "expected exhaustion");
        check_int "two attempts" 2 (Atomic.get attempts));
    test_case "backoff schedule is deterministic, jittered, exponential"
      (fun () ->
        let config =
          { Runner.default with Runner.backoff = 0.1; backoff_max = 10.0 }
        in
        let d0 = Runner.backoff_delay config ~seed:42 ~attempt:0 in
        let d0' = Runner.backoff_delay config ~seed:42 ~attempt:0 in
        let d3 = Runner.backoff_delay config ~seed:42 ~attempt:3 in
        Alcotest.(check (float 0.0)) "deterministic" d0 d0';
        check_bool "within jitter band 0" true (d0 >= 0.05 && d0 < 0.15);
        check_bool "within jitter band 3" true (d3 >= 0.4 && d3 < 1.2);
        check_bool "seeds decorrelate" true
          (Runner.backoff_delay config ~seed:1 ~attempt:0
          <> Runner.backoff_delay config ~seed:2 ~attempt:0));
    test_case "backoff is capped" (fun () ->
        let config =
          { Runner.default with Runner.backoff = 1.0; backoff_max = 2.0 }
        in
        check_bool "cap" true
          (Runner.backoff_delay config ~seed:0 ~attempt:20 < 3.0));
  ]

(* ------------------------------------------------------------------ *)
(* Campaign                                                            *)
(* ------------------------------------------------------------------ *)

let campaign_config ?(jobs = 1) ?timeout ?store_path ?(resume = false)
    ?failure_budget ?fallback () =
  {
    (Campaign.default_config ()) with
    jobs;
    timeout;
    backoff = 0.0;
    store_path;
    resume;
    failure_budget;
    fallback;
    report = None;
  }

let synthetic_tasks n =
  List.init n (fun i ->
      mk_task ~circuit:(i / 4)
        ~tool:(List.nth [ "sabre"; "mlqls"; "qmap"; "tket" ] (i mod 4))
        ())

let swaps_of_rows rows =
  List.map
    (fun r ->
      match r.Campaign.status with
      | Task.Done o -> (Task.id r.Campaign.task, o.Task.swaps)
      | Task.Degraded _ -> Alcotest.fail "unexpected degradation"
      | Task.Failed e ->
          Alcotest.failf "unexpected failure: %s" (Herror.to_string e))
    rows

let campaign_tests =
  [
    test_case "pool results are identical to sequential execution" (fun () ->
        let tasks = synthetic_tasks 32 in
        let seq =
          Campaign.run (campaign_config ~jobs:1 ()) ~exec:synthetic_exec tasks
        in
        let par =
          Campaign.run (campaign_config ~jobs:4 ()) ~exec:synthetic_exec tasks
        in
        Alcotest.(check (list (pair string int)))
          "scheduling independent" (swaps_of_rows seq) (swaps_of_rows par));
    test_case "routing campaign is scheduling independent (real tools)"
      (fun () ->
        let device = Topologies.grid 3 3 in
        let config =
          {
            (Evaluation.default_figure_config device) with
            swap_counts = [ 1; 2 ];
            circuits_per_point = 2;
            gate_budget = 25;
            sabre_trials = 2;
          }
        in
        let tools =
          [ Sabre.router ~options:(Sabre.with_trials 2 Sabre.default_options) () ]
        in
        let rows jobs = Evaluation.run_campaign ~tools ~jobs ~config device in
        Alcotest.(check (list (pair string int)))
          "jobs=1 equals jobs=3"
          (swaps_of_rows (rows 1))
          (swaps_of_rows (rows 3)));
    test_case "resume skips exactly the completed task set" (fun () ->
        let tasks = synthetic_tasks 16 in
        let first, rest =
          List.filteri (fun i _ -> i < 6) tasks,
          List.filteri (fun i _ -> i >= 6) tasks
        in
        let path = fresh_store_path () in
        let executed = Atomic.make 0 in
        let counting_exec t =
          Atomic.incr executed;
          synthetic_exec t
        in
        (* First (killed) run: only 6 tasks reach the store. *)
        ignore
          (Campaign.run
             (campaign_config ~store_path:path ())
             ~exec:counting_exec first);
        check_int "checkpoint has the first batch" 6
          (List.length (Store.load path));
        (* Resumed run over the full set. *)
        Atomic.set executed 0;
        let rows =
          Campaign.run
            (campaign_config ~jobs:2 ~store_path:path ~resume:true ())
            ~exec:counting_exec tasks
        in
        check_int "only the remainder executed" (List.length rest)
          (Atomic.get executed);
        check_int "store now covers every task" (List.length tasks)
          (List.length (Store.load path));
        let resumed, fresh =
          List.partition (fun r -> r.Campaign.resumed) rows
        in
        check_int "resumed rows" 6 (List.length resumed);
        check_int "fresh rows" (List.length rest) (List.length fresh);
        (* Resumed results agree with what a fresh run would compute. *)
        List.iter
          (fun r ->
            match r.Campaign.status with
            | Task.Done o ->
                check_int "resumed result is the computed result"
                  (synthetic_exec r.Campaign.task).Task.swaps o.Task.swaps
            | Task.Degraded _ -> Alcotest.fail "unexpected degradation"
            | Task.Failed e ->
                Alcotest.failf "unexpected failure: %s" (Herror.to_string e))
          rows;
        Sys.remove path);
    test_case "a raising task fails alone, siblings are unharmed" (fun () ->
        let tasks = synthetic_tasks 12 in
        let poison = Task.id (List.nth tasks 5) in
        let exec t =
          if Task.id t = poison then failwith "router exploded"
          else synthetic_exec t
        in
        let rows = Campaign.run (campaign_config ~jobs:3 ()) ~exec tasks in
        check_int "one failure" 1 (List.length (Campaign.failures rows));
        check_int "rest succeeded" 11 (List.length (Campaign.outcomes rows));
        match (List.nth rows 5).Campaign.status with
        | Task.Failed e ->
            check_bool "typed as permanent" true
              (e.Herror.klass = Herror.Permanent);
            check_string "observed at the exec site" "runner.exec" e.Herror.site
        | _ -> Alcotest.fail "poisoned task should fail");
    test_case "a task over its timeout fails alone" (fun () ->
        let tasks = synthetic_tasks 8 in
        let slow = Task.id (List.nth tasks 2) in
        let exec t =
          if Task.id t = slow then Thread.delay 0.4;
          synthetic_exec t
        in
        let rows =
          Campaign.run
            (campaign_config ~jobs:2 ~timeout:0.05 ())
            ~exec tasks
        in
        (match (List.nth rows 2).Campaign.status with
        | Task.Failed e ->
            check_bool "timeout class" true (e.Herror.klass = Herror.Timeout)
        | _ -> Alcotest.fail "slow task should time out");
        check_int "siblings unharmed" 7 (List.length (Campaign.outcomes rows)));
    test_case "a failed tool degrades to its fallback, recorded as such"
      (fun () ->
        let tasks = synthetic_tasks 8 in
        let exec t =
          if t.Task.tool = "qmap" then failwith "solver blew up"
          else synthetic_exec t
        in
        let fallback = function "qmap" -> Some "sabre" | _ -> None in
        let rows =
          Campaign.run (campaign_config ~jobs:2 ~fallback ()) ~exec tasks
        in
        let rescued = Campaign.degraded rows in
        check_int "both qmap tasks degraded" 2 (List.length rescued);
        check_int "no failures" 0 (List.length (Campaign.failures rows));
        check_int "others untouched" 6 (List.length (Campaign.outcomes rows));
        List.iter
          (fun ((task : Task.t), (d : Task.degradation)) ->
            check_string "degraded task is the qmap one" "qmap" task.Task.tool;
            check_string "via" "sabre" d.Task.via;
            (* The outcome is the fallback task's deterministic result. *)
            check_int "fallback outcome"
              (synthetic_exec { task with Task.tool = "sabre" }).Task.swaps
              d.Task.outcome.Task.swaps;
            check_bool "original error kept" true
              (d.Task.error.Herror.klass = Herror.Permanent))
          rescued);
    test_case "degradation failing too leaves the original error" (fun () ->
        let tasks = synthetic_tasks 4 in
        let exec t =
          if t.Task.tool = "qmap" || t.Task.tool = "sabre" then
            failwith "everything down"
          else synthetic_exec t
        in
        let fallback = function "qmap" -> Some "sabre" | _ -> None in
        let rows = Campaign.run (campaign_config ~fallback ()) ~exec tasks in
        check_int "qmap and sabre failed" 2 (List.length (Campaign.failures rows));
        check_int "nothing degraded" 0 (List.length (Campaign.degraded rows)));
    test_case "failure budget aborts a doomed campaign early" (fun () ->
        let tasks = synthetic_tasks 64 in
        let executed = Atomic.make 0 in
        let exec _ =
          Atomic.incr executed;
          failwith "dead cluster"
        in
        let rows =
          Campaign.run
            (campaign_config ~failure_budget:0.5 ())
            ~exec tasks
        in
        (match Campaign.aborted rows with
        | Some why ->
            check_bool "mentions the budget" true
              (String.length why > 0)
        | None -> Alcotest.fail "expected an abort");
        check_bool "stopped early" true (Atomic.get executed < 20);
        check_int "every task still has a row" 64 (List.length rows));
    test_case "aborted tasks are not checkpointed, so resume re-runs them"
      (fun () ->
        let tasks = synthetic_tasks 32 in
        let path = fresh_store_path () in
        let dead = Atomic.make true in
        let exec t =
          if Atomic.get dead then failwith "dead cluster"
          else synthetic_exec t
        in
        ignore
          (Campaign.run
             (campaign_config ~store_path:path ~failure_budget:0.5 ())
             ~exec tasks);
        let checkpointed = List.length (Store.load path) in
        check_bool "some tasks never reached the store" true
          (checkpointed < 32);
        (* The cluster recovers; resume must finish the rest. *)
        Atomic.set dead false;
        let rows =
          Campaign.run
            (campaign_config ~store_path:path ~resume:true ())
            ~exec tasks
        in
        check_int "all rows fresh or resumed" 32 (List.length rows);
        check_int "every remaining task now succeeded"
          (32 - checkpointed)
          (List.length (Campaign.outcomes rows));
        Sys.remove path);
    test_case "progress tracks counts, degradation and per-tool gaps"
      (fun () ->
        let p = Progress.create ~total:5 in
        Progress.record ~ratio:2.0 ~tool:"sabre" ~outcome:`Ok p;
        Progress.record ~ratio:4.0 ~tool:"sabre" ~outcome:`Ok p;
        Progress.record ~tool:"tket" ~outcome:`Failed p;
        Progress.record ~ratio:9.0 ~tool:"qmap" ~outcome:`Degraded p;
        Progress.record_resumed p;
        check_int "finished" 5 (Progress.finished p);
        let line = Progress.render p in
        let contains re =
          let rec go i =
            i + String.length re <= String.length line
            && (String.sub line i (String.length re) = re || go (i + 1))
          in
          go 0
        in
        check_bool "mentions the mean gap" true (contains "sabre 3.0x");
        check_bool "mentions degradation" true (contains "degraded:1");
        check_bool "degraded ratio not folded into qmap's gap" false
          (contains "qmap"));
  ]

(* ------------------------------------------------------------------ *)
(* Aggregation resilience (Metrics.mean_opt + empty-point skip)        *)
(* ------------------------------------------------------------------ *)

let aggregation_tests =
  [
    test_case "mean_opt is None on empty, mean otherwise" (fun () ->
        check_bool "empty" true (Metrics.mean_opt [] = None);
        match Metrics.mean_opt [ 2.0; 4.0 ] with
        | Some m -> Alcotest.(check (float 1e-9)) "mean" 3.0 m
        | None -> Alcotest.fail "expected a mean");
    test_case "a point whose tasks all failed is skipped, not fatal"
      (fun () ->
        let device = Topologies.grid 3 3 in
        let config =
          {
            (Evaluation.default_figure_config device) with
            swap_counts = [ 2 ];
            circuits_per_point = 2;
            gate_budget = 25;
          }
        in
        let tasks = Evaluation.campaign_tasks ~config device in
        (* Every tool except sabre dies; aggregation must survive and
           produce only the sabre point. *)
        let exec t =
          if t.Task.tool <> "sabre" then failwith "down"
          else synthetic_exec t
        in
        let rows =
          Campaign.run (campaign_config ~jobs:2 ()) ~exec tasks
        in
        let points = Evaluation.aggregate_campaign ~config ~device rows in
        check_int "only the surviving tool" 1 (List.length points);
        check_string "it is sabre" "sabre"
          (List.hd points).Evaluation.tool_name);
    test_case "degraded rows count as coverage, not as the tool's samples"
      (fun () ->
        let device = Topologies.grid 3 3 in
        let config =
          {
            (Evaluation.default_figure_config device) with
            swap_counts = [ 2 ];
            circuits_per_point = 2;
            gate_budget = 25;
          }
        in
        let tasks = Evaluation.campaign_tasks ~config device in
        let exec t =
          if t.Task.tool = "qmap" then failwith "down" else synthetic_exec t
        in
        let fallback = function "qmap" -> Some "sabre" | _ -> None in
        let rows = Campaign.run (campaign_config ~fallback ()) ~exec tasks in
        let points = Evaluation.aggregate_campaign ~config ~device rows in
        (* qmap has no samples of its own -> skipped, but its rescue is
           visible: no qmap point, and the degraded count lives on rows. *)
        check_bool "qmap point skipped" true
          (not
             (List.exists (fun p -> p.Evaluation.tool_name = "qmap") points));
        check_int "its two instances were rescued" 2
          (List.length (Campaign.degraded rows)));
    test_case "all tasks failing aggregates to an empty figure" (fun () ->
        let device = Topologies.grid 3 3 in
        let config =
          {
            (Evaluation.default_figure_config device) with
            swap_counts = [ 1 ];
            circuits_per_point = 1;
          }
        in
        let tasks = Evaluation.campaign_tasks ~config device in
        let rows =
          Campaign.run (campaign_config ())
            ~exec:(fun _ -> failwith "everything is broken")
            tasks
        in
        check_int "no points, no exception" 0
          (List.length (Evaluation.aggregate_campaign ~config ~device rows)));
  ]

(* ------------------------------------------------------------------ *)
(* Attempt-count surfacing: Runner.run, the campaign's Done           *)
(* path, and the store round-trip (with v2 compatibility)              *)
(* ------------------------------------------------------------------ *)

let attempts_tests =
  [
    test_case "run reports 1 attempt on first-try success" (fun () ->
        match Runner.run immediate (fun () -> 9) with
        | Ok (v, attempts) ->
            check_int "value" 9 v;
            check_int "attempts" 1 attempts
        | Error e -> Alcotest.failf "unexpected error: %s" (Herror.to_string e));
    test_case "run reports the real attempt count after retries"
      (fun () ->
        let calls = Atomic.make 0 in
        let flaky () =
          if Atomic.fetch_and_add calls 1 < 2 then raise (transient_exn "flaky")
          else 7
        in
        match Runner.run { immediate with Runner.retries = 2 } flaky with
        | Ok (v, attempts) ->
            check_int "value" 7 v;
            check_int "three attempts" 3 attempts
        | Error e -> Alcotest.failf "unexpected error: %s" (Herror.to_string e));
    test_case "a retried task's Done row carries its attempt count \
               through the campaign and the store"
      (fun () ->
        let path = fresh_store_path () in
        let calls = Atomic.make 0 in
        let exec task =
          if Atomic.fetch_and_add calls 1 = 0 then
            raise (transient_exn "warmup")
          else synthetic_exec task
        in
        let config =
          { (campaign_config ~store_path:path ()) with Campaign.retries = 2 }
        in
        (match Campaign.run config ~exec [ mk_task () ] with
        | [ { Campaign.status = Task.Done o; _ } ] ->
            check_int "second attempt succeeded" 2 o.Task.attempts
        | _ -> Alcotest.fail "expected one Done row");
        (match Store.load path with
        | [ { Store.status = Task.Done o; _ } ] ->
            check_int "store preserves attempts" 2 o.Task.attempts
        | _ -> Alcotest.fail "expected one stored ok line");
        Sys.remove path);
    test_case "degraded lines round-trip both the error's and the \
               fallback's attempt counts"
      (fun () ->
        let path = fresh_store_path () in
        let store = Store.open_append path in
        let err =
          Herror.v ~site:"runner.exec" ~attempts:3 Herror.Timeout "slow"
        in
        Store.append store
          {
            Store.task_id = "d/1";
            status =
              Task.Degraded
                {
                  Task.outcome = { Task.swaps = 9; seconds = 0.25; attempts = 2 };
                  via = "sabre";
                  error = err;
                };
          };
        Store.close store;
        (match Store.load path with
        | [ { Store.status = Task.Degraded d; _ } ] ->
            check_int "fallback attempts" 2 d.Task.outcome.Task.attempts;
            check_int "original error attempts" 3 d.Task.error.Herror.attempts
        | _ -> Alcotest.fail "expected one degraded entry");
        Sys.remove path);
    test_case "v2 lines without attempt keys load with attempts = 1"
      (fun () ->
        let path = fresh_store_path () in
        let oc = open_out path in
        (* Pre-attempts ok and degraded lines, unsealed (v1 framing is
           still accepted) — exactly what an old store contains. *)
        output_string oc
          {|{"id":"old/ok","status":"ok","swaps":4,"seconds":0.5}|};
        output_char oc '\n';
        output_string oc
          {|{"id":"old/degr","status":"degraded","via":"sabre","swaps":6,"seconds":0.2,"eclass":"timeout","esite":"runner.exec","error":"slow","attempts":2}|};
        output_char oc '\n';
        close_out oc;
        let entries, corrupt = Store.load_verified path in
        Sys.remove path;
        check_int "nothing quarantined" 0 (List.length corrupt);
        match entries with
        | [ e1; e2 ] ->
            (match e1.Store.status with
            | Task.Done o ->
                check_int "ok defaults to one attempt" 1 o.Task.attempts
            | _ -> Alcotest.fail "entry 1 should be ok");
            (match e2.Store.status with
            | Task.Degraded d ->
                check_int "fallback defaults to one attempt" 1
                  d.Task.outcome.Task.attempts;
                check_int "error keeps its own attempts" 2
                  d.Task.error.Herror.attempts
            | _ -> Alcotest.fail "entry 2 should be degraded")
        | l -> Alcotest.failf "expected 2 entries, got %d" (List.length l));
  ]

(* ------------------------------------------------------------------ *)
(* Cross-domain races: Progress counters/render and the stderr_report  *)
(* sequence counter hammered from several domains at once              *)
(* ------------------------------------------------------------------ *)

let concurrency_tests =
  [
    test_case "progress survives multi-domain record/render/eta hammering"
      (fun () ->
        let domains = 4 and per = 2_000 in
        let p = Progress.create ~total:(domains * per) in
        let worker d () =
          let tool = Printf.sprintf "tool%d" d in
          for i = 1 to per do
            (match i mod 3 with
            | 0 -> Progress.record ~tool ~outcome:`Failed p
            | 1 -> Progress.record ~ratio:2.0 ~tool ~outcome:`Ok p
            | _ -> Progress.record ~tool ~outcome:`Degraded p);
            (* Readers race the writers on purpose: [render] holds the
               tool mutex while [finished]/[eta_seconds] read the atomic
               counters — the pre-fix code read unguarded mutables here
               and could tear or deadlock. *)
            if i mod 128 = 0 then ignore (Progress.render p);
            ignore (Progress.finished p);
            ignore (Progress.eta_seconds p)
          done
        in
        let ds = List.init domains (fun d -> Domain.spawn (worker d)) in
        List.iter Domain.join ds;
        check_int "no lost ticks" (domains * per) (Progress.finished p);
        check_bool "eta settles to None when done" true
          (Progress.eta_seconds p = None);
        (* Tools are listed in String.compare order whatever the domain
           interleaving was. *)
        let line = Progress.render p in
        let pos sub =
          let n = String.length sub in
          let rec go i =
            if i + n > String.length line then
              Alcotest.failf "render misses %S in %S" sub line
            else if String.sub line i n = sub then i
            else go (i + 1)
          in
          go 0
        in
        check_bool "tools sorted by name" true
          (pos "tool0" < pos "tool1"
          && pos "tool1" < pos "tool2"
          && pos "tool2" < pos "tool3"));
    test_case "tool_gaps snapshots exact sums under table-resize pressure"
      (fun () ->
        (* Unlike the hammering test above (4 fixed tools), every domain
           keeps inserting FRESH tool names, so the table resizes while
           other domains read it through [tool_gaps]. Without the mutex
           around both sides, a reader walks a half-rehashed table:
           entries vanish, sums tear, or the walk crashes. *)
        let domains = 4 and tools_per = 100 and hits = 20 in
        let p = Progress.create ~total:(domains * tools_per * hits) in
        let worker d () =
          for t = 0 to tools_per - 1 do
            let tool = Printf.sprintf "d%d.tool%03d" d t in
            for h = 1 to hits do
              Progress.record ~ratio:(float_of_int h) ~tool ~outcome:`Ok p
            done;
            ignore (Progress.tool_gaps p)
          done
        in
        let ds = List.init domains (fun d -> Domain.spawn (worker d)) in
        List.iter Domain.join ds;
        let gaps = Progress.tool_gaps p in
        check_int "every tool surfaced" (domains * tools_per)
          (List.length gaps);
        (* Each tool saw ratios 1..hits exactly once: its mean is exact in
           binary floating point, so equality is [Float.equal], not an
           epsilon — any torn read-modify-write shows up. *)
        let expect = float_of_int (hits + 1) /. 2.0 in
        List.iter
          (fun (tool, gap) ->
            check_bool
              (Printf.sprintf "exact mean for %s" tool)
              true
              (Float.equal gap expect))
          gaps;
        let names = List.map fst gaps in
        check_bool "snapshot sorted by tool name" true
          (List.equal String.equal names (List.sort String.compare names)));
    test_case "stderr_report meters exactly total/20 lines from N domains"
      (fun () ->
        let total = 200 and domains = 4 in
        let emitted = Atomic.make 0 and malformed = Atomic.make 0 in
        (* [emit] runs on the worker domains, so it only counts; Alcotest's
           checks are not domain-safe and run after the joins. *)
        let report =
          Campaign.stderr_report ~tty:false
            ~emit:(fun line ->
              if not (String.length line > 0 && line.[String.length line - 1] = '\n')
              then Atomic.incr malformed;
              Atomic.incr emitted)
            ~total
        in
        let ds =
          List.init domains (fun _ ->
              Domain.spawn (fun () ->
                  for _ = 1 to total / domains do
                    report "campaign 1/200"
                  done))
        in
        List.iter Domain.join ds;
        (* every = total/20 = 10; the shared atomic counter fires on each
           multiple of 10 up to 200 — exactly 20 emissions. The pre-fix
           [int ref] lost increments across domains, skipping multiples
           and emitting a wrong, run-dependent number of lines. *)
        check_int "exactly 20 metered lines" 20 (Atomic.get emitted);
        check_int "non-tty lines end in newline" 0 (Atomic.get malformed));
    test_case "stderr_report in tty mode rewrites every line in place"
      (fun () ->
        let calls = ref [] in
        let report =
          Campaign.stderr_report ~tty:true
            ~emit:(fun s -> calls := s :: !calls)
            ~total:3
        in
        report "a";
        report "b";
        check_int "every call emits" 2 (List.length !calls);
        check_bool "carriage-return rewrite" true
          (List.for_all (fun s -> String.length s > 0 && s.[0] = '\r') !calls));
  ]

let () =
  Alcotest.run "qls_harness"
    [
      ("task", task_tests);
      ("herror", herror_tests);
      ("store", store_tests);
      ("pool", pool_tests);
      ("runner", runner_tests);
      ("campaign", campaign_tests);
      ("aggregation", aggregation_tests);
      ("attempts", attempts_tests);
      ("concurrency", concurrency_tests);
    ]
