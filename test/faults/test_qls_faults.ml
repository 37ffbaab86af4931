(* Chaos suite for the fault-injection layer and the hardened failure
   semantics it exists to prove.

   The headline test is the resume-equivalence proof the design demands:
   with faults armed at every site (seeded matrix), a campaign that is
   "killed" partway and resumed fault-free produces results bit-identical
   to a fault-free sequential run — and permanent errors are never
   retried. The property tests damage checkpoint files at random
   (truncation, bit flips, spliced garbage) and assert that [load]
   quarantines exactly the damaged lines and never surfaces silently
   corrupted data. *)

module Task = Qls_harness.Task
module Herror = Qls_harness.Herror
module Store = Qls_harness.Store
module Runner = Qls_harness.Runner
module Campaign = Qls_harness.Campaign

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)
let test_case name f = Alcotest.test_case name `Quick f

let fresh_store_path () =
  let path = Filename.temp_file "qls_faults_test" ".jsonl" in
  Sys.remove path;
  path

let mk_task i =
  {
    Task.device = "grid3x3";
    n_swaps = 1 + (i mod 3);
    circuit = i / 4;
    tool = List.nth [ "sabre"; "mlqls"; "qmap"; "tket" ] (i mod 4);
    gate_budget = 30;
    single_qubit_ratio = 0.0;
    sabre_trials = 2;
    base_seed = 0;
  }

let synthetic_exec task =
  { Task.swaps = Task.rng_seed task mod 97; seconds = 0.0; attempts = 1 }

(* Every test leaves the ambient plan clear, even on failure. *)
let with_plan plan f =
  Qls_faults.install plan;
  Fun.protect ~finally:Qls_faults.clear f

let plan_of_spec spec =
  match Qls_faults.parse spec with
  | Ok p -> p
  | Error e -> Alcotest.failf "bad spec %S: %s" spec e

(* ------------------------------------------------------------------ *)
(* Spec syntax                                                         *)
(* ------------------------------------------------------------------ *)

let spec_tests =
  [
    test_case "parse and to_string round trip" (fun () ->
        let spec =
          "seed=7;runner.exec:transient:0.3;store.append:torn@0.25:0.5;store.load:flip:1"
        in
        let p = plan_of_spec spec in
        check_int "seed" 7 p.Qls_faults.seed;
        check_int "rules" 3 (List.length p.Qls_faults.rules);
        let p' = plan_of_spec (Qls_faults.to_string p) in
        check_bool "round trips" true (p = p'));
    test_case "torn defaults to half, hang is a delay" (fun () ->
        let p = plan_of_spec "seed=1;store.append:torn:1;runner.exec:hang@2.5:1" in
        match p.Qls_faults.rules with
        | [ { Qls_faults.kind = Qls_faults.Torn f; _ };
            { Qls_faults.kind = Qls_faults.Delay d; _ } ] ->
            Alcotest.(check (float 0.0)) "torn keeps half" 0.5 f;
            Alcotest.(check (float 0.0)) "hang secs" 2.5 d
        | _ -> Alcotest.fail "unexpected rules");
    test_case "bad specs are rejected with a reason" (fun () ->
        let rejected spec =
          match Qls_faults.parse spec with
          | Error _ -> ()
          | Ok _ -> Alcotest.failf "spec %S should be rejected" spec
        in
        rejected "";
        rejected "seed=x;runner.exec:transient:0.5";
        rejected "seed=1;bogus.site:transient:0.5";
        rejected "seed=1;runner.exec:warble:0.5";
        rejected "seed=1;runner.exec:transient:1.5";
        rejected "seed=1;runner.exec:transient");
    test_case "no plan means free no-ops" (fun () ->
        Qls_faults.clear ();
        check_bool "none installed" true
          (Qls_faults.is_none (Qls_faults.installed ()));
        Qls_faults.exec ~site:"runner.exec" ~key:"k";
        check_string "mangle is identity" "payload"
          (Qls_faults.mangle ~site:"store.append" ~key:"k" "payload"));
    test_case "serve sites are registered and parseable" (fun () ->
        List.iter
          (fun site ->
            check_bool site true (List.mem site Qls_faults.known_sites))
          [
            "runner.exec"; "store.append"; "store.load"; "serve.frame.read";
            "serve.work.hang"; "serve.work.exn"; "serve.log.append";
          ];
        let p =
          plan_of_spec
            "seed=3;serve.work.hang:delay@0.5:1;serve.frame.read:torn:0.5;serve.work.exn:transient:0.2;serve.log.append:permanent:0.1"
        in
        check_int "all serve rules accepted" 4 (List.length p.Qls_faults.rules));
  ]

(* ------------------------------------------------------------------ *)
(* Deterministic decisions                                             *)
(* ------------------------------------------------------------------ *)

let firing_pattern plan keys =
  with_plan plan (fun () ->
      List.map
        (fun key ->
          try
            Qls_faults.exec ~site:"runner.exec" ~key;
            false
          with Qls_faults.Injected _ -> true)
        keys)

let determinism_tests =
  [
    test_case "a plan fires identically on every install" (fun () ->
        let plan = plan_of_spec "seed=11;runner.exec:transient:0.4" in
        let keys = List.init 40 string_of_int in
        let a = firing_pattern plan keys in
        let b = firing_pattern plan keys in
        check_bool "same schedule" true (a = b);
        check_bool "fires sometimes" true (List.mem true a);
        check_bool "not always" true (List.mem false a));
    test_case "different seeds give different schedules" (fun () ->
        let keys = List.init 60 string_of_int in
        let pattern s =
          firing_pattern
            (plan_of_spec
               (Printf.sprintf "seed=%d;runner.exec:transient:0.4" s))
            keys
        in
        check_bool "decorrelated" true (pattern 1 <> pattern 2));
    test_case "retries draw the next decision in the key's stream"
      (fun () ->
        (* With a 50% rule, one key visited repeatedly must eventually
           see both outcomes — the occurrence counter advances. *)
        let plan = plan_of_spec "seed=3;runner.exec:transient:0.5" in
        with_plan plan (fun () ->
            let outcomes =
              List.init 20 (fun _ ->
                  try
                    Qls_faults.exec ~site:"runner.exec" ~key:"same";
                    false
                  with Qls_faults.Injected _ -> true)
            in
            check_bool "both outcomes over 20 visits" true
              (List.mem true outcomes && List.mem false outcomes)));
    test_case "mangle torn shortens, flip changes exactly one bit"
      (fun () ->
        let payload = "{\"id\":\"abc\",\"status\":\"ok\"}\n" in
        with_plan (plan_of_spec "seed=5;store.append:torn@0.5:1") (fun () ->
            let torn = Qls_faults.mangle ~site:"store.append" ~key:"k" payload in
            check_bool "shorter" true
              (String.length torn < String.length payload);
            check_string "a prefix" torn
              (String.sub payload 0 (String.length torn)));
        with_plan (plan_of_spec "seed=5;store.append:flip:1") (fun () ->
            let flipped =
              Qls_faults.mangle ~site:"store.append" ~key:"k" payload
            in
            check_int "same length" (String.length payload)
              (String.length flipped);
            let hamming = ref 0 in
            String.iteri
              (fun i c ->
                let x = Char.code c lxor Char.code flipped.[i] in
                let rec pop x = if x = 0 then 0 else (x land 1) + pop (x lsr 1) in
                hamming := !hamming + pop x)
              payload;
            check_int "one bit" 1 !hamming));
    test_case "exec rules never fire at data sites and vice versa"
      (fun () ->
        with_plan
          (plan_of_spec "seed=1;store.append:transient:1;runner.exec:flip:1")
          (fun () ->
            (* The Exn rule targets store.append: mangle there must not
               raise, and the Flip rule targeting runner.exec must not
               corrupt an exec visit's (nonexistent) payload. *)
            ignore (Qls_faults.mangle ~site:"store.append" ~key:"k" "data");
            Qls_faults.exec ~site:"runner.exec" ~key:"k"));
  ]

(* ------------------------------------------------------------------ *)
(* Runner under injection                                              *)
(* ------------------------------------------------------------------ *)

let immediate = { Runner.default with Runner.backoff = 0.0 }

let runner_tests =
  [
    test_case "injected permanent faults are never retried" (fun () ->
        with_plan (plan_of_spec "seed=1;runner.exec:permanent:1") (fun () ->
            let body_ran = Atomic.make 0 in
            match
              Runner.run
                { immediate with Runner.retries = 5 }
                (fun () -> Atomic.incr body_ran)
            with
            | Error e ->
                check_bool "permanent" true
                  (e.Herror.klass = Herror.Permanent);
                check_int "exactly one attempt" 1 e.Herror.attempts;
                check_int "body never reached" 0 (Atomic.get body_ran)
            | Ok _ -> Alcotest.fail "expected the injected fault"));
    test_case "injected transient faults retry and recover" (fun () ->
        (* Rate < 1 with a generous retry budget: the occurrence stream
           must eventually clear and the body run. *)
        with_plan (plan_of_spec "seed=2;runner.exec:transient:0.6") (fun () ->
            match
              Runner.run { immediate with Runner.retries = 30 } (fun () -> 99)
            with
            | Ok (v, _) -> check_int "recovered" 99 v
            | Error e ->
                Alcotest.failf "should recover: %s" (Herror.to_string e)));
    test_case "an injected hang trips the real timeout" (fun () ->
        with_plan (plan_of_spec "seed=1;runner.exec:hang@0.3:1") (fun () ->
            match
              Runner.run
                { immediate with Runner.timeout = Some 0.05 }
                (fun () -> ())
            with
            | Error e ->
                check_bool "timeout class" true
                  (e.Herror.klass = Herror.Timeout)
            | Ok ((), _) -> Alcotest.fail "expected a timeout"));
  ]

(* ------------------------------------------------------------------ *)
(* Store under injection                                               *)
(* ------------------------------------------------------------------ *)

let store_tests =
  [
    test_case "torn appends are quarantined at load" (fun () ->
        let path = fresh_store_path () in
        with_plan (plan_of_spec "seed=4;store.append:torn@0.3:1") (fun () ->
            let store = Store.open_append path in
            List.iter
              (fun i ->
                Store.append store
                  {
                    Store.task_id = Printf.sprintf "t/%d" i;
                    status = Task.Done { Task.swaps = i; seconds = 0.0; attempts = 1 };
                  })
              [ 0; 1; 2; 3 ];
            Store.close store);
        let entries, bad = Store.load_verified path in
        check_bool "some lines lost" true (List.length entries < 4);
        check_bool "damage is reported, not silent" true (bad <> []);
        Sys.remove path);
    test_case "load-side flips quarantine without touching the file"
      (fun () ->
        let path = fresh_store_path () in
        let store = Store.open_append path in
        List.iter
          (fun i ->
            Store.append store
              {
                Store.task_id = Printf.sprintf "t/%d" i;
                status = Task.Done { Task.swaps = i; seconds = 0.0; attempts = 1 };
              })
          [ 0; 1; 2 ];
        Store.close store;
        with_plan (plan_of_spec "seed=9;store.load:flip:1") (fun () ->
            let entries, bad = Store.load_verified path in
            check_int "every line accounted for" 3
              (List.length entries + List.length bad);
            check_bool "at least one read was corrupted" true (bad <> []);
            (* Any line that still loads must carry undamaged data (a
               flip confined to the crc seal is benign). *)
            List.iter
              (fun e ->
                match e.Store.status with
                | Task.Done o ->
                    check_int "data intact"
                      (int_of_string (String.sub e.Store.task_id 2 1))
                      o.Task.swaps
                | _ -> Alcotest.fail "unexpected status")
              entries);
        (* The file itself was never touched: a clean re-read is whole. *)
        let entries, bad = Store.load_verified path in
        check_int "clean read" 3 (List.length entries);
        check_int "no quarantine" 0 (List.length bad);
        Sys.remove path);
  ]

(* ------------------------------------------------------------------ *)
(* The chaos proof: kill + resume under faults at every site           *)
(* ------------------------------------------------------------------ *)

let chaos_seeds =
  let base = [ 1; 7; 42 ] in
  match Option.bind (Sys.getenv_opt "QLS_CHAOS_SEED") int_of_string_opt with
  | Some s when not (List.mem s base) -> s :: base
  | _ -> base

let chaos_plan seed =
  plan_of_spec
    (Printf.sprintf
       "seed=%d;runner.exec:transient:0.35;runner.exec:delay@0.002:0.15;store.append:torn@0.4:0.3;store.append:flip:0.2"
       seed)

let chaos_config ?(jobs = 1) ?(retries = 6) ?store_path ?(resume = false)
    ?(rerun_failed = false) () =
  {
    (Campaign.default_config ()) with
    Campaign.jobs;
    retries;
    backoff = 0.0;
    store_path;
    resume;
    rerun_failed;
    report = None;
  }

let done_swaps rows =
  List.map
    (fun r ->
      match r.Campaign.status with
      | Task.Done o -> (Task.id r.Campaign.task, o.Task.swaps)
      | Task.Degraded _ -> Alcotest.fail "unexpected degradation"
      | Task.Failed e ->
          Alcotest.failf "task %s failed: %s"
            (Task.id r.Campaign.task)
            (Herror.to_string e))
    rows

let status_fingerprint rows =
  List.map
    (fun r ->
      ( Task.id r.Campaign.task,
        Format.asprintf "%a" Task.pp_status r.Campaign.status ))
    rows

let chaos_tests =
  [
    test_case "killed-and-resumed chaos run matches the fault-free run"
      (fun () ->
        let tasks = List.init 40 mk_task in
        let prefix = List.filteri (fun i _ -> i < 24) tasks in
        Qls_faults.clear ();
        let baseline =
          done_swaps (Campaign.run (chaos_config ()) ~exec:synthetic_exec tasks)
        in
        List.iter
          (fun seed ->
            let path = fresh_store_path () in
            (* Phase 1: faults at every site, then the process "dies"
               after the prefix. Individual tasks may fail (exhausted
               transient retries) and checkpoint lines may be torn or
               bit-flipped — all of it must be survivable. *)
            with_plan (chaos_plan seed) (fun () ->
                ignore
                  (Campaign.run
                     (chaos_config ~jobs:3 ~store_path:path ())
                     ~exec:synthetic_exec prefix));
            let _, bad = Store.load_verified path in
            check_bool
              (Printf.sprintf "seed %d actually corrupted the store" seed)
              true (bad <> []);
            (* Phase 2: the machine recovers (no faults) and the full
               campaign resumes over the damaged checkpoint. *)
            let rows =
              Campaign.run
                (chaos_config ~jobs:3 ~store_path:path ~resume:true
                   ~rerun_failed:true ())
                ~exec:synthetic_exec tasks
            in
            check_int
              (Printf.sprintf "seed %d: every task has a row" seed)
              40 (List.length rows);
            check_bool
              (Printf.sprintf "seed %d: bit-identical to fault-free" seed)
              true
              (done_swaps rows = baseline);
            Sys.remove path;
            if Sys.file_exists (path ^ ".quarantine") then
              Sys.remove (path ^ ".quarantine"))
          chaos_seeds);
    test_case "chaos schedule is scheduling-independent" (fun () ->
        (* Same plan, same tasks, different worker counts: the fault
           schedule keys on (site, task id, occurrence), not on timing,
           so even the *failures* land identically. *)
        let tasks = List.init 24 mk_task in
        let run jobs =
          with_plan (chaos_plan 7) (fun () ->
              status_fingerprint
                (Campaign.run (chaos_config ~jobs ()) ~exec:synthetic_exec
                   tasks))
        in
        check_bool "jobs=1 equals jobs=4" true (run 1 = run 4));
    test_case "no permanent error is ever retried under chaos" (fun () ->
        let tasks = List.init 16 mk_task in
        let executions = Atomic.make 0 in
        let exec t =
          Atomic.incr executions;
          synthetic_exec t
        in
        with_plan
          (plan_of_spec "seed=13;runner.exec:permanent:0.5")
          (fun () ->
            let rows =
              Campaign.run (chaos_config ~retries:5 ()) ~exec tasks
            in
            let failed = Campaign.failures rows in
            check_bool "some tasks hit the permanent fault" true
              (failed <> []);
            List.iter
              (fun (_, e) ->
                check_bool "permanent" true
                  (e.Herror.klass = Herror.Permanent);
                check_int "single attempt" 1 e.Herror.attempts)
              failed;
            (* Injected faults fire before the body: every execution of
               the body belongs to a task whose attempt cleared the
               fault, and no permanent-failed task consumed retries. *)
            check_int "executions = successes"
              (List.length (Campaign.outcomes rows))
              (Atomic.get executions)));
  ]

(* ------------------------------------------------------------------ *)
(* Random damage properties (no injection library involved)            *)
(* ------------------------------------------------------------------ *)

(* Build a store file from generated entries; returns originals in
   order. Statuses alternate so damage hits every line shape. *)
let write_entries entries =
  let path = fresh_store_path () in
  let store = Store.open_append path in
  List.iter (Store.append store) entries;
  Store.close store;
  path

let synthetic_entries n =
  List.init n (fun i ->
      let id = Printf.sprintf "dev/%d/tool-%d" (i / 3) i in
      if i mod 3 = 2 then
        {
          Store.task_id = id;
          status =
            Task.Failed
              (Herror.v ~site:"runner.exec" ~attempts:(1 + (i mod 2))
                 Herror.Transient
                 (Printf.sprintf "flake #%d" i));
        }
      else
        { Store.task_id = id; status = Task.Done { Task.swaps = i; seconds = 0.0; attempts = 1 } })

let entry_equal (a : Store.entry) (b : Store.entry) =
  a.Store.task_id = b.Store.task_id
  &&
  match (a.Store.status, b.Store.status) with
  | Task.Done x, Task.Done y -> x.Task.swaps = y.Task.swaps
  | Task.Failed x, Task.Failed y ->
      x.Herror.klass = y.Herror.klass
      && x.Herror.message = y.Herror.message
      && x.Herror.attempts = y.Herror.attempts
  | Task.Degraded x, Task.Degraded y ->
      x.Task.via = y.Task.via && x.Task.outcome.Task.swaps = y.Task.outcome.Task.swaps
  | _ -> false

let read_file path = In_channel.with_open_bin path In_channel.input_all

let write_file path s = Out_channel.with_open_bin path (fun oc ->
    Out_channel.output_string oc s)

let damage_props =
  [
    QCheck.Test.make ~name:"truncation loses only the cut line" ~count:150
      QCheck.(pair (int_range 1 12) (int_range 0 2000))
      (fun (n, cut_raw) ->
        let originals = synthetic_entries n in
        let path = write_entries originals in
        let bytes = read_file path in
        let cut = cut_raw mod (String.length bytes + 1) in
        write_file path (String.sub bytes 0 cut);
        let entries, bad = Store.load_verified path in
        Sys.remove path;
        (* Count complete lines surviving the cut. *)
        let full = ref 0 in
        String.iteri
          (fun i c -> if i < cut && c = '\n' then incr full)
          bytes;
        let partial_tail = cut > 0 && bytes.[cut - 1] <> '\n' in
        let loaded = List.length entries in
        (* A cut between the closing brace and the newline leaves a
           complete, valid final line: nothing was actually lost, so it
           loads as entry [full + 1]. Any other nonempty tail must be
           quarantined. *)
        (loaded = !full || (loaded = !full + 1 && partial_tail))
        && List.length bad = (if partial_tail && loaded = !full then 1 else 0)
        && List.for_all2 entry_equal entries
             (List.filteri (fun i _ -> i < loaded) originals));
    QCheck.Test.make ~name:"one flipped bit never surfaces corrupt data"
      ~count:300
      QCheck.(triple (int_range 2 10) (int_range 0 5000) (int_range 0 7))
      (fun (n, pos_raw, bit) ->
        let originals = synthetic_entries n in
        let path = write_entries originals in
        let bytes = Bytes.of_string (read_file path) in
        let pos = pos_raw mod Bytes.length bytes in
        let flipped =
          Char.chr (Char.code (Bytes.get bytes pos) lxor (1 lsl bit))
        in
        QCheck.assume (Bytes.get bytes pos <> '\n' && flipped <> '\n');
        (* Which line did we damage? *)
        let victim = ref 0 in
        Bytes.iteri
          (fun i c -> if i < pos && c = '\n' then incr victim)
          bytes;
        Bytes.set bytes pos flipped;
        write_file path (Bytes.to_string bytes);
        let entries, bad = Store.load_verified path in
        Sys.remove path;
        (* Every undamaged line loads intact; the victim is either
           quarantined or — when the flip only grazed the crc seal's
           own syntax — loads with its data intact. Silent corruption
           is the one outcome that must never happen. *)
        List.length entries + List.length bad = n
        && (match bad with
           | [ c ] -> c.Store.line_no = !victim + 1
           | [] ->
               (* benign flip: the victim still loaded, data equal *)
               List.for_all2 entry_equal entries originals
           | _ -> false)
        && List.for_all
             (fun (e : Store.entry) ->
               List.exists (entry_equal e) originals)
             entries);
    QCheck.Test.make ~name:"spliced garbage is quarantined, originals load"
      ~count:150
      QCheck.(
        triple (int_range 1 10) (int_range 0 10)
          (string_gen_of_size (Gen.int_range 1 40) Gen.printable))
      (fun (n, at_raw, junk) ->
        let junk =
          "garbage:" ^ String.map (fun c -> if c = '\n' then '_' else c) junk
        in
        let originals = synthetic_entries n in
        let path = write_entries originals in
        let lines =
          String.split_on_char '\n' (read_file path)
          |> List.filter (fun l -> l <> "")
        in
        let at = at_raw mod (List.length lines + 1) in
        let spliced =
          List.concat
            [
              List.filteri (fun i _ -> i < at) lines;
              [ junk ];
              List.filteri (fun i _ -> i >= at) lines;
            ]
        in
        write_file path (String.concat "\n" spliced ^ "\n");
        let entries, bad = Store.load_verified path in
        Sys.remove path;
        List.length entries = n
        && List.for_all2 entry_equal entries originals
        && (match bad with
           | [ c ] -> c.Store.line_no = at + 1 && c.Store.text = junk
           | _ -> false));
    QCheck.Test.make
      ~name:"escape/unescape round-trips adversarial ids and messages"
      ~count:300
      QCheck.(pair string string)
      (fun (id, msg) ->
        let originals =
          [
            { Store.task_id = id; status = Task.Done { Task.swaps = 3; seconds = 0.0; attempts = 1 } };
            {
              Store.task_id = id ^ "/2";
              status = Task.Failed (Herror.permanent ~site:msg msg);
            };
          ]
        in
        let path = write_entries originals in
        let entries, bad = Store.load_verified path in
        Sys.remove path;
        bad = []
        && List.length entries = 2
        && List.for_all2 entry_equal entries originals
        &&
        match (List.nth entries 1).Store.status with
        | Task.Failed e -> e.Herror.site = msg
        | _ -> false);
  ]

let roundtrip_tests =
  [
    test_case "a pathological id survives the store byte-for-byte" (fun () ->
        let id = "q\"\\ \n\r\t\x01\x1f\xc3\xa9\xe2\x82\xac{}[]:," in
        let path =
          write_entries
            [
              {
                Store.task_id = id;
                status = Task.Done { Task.swaps = 1; seconds = 0.0; attempts = 1 };
              };
            ]
        in
        (match Store.load path with
        | [ e ] -> check_string "byte identical" id e.Store.task_id
        | es -> Alcotest.failf "expected 1 entry, got %d" (List.length es));
        Sys.remove path);
  ]

let () =
  Alcotest.run "qls_faults"
    [
      ("spec", spec_tests);
      ("determinism", determinism_tests);
      ("runner", runner_tests);
      ("store", store_tests);
      ("chaos", chaos_tests);
      ("damage-properties", List.map QCheck_alcotest.to_alcotest damage_props);
      ("roundtrip", roundtrip_tests);
    ]
