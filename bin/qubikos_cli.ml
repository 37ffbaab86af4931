(* The qubikos command-line tool.

   Subcommands:
     generate    build a QUBIKOS instance, print its summary, emit QASM
     verify      re-prove an instance's optimality (certificate + exact)
     route       run a QLS tool on a circuit (generated or OpenQASM file)
     evaluate    one Fig.-4-style panel: all tools over SWAP counts
     campaign    the same panel as a parallel, checkpointed, resumable run
     study       the §IV-A optimality study
     queko       build a QUEKO (0-SWAP, known-depth) instance
     devices     list known architectures *)

open Cmdliner

module Device = Qls_arch.Device
module Topologies = Qls_arch.Topologies
module Circuit = Qls_circuit.Circuit
module Qasm = Qls_circuit.Qasm
module Transpiled = Qls_layout.Transpiled
module Verifier = Qls_layout.Verifier
module Router = Qls_router.Router
module Registry = Qls_router.Registry
module Benchmark = Qubikos.Benchmark
module Generator = Qubikos.Generator
module Certificate = Qubikos.Certificate
module Evaluation = Qubikos.Evaluation
module Queko = Qubikos.Queko

(* ------------------------------------------------------------------ *)
(* Shared arguments                                                    *)
(* ------------------------------------------------------------------ *)

let device_conv =
  let parse s =
    match Topologies.by_name s with
    | Some d -> Ok d
    | None ->
        Error
          (`Msg
            (Printf.sprintf
               "unknown architecture %S (try: aspen4, sycamore, rochester, \
                eagle, falcon, grid3x3, line<n>, ring<n>, grid<r>x<c>, \
                heavyhex<d>)"
               s))
  in
  let print ppf d = Format.fprintf ppf "%s" (Device.name d) in
  Arg.conv (parse, print)

let arch =
  Arg.(
    value
    & opt device_conv (Topologies.aspen4 ())
    & info [ "a"; "arch" ] ~docv:"ARCH" ~doc:"Target architecture.")

let seed =
  Arg.(value & opt int 0 & info [ "seed" ] ~docv:"SEED" ~doc:"Generator seed.")

let swaps =
  Arg.(
    value & opt int 5
    & info [ "s"; "swaps" ] ~docv:"N" ~doc:"Designed optimal SWAP count.")

let gates =
  Arg.(
    value & opt (some int) None
    & info [ "g"; "gates" ] ~docv:"N"
        ~doc:"Two-qubit gate budget (default: the paper's per-device size).")

let config_of device ~n_swaps ~gates ~seed =
  {
    Generator.default_config with
    n_swaps;
    gate_budget = Option.value ~default:(Evaluation.paper_gate_budget device) gates;
    seed;
  }

let trace_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:
          "Write a structured trace of the run: $(i,FILE.jsonl) gets one \
           CRC-sealed JSON line per span (crash-safe, appendable), any \
           other extension gets a Chrome trace-event JSON loadable in \
           Perfetto / chrome://tracing. Tracing off (the default) costs \
           nothing on the routing hot path.")

(* Run [f] with tracing armed when [--trace] was given; the sink is
   flushed/closed on both exits so a failing campaign still leaves a
   readable trace. *)
let with_tracing trace f =
  match trace with
  | None -> f ()
  | Some path ->
      Qls_obs.tracing_to path;
      Fun.protect ~finally:Qls_obs.shutdown f

(* ------------------------------------------------------------------ *)
(* generate                                                            *)
(* ------------------------------------------------------------------ *)

let generate_cmd =
  let out =
    Arg.(
      value & opt (some string) None
      & info [ "o"; "output" ] ~docv:"FILE" ~doc:"Write OpenQASM 2.0 here.")
  in
  let save =
    Arg.(
      value & opt (some string) None
      & info [ "save" ] ~docv:"FILE"
          ~doc:
            "Write the full instance (circuit + designed schedule + \
             certificate metadata) in the .qbk format; `verify --file` \
             re-proves it.")
  in
  let run device n_swaps gates seed out save =
    let bench = Generator.generate ~config:(config_of device ~n_swaps ~gates ~seed) device in
    Format.printf "%a@." Benchmark.pp_summary bench;
    Format.printf "designed schedule: %d swaps, physical depth %d@."
      (Transpiled.swap_count bench.Benchmark.designed)
      (Transpiled.depth bench.Benchmark.designed);
    (match out with
    | Some path ->
        Qasm.write_file path bench.Benchmark.circuit;
        Format.printf "wrote %s@." path
    | None -> ());
    (match save with
    | Some path ->
        Qubikos.Serialize.save path bench;
        Format.printf "saved instance to %s@." path
    | None -> ());
    0
  in
  let doc = "Generate a QUBIKOS benchmark with a known optimal SWAP count." in
  Cmd.v (Cmd.info "generate" ~doc)
    Term.(const run $ arch $ swaps $ gates $ seed $ out $ save)

(* ------------------------------------------------------------------ *)
(* verify                                                              *)
(* ------------------------------------------------------------------ *)

let verify_cmd =
  let exact =
    Arg.(
      value & flag
      & info [ "exact" ]
          ~doc:"Also refute (optimal - 1) SWAPs with the exact solver.")
  in
  let exact_method =
    Arg.(
      value
      & opt (enum [ ("sat", Certificate.Sat); ("search", Certificate.Search) ])
          Certificate.Sat
      & info [ "method" ] ~docv:"METHOD"
          ~doc:"Exact refuter: $(b,sat) (OLSQ2-style, default) or \
                $(b,search) (transition search).")
  in
  let node_budget =
    Arg.(
      value & opt int 150_000_000
      & info [ "node-budget" ] ~docv:"N"
          ~doc:"Search-method budget, in search-tree nodes.")
  in
  let conflict_budget =
    Arg.(
      value & opt int 2_000_000
      & info [ "conflict-budget" ] ~docv:"N"
          ~doc:"SAT-method budget, in solver conflicts.")
  in
  let file =
    Arg.(
      value & opt (some Cmdliner.Arg.file) None
      & info [ "f"; "file" ] ~docv:"FILE"
          ~doc:"Re-prove a saved .qbk instance instead of regenerating one.")
  in
  let run device n_swaps gates seed exact exact_method node_budget
      conflict_budget file =
    (* A malformed file, or a section index that names no two-qubit
       gate, is a bad input: report it rather than crash. *)
    match
      let bench =
        match file with
        | Some path -> Qubikos.Serialize.load path
        | None ->
            Generator.generate ~config:(config_of device ~n_swaps ~gates ~seed) device
      in
      (bench, Certificate.check bench)
    with
    | exception (Failure msg | Invalid_argument msg | Sys_error msg) ->
        Format.eprintf "verify: %s@." msg;
        1
    | bench, verdict -> (
        Format.printf "%a@." Benchmark.pp_summary bench;
        match verdict with
        | Error fs ->
            Format.printf "certificate FAILED:@.%a@."
              (Format.pp_print_list Certificate.pp_failure)
              fs;
            1
        | Ok () ->
            Format.printf
              "structural certificate: OK (Lemmas 1-3 + designed schedule)@.";
            if exact then begin
              match
                Certificate.check_exact ~solver:exact_method ~node_budget
                  ~conflict_budget bench
              with
              | exception Qls_router.Olsq.Too_large { clauses; limit } ->
                  Format.printf
                    "exact solver: unknown (too large: %d clauses, limit %d)@."
                    clauses limit;
                  0
              | { Certificate.exact_agrees = Some true; _ } ->
                  Format.printf
                    "exact solver: confirmed (no %d-swap solution exists)@."
                    (bench.Benchmark.optimal_swaps - 1);
                  0
              | { exact_agrees = Some false; _ } ->
                  Format.printf "exact solver: REFUTED the certificate (bug!)@.";
                  1
              | { exact_agrees = None; _ } ->
                  Format.printf "exact solver: budget exhausted (inconclusive)@.";
                  0
            end
            else 0)
  in
  let doc = "Re-prove the optimality of a generated instance." in
  Cmd.v (Cmd.info "verify" ~doc)
    Term.(
      const run $ arch $ swaps $ gates $ seed $ exact $ exact_method
      $ node_budget $ conflict_budget $ file)

(* ------------------------------------------------------------------ *)
(* route                                                               *)
(* ------------------------------------------------------------------ *)

let route_cmd =
  let tool =
    Arg.(
      value & opt string "sabre"
      & info [ "t"; "tool" ] ~docv:"TOOL"
          ~doc:("QLS tool: " ^ String.concat ", " Registry.names ^ "."))
  in
  let trials =
    Arg.(
      value & opt int 20
      & info [ "trials" ] ~docv:"N" ~doc:"SABRE randomised trials.")
  in
  let input =
    Arg.(
      value & opt (some file) None
      & info [ "i"; "input" ] ~docv:"FILE"
          ~doc:"Route this OpenQASM 2.0 file instead of a generated instance.")
  in
  let run device n_swaps gates seed tool trials input trace =
    with_tracing trace @@ fun () ->
    match Registry.by_name ~sabre_trials:trials tool with
    | None ->
        Format.eprintf "unknown tool %S (known: %s)@." tool
          (String.concat ", " Registry.names);
        2
    | Some router -> (
        let parsed =
          match input with
          | Some path -> (
              (* A malformed file is a clean, line-numbered diagnostic —
                 not a backtrace. *)
              match Qasm.read_file_result path with
              | Error e ->
                  Error (Printf.sprintf "%s: %s" path (Qasm.error_to_string e))
              | Ok circuit when Circuit.n_qubits circuit > Device.n_qubits device ->
                  Error
                    (Printf.sprintf "%s: circuit on %d qubits does not fit %s (%d qubits)"
                       path (Circuit.n_qubits circuit) (Device.name device)
                       (Device.n_qubits device))
              | Ok circuit -> Ok (circuit, None))
          | None ->
              let bench =
                Generator.generate ~config:(config_of device ~n_swaps ~gates ~seed) device
              in
              Format.printf "%a@." Benchmark.pp_summary bench;
              Ok (bench.Benchmark.circuit, Some bench.Benchmark.optimal_swaps)
        in
        match parsed with
        | Error msg ->
            Format.eprintf "route: %s@." msg;
            2
        | Ok (circuit, optimal) ->
            (* lint: nondet-source — wall-clock feeds the printed elapsed time only *)
            let t0 = Unix.gettimeofday () in
            let _, report = Router.run_verified router device circuit in
            (* lint: nondet-source — wall-clock feeds the printed elapsed time only *)
            let dt = Unix.gettimeofday () -. t0 in
            Format.printf "%s: %d swaps, depth %d, %.2fs (result verified)@." tool
              report.Verifier.swap_count report.Verifier.depth dt;
            (match optimal with
            | Some opt ->
                Format.printf "optimal: %d swaps -> ratio %.2fx@." opt
                  (float_of_int report.Verifier.swap_count /. float_of_int opt)
            | None -> ());
            0)
  in
  let doc = "Run a layout-synthesis tool and verify its output." in
  Cmd.v (Cmd.info "route" ~doc)
    Term.(
      const run $ arch $ swaps $ gates $ seed $ tool $ trials $ input
      $ trace_arg)

(* ------------------------------------------------------------------ *)
(* evaluate                                                            *)
(* ------------------------------------------------------------------ *)

let evaluate_cmd =
  let circuits =
    Arg.(
      value & opt int 3
      & info [ "circuits" ] ~docv:"N" ~doc:"Instances per (device, SWAP count).")
  in
  let trials =
    Arg.(
      value & opt int 5 & info [ "trials" ] ~docv:"N" ~doc:"SABRE trials.")
  in
  let counts =
    Arg.(
      value
      & opt (list int) [ 5; 10; 15; 20 ]
      & info [ "counts" ] ~docv:"N,N,.." ~doc:"Designed SWAP counts.")
  in
  let full =
    Arg.(
      value & flag
      & info [ "full" ] ~doc:"Paper-scale: 10 circuits/point, 1000 trials.")
  in
  let run device circuits trials counts full seed trace =
    with_tracing trace @@ fun () ->
    let config =
      if full then Evaluation.paper_figure_config device
      else
        {
          (Evaluation.default_figure_config device) with
          circuits_per_point = circuits;
          sabre_trials = trials;
          swap_counts = counts;
          seed;
        }
    in
    let points = Evaluation.run_figure ~config device in
    Format.printf "@[<v>%a@]@." Evaluation.pp_points points;
    Format.printf "mean optimality gap per tool:@.";
    List.iter
      (fun (tool, gap) -> Format.printf "  %-12s %8.1fx@." tool gap)
      (Evaluation.tool_gap_summary points);
    0
  in
  let doc = "Reproduce one Fig.-4 panel (all tools, SWAP ratio per point)." in
  Cmd.v (Cmd.info "evaluate" ~doc)
    Term.(
      const run $ arch $ circuits $ trials $ counts $ full $ seed $ trace_arg)

(* ------------------------------------------------------------------ *)
(* campaign                                                            *)
(* ------------------------------------------------------------------ *)

let campaign_cmd =
  let circuits =
    Arg.(
      value & opt int 3
      & info [ "circuits" ] ~docv:"N" ~doc:"Instances per (device, SWAP count).")
  in
  let trials =
    Arg.(
      value & opt int 5 & info [ "trials" ] ~docv:"N" ~doc:"SABRE trials.")
  in
  let counts =
    Arg.(
      value
      & opt (list int) [ 5; 10; 15; 20 ]
      & info [ "counts" ] ~docv:"N,N,.." ~doc:"Designed SWAP counts.")
  in
  let full =
    Arg.(
      value & flag
      & info [ "full" ] ~doc:"Paper-scale: 10 circuits/point, 1000 trials.")
  in
  let jobs =
    Arg.(
      value
      & opt int (Qls_harness.Pool.recommended_jobs ())
      & info [ "j"; "jobs" ] ~docv:"N"
          ~doc:"Worker domains (default: all the machine recommends).")
  in
  let timeout =
    Arg.(
      value & opt (some float) None
      & info [ "timeout" ] ~docv:"SEC"
          ~doc:
            "Per-task wall-clock budget, a positive number of seconds; an \
             overrunning task is recorded failed and the campaign continues.")
  in
  let retries =
    Arg.(
      value & opt int 0
      & info [ "retries" ] ~docv:"N"
          ~doc:
            "Extra attempts for a task that failed with a retryable \
             (transient/timeout) error; permanent errors are never \
             retried.")
  in
  let backoff =
    Arg.(
      value & opt (some float) None
      & info [ "backoff" ] ~docv:"SEC"
          ~doc:
            "Base retry backoff: attempt n sleeps backoff*2^n seconds \
             (deterministically jittered per task) before re-running.")
  in
  let failure_budget =
    Arg.(
      value & opt (some float) None
      & info [ "failure-budget" ] ~docv:"RATE"
          ~doc:
            "Abort the campaign early when the fraction of freshly failed \
             tasks exceeds RATE (in 0..1) — a doomed sweep stops in \
             minutes; unstarted tasks are left out of the store so \
             $(b,--resume) re-runs them.")
  in
  let degrade =
    Arg.(
      value & flag
      & info [ "degrade" ]
          ~doc:
            "When a tool fails (after retries), fall back along the \
             degradation chain (exact/olsq -> sabre, qmap -> tket -> \
             sabre) and record the result as degraded — coverage is \
             kept, and degraded points stay distinguishable from the \
             tool's own results.")
  in
  let fsync =
    Arg.(
      value & flag
      & info [ "fsync" ]
          ~doc:
            "fsync the store after every append: the checkpoint survives \
             power loss, at a per-task latency cost.")
  in
  let compact =
    Arg.(
      value & flag
      & info [ "compact" ]
          ~doc:
            "After the campaign, rewrite the store dropping superseded \
             and corrupt lines (corrupt ones are preserved in \
             FILE.quarantine); the rewrite is published atomically.")
  in
  let inject =
    Arg.(
      value & opt (some string) None
      & info [ "inject" ] ~docv:"SPEC"
          ~doc:
            (Printf.sprintf
               "Arm the deterministic fault-injection plan SPEC for this \
                run (chaos testing): %s. Example: \
                seed=7;runner.exec:transient:0.3;store.append:torn:0.2"
               Qls_faults.spec_help))
  in
  let out =
    Arg.(
      value & opt (some string) None
      & info [ "o"; "out" ] ~docv:"FILE.jsonl"
          ~doc:"Append-only JSONL result store (one line per task).")
  in
  let resume =
    Arg.(
      value & opt (some string) None
      & info [ "resume" ] ~docv:"FILE.jsonl"
          ~doc:
            "Resume from this store: tasks already recorded there are \
             skipped, new results are appended to it.")
  in
  let rerun_failed =
    Arg.(
      value & flag
      & info [ "rerun-failed" ]
          ~doc:
            "With $(b,--resume), re-execute tasks the store records as \
             failed (e.g. after raising $(b,--timeout)) instead of keeping \
             their failure.")
  in
  let tools =
    Arg.(
      value
      & opt (some (list string)) None
      & info [ "tools" ] ~docv:"NAME,.."
          ~doc:
            "Override the evaluated tool set with registry names (e.g. \
             $(b,sabre,olsq)); the default is the paper's heuristic \
             quartet.")
  in
  let run device circuits trials counts full seed jobs timeout retries backoff
      failure_budget degrade fsync compact inject out resume rerun_failed tools
      trace =
    with_tracing trace @@ fun () ->
    let store =
      match (out, resume) with
      | Some o, Some r when o <> r ->
          Error
            (Printf.sprintf "--out %s conflicts with --resume %s; pass one" o r)
      | _, Some r -> Ok (Some r, true)
      | Some o, None ->
          if Sys.file_exists o then
            Error
              (Printf.sprintf
                 "%s already exists; use --resume %s to continue it or pick a \
                  new --out path"
                 o o)
          else Ok (Some o, false)
      | None, None -> Ok (None, false)
    in
    let injection =
      match inject with
      | None -> Ok Qls_faults.none
      | Some spec -> (
          match Qls_faults.parse spec with
          | Ok plan -> Ok plan
          | Error msg -> Error (Printf.sprintf "bad --inject spec: %s" msg))
    in
    let names =
      (* One validator for every entry point: the same typed error the
         library raises if a bad name slips through programmatically. *)
      match tools with
      | None -> Ok None
      | Some ns -> (
          match Evaluation.validate_tools ns with
          | () -> Ok (Some ns)
          | exception Qls_harness.Herror.Error e ->
              Error e.Qls_harness.Herror.message)
    in
    let budget =
      match timeout with
      | Some t when not (t > 0. && Float.is_finite t) ->
          Error
            (Printf.sprintf
               "--timeout must be a positive number of seconds, got %g" t)
      | _ -> Ok ()
    in
    match (store, injection, names, budget) with
    | Error msg, _, _, _ | _, Error msg, _, _ | _, _, Error msg, _
    | _, _, _, Error msg ->
        Format.eprintf "campaign: %s@." msg;
        2
    | Ok (store, do_resume), Ok plan, Ok names, Ok () ->
        if not (Qls_faults.is_none plan) then begin
          Qls_faults.install plan;
          Format.eprintf "campaign: fault injection armed: %s@."
            (Qls_faults.to_string plan)
        end;
        let config =
          if full then Evaluation.paper_figure_config device
          else
            {
              (Evaluation.default_figure_config device) with
              circuits_per_point = circuits;
              sabre_trials = trials;
              swap_counts = counts;
              seed;
            }
        in
        (* lint: nondet-source — wall-clock feeds the printed elapsed time only *)
        let t0 = Unix.gettimeofday () in
        let rows =
          Evaluation.run_campaign ?names ~jobs ?timeout ~retries ?backoff
            ?store ~resume:do_resume ~rerun_failed ~fsync ?failure_budget
            ~degrade ~progress:true ~config device
        in
        Qls_faults.clear ();
        (* lint: nondet-source — wall-clock feeds the printed elapsed time only *)
        let elapsed = Unix.gettimeofday () -. t0 in
        let failures = Qls_harness.Campaign.failures rows in
        let degraded_rows = Qls_harness.Campaign.degraded rows in
        let resumed =
          List.length
            (List.filter (fun r -> r.Qls_harness.Campaign.resumed) rows)
        in
        Format.printf
          "campaign: %d tasks (%d resumed, %d degraded, %d failed) on %d \
           worker(s) in %.1fs@."
          (List.length rows) resumed
          (List.length degraded_rows)
          (List.length failures) jobs elapsed;
        (match Qls_harness.Campaign.aborted rows with
        | Some why -> Format.eprintf "campaign aborted early: %s@." why
        | None -> ());
        List.iter
          (fun (task, d) ->
            Format.eprintf "degraded %s via %s: %s@."
              (Qls_harness.Task.id task)
              d.Qls_harness.Task.via
              (Qls_harness.Herror.to_string d.Qls_harness.Task.error))
          degraded_rows;
        List.iter
          (fun (task, err) ->
            Format.eprintf "failed %s: %s@."
              (Qls_harness.Task.id task)
              (Qls_harness.Herror.to_string err))
          failures;
        (match store with
        | Some path ->
            Format.printf "store: %s@." path;
            if compact then begin
              let stats = Qls_harness.Store.compact path in
              Format.printf
                "compacted: %d kept, %d superseded dropped, %d corrupt \
                 quarantined@."
                stats.Qls_harness.Store.kept stats.Qls_harness.Store.superseded
                stats.Qls_harness.Store.quarantined
            end
        | None -> ());
        let points = Evaluation.aggregate_campaign ?names ~config ~device rows in
        Format.printf "@[<v>%a@]@." Evaluation.pp_points points;
        Format.printf "@[<v>%a@]" Evaluation.pp_summary rows;
        Format.printf "mean optimality gap per tool:@.";
        List.iter
          (fun (tool, gap) -> Format.printf "  %-12s %8.1fx@." tool gap)
          (Evaluation.tool_gap_summary points);
        if List.is_empty points then 1 else 0
  in
  let doc =
    "Run a Fig.-4 panel as a parallel, checkpointed campaign (resumable \
     with $(b,--resume), chaos-testable with $(b,--inject))."
  in
  Cmd.v (Cmd.info "campaign" ~doc)
    Term.(
      const run $ arch $ circuits $ trials $ counts $ full $ seed $ jobs
      $ timeout $ retries $ backoff $ failure_budget $ degrade $ fsync
      $ compact $ inject $ out $ resume $ rerun_failed $ tools $ trace_arg)

(* ------------------------------------------------------------------ *)
(* study                                                               *)
(* ------------------------------------------------------------------ *)

let study_cmd =
  let circuits =
    Arg.(
      value & opt int 5
      & info [ "circuits" ] ~docv:"N" ~doc:"Instances per SWAP count.")
  in
  let counts =
    Arg.(
      value
      & opt (list int) [ 1; 2; 3; 4 ]
      & info [ "counts" ] ~docv:"N,N,.." ~doc:"Designed SWAP counts.")
  in
  let exact_method =
    Arg.(
      value
      & opt (enum [ ("sat", Certificate.Sat); ("search", Certificate.Search) ])
          Certificate.Sat
      & info [ "method" ] ~docv:"METHOD"
          ~doc:"Exact refuter: $(b,sat) (default) or $(b,search).")
  in
  let node_budget =
    Arg.(
      value & opt int 50_000_000
      & info [ "node-budget" ] ~docv:"N"
          ~doc:"Search-method budget, in search-tree nodes.")
  in
  let conflict_budget =
    Arg.(
      value & opt int 2_000_000
      & info [ "conflict-budget" ] ~docv:"N"
          ~doc:"SAT-method budget, in solver conflicts.")
  in
  let run device circuits counts exact_method node_budget conflict_budget
      seed =
    let rows =
      Evaluation.run_optimality_study ~circuits_per_count:circuits
        ~swap_counts:counts ~gate_budget:40 ~saturation_cap:1
        ~solver:exact_method ~node_budget ~conflict_budget ~seed device
    in
    Format.printf "@[<v>%a@]@." Evaluation.pp_optimality rows;
    match List.filter_map Evaluation.optimality_failure rows with
    | [] -> 0
    | failures ->
        List.iter (Format.eprintf "study: %s@.") failures;
        1
  in
  let doc = "Reproduce the optimality study (paper §IV-A)." in
  Cmd.v (Cmd.info "study" ~doc)
    Term.(
      const run $ arch $ circuits $ counts $ exact_method $ node_budget
      $ conflict_budget $ seed)

(* ------------------------------------------------------------------ *)
(* queko                                                               *)
(* ------------------------------------------------------------------ *)

let queko_cmd =
  let depth =
    Arg.(
      value & opt int 20
      & info [ "d"; "depth" ] ~docv:"N" ~doc:"Designed two-qubit depth.")
  in
  let out =
    Arg.(
      value & opt (some string) None
      & info [ "o"; "output" ] ~docv:"FILE" ~doc:"Write OpenQASM 2.0 here.")
  in
  let run device depth seed out =
    let q = Queko.generate ~seed ~depth device in
    Format.printf "queko[%s, %d 2q gates, depth %d, optimal swaps 0]@."
      (Device.name device)
      (Circuit.two_qubit_count q.Queko.circuit)
      q.Queko.optimal_depth;
    Format.printf "swap-free placement exists: %b@." (Queko.verify_swap_free q);
    (match out with
    | Some path ->
        Qasm.write_file path q.Queko.circuit;
        Format.printf "wrote %s@." path
    | None -> ());
    0
  in
  let doc = "Generate a QUEKO-style benchmark (0 SWAPs, known depth)." in
  Cmd.v (Cmd.info "queko" ~doc) Term.(const run $ arch $ depth $ seed $ out)

(* ------------------------------------------------------------------ *)
(* serve                                                               *)
(* ------------------------------------------------------------------ *)

let serve_cmd =
  let socket =
    Arg.(
      value & opt (some string) None
      & info [ "socket" ] ~docv:"PATH"
          ~doc:"Listen on this Unix-domain socket (unlinked on drain).")
  in
  let tcp =
    Arg.(
      value & opt (some int) None
      & info [ "tcp" ] ~docv:"PORT"
          ~doc:"Also listen on loopback TCP ($(i,PORT) 0 lets the kernel \
                pick; the bound port is printed on startup).")
  in
  let jobs =
    Arg.(
      value
      & opt int (Qls_harness.Pool.recommended_jobs ())
      & info [ "j"; "jobs" ] ~docv:"N"
          ~doc:
            "Worker domains routing requests. With fewer workers than \
             cores, the connection threads also parse inline circuits, on \
             a core the workers leave free.")
  in
  let queue =
    Arg.(
      value & opt int 64
      & info [ "queue" ] ~docv:"N"
          ~doc:"Admission bound: requests queued beyond the workers; when \
                full, new work is refused with a typed overloaded response.")
  in
  let cache_devices =
    Arg.(
      value & opt int 16
      & info [ "cache-devices" ] ~docv:"N"
          ~doc:"Retained devices with their APSP tables (LRU).")
  in
  let cache_instances =
    Arg.(
      value & opt int 128
      & info [ "cache-instances" ] ~docv:"N"
          ~doc:"Retained certified QUBIKOS instances (LRU).")
  in
  let cache_routes =
    Arg.(
      value & opt int 1024
      & info [ "cache-routes" ] ~docv:"N"
          ~doc:"Retained routed results (LRU).")
  in
  let request_log =
    Arg.(
      value & opt (some string) None
      & info [ "request-log" ] ~docv:"FILE"
          ~doc:"Append one CRC-sealed JSONL line per completed request.")
  in
  let default_deadline =
    Arg.(
      value & opt int 0
      & info [ "default-deadline" ] ~docv:"MS"
          ~doc:
            "Wall-clock budget applied to route/evaluate/certify requests \
             that carry no deadline_ms of their own; expired requests get a \
             typed deadline_exceeded response. 0 means no default.")
  in
  let io_timeout =
    Arg.(
      value & opt float 30.
      & info [ "io-timeout" ] ~docv:"SECS"
          ~doc:
            "Per-frame socket budget: a request frame must arrive whole \
             within this of its first byte (slow-loris reaping), and \
             response writes use it as the send timeout. 0 disables.")
  in
  let idle_timeout =
    Arg.(
      value & opt float 300.
      & info [ "idle-timeout" ] ~docv:"SECS"
          ~doc:
            "Reap a connection silent this long between frames. 0 keeps \
             idle connections forever.")
  in
  let hang_threshold =
    Arg.(
      value & opt float 30.
      & info [ "hang-threshold" ] ~docv:"SECS"
          ~doc:
            "Watchdog: a worker whose request heartbeat goes quiet this \
             long is declared lost — the request is answered with a typed \
             internal response and a replacement domain restores capacity. \
             0 disables supervision.")
  in
  let inject =
    Arg.(
      value & opt (some string) None
      & info [ "inject" ] ~docv:"SPEC"
          ~doc:
            (Printf.sprintf
               "Arm the deterministic fault-injection plan SPEC for this \
                daemon (chaos testing): %s. Serve sites: serve.frame.read, \
                serve.work.hang, serve.work.exn, serve.log.append."
               Qls_faults.spec_help))
  in
  let run socket tcp jobs queue cache_devices cache_instances cache_routes
      request_log default_deadline io_timeout idle_timeout hang_threshold
      inject trace =
    if Option.is_none socket && Option.is_none tcp then begin
      Format.eprintf "serve: pass --socket PATH and/or --tcp PORT@.";
      2
    end
    else begin
      let injection =
        match inject with
        | None -> Ok Qls_faults.none
        | Some spec -> (
            match Qls_faults.parse spec with
            | Ok plan -> Ok plan
            | Error msg -> Error (Printf.sprintf "bad --inject spec: %s" msg))
      in
      match injection with
      | Error msg ->
          Format.eprintf "serve: %s@." msg;
          2
      | Ok plan ->
          if not (Qls_faults.is_none plan) then begin
            Qls_faults.install plan;
            Format.eprintf "serve: fault injection armed: %s@."
              (Qls_faults.to_string plan)
          end;
          with_tracing trace @@ fun () ->
          let opt_pos v = if v > 0. then Some v else None in
          let server =
            Qls_serve.Server.create
              {
                socket_path = socket;
                tcp_port = tcp;
                jobs;
                queue_capacity = queue;
                device_cache = cache_devices;
                instance_cache = cache_instances;
                route_cache = cache_routes;
                request_log;
                default_deadline_ms =
                  (if default_deadline > 0 then Some default_deadline
                   else None);
                io_timeout = opt_pos io_timeout;
                idle_timeout = opt_pos idle_timeout;
                hang_threshold = opt_pos hang_threshold;
              }
          in
          Qls_serve.Server.install_signal_handlers server;
          Option.iter (Format.printf "serve: listening on %s@.") socket;
          Option.iter
            (Format.printf "serve: listening on 127.0.0.1:%d@.")
            (Qls_serve.Server.bound_tcp_port server);
          Format.printf "serve: %d worker(s), queue %d; SIGTERM drains@." jobs
            queue;
          Qls_serve.Server.run server;
          Format.printf "serve: drained@.";
          0
    end
  in
  let doc = "Run the routing-as-a-service daemon (see DESIGN.md \xc2\xa712)." in
  Cmd.v (Cmd.info "serve" ~doc)
    Term.(
      const run $ socket $ tcp $ jobs $ queue $ cache_devices
      $ cache_instances $ cache_routes $ request_log $ default_deadline
      $ io_timeout $ idle_timeout $ hang_threshold $ inject $ trace_arg)

(* ------------------------------------------------------------------ *)
(* devices                                                             *)
(* ------------------------------------------------------------------ *)

let devices_cmd =
  let run () =
    List.iter
      (fun d ->
        Format.printf "%-10s %4d qubits, %4d couplers, diameter %2d, max degree %d@."
          (Device.name d) (Device.n_qubits d) (Device.n_edges d)
          (Device.diameter d) (Device.max_degree d))
      (Topologies.all_paper_devices ()
      @ [ Topologies.falcon27 (); Topologies.grid 3 3 ]);
    Format.printf "parametric: line<n>, ring<n>, grid<r>x<c>, heavyhex<d>@.";
    0
  in
  let doc = "List the known architectures." in
  Cmd.v (Cmd.info "devices" ~doc) Term.(const run $ const ())

let () =
  let doc = "QUBIKOS: quantum layout synthesis benchmarks with known optimal SWAP counts." in
  let info = Cmd.info "qubikos" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval'
       (Cmd.group info
          [
            generate_cmd; verify_cmd; route_cmd; evaluate_cmd; campaign_cmd;
            study_cmd; queko_cmd; serve_cmd; devices_cmd;
          ]))
