(* perfbench: the repository's end-to-end benchmark.

     main.exe --workload fig4|study|serve-cold --seed N --seconds S
              --trace 0|1 [--server PATH] [--setup-only]

   Runs one workload from outside the program, through the public
   functions of lib/core, lib/router, lib/layout and lib/harness and the
   serve wire protocol, and checks every op. The last line of standard
   output is one JSON object {correct, attempted, failed, metrics}: the
   end-to-end metrics with --trace 0, the per-layer metrics with
   --trace 1. Exit code 1 means an op failed its check, 2 a usage error.
   With --setup-only it times one cold set-up of the workload, prints
   "setup_s <seconds>" and exits; an untraced run starts such processes
   to time set-up repeatedly. README.md in this directory gives each
   workload's rationale and the end-to-end metric each layer metric
   should move. *)

module Stats = Perfbench_stats.Stats
module Topologies = Qls_arch.Topologies
module Circuit = Qls_circuit.Circuit
module Qasm = Qls_circuit.Qasm
module Router = Qls_router.Router
module Registry = Qls_router.Registry
module Olsq = Qls_router.Olsq
module Verifier = Qls_layout.Verifier
module Task = Qls_harness.Task
module Campaign = Qls_harness.Campaign
module Benchmark = Qubikos.Benchmark
module Generator = Qubikos.Generator
module Certificate = Qubikos.Certificate
module Evaluation = Qubikos.Evaluation
module Protocol = Qls_serve.Protocol

let now = Unix.gettimeofday
let run_dir = ".perfbench-run"
let run_file name = Filename.concat run_dir name

(* setup_s is the median of this many cold set-ups: the run's own, and
   the rest in fresh processes of this program (--setup-only), spread
   over the timed window and kept out of its timing, so that they sample
   the machine's slow and fast stretches as the window does. *)
let setup_reps = 9

(* Set-up instances are fixed whatever the seed: every run does the same
   set-up work. Their pass numbers are negative, and timed ops draw from
   passes 0 and up. *)
let setup_seed = 0

(* A window measures past --seconds until p90 has ten samples beyond
   it, and stops at [overrun] times --seconds whatever it holds. *)
let min_ops = Stats.min_samples 0.9
let overrun = 3.0

let device_of name =
  match Topologies.by_name name with
  | Some d -> d
  | None -> invalid_arg ("perfbench: unknown device " ^ name)

let tool_of ?seed ~trials name =
  match Registry.by_name ~sabre_trials:trials ?seed name with
  | Some t -> t
  | None -> invalid_arg ("perfbench: unknown tool " ^ name)

(* Router.run_verified as its two calls, so that a traced run times
   routing and verification apart. *)
let route_verified tool device circuit =
  let routed =
    Spans.span ("router." ^ tool.Router.name) (fun () ->
        tool.Router.route device circuit)
  in
  Spans.span "layout.verify" (fun () -> Verifier.check_exn routed)

(* A fixed integer loop, timed before and after each run, as a record of
   the machine's state. It does not track every slow stretch (README.md,
   "Noise"), so no metric is scaled by it. *)
let calibration_ms () =
  let t0 = now () in
  let x = ref 0 in
  for i = 1 to 20_000_000 do
    x := ((!x * 31) + i) land 0xffffff
  done;
  ignore (Sys.opaque_identity !x);
  (now () -. t0) *. 1000.

let vm_hwm_mb pid =
  In_channel.with_open_text (Printf.sprintf "/proc/%s/status" pid) (fun ic ->
      let rec find () =
        match In_channel.input_line ic with
        | None -> failwith "perfbench: no VmHWM in /proc status"
        | Some line -> (
            match Scanf.sscanf_opt line "VmHWM: %d kB" Fun.id with
            | Some kb -> float_of_int kb /. 1024.
            | None -> find ())
      in
      find ())

(* ------------------------------------------------------------------ *)
(* Windows                                                              *)
(* ------------------------------------------------------------------ *)

(* What one stretch of ops saw. Lists are newest first; [gaps] has one
   entry per successful op: its index in the window and its SWAPs over
   the certified optimum. [paused_s] is time spent on cold set-ups
   inside the window, which its timing leaves out. *)
type window = {
  mutable ops : int;
  mutable failed : int;
  mutable lat_ms : float list;
  mutable gaps : (int * float) list;
  mutable swaps : int;
  mutable t0 : float;
  mutable paused_s : float;
  mutable wall_s : float;
}

let window () =
  {
    ops = 0;
    failed = 0;
    lat_ms = [];
    gaps = [];
    swaps = 0;
    t0 = now ();
    paused_s = 0.0;
    wall_s = 0.0;
  }

let elapsed w = now () -. w.t0 -. w.paused_s

let record w ~start = w.lat_ms <- ((now () -. start) *. 1000.) :: w.lat_ms

let fail w fmt =
  Printf.ksprintf
    (fun msg ->
      w.failed <- w.failed + 1;
      Printf.eprintf "perfbench: FAILED %s\n%!" msg)
    fmt

(* A routed result below the certified optimum would falsify the
   certificate: a failure, never a data point. *)
let check_swaps w ~index ~what ~swaps ~optimal =
  if swaps < optimal then
    fail w "%s: %d SWAPs, below the certified optimum %d" what swaps optimal
  else begin
    w.swaps <- w.swaps + swaps;
    w.gaps <- (index, float_of_int swaps /. float_of_int optimal) :: w.gaps
  end

(* Runs [step] until --seconds are up and the window holds [min_ops]
   ops, or until the overrun cap. *)
let measure ~seconds w step =
  w.t0 <- now ();
  let rec go () =
    let e = elapsed w in
    if (e >= seconds && w.ops >= min_ops) || e >= overrun *. seconds then
      w.wall_s <- e
    else begin
      step ();
      go ()
    end
  in
  go ()

(* ------------------------------------------------------------------ *)
(* Set-up                                                               *)
(* ------------------------------------------------------------------ *)

let setup_only = ref false

(* The argv of a --setup-only run of this program; None when the run
   reports no setup_s. *)
let setup_child : string array option ref = ref None
let setup_times = ref []
let setups_started = ref 0

(* Cold set-ups in child processes: one op each in their own window. *)
let cold = window ()

(* Times the workload's set-up. A --setup-only process prints the time,
   hands the state to [release] and exits. *)
let set_up ?(release = ignore) warm f =
  let t0 = now () in
  let state = f () in
  let dt = now () -. t0 in
  incr setups_started;
  setup_times := [ dt ];
  if !setup_only then begin
    release state;
    Printf.printf "setup_s %.9f\n%!" dt;
    exit (if warm.failed = 0 then 0 else 1)
  end;
  state

let cold_setup argv =
  incr setups_started;
  cold.ops <- cold.ops + 1;
  let ic = Unix.open_process_args_in argv.(0) argv in
  let out = In_channel.input_all ic in
  match (Unix.close_process_in ic, Scanf.sscanf_opt out "setup_s %f" Fun.id) with
  | Unix.WEXITED 0, Some s -> setup_times := s :: !setup_times
  | _ -> fail cold "cold set-up %d: %s" !setups_started (String.trim out)

(* Runs the cold set-ups due once [progress] of the window is done, and
   keeps their time out of [w]'s. Progress 1 runs every one left. *)
let between w progress =
  match !setup_child with
  | None -> ()
  | Some argv ->
      while
        !setups_started < setup_reps
        && progress *. float_of_int setup_reps >= float_of_int !setups_started
      do
        let t0 = now () in
        cold_setup argv;
        w.paused_s <- w.paused_s +. (now () -. t0)
      done

type run = {
  warm : window;  (** set-up ops: checked, not measured *)
  plain : window;  (** the untraced window *)
  traced : window option;  (** the traced window of a --trace 1 run *)
  rss_mb : float;
  gap_ops : int;  (** swap_gap_geomean covers ops of index below this *)
  layers : (string * float) list;  (** per-layer values the workload measured *)
}

let counter_names =
  [ "router.rounds"; "router.gates"; "sat.conflicts"; "sat.learned"; "sat.restarts" ]

let counters () =
  List.map (fun n -> Qls_obs.counter_value (Qls_obs.counter n)) counter_names

(* Per-op deltas of the library's always-on counters. *)
let counter_layers ~ops before after =
  List.map2
    (fun name (b, a) -> (name, float_of_int (a - b) /. float_of_int ops))
    counter_names (List.combine before after)

(* Time inside an "op" span but inside no layer span. *)
let span_accounting ~ops =
  let op = Spans.total "op" in
  [
    ("unattributed.ms", 1000. *. op.Spans.self_s /. float_of_int ops);
    ("trace.coverage_ratio", 1. -. (op.Spans.self_s /. Spans.root_seconds ()));
  ]

let with_spans f =
  Spans.enabled := true;
  Fun.protect f ~finally:(fun () -> Spans.enabled := false)

(* ------------------------------------------------------------------ *)
(* fig4: the paper's Fig. 4 tool evaluation through Campaign.run        *)
(* ------------------------------------------------------------------ *)

(* Eagle is left out: its eight qmap tasks took 57% of a 128-task pass
   and their times varied 3x between instances, so one pass per run
   spread 25-35% from seed to seed. *)
let fig4_devices = [ "aspen4"; "sycamore"; "rochester" ]

let fig4_config device ~base_seed =
  {
    (Evaluation.default_figure_config device) with
    Evaluation.circuits_per_point = 2;
    seed = base_seed;
  }

(* One pass is the default-scale Fig. 4 grid for one base seed: per
   device, SWAP counts 5/10/15/20 x 2 circuits x the four paper tools,
   96 tasks. A chunk is the four tool tasks of one instance, run as one
   Campaign.run. Chunks are interleaved so that every three consecutive
   ones cover all three devices: the first 100 ops, and a window cut
   short by the overrun cap, sample the grid evenly. *)
let fig4_pass devices ~base_seed =
  let per_device =
    List.map
      (fun device ->
        let config = fig4_config device ~base_seed in
        let tasks = Evaluation.campaign_tasks ~config device in
        let chunk n_swaps circuit =
          ( device,
            List.filter
              (fun (t : Task.t) ->
                t.Task.n_swaps = n_swaps && t.Task.circuit = circuit)
              tasks )
        in
        (Array.of_list config.Evaluation.swap_counts, chunk))
      devices
  in
  List.concat_map
    (fun circuit ->
      List.concat_map
        (fun k ->
          List.mapi
            (fun d (counts, chunk) ->
              chunk counts.((k + d) mod Array.length counts) circuit)
            per_device)
        [ 0; 1; 2; 3 ])
    [ 0; 1 ]

(* Set-up: per device, one fixed instance at a fifth of the paper gate
   budget, generated, certified and routed by all four tools. Its SWAP
   count, 3, lies outside the timed grid, so no timed task can hit its
   entry in Evaluation.instance_cache. *)
let fig4_setup_chunks devices =
  List.map
    (fun device ->
      let paper = fig4_config device ~base_seed:0 in
      let config =
        {
          paper with
          Evaluation.swap_counts = [ 3 ];
          circuits_per_point = 1;
          gate_budget = paper.Evaluation.gate_budget / 5;
          seed = Stats.pass_seed ~seed:setup_seed ~pass:(-1);
        }
      in
      (device, Evaluation.campaign_tasks ~config device))
    devices

(* Sabre.route forces its module-level lazy counters as each trial ends.
   In a fresh process, parallel trials that get there together race on
   the first force, and one fails with CamlinternalLazy.Undefined. A
   single-trial route runs inline and forces them on this domain first. *)
let force_sabre_counters device =
  let config =
    {
      Generator.default_config with
      Generator.n_swaps = 1;
      gate_budget = 0;
      seed = setup_seed;
    }
  in
  let bench = Generator.generate ~config device in
  ignore ((tool_of ~trials:1 "sabre").Router.route device bench.Benchmark.circuit)

(* Evaluation.campaign_exec made as separate calls, one span per layer:
   generate and certify once per instance, then route and verify. *)
let fig4_traced_exec instances device (task : Task.t) =
  Spans.span "op" (fun () ->
      let key = Task.id { task with Task.tool = "" } in
      let bench =
        match Hashtbl.find_opt instances key with
        | Some bench -> bench
        | None ->
            let config =
              {
                Generator.default_config with
                Generator.n_swaps = task.Task.n_swaps;
                gate_budget = task.Task.gate_budget;
                single_qubit_ratio = task.Task.single_qubit_ratio;
                seed = Task.circuit_seed task;
              }
            in
            let bench =
              Spans.span "core.generate" (fun () ->
                  Generator.generate ~config device)
            in
            Spans.span "core.certify" (fun () -> Certificate.check_exn bench);
            Hashtbl.replace instances key bench;
            bench
      in
      let tool =
        tool_of ~seed:(Task.rng_seed task) ~trials:task.Task.sabre_trials
          task.Task.tool
      in
      let t0 = now () in
      let report = route_verified tool device bench.Benchmark.circuit in
      {
        Task.swaps = report.Verifier.swap_count;
        seconds = now () -. t0;
        attempts = 1;
      })

(* One chunk through Campaign.run with one job and a store. An op's
   latency runs from the previous task's report (or the call) to its
   own, so it includes the runner, the store append and the progress
   update. *)
let fig4_chunk ~store ~exec w (device, tasks) =
  let last = ref (now ()) in
  let report _ =
    record w ~start:!last;
    last := now ()
  in
  let config =
    {
      (Campaign.default_config ()) with
      Campaign.jobs = 1;
      store_path = Some store;
      report = Some report;
    }
  in
  let rows =
    Spans.span "harness.campaign" (fun () ->
        Campaign.run config ~exec:(exec device) tasks)
  in
  List.iter
    (fun (row : Campaign.row) ->
      let index = w.ops in
      w.ops <- w.ops + 1;
      let task = row.Campaign.task in
      let what = Task.id task in
      match row.Campaign.status with
      | Task.Done o ->
          check_swaps w ~index ~what ~swaps:o.Task.swaps
            ~optimal:task.Task.n_swaps
      | Task.Degraded _ -> fail w "%s: degraded" what
      | Task.Failed e -> fail w "%s: %s" what (Qls_harness.Herror.to_string e))
    rows

let fig4 ~seed ~seconds ~trace =
  let store = run_file (Printf.sprintf "fig4-%d.jsonl" (Unix.getpid ())) in
  if Sys.file_exists store then Sys.remove store;
  let plain_exec device task = Evaluation.campaign_exec ~device task in
  let warm = window () in
  let devices =
    set_up warm
      ~release:(fun _ -> Sys.remove store)
      (fun () ->
        let devices = List.map device_of fig4_devices in
        force_sabre_counters (List.hd devices);
        List.iter
          (fig4_chunk ~store ~exec:plain_exec warm)
          (fig4_setup_chunks devices);
        devices)
  in
  (* Windows end on whole passes, so every run times whole grids: task
     costs span three orders of magnitude, and a window cut mid-pass
     would time a different mix whenever the code sped up. An untraced
     run measures passes until --seconds and [min_ops] are reached; a
     traced run times pass 0 once untraced and once traced, so that both
     windows time the same grid. Cold set-ups run between chunks, spread
     over the two passes an untraced window usually holds. *)
  let chunks_per_pass = List.length (fig4_pass devices ~base_seed:0) in
  let run_window ~exec =
    let w = window () in
    let chunks = ref 0 in
    let pass p =
      List.iter
        (fun chunk ->
          fig4_chunk ~store ~exec w chunk;
          incr chunks;
          between w (float_of_int !chunks /. float_of_int (2 * chunks_per_pass)))
        (fig4_pass devices ~base_seed:(Stats.pass_seed ~seed ~pass:p))
    in
    if trace then begin
      w.t0 <- now ();
      pass 0;
      w.wall_s <- elapsed w
    end
    else begin
      let next = ref 0 in
      measure ~seconds w (fun () ->
          pass !next;
          incr next)
    end;
    w
  in
  let plain = run_window ~exec:plain_exec in
  let traced, layers =
    if not trace then (None, [])
    else begin
      let instances = Hashtbl.create 64 in
      let before = counters () in
      let w =
        with_spans (fun () -> run_window ~exec:(fig4_traced_exec instances))
      in
      ( Some w,
        counter_layers ~ops:w.ops before (counters ())
        @ [ ("router.swaps", float_of_int w.swaps /. float_of_int w.ops) ]
        @ span_accounting ~ops:w.ops )
    end
  in
  (* Two whole passes: the gap then covers the same grid cells on every
     run. *)
  let gap_ops =
    2 * List.length (List.concat_map snd (fig4_pass devices ~base_seed:0))
  in
  Sys.remove store;
  { warm; plain; traced; rss_mb = vm_hwm_mb "self"; gap_ops; layers }

(* ------------------------------------------------------------------ *)
(* study: the paper's section IV-A optimality confirmation              *)
(* ------------------------------------------------------------------ *)

let study_gates = 30

(* (device, designed SWAP count), cycled op by op. *)
let study_cells =
  [| ("aspen4", 3); ("grid3x3", 3); ("aspen4", 4); ("grid3x3", 4) |]

type sat_tally = { mutable checks : int; mutable decided : int }

(* One op: Generator.generate, then Certificate.check_exact, which is
   the structural certificate and a SAT refutation of n - 1 SWAPs. The
   traced run makes the same calls one by one. *)
let study_op ~seed ~traced ~sat w devices index =
  let cells = Array.length study_cells in
  let name, n_swaps = study_cells.(((index mod cells) + cells) mod cells) in
  let device = List.assoc name devices in
  let config =
    {
      Generator.default_config with
      Generator.n_swaps;
      gate_budget = study_gates;
      saturation_cap = 1;
      seed = Stats.pass_seed ~seed ~pass:index;
    }
  in
  let t0 = now () in
  let verdict =
    try
      if not traced then begin
        let r = Certificate.check_exact (Generator.generate ~config device) in
        Ok (r.Certificate.certified, r.Certificate.exact_agrees)
      end
      else
        Ok
          (Spans.span "op" (fun () ->
               let bench =
                 Spans.span "core.generate" (fun () ->
                     Generator.generate ~config device)
               in
               let certified =
                 Result.is_ok
                   (Spans.span "core.certify" (fun () ->
                        Certificate.check bench))
               in
               let refutation =
                 Spans.span "sat.olsq" (fun () ->
                     Olsq.check
                       ~swaps:(bench.Benchmark.optimal_swaps - 1)
                       device bench.Benchmark.circuit)
               in
               ( certified,
                 match refutation with
                 | Olsq.Infeasible -> Some true
                 | Olsq.Feasible _ -> Some false
                 | Olsq.Unknown -> None )))
    with e -> Error (Printexc.to_string e)
  in
  record w ~start:t0;
  let op = w.ops in
  w.ops <- w.ops + 1;
  let what =
    Printf.sprintf "study %s n=%d seed=%d" name n_swaps config.Generator.seed
  in
  match verdict with
  | Error msg -> fail w "%s: %s" what msg
  | Ok (certified, agrees) -> (
      sat.checks <- sat.checks + 1;
      if Option.is_some agrees then sat.decided <- sat.decided + 1;
      match (certified, agrees) with
      | true, Some true ->
          (* The designed schedule's SWAPs over the SAT-proven lower
             bound: exactly 1 whenever the refutation holds. *)
          w.gaps <- (op, 1.0) :: w.gaps
      | _ ->
          fail w "%s: certified %b, exact solver %s" what certified
            (match agrees with
            | Some true -> "agrees"
            | Some false -> "found a cheaper solution"
            | None -> "ran out of budget"))

(* Set-up: this many fixed ops, two per cell. *)
let study_setup_ops = 2 * Array.length study_cells

let study ~seed ~seconds ~trace =
  let warm = window () in
  let sat = { checks = 0; decided = 0 } in
  let devices =
    set_up warm (fun () ->
        let devices =
          List.map (fun n -> (n, device_of n)) [ "aspen4"; "grid3x3" ]
        in
        for k = 1 to study_setup_ops do
          study_op ~seed:setup_seed ~traced:false ~sat warm devices (-k)
        done;
        devices)
  in
  let run_window ~traced ~first ~seconds =
    let w = window () in
    let next = ref first in
    measure ~seconds w (fun () ->
        study_op ~seed ~traced ~sat w devices !next;
        incr next;
        between w (elapsed w /. seconds));
    w
  in
  let seconds = if trace then seconds /. 2. else seconds in
  let plain = run_window ~traced:false ~first:0 ~seconds in
  let traced, layers =
    if not trace then (None, [])
    else begin
      sat.checks <- 0;
      sat.decided <- 0;
      let before = counters () in
      let w =
        with_spans (fun () ->
            run_window ~traced:true ~first:1_000_000 ~seconds)
      in
      ( Some w,
        counter_layers ~ops:w.ops before (counters ())
        @ [
            ( "sat.decided_ratio",
              float_of_int sat.decided /. float_of_int (max 1 sat.checks) );
          ]
        @ span_accounting ~ops:w.ops )
    end
  in
  { warm; plain; traced; rss_mb = vm_hwm_mb "self"; gap_ops = min_ops; layers }

(* ------------------------------------------------------------------ *)
(* serve-cold: qubikos serve on distinct inline circuits                *)
(* ------------------------------------------------------------------ *)

let serve_gates = 1200
let serve_swaps = [| 3; 4; 5; 6 |]
let serve_bases = 32
let serve_trials = 1
let serve_clients = 2
let serve_warmups = 2
let serve_slices = 10

(* Requests swap_gap_geomean covers: a 20 s window completes over 1500. *)
let serve_gap_ops = 800

type daemon = { pid : int; socket : string }

let live_daemons = ref []

(* [traced] adds the daemon's --trace spans and --request-log, at
   [tag].trace.jsonl and [tag].requests.jsonl. *)
let spawn_daemon ~server ~tag ~traced =
  let socket = run_file (tag ^ ".sock") in
  if Sys.file_exists socket then Sys.remove socket;
  let log =
    Unix.openfile
      (run_file (tag ^ ".log"))
      [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ]
      0o644
  in
  let trace_args =
    if not traced then []
    else
      List.concat_map
        (fun (flag, suffix) ->
          let path = run_file (tag ^ suffix) in
          if Sys.file_exists path then Sys.remove path;
          [ flag; path ])
        [ ("--trace", ".trace.jsonl"); ("--request-log", ".requests.jsonl") ]
  in
  let argv =
    [ server; "serve"; "--socket"; socket; "--jobs"; "1"; "--queue"; "8" ]
    @ trace_args
  in
  let pid = Unix.create_process server (Array.of_list argv) Unix.stdin log log in
  Unix.close log;
  live_daemons := pid :: !live_daemons;
  let rec wait tries =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.connect fd (Unix.ADDR_UNIX socket) with
    | () -> Unix.close fd
    | exception Unix.Unix_error _ when tries > 0 ->
        Unix.close fd;
        Unix.sleepf 0.005;
        wait (tries - 1)
  in
  wait 2000;
  { pid; socket }

let stop_daemon d =
  Unix.kill d.pid Sys.sigterm;
  let _, status = Unix.waitpid [] d.pid in
  live_daemons := List.filter (fun p -> p <> d.pid) !live_daemons;
  match status with Unix.WEXITED 0 -> true | _ -> false

let kill_live_daemons () =
  List.iter
    (fun pid ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
    !live_daemons

type conn = { ic : in_channel; oc : out_channel }

let connect socket =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX socket);
  { ic = Unix.in_channel_of_descr fd; oc = Unix.out_channel_of_descr fd }

let rpc c payload =
  Protocol.write_frame c.oc payload;
  match Protocol.read_frame c.ic with
  | Some resp -> resp
  | None -> failwith "daemon closed the connection"

let field resp key = List.assoc_opt key (Qls_sealed.fields_of_line resp)

(* The certified base instances of one set-up. *)
let serve_bases_of aspen ~seed =
  Array.init serve_bases (fun b ->
      let config =
        {
          Generator.default_config with
          Generator.n_swaps = serve_swaps.(b mod Array.length serve_swaps);
          gate_budget = serve_gates;
          seed = Stats.pass_seed ~seed ~pass:(-1_000_000 - b);
        }
      in
      let bench =
        Spans.span "core.generate" (fun () -> Generator.generate ~config aspen)
      in
      Spans.span "core.certify" (fun () -> Certificate.check_exn bench);
      bench)

(* Request [index]'s circuit: a base instance with its program qubits
   renamed by a permutation drawn from the index's seed. Renaming maps
   every routing of one circuit onto a routing of the other with the
   same SWAPs, so the base's certified optimum holds unchanged, while
   the QASM text, and with it every cache key, is new. *)
let serve_circuit bases ~seed index =
  let bench = bases.(abs index mod Array.length bases) in
  let circuit = bench.Benchmark.circuit in
  let n = Circuit.n_qubits circuit in
  let perm = Array.init n Fun.id in
  let rng = Random.State.make [| Stats.pass_seed ~seed ~pass:index |] in
  for i = n - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = perm.(i) in
    perm.(i) <- perm.(j);
    perm.(j) <- t
  done;
  ( Qasm.to_string (Circuit.map_qubits (fun q -> perm.(q)) circuit ~n_qubits:n),
    bench.Benchmark.optimal_swaps )

let route_request ~id qasm =
  Printf.sprintf
    {|{"id":"%d","verb":"route","arch":"aspen4","tool":"sabre","trials":%d,"qasm":"%s"}|}
    id serve_trials (Qls_sealed.escape qasm)

type sample = { index : int; rtt_s : float; resp : string }

(* [serve_clients] closed-loop clients, each on its own connection, take
   request indices from [next] until the slice closes. A client builds
   its next request's QASM outside the timed round trip, while the other
   client's request keeps the daemon busy. *)
let serve_slice ~socket ~circuit ~next ~seconds w =
  let t0 = now () in
  let results = Array.make serve_clients (Ok []) in
  let client slot () =
    results.(slot) <-
      (try
         let c = connect socket in
         let rec loop acc =
           if now () -. t0 >= seconds then acc
           else begin
             let i = Atomic.fetch_and_add next 1 in
             let request = route_request ~id:i (fst (circuit i)) in
             let t = now () in
             let resp = rpc c request in
             loop ({ index = i; rtt_s = now () -. t; resp } :: acc)
           end
         in
         let samples = loop [] in
         close_in c.ic;
         Ok samples
       with e -> Error (Printexc.to_string e))
  in
  let threads =
    List.init serve_clients (fun slot -> Thread.create (client slot) ())
  in
  List.iter Thread.join threads;
  w.wall_s <- w.wall_s +. (now () -. t0);
  let samples =
    List.concat_map
      (function
        | Ok samples -> samples
        | Error msg ->
            fail w "serve client: %s" msg;
            [])
      (Array.to_list results)
  in
  List.iter
    (fun s ->
      w.ops <- w.ops + 1;
      w.lat_ms <- (s.rtt_s *. 1000.) :: w.lat_ms)
    samples;
  samples

(* The timed window is cut into [serve_slices] slices, each followed by
   [check] of its own requests. The daemon idles during the checks, so
   the measured seconds spread over about twice their length of wall
   time and average over more of a shared machine's slow and fast
   stretches. Cold set-ups run there too. Request indices run on from
   [first]. *)
let serve_window ~socket ~circuit ~first ~seconds ~check =
  let w = window () in
  let next = Atomic.make first in
  let slice_s = seconds /. float_of_int serve_slices in
  let rec go k acc =
    if k > serve_slices then acc
    else begin
      let samples = serve_slice ~socket ~circuit ~next ~seconds:slice_s w in
      check w samples;
      between w (float_of_int k /. float_of_int serve_slices);
      go (k + 1) (samples @ acc)
    end
  in
  let samples = go 1 [] in
  (w, samples)

(* Every timed request must miss every cache. *)
let check_cold w d =
  let c = connect d.socket in
  let stats = rpc c {|{"verb":"stats"}|} in
  close_in c.ic;
  let get key =
    Option.value ~default:(-1) (Option.bind (field stats key) int_of_string_opt)
  in
  let route_hits = get "route_hits" and instance_hits = get "instance_hits" in
  if route_hits <> 0 || instance_hits <> 0 then
    fail w "daemon reports %d route and %d instance cache hits" route_hits
      instance_hits;
  (route_hits, get "route_misses")

(* Each response against Router.run_verified of the same circuit in
   this process, outside the timed window. *)
let offline_check aspen ~circuit w samples =
  let tool = tool_of ~trials:serve_trials "sabre" in
  List.iter
    (fun s ->
      let qasm, optimal = circuit s.index in
      let report = route_verified tool aspen (Qasm.of_string qasm) in
      let swaps = report.Verifier.swap_count
      and depth = report.Verifier.depth in
      let what = Printf.sprintf "serve request %d" s.index in
      let int key = Option.bind (field s.resp key) int_of_string_opt in
      match (field s.resp "ok", int "swaps", int "depth") with
      | Some "true", Some rs, Some rd when rs = swaps && rd = depth ->
          check_swaps w ~index:s.index ~what ~swaps ~optimal
      | Some "true", Some rs, Some rd ->
          fail w "%s: daemon routed %d SWAPs at depth %d, offline %d at %d"
            what rs rd swaps depth
      | _ -> fail w "%s: %s" what s.resp)
    samples

let serve_cold ~server ~seed ~seconds ~trace =
  let aspen = device_of "aspen4" in
  let tag = Printf.sprintf "serve-%d" (Unix.getpid ()) in
  let warm = window () in
  let warm_up d bases ~first =
    let c = connect d.socket in
    for k = 0 to serve_warmups - 1 do
      let index = first - k in
      let qasm, _ = serve_circuit bases ~seed index in
      warm.ops <- warm.ops + 1;
      let resp = rpc c (route_request ~id:index qasm) in
      if field resp "ok" <> Some "true" then
        fail warm "serve warm-up %d: %s" index resp
    done;
    close_in c.ic
  in
  let d, bases =
    set_up warm
      ~release:(fun (d, _) -> ignore (stop_daemon d))
      (fun () ->
        (* A traced run times set-up's generate and certify. *)
        Spans.enabled := trace;
        let d = spawn_daemon ~server ~tag ~traced:false in
        let bases = serve_bases_of aspen ~seed in
        warm_up d bases ~first:(-1);
        Spans.enabled := false;
        (d, bases))
  in
  let circuit = serve_circuit bases ~seed in
  let seconds = if trace then seconds /. 2. else seconds in
  let check = offline_check aspen ~circuit in
  let plain, _ = serve_window ~socket:d.socket ~circuit ~first:0 ~seconds ~check in
  ignore (check_cold plain d);
  let rss_mb = vm_hwm_mb (string_of_int d.pid) in
  if not (stop_daemon d) then fail plain "daemon did not exit 0 on SIGTERM";
  let traced, layers =
    if not trace then (None, [])
    else begin
      (* A second daemon, cold again, with its own --trace spans and
         request log. *)
      let traced_tag = tag ^ "-traced" in
      let d = spawn_daemon ~server ~tag:traced_tag ~traced:true in
      warm_up d bases ~first:(-1000);
      let first = 1_000_000 in
      let before = counters () in
      let w, samples =
        serve_window ~socket:d.socket ~circuit ~first ~seconds
          ~check:(fun w samples -> with_spans (fun () -> check w samples))
      in
      let hits, misses = check_cold w d in
      if not (stop_daemon d) then fail w "daemon did not exit 0 on SIGTERM";
      let n = List.length samples in
      let mean xs = List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs) in
      let rtt = mean (List.map (fun s -> s.rtt_s) samples) in
      let compute =
        mean
          (List.map
             (fun s ->
               Option.fold ~none:0.0 ~some:float_of_string (field s.resp "seconds"))
             samples)
      in
      let log_path = run_file (traced_tag ^ ".requests.jsonl")
      and trace_path = run_file (traced_tag ^ ".trace.jsonl") in
      let log_lines = In_channel.with_open_text log_path In_channel.input_lines in
      let spans, _ = Qls_obs.load_jsonl trace_path in
      List.iter Sys.remove [ log_path; trace_path ];
      (* The request log's receipt-to-write time of each timed request. *)
      let received =
        List.filter_map
          (fun line ->
            let f =
              Option.fold ~none:[] ~some:Qls_sealed.fields_of_line
                (Qls_sealed.unseal_ok line)
            in
            let id = Option.bind (List.assoc_opt "id" f) int_of_string_opt in
            match (List.assoc_opt "verb" f, id, List.assoc_opt "micros" f) with
            | Some "route", Some id, Some us when id >= first ->
                Some (float_of_string us /. 1e6)
            | _ -> None)
          log_lines
      in
      (* The serve.request spans inside the pool worker, less the
         warm-ups'. *)
      let in_worker =
        List.filter (fun r -> String.equal r.Qls_obs.r_name "serve.request") spans
        |> List.filteri (fun i _ -> i >= serve_warmups)
        |> List.map (fun r -> r.Qls_obs.r_dur)
      in
      List.iter
        (fun (what, k) ->
          if k <> n then fail w "%d %s for %d timed requests" k what n)
        [
          ("request-log lines", List.length received);
          ("serve.request spans", List.length in_worker);
        ];
      let received = mean received and in_worker = mean in_worker in
      (* The round trip splits into wire (outside the daemon's receipt
         to write), queue (receipt to the worker's span: parse and queue
         wait), overhead (the span less routing) and compute. What the
         daemon does not measure is wire, so that is the unattributed
         time. *)
      let wire = rtt -. received in
      ( Some w,
        counter_layers ~ops:n before (counters ())
        @ [
            ("router.swaps", float_of_int w.swaps /. float_of_int n);
            ("serve.wire_ms", 1000. *. wire);
            ("serve.queue_ms", 1000. *. (received -. in_worker));
            ("serve.overhead_ms", 1000. *. (in_worker -. compute));
            ("serve.compute_ms", 1000. *. compute);
            ("serve.route_hits", float_of_int hits);
            ("serve.route_misses", float_of_int misses);
            ("unattributed.ms", 1000. *. wire);
            ("trace.coverage_ratio", received /. rtt);
          ] )
    end
  in
  { warm; plain; traced; rss_mb; gap_ops = serve_gap_ops; layers }

(* ------------------------------------------------------------------ *)
(* Report                                                               *)
(* ------------------------------------------------------------------ *)

let span_layers =
  [
    "router.sabre"; "router.mlqls"; "router.tket"; "router.qmap"; "sat.olsq";
    "core.generate"; "core.certify"; "layout.verify"; "harness.campaign";
  ]

(* Every per-layer metric with its unit, in BENCHMARK.json order. A
   workload reports 0 for a layer it does not exercise. *)
let per_layer_catalogue =
  List.concat_map
    (fun l -> [ (l ^ ".ms", "ms"); (l ^ ".alloc_mw", "Mw") ])
    span_layers
  @ [
      ("router.rounds", "count/op"); ("router.gates", "count/op");
      ("router.swaps", "count/op"); ("sat.conflicts", "count/op");
      ("sat.learned", "count/op"); ("sat.restarts", "count/op");
      ("sat.decided_ratio", "ratio"); ("serve.wire_ms", "ms");
      ("serve.queue_ms", "ms"); ("serve.overhead_ms", "ms");
      ("serve.compute_ms", "ms");
      ("serve.route_hits", "count"); ("serve.route_misses", "count");
      ("unattributed.ms", "ms"); ("trace.coverage_ratio", "ratio");
      ("trace.overhead_ratio", "ratio"); ("env.calibration_ms", "ms");
    ]

let throughput w = float_of_int w.ops /. w.wall_s

let end_to_end r =
  let w = r.plain in
  let sorted = Array.of_list w.lat_ms in
  Array.sort Float.compare sorted;
  let pct q =
    match Stats.percentile sorted q with
    | Some v -> v
    | None ->
        failwith
          (Printf.sprintf "perfbench: %d ops cannot support a p%g" w.ops
             (100. *. q))
  in
  (* Over a fixed range of op indices, so the gap depends on the seed and
     the routers, not on how many ops the window fitted or the order in
     which they completed. *)
  let gaps =
    List.filter_map (fun (i, g) -> if i < r.gap_ops then Some g else None) w.gaps
  in
  [
    ("throughput_ops_s", "1/s", throughput w);
    ("lat_p50_ms", "ms", pct 0.5);
    ("lat_p90_ms", "ms", pct 0.9);
    ("lat_geomean_ms", "ms", Stats.geomean w.lat_ms);
    ("peak_rss_mb", "MB", r.rss_mb);
    ("setup_s", "s", Stats.median !setup_times);
    ("swap_gap_geomean", "ratio", Stats.geomean gaps);
  ]

let per_layer r ~calibration_ms =
  let traced = Option.get r.traced in
  let from_spans =
    List.concat_map
      (fun layer ->
        let t = Spans.total layer in
        let per x =
          if t.Spans.calls = 0 then 0.0 else x /. float_of_int t.Spans.calls
        in
        [
          (layer ^ ".ms", per (1000. *. t.Spans.self_s));
          (layer ^ ".alloc_mw", per (t.Spans.self_words /. 1e6));
        ])
      span_layers
  in
  let values =
    from_spans @ r.layers
    @ [
        ("trace.overhead_ratio", throughput traced /. throughput r.plain);
        ("env.calibration_ms", calibration_ms);
      ]
  in
  List.map
    (fun (name, unit_) ->
      (name, unit_, Option.value ~default:0.0 (List.assoc_opt name values)))
    per_layer_catalogue

let json_number v =
  if Float.is_finite v then Printf.sprintf "%.17g" v
  else invalid_arg "perfbench: a metric is not finite"

let () =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let workload = ref "" and seed = ref 0 and seconds = ref 0.0 in
  let trace = ref 0 and server = ref "" in
  let spec =
    [
      ("--workload", Arg.Set_string workload, "NAME fig4, study or serve-cold");
      ("--seed", Arg.Set_int seed, "N workload seed");
      ("--seconds", Arg.Set_float seconds, "S measured window");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1) metrics");
      ("--server", Arg.Set_string server, "PATH qubikos binary serve-cold spawns");
      ( "--setup-only",
        Arg.Set setup_only,
        " time one cold set-up, print \"setup_s <seconds>\" and exit" );
    ]
  in
  let usage =
    "main.exe --workload NAME --seed N --seconds S --trace 0|1 [--server PATH] \
     [--setup-only]"
  in
  Arg.parse spec (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) usage;
  let usage_error msg =
    prerr_endline ("perfbench: " ^ msg);
    Arg.usage spec usage;
    exit 2
  in
  if !seconds <= 0.0 then usage_error "--seconds must be positive";
  if !trace <> 0 && !trace <> 1 then usage_error "--trace is 0 or 1";
  let traced = !trace = 1 in
  let run =
    match !workload with
    | "fig4" -> fig4
    | "study" -> study
    | "serve-cold" ->
        if String.equal !server "" then usage_error "serve-cold needs --server";
        serve_cold ~server:!server
    | w -> usage_error (Printf.sprintf "unknown workload %S" w)
  in
  if not (Sys.file_exists run_dir) then Sys.mkdir run_dir 0o755;
  at_exit kill_live_daemons;
  if not (traced || !setup_only) then
    setup_child :=
      Some
        [|
          Sys.executable_name; "--workload"; !workload; "--seed";
          string_of_int !seed; "--seconds"; "1"; "--trace"; "0"; "--server";
          !server; "--setup-only";
        |];
  let calibration_before = if !setup_only then 0.0 else calibration_ms () in
  let r = run ~seed:!seed ~seconds:!seconds ~trace:traced in
  between (window ()) 1.0;
  let calibration = (calibration_before +. calibration_ms ()) /. 2. in
  let windows = cold :: r.warm :: r.plain :: Option.to_list r.traced in
  let attempted = List.fold_left (fun n w -> n + w.ops) 0 windows in
  let failed = List.fold_left (fun n w -> n + w.failed) 0 windows in
  Printf.printf
    "env: nproc=%d ocaml=%s source=%s workload=%s seed=%d seconds=%g \
     trace=%d calibration_ms=%.1f\n"
    (Domain.recommended_domain_count ())
    Sys.ocaml_version
    (Option.value ~default:"unknown" (Sys.getenv_opt "PERFBENCH_SOURCE"))
    !workload !seed !seconds !trace calibration;
  Printf.printf
    "window: %d ops in %.2f s untraced%s; set-up %s s\n"
    r.plain.ops r.plain.wall_s
    (match r.traced with
    | Some t -> Printf.sprintf ", %d ops in %.2f s traced" t.ops t.wall_s
    | None -> "")
    (String.concat " / "
       (List.rev_map (Printf.sprintf "%.3f") !setup_times));
  let metrics =
    if traced then per_layer r ~calibration_ms:calibration else end_to_end r
  in
  if traced then
    Spans.write (run_file (Printf.sprintf "spans-%s-%d.jsonl" !workload !seed));
  Printf.printf "{\"correct\":%b,\"attempted\":%d,\"failed\":%d,\"metrics\":{%s}}\n%!"
    (failed = 0) attempted failed
    (String.concat ","
       (List.map
          (fun (name, unit_, v) ->
            Printf.sprintf "\"%s\":{\"value\":%s,\"unit\":\"%s\"}" name
              (json_number v) unit_)
          metrics));
  exit (if failed = 0 then 0 else 1)
