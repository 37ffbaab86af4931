module Device = Qls_arch.Device
module Router = Qls_router.Router
module Registry = Qls_router.Registry
module Verifier = Qls_layout.Verifier
module Metrics = Qls_layout.Metrics

type tool_point = {
  device_name : string;
  tool_name : string;
  optimal : int;
  circuits : int;
  degraded : int;
  mean_swaps : float;
  ratio : float;
  min_swaps : int;
  max_swaps : int;
  mean_seconds : float;
}

type figure_config = {
  swap_counts : int list;
  circuits_per_point : int;
  gate_budget : int;
  single_qubit_ratio : float;
  sabre_trials : int;
  seed : int;
}

let paper_gate_budget device =
  let n = Device.n_qubits device in
  if n <= 20 then 300 else if n <= 60 then 1500 else 3000

let default_figure_config device =
  {
    swap_counts = [ 5; 10; 15; 20 ];
    circuits_per_point = 3;
    gate_budget = paper_gate_budget device;
    single_qubit_ratio = 0.0;
    sabre_trials = 5;
    seed = 1;
  }

let paper_figure_config device =
  {
    (default_figure_config device) with
    circuits_per_point = 10;
    sabre_trials = 1000;
  }

let default_tool_names = [ "sabre"; "mlqls"; "qmap"; "tket" ]

(* The degradation chain: when a tool fails (e.g. the exact/OLSQ solvers
   hit their wall-clock budget), fall back to a cheaper heuristic so the
   point keeps coverage — recorded as Degraded, never as the original
   tool's own result. SABRE is the terminal fallback: fast, never
   diverges on the paper's devices. *)
let default_fallback = function
  | "exact" | "olsq" -> Some "sabre"
  | "qmap" -> Some "tket"
  | "tket" | "mlqls" | "sabre-decay" -> Some "sabre"
  | _ -> None

(* [names] (plain registry names, e.g. ["sabre"; "olsq"]) overrides the
   tool set without constructing routers up front — resolution stays
   per-task via {!resolve_tool}, keeping per-task seeding. *)
let tool_names ?names tools =
  match (names, tools) with
  | Some ns, _ -> ns
  | None, Some tools -> List.map (fun t -> t.Router.name) tools
  | None, None -> default_tool_names

(* ------------------------------------------------------------------ *)
(* Campaign plumbing: the figure experiments decompose into            *)
(* independent (device, n_swaps, circuit, tool) tasks executed by      *)
(* Qls_harness; the run_* entry points below are thin wrappers that    *)
(* build a campaign and aggregate its rows.                            *)
(* ------------------------------------------------------------------ *)

module Task = Qls_harness.Task
module Campaign = Qls_harness.Campaign

(* Fail a campaign on an unknown tool name {e before} any domain spawns
   or any store line is written: one typed Permanent error naming every
   unknown tool beats a failwith out of some worker mid-run (which used
   to cost the whole sweep and leave a half-written checkpoint). *)
let validate_tools names =
  match
    List.filter (fun n -> Option.is_none (Registry.by_name n)) names
  with
  | [] -> ()
  | unknown ->
      raise
        (Qls_harness.Herror.Error
           (Qls_harness.Herror.permanent ~site:"campaign.tools"
              (Printf.sprintf "unknown tool(s) %s; available: %s"
                 (String.concat ", " unknown)
                 (String.concat ", " Registry.names))))

let campaign_tasks ?tools ?names ~config device =
  let names = tool_names ?names tools in
  validate_tools names;
  List.concat_map
    (fun n_swaps ->
      List.concat_map
        (fun circuit ->
          List.map
            (fun tool ->
              {
                Task.device = Device.name device;
                n_swaps;
                circuit;
                tool;
                gate_budget = config.gate_budget;
                single_qubit_ratio = config.single_qubit_ratio;
                sabre_trials = config.sabre_trials;
                base_seed = config.seed;
              })
            names)
        (List.init config.circuits_per_point Fun.id))
    config.swap_counts

(* Instances are shared by the point's tools (the paper's paired
   comparison) and built once: sibling tool tasks wait for the first
   one's generation + proof. Tasks run point-major, so 16 entries
   suffice; an evicted instance is rebuilt identically. *)
let instance_cache : Benchmark.t Qls_harness.Cache.t =
  Qls_harness.Cache.create ~capacity:16 "instance"

let cached_instances () =
  (Qls_harness.Cache.stats instance_cache).Qls_harness.Cache.size

let instance_for device (task : Task.t) =
  let key =
    Printf.sprintf "%s/s%d/c%d/g%d/q%g/r%d" task.Task.device task.Task.n_swaps
      task.Task.circuit task.Task.gate_budget task.Task.single_qubit_ratio
      task.Task.base_seed
  in
  fst
    (Qls_harness.Cache.find_or_compute instance_cache ~key (fun () ->
         let bench =
           Generator.generate
             ~config:
               {
                 Generator.default_config with
                 n_swaps = task.Task.n_swaps;
                 gate_budget = task.Task.gate_budget;
                 single_qubit_ratio = task.Task.single_qubit_ratio;
                 seed = Task.circuit_seed task;
               }
             device
         in
         Certificate.check_exn bench;
         bench))

let resolve_tool ?tools (task : Task.t) =
  let found =
    match tools with
    | Some list -> List.find_opt (fun t -> t.Router.name = task.Task.tool) list
    | None ->
        Qls_router.Registry.by_name ~sabre_trials:task.Task.sabre_trials
          ~seed:(Task.rng_seed task) task.Task.tool
  in
  match found with
  | Some tool -> tool
  | None ->
      (* Typed rather than failwith so a stray name in a resumed store
         or a caller-supplied [tools] list fails one task with a
         Permanent classification instead of an opaque Failure. *)
      raise
        (Qls_harness.Herror.Error
           (Qls_harness.Herror.permanent ~site:"campaign.tools"
              (Printf.sprintf "unknown tool %S" task.Task.tool)))

let campaign_exec ?tools ~device (task : Task.t) =
  let bench = instance_for device task in
  let tool = resolve_tool ?tools task in
  (* lint: nondet-source — wall-clock feeds the [seconds] metric only *)
  let t0 = Unix.gettimeofday () in
  let _, report = Router.run_verified tool device bench.Benchmark.circuit in
  Certificate.check_routed ~tool:task.Task.tool
    ~optimum:bench.Benchmark.optimal_swaps report.Verifier.swap_count;
  {
    Task.swaps = report.Verifier.swap_count;
    (* lint: nondet-source — timing metric, never reaches routed output *)
    seconds = Unix.gettimeofday () -. t0;
    (* Placeholder: the campaign overwrites this with the runner's real
       attempt count once the task's retries are settled. *)
    attempts = 1;
  }

let aggregate_campaign ?tools ?names ~config ~device rows =
  let names = tool_names ?names tools in
  let ok = Campaign.outcomes rows in
  let rescued = Campaign.degraded rows in
  List.concat_map
    (fun n_swaps ->
      List.filter_map
        (fun tool ->
          let belongs ((t : Task.t), _) =
            t.Task.n_swaps = n_swaps && t.Task.tool = tool
          in
          let samples = List.filter belongs ok in
          (* Degraded rows count toward the point's honest coverage
             report but never into the tool's own statistics: their
             swap counts came from the fallback tool. *)
          let degraded = List.length (List.filter belongs rescued) in
          let swap_counts = List.map (fun (_, o) -> o.Task.swaps) samples in
          match Metrics.mean_opt (List.map float_of_int swap_counts) with
          | None ->
              Format.eprintf
                "warning: point (%s, %s, swaps=%d) has no successful tasks \
                 (%d degraded); skipped@."
                (Device.name device) tool n_swaps degraded;
              None
          | Some mean_swaps ->
              Some
                {
                  device_name = Device.name device;
                  tool_name = tool;
                  optimal = n_swaps;
                  circuits = List.length samples;
                  degraded;
                  mean_swaps;
                  ratio = Metrics.swap_ratio ~optimal:n_swaps ~swap_counts;
                  min_swaps = List.fold_left min max_int swap_counts;
                  max_swaps = List.fold_left max 0 swap_counts;
                  mean_seconds =
                    Option.value ~default:0.0
                      (Metrics.mean_opt (List.map (fun (_, o) -> o.Task.seconds) samples));
                })
        names)
    config.swap_counts

let run_campaign ?tools ?names ?(jobs = 1) ?timeout ?(retries = 0) ?backoff ?store
    ?(resume = false) ?(rerun_failed = false) ?(fsync = false)
    ?failure_budget ?(degrade = false) ?(progress = false) ~config device =
  let tasks = campaign_tasks ?tools ?names ~config device in
  let campaign_config =
    {
      Campaign.jobs;
      timeout;
      retries;
      backoff =
        Option.value
          ~default:(Campaign.default_config ()).Campaign.backoff backoff;
      store_path = store;
      resume;
      rerun_failed;
      fsync;
      failure_budget;
      fallback = (if degrade then Some default_fallback else None);
      report =
        (if progress then
           Some (Campaign.stderr_report ~total:(List.length tasks))
         else None);
    }
  in
  Campaign.run campaign_config ~exec:(campaign_exec ?tools ~device) tasks

let run_figure ?tools ?jobs ~config device =
  let rows = run_campaign ?tools ?jobs ~config device in
  let failed = Campaign.failures rows in
  if not (List.is_empty failed) then
    Printf.ksprintf failwith "run_figure: %d task(s) failed: %s"
      (List.length failed)
      (String.concat "; "
         (List.map
            (fun (t, e) -> Task.id t ^ ": " ^ Qls_harness.Herror.to_string e)
            failed));
  aggregate_campaign ?tools ~config ~device rows

let tool_gap_summary points =
  let tbl = Hashtbl.create 8 in
  List.iter
    (fun p ->
      let acc = Option.value ~default:[] (Hashtbl.find_opt tbl p.tool_name) in
      Hashtbl.replace tbl p.tool_name (p.ratio :: acc))
    points;
  Hashtbl.fold (fun tool ratios acc -> (tool, Metrics.mean ratios) :: acc) tbl []
  |> List.sort (fun (ta, a) (tb, b) ->
         match Float.compare a b with 0 -> String.compare ta tb | n -> n)

let pp_points ppf points =
  Format.fprintf ppf "%-10s %-8s %7s %8s %5s %10s %7s %7s %9s@,"
    "device" "tool" "optimal" "circuits" "degr" "mean-swaps" "min" "max" "ratio";
  List.iter
    (fun p ->
      Format.fprintf ppf "%-10s %-8s %7d %8d %5d %10.1f %7d %7d %8.2fx@,"
        p.device_name p.tool_name p.optimal p.circuits p.degraded p.mean_swaps
        p.min_swaps p.max_swaps p.ratio)
    points

type optimality_row = {
  o_device : string;
  o_swaps : int;
  o_circuits : int;
  o_certified : int;
  o_exact_confirmed : int;
  o_exact_refuted : int;
  o_exact_unknown : int;
  o_mean_gates : float;
}

let optimality_failure r =
  if r.o_certified < r.o_circuits || r.o_exact_refuted > 0 then
    Some
      (Printf.sprintf
         "%s, %d swaps: %d of %d certified, %d refuted by the exact solver"
         r.o_device r.o_swaps r.o_certified r.o_circuits r.o_exact_refuted)
  else None

let run_optimality_study ?(circuits_per_count = 10) ?(swap_counts = [ 1; 2; 3; 4 ])
    ?(gate_budget = 30) ?(saturation_cap = 1) ?solver ?node_budget
    ?conflict_budget ?(seed = 0) device =
  List.map
    (fun n_swaps ->
      let config =
        {
          Generator.default_config with
          n_swaps;
          gate_budget;
          saturation_cap;
          seed = seed + (1000 * n_swaps);
        }
      in
      let instances =
        Generator.generate_suite ~config ~count:circuits_per_count device
      in
      let certified = ref 0
      and confirmed = ref 0
      and refuted = ref 0
      and unknown = ref 0
      and gates = ref [] in
      List.iter
        (fun bench ->
          gates := float_of_int (Benchmark.two_qubit_count bench) :: !gates;
          let r =
            try
              Certificate.check_exact ?solver ?node_budget ?conflict_budget
                bench
            with Qls_router.Olsq.Too_large _ ->
              (* too large to encode: an unknown, like an exhausted budget *)
              {
                Certificate.certified = Result.is_ok (Certificate.check bench);
                exact_agrees = None;
              }
          in
          if r.Certificate.certified then incr certified;
          match r.Certificate.exact_agrees with
          | Some true -> incr confirmed
          | Some false -> incr refuted
          | None -> incr unknown)
        instances;
      {
        o_device = Device.name device;
        o_swaps = n_swaps;
        o_circuits = circuits_per_count;
        o_certified = !certified;
        o_exact_confirmed = !confirmed;
        o_exact_refuted = !refuted;
        o_exact_unknown = !unknown;
        o_mean_gates = Metrics.mean !gates;
      })
    swap_counts

(* ------------------------------------------------------------------ *)
(* Post-campaign summary: per-tool latency quantiles, retry and        *)
(* degrade counts, plus the routing-effort aggregates the obs counters *)
(* collected while the campaign ran.                                   *)
(* ------------------------------------------------------------------ *)

type tool_summary = {
  s_tool : string;
  s_tasks : int;
  s_ok : int;
  s_degraded : int;
  s_failed : int;
  s_retries : int;  (** attempts beyond the first, ok + degraded rows *)
  s_p50 : float;  (** median task seconds over successful rows *)
  s_p95 : float;
}

(* Nearest-rank quantile on a sorted array; exact, not the histogram
   approximation — we have every sample here. *)
let quantile q sorted =
  let n = Array.length sorted in
  if n = 0 then 0.0
  else
    let i = int_of_float (Float.round (q *. float_of_int (n - 1))) in
    sorted.(max 0 (min (n - 1) i))

let summarize_campaign rows =
  let tbl = Hashtbl.create 8 in
  let get tool =
    match Hashtbl.find_opt tbl tool with
    | Some cell -> cell
    | None ->
        let cell = (ref 0, ref 0, ref 0, ref 0, ref []) in
        Hashtbl.replace tbl tool cell;
        cell
  in
  List.iter
    (fun (row : Campaign.row) ->
      let ok, degr, failed, retries, secs = get row.Campaign.task.Task.tool in
      match row.Campaign.status with
      | Task.Done o ->
          incr ok;
          retries := !retries + (o.Task.attempts - 1);
          secs := o.Task.seconds :: !secs
      | Task.Degraded d ->
          incr degr;
          retries := !retries + (d.Task.outcome.Task.attempts - 1);
          secs := d.Task.outcome.Task.seconds :: !secs
      | Task.Failed _ -> incr failed)
    rows;
  Hashtbl.fold
    (fun tool (ok, degr, failed, retries, secs) acc ->
      let sorted = Array.of_list !secs in
      Array.sort Float.compare sorted;
      {
        s_tool = tool;
        s_tasks = !ok + !degr + !failed;
        s_ok = !ok;
        s_degraded = !degr;
        s_failed = !failed;
        s_retries = !retries;
        s_p50 = quantile 0.50 sorted;
        s_p95 = quantile 0.95 sorted;
      }
      :: acc)
    tbl []
  |> List.sort (fun a b -> String.compare a.s_tool b.s_tool)

let pp_summary ppf rows =
  let summaries = summarize_campaign rows in
  Format.fprintf ppf "%-10s %6s %5s %5s %7s %8s %9s %9s@," "tool" "tasks"
    "ok" "degr" "failed" "retries" "p50(s)" "p95(s)";
  List.iter
    (fun s ->
      Format.fprintf ppf "%-10s %6d %5d %5d %7d %8d %9.3f %9.3f@," s.s_tool
        s.s_tasks s.s_ok s.s_degraded s.s_failed s.s_retries s.s_p50 s.s_p95)
    summaries;
  let counters = Qls_obs.counters () in
  let v name = Option.value ~default:0 (List.assoc_opt name counters) in
  let rounds = v "router.rounds" and gates = v "router.gates" in
  if gates > 0 then
    Format.fprintf ppf "router: %d rounds over %d gates (%.2f rounds/gate)@,"
      rounds gates
      (float_of_int rounds /. float_of_int gates);
  let conflicts = v "sat.conflicts" in
  if conflicts > 0 then
    Format.fprintf ppf "sat: %d conflicts, %d learned, %d restarts@," conflicts
      (v "sat.learned") (v "sat.restarts")

let pp_optimality ppf rows =
  Format.fprintf ppf "%-10s %6s %9s %10s %16s %14s %11s@,"
    "device" "swaps" "circuits" "certified" "exact-confirmed" "exact-unknown"
    "mean-gates";
  List.iter
    (fun r ->
      Format.fprintf ppf "%-10s %6d %9d %10d %16d %14d %11.1f@,"
        r.o_device r.o_swaps r.o_circuits r.o_certified r.o_exact_confirmed
        r.o_exact_unknown r.o_mean_gates)
    rows
