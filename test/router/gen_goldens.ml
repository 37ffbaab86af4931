(* Regenerates the golden recordings in goldens.ml.

   The goldens pin the exact routed output (ops sequence + swap count) of
   the heuristic routers on fixed-seed QUBIKOS instances, so
   any hot-path refactor can prove its outputs bit-identical to the
   recordings. Run

     dune exec test/router/gen_goldens.exe

   and paste the printed list into goldens.ml ONLY when an intentional
   behaviour change invalidates the recordings (say so in the commit
   message); a perf-only change must never need to. *)

module Topologies = Qls_arch.Topologies
module Transpiled = Qls_layout.Transpiled
module Mapping = Qls_layout.Mapping
module Router = Qls_router.Router
module Registry = Qls_router.Registry

(* One recording: the instance (device, gate budget, designed SWAPs,
   generator seed) and the tool, by registry name and seed. "sabre5" is
   the registry's "sabre" with five trials; every other SABRE name runs
   one trial. *)
type spec = {
  device : string;
  gate_budget : int;
  n_swaps : int;
  seed : int;
  router : string;
  router_seed : int;
}

let specs ~devices ~n_swaps ~seeds ~routers ~router_seed =
  List.concat_map
    (fun (device, gate_budget) ->
      List.concat_map
        (fun seed ->
          List.map
            (fun router ->
              { device; gate_budget; n_swaps; seed; router; router_seed })
            routers)
        seeds)
    devices

let all_specs =
  List.concat
    [
      (* Stock single-trial SABRE and tket. *)
      specs
        ~devices:[ ("aspen4", 150); ("sycamore54", 250) ]
        ~n_swaps:3 ~seeds:[ 0; 1; 7; 42 ] ~routers:[ "sabre"; "tket" ]
        ~router_seed:0;
      (* qmap (A-star) goldens live on the big devices where its
         closed-set and layer-search rewrites actually bite — rochester
         (53q) and eagle (127q), whose searches use up the node budget in
         most layers — plus sycamore (the other heavy Fig. 4 device) and
         aspen-4, where almost every search reaches its goal; two seeds
         keep the suite fast (the eagle search dominates). *)
      specs
        ~devices:
          [ ("rochester", 53); ("eagle", 127); ("sycamore54", 250);
            ("aspen4", 150) ]
        ~n_swaps:3 ~seeds:[ 0; 1 ] ~routers:[ "qmap" ] ~router_seed:0;
      (* The SABRE paths the cases above leave open: [lookahead_decay]
         scoring ("sabre-decay") and ML-QLS, which routes through
         [Sabre.route] with no bidirectional passes. *)
      specs
        ~devices:[ ("aspen4", 150); ("sycamore54", 250) ]
        ~n_swaps:3 ~seeds:[ 1; 7 ] ~routers:[ "sabre-decay"; "mlqls" ]
        ~router_seed:0;
      (* Five trials at the paper's 1,500-gate budget and its largest
         SWAP count, on large fronts. Rochester seed 3 at router seed 1
         and seed 1 at router seed 2 each fire the release valve once,
         in one pass of one trial; the router seeds were picked for
         that, since the valve rarely fires at these settings (never in
         single-trial routes at router seeds 0-9). *)
      specs
        ~devices:[ ("rochester", 1500); ("sycamore54", 1500) ]
        ~n_swaps:20 ~seeds:[ 1; 3 ] ~routers:[ "sabre5" ] ~router_seed:1;
      specs
        ~devices:[ ("rochester", 1500) ]
        ~n_swaps:20 ~seeds:[ 1 ] ~routers:[ "sabre5" ] ~router_seed:2;
      (* qmap at the paper's Fig. 4 gate budgets (300 on Aspen-4, 1,500
         on Sycamore and Rochester) and both ends of its SWAP range. Each
         1,500-gate route uses up the node budget in 111 to 201 layers,
         so these pin the budget accounting and the fallback as well as
         the queue order. *)
      specs
        ~devices:
          [ ("aspen4", 300); ("sycamore54", 1500); ("rochester", 1500) ]
        ~n_swaps:5 ~seeds:[ 1 ] ~routers:[ "qmap" ] ~router_seed:0;
      specs
        ~devices:
          [ ("aspen4", 300); ("sycamore54", 1500); ("rochester", 1500) ]
        ~n_swaps:20 ~seeds:[ 1 ] ~routers:[ "qmap" ] ~router_seed:0;
      (* qmap on Eagle at its paper budget (3,000 gates), which Fig. 4
         leaves out: the largest device, so the one where per-node work
         that scales with the device would show most. *)
      specs
        ~devices:[ ("eagle", 3000) ]
        ~n_swaps:10 ~seeds:[ 1 ] ~routers:[ "qmap" ] ~router_seed:0;
    ]

let route spec device circuit =
  let name, trials =
    match spec.router with "sabre5" -> ("sabre", 5) | name -> (name, 1)
  in
  match Registry.by_name ~sabre_trials:trials ~seed:spec.router_seed name with
  | Some r -> r.Router.route device circuit
  | None -> failwith ("unknown router " ^ spec.router)

let fingerprint t =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "init:";
  Array.iter
    (fun p -> Buffer.add_string buf (Printf.sprintf "%d," p))
    (Mapping.to_array (Transpiled.initial_mapping t));
  Buffer.add_string buf "|ops:";
  List.iter
    (function
      | Transpiled.Gate i -> Buffer.add_string buf (Printf.sprintf "G%d;" i)
      | Transpiled.Swap (p, p') ->
          Buffer.add_string buf (Printf.sprintf "S%d:%d;" p p'))
    (Transpiled.ops t);
  Digest.to_hex (Digest.string (Buffer.contents buf))

let () =
  print_endline "let cases =";
  print_endline "  [";
  List.iter
    (fun s ->
      let device =
        match Topologies.by_name s.device with
        | Some d -> d
        | None -> failwith ("unknown device " ^ s.device)
      in
      let config =
        {
          Qubikos.Generator.default_config with
          n_swaps = s.n_swaps;
          gate_budget = s.gate_budget;
          seed = s.seed;
        }
      in
      let inst = Qubikos.Generator.generate ~config device in
      let t = route s device inst.Qubikos.Benchmark.circuit in
      Printf.printf
        "    { device = %S; gate_budget = %d; n_swaps = %d; seed = %d;\n\
        \      router = %S; router_seed = %d;\n\
        \      swaps = %d; digest = %S };\n"
        s.device s.gate_budget s.n_swaps s.seed s.router s.router_seed
        (Transpiled.swap_count t) (fingerprint t))
    all_specs;
  print_endline "  ]"
