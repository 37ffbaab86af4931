(* Regenerates the golden recordings in goldens.ml.

   The goldens pin the exact routed output (ops sequence + swap count) of
   the stock SABRE and tket routers on fixed-seed QUBIKOS instances, so
   any hot-path refactor can prove its outputs bit-identical to the
   recordings. Run

     dune exec test/router/gen_goldens.exe

   and paste the printed list into goldens.ml ONLY when an intentional
   behaviour change invalidates the recordings (say so in the commit
   message); a perf-only change must never need to. *)

module Topologies = Qls_arch.Topologies
module Transpiled = Qls_layout.Transpiled
module Mapping = Qls_layout.Mapping
module Sabre = Qls_router.Sabre
module Tket_router = Qls_router.Tket_router
module Astar_router = Qls_router.Astar_router

let devices = [ ("aspen4", 150); ("sycamore54", 250) ]
let seeds = [ 0; 1; 7; 42 ]

(* qmap (A-star) goldens live on the big devices where its closed-set and
   layer-search rewrites actually bite — rochester (53q) and eagle
   (127q), whose searches use up the node budget in most layers — plus
   sycamore (the other heavy Fig. 4 device) and aspen-4, where almost
   every search reaches its goal; two seeds keep the suite fast (the
   eagle search dominates). *)
let qmap_devices =
  [ ("rochester", 53); ("eagle", 127); ("sycamore54", 250); ("aspen4", 150) ]
let qmap_seeds = [ 0; 1 ]
let n_swaps = 3

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

let instance device_name gate_budget seed =
  let device =
    match Topologies.by_name device_name with
    | Some d -> d
    | None -> failwith ("unknown device " ^ device_name)
  in
  let config =
    { Qubikos.Generator.default_config with n_swaps; gate_budget; seed }
  in
  (device, Qubikos.Generator.generate ~config device)

let () =
  print_endline "let cases =";
  print_endline "  [";
  let record dev_name gate_budget seed router_name t =
    Printf.printf
      "    { device = %S; gate_budget = %d; seed = %d; router = %S;\n\
      \      swaps = %d; digest = %S };\n"
      dev_name gate_budget seed router_name (Transpiled.swap_count t)
      (fingerprint t)
  in
  List.iter
    (fun (dev_name, gate_budget) ->
      List.iter
        (fun seed ->
          let device, inst = instance dev_name gate_budget seed in
          let circuit = inst.Qubikos.Benchmark.circuit in
          record dev_name gate_budget seed "sabre" (Sabre.route device circuit);
          record dev_name gate_budget seed "tket"
            (Tket_router.route device circuit))
        seeds)
    devices;
  List.iter
    (fun (dev_name, gate_budget) ->
      List.iter
        (fun seed ->
          let device, inst = instance dev_name gate_budget seed in
          let circuit = inst.Qubikos.Benchmark.circuit in
          record dev_name gate_budget seed "qmap"
            (Astar_router.route device circuit))
        qmap_seeds)
    qmap_devices;
  print_endline "  ]"
