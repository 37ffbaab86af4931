(* CLI for the router hot-path microbenchmark.

   Usage:
     dune exec bench/router_bench.exe                         default scale
     dune exec bench/router_bench.exe -- --quick              CI smoke scale
     dune exec bench/router_bench.exe -- --update             refresh baseline
     dune exec bench/router_bench.exe -- --out FILE
     dune exec bench/router_bench.exe -- --check BENCH_router.json
     dune exec bench/router_bench.exe -- --runs N --tolerance 0.25

   A plain run writes BENCH_router.fresh.json and never touches the
   committed baseline; --update writes BENCH_router.json in place (at
   quick scale unless --quick/--full is given, matching the recorded
   baseline's mode) — commit the result when a deliberate perf change
   moves the numbers. --check compares the fresh run against the
   committed baseline and exits 1 on a >tolerance ns/gate regression,
   on a cell whose (deterministic) swaps or rounds differ from the
   baseline's, on ANY increase in the builds-per-round counters, or on
   a cell the baseline has no entry for. *)

module Core = Router_bench_core

let baseline_file = "BENCH_router.json"

let () =
  let scale = ref Core.Default in
  let scale_set = ref false in
  let out = ref "BENCH_router.fresh.json" in
  let update = ref false in
  let baseline = ref None in
  let runs = ref None in
  let tolerance = ref 0.25 in
  let usage () =
    prerr_endline
      "usage: router_bench.exe [--quick | --full] [--update] [--out FILE] \
       [--check BASELINE] [--runs N] [--tolerance FRAC]";
    exit 2
  in
  let argv = Sys.argv in
  let value i = if i + 1 < Array.length argv then Some argv.(i + 1) else None in
  let rec parse i =
    if i < Array.length argv then
      match argv.(i) with
      | "--quick" ->
          scale := Core.Quick;
          scale_set := true;
          parse (i + 1)
      | "--full" ->
          scale := Core.Full;
          scale_set := true;
          parse (i + 1)
      | "--update" ->
          update := true;
          parse (i + 1)
      | "--out" -> (
          match value i with
          | Some f ->
              out := f;
              parse (i + 2)
          | None -> usage ())
      | "--check" -> (
          match value i with
          | Some f ->
              baseline := Some f;
              parse (i + 2)
          | None -> usage ())
      | "--runs" -> (
          match Option.bind (value i) int_of_string_opt with
          | Some n when n >= 1 ->
              runs := Some n;
              parse (i + 2)
          | _ -> usage ())
      | "--tolerance" -> (
          match Option.bind (value i) float_of_string_opt with
          | Some f when f >= 0.0 ->
              tolerance := f;
              parse (i + 2)
          | _ -> usage ())
      | _ -> usage ()
  in
  parse 1;
  if !update then begin
    out := baseline_file;
    if not !scale_set then scale := Core.Quick
  end;
  let mode = Core.string_of_scale !scale in
  let runs =
    match !runs with Some n -> n | None -> Core.default_runs !scale
  in
  Printf.eprintf "router_bench: scale %s, %d run(s) per cell\n%!" mode runs;
  let entries = Core.run ~progress:true ~scale:!scale ~runs () in
  Core.write_json ~path:!out ~mode entries;
  Printf.eprintf "router_bench: wrote %s (%d entries)\n%!" !out
    (List.length entries);
  match !baseline with
  | None -> ()
  | Some b -> (
      match Core.check ~baseline:b ~tolerance:!tolerance entries with
      | Ok () ->
          Printf.eprintf
            "router_bench: no regression against %s (tolerance %.0f%%)\n%!" b
            (!tolerance *. 100.0)
      | Error problems ->
          List.iter (Printf.eprintf "router_bench: REGRESSION: %s\n%!") problems;
          exit 1)
