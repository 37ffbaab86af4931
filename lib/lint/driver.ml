(* The lint driver behind [analysis/qls_lint_main.exe]: resolve the
   rule subset, run the engine, apply the baseline, write the optional
   JSONL/SARIF sinks, and turn the outcome into the conventional exit
   code (0 clean, 1 findings, 2 usage/configuration error — a file with
   no .cmt included). *)

type opts = {
  root : string;
  paths : string list;
  baseline : string option;
  write_baseline : string option;
  jsonl : string option;
  sarif : string option;
  rules : string list;  (** [] = the full catalogue *)
  jobs : int;
  check_stale : bool;
      (** fail (exit 1) when the baseline carries stale entries or a
          suppression comment silences nothing *)
  quiet : bool;
}

let default_opts =
  {
    root = ".";
    paths = [];
    baseline = None;
    write_baseline = None;
    jsonl = None;
    sarif = None;
    rules = [];
    jobs = 1;
    check_stale = false;
    quiet = true;
  }

let resolve_rules = function
  | [] -> Ok Typed_rules.all
  | names ->
      let unknown = ref [] in
      let rules =
        List.filter_map
          (fun n ->
            match Typed_rules.by_name n with
            | Some r -> Some r
            | None ->
                unknown := n :: !unknown;
                None)
          names
      in
      (match List.rev !unknown with
      | [] -> Ok rules
      | u -> Error (Printf.sprintf "unknown rule(s): %s" (String.concat ", " u)))

let load_baseline = function
  | None -> Ok []
  | Some path ->
      Result.map_error
        (fun msg -> Printf.sprintf "baseline %s: %s" path msg)
        (Baseline.load path)

let check_paths paths =
  match List.find_opt (fun p -> not (Sys.file_exists p)) paths with
  | Some p -> Error (Printf.sprintf "%s: no such file or directory" p)
  | None -> Ok ()

let execute opts =
  match (resolve_rules opts.rules, check_paths opts.paths) with
  | Error msg, _ | _, Error msg ->
      Printf.eprintf "qls_lint: %s\n" msg;
      2
  | Ok rules, Ok () -> (
      let report =
        Engine.run ~jobs:opts.jobs ~rules ~root:opts.root opts.paths
      in
      match (report.Engine.typed_missing, opts.write_baseline) with
      | _ :: _ as missing, _ ->
          List.iter
            (fun f ->
              Printf.eprintf
                "qls_lint: no .cmt found for %s (run dune build @check \
                 first)\n"
                f)
            missing;
          2
      | [], Some path ->
          let entries = Baseline.of_findings report.Engine.findings in
          let pruned =
            match Baseline.load path with
            | Ok old ->
                List.length
                  (Baseline.apply old report.Engine.findings).Baseline.stale
            | Error _ -> 0
          in
          let oc = open_out path in
          output_string oc (Baseline.render entries);
          close_out oc;
          Printf.printf
            "qls_lint: wrote %d baseline entr%s to %s (%d stale pruned)\n"
            (List.length entries)
            (match entries with [ _ ] -> "y" | _ -> "ies")
            path pruned;
          0
      | [], None -> (
          match load_baseline opts.baseline with
          | Error msg ->
              Printf.eprintf "qls_lint: %s\n" msg;
              2
          | Ok entries ->
              let applied = Baseline.apply entries report.Engine.findings in
              List.iter
                (fun f -> print_endline (Finding.to_human f))
                applied.Baseline.kept;
              List.iter
                (fun e ->
                  Printf.printf
                    "%s: stale baseline entry %s\t%s\t%d (fewer findings \
                     remain — regenerate with --write-baseline)\n"
                    (if opts.check_stale then "error" else "note")
                    e.Baseline.file e.Baseline.rule e.Baseline.allowed)
                applied.Baseline.stale;
              List.iter
                (fun (file, line, rule) ->
                  Printf.printf
                    "%s: %s:%d: suppression of %s silences no finding (remove \
                     the comment)\n"
                    (if opts.check_stale then "error" else "note")
                    file line rule)
                report.Engine.unused;
              (match opts.jsonl with
              | None -> ()
              | Some path ->
                  let oc = open_out path in
                  List.iter
                    (fun f ->
                      output_string oc (Finding.to_jsonl f);
                      output_char oc '\n')
                    applied.Baseline.kept;
                  close_out oc);
              (match opts.sarif with
              | None -> ()
              | Some path ->
                  Sarif.write ~path ~rules:Typed_rules.all
                    ~findings:applied.Baseline.kept);
              if not opts.quiet then
                Printf.printf
                  "qls_lint: %d file(s), %d finding(s) (%d suppressed in \
                   source, %d waived by baseline)\n"
                  report.Engine.files
                  (List.length applied.Baseline.kept)
                  report.Engine.suppressed applied.Baseline.waived;
              match
                ( applied.Baseline.kept,
                  opts.check_stale
                  && not
                       (List.is_empty applied.Baseline.stale
                       && List.is_empty report.Engine.unused) )
              with
              | [], false -> 0
              | _ -> 1))

let usage prog =
  Printf.sprintf
    "%s [options] [path ...]\n\
     Lints lib/, bin/ and bench/ under --root when no paths are given.\n\
     Reads each file's .cmt from the build (run dune build @check first).\n\
     Exit status: 0 clean, 1 findings, 2 usage/configuration error or a\n\
     file with no .cmt.\n\
     Options:"
    prog

(* Arg-based front end used by analysis/qls_lint_main.exe. *)
let main ~prog argv =
  let root = ref "." in
  let baseline_path = ref "" in
  let jsonl_path = ref "" in
  let sarif_path = ref "" in
  let write_baseline = ref "" in
  let rule_names = ref "" in
  let jobs = ref 1 in
  let check_stale = ref false in
  let quiet = ref false in
  let paths = ref [] in
  let spec =
    [
      ( "--root",
        Arg.Set_string root,
        "DIR  tree root; reported paths and baseline entries are relative \
         to it (default .)" );
      ( "--baseline",
        Arg.Set_string baseline_path,
        "FILE  grandfather file; findings covered by it are waived" );
      ( "--jsonl",
        Arg.Set_string jsonl_path,
        "FILE  also write the surviving findings as JSONL" );
      ( "--sarif",
        Arg.Set_string sarif_path,
        "FILE  also write the surviving findings as SARIF 2.1.0" );
      ( "--write-baseline",
        Arg.Set_string write_baseline,
        "FILE  write the current findings as a fresh baseline (pruning stale \
         entries) and exit 0" );
      ( "--rules",
        Arg.Set_string rule_names,
        "NAMES  comma-separated rule subset (default: all)" );
      ( "--jobs",
        Arg.Set_int jobs,
        "N  lint N files in parallel on pool domains (default 1)" );
      ( "--check",
        Arg.Set check_stale,
        " fail when the baseline carries stale entries or a suppression \
         comment silences nothing" );
      ("--quiet", Arg.Set quiet, " suppress the summary line");
    ]
  in
  match
    Arg.parse_argv ~current:(ref 0) argv spec
      (fun p -> paths := p :: !paths)
      (usage prog)
  with
  | exception Arg.Bad msg ->
      prerr_string msg;
      2
  | exception Arg.Help msg ->
      print_string msg;
      0
  | () ->
      let opt_of_string s = if String.equal s "" then None else Some s in
      execute
        {
          root = !root;
          paths = List.rev !paths;
          baseline = opt_of_string !baseline_path;
          write_baseline = opt_of_string !write_baseline;
          jsonl = opt_of_string !jsonl_path;
          sarif = opt_of_string !sarif_path;
          rules =
            (if String.equal !rule_names "" then []
             else
               String.split_on_char ',' !rule_names |> List.map String.trim
               |> List.filter (fun s -> s <> ""));
          jobs = !jobs;
          check_stale = !check_stale;
          quiet = !quiet;
        }
