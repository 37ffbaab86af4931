(* Typedtree → rules → suppressions for one file; directory walking for
   the tree. Every file is linted on the Typedtree the build recorded in
   its [.cmt] (loaded through [Cmt_index]); a file with no cmt is a file
   nobody linted, so it is reported in [typed_missing] and the driver
   fails the run.

   The walk parallelises over [Qls_harness.Pool] domains: per-file
   results land in a slot indexed by the sorted walk order and are
   merged in that order, so the report is bit-identical for every
   [jobs]. Cmt loads unmarshal compiler state and serialise behind the
   index's mutex; rule iteration — the expensive part — runs
   concurrently. *)

type report = {
  findings : Finding.t list;  (** unsuppressed, sorted *)
  suppressed : int;           (** findings silenced by in-source comments *)
  unused : (string * int * string) list;
      (** (file, line, rule) of each suppression comment's rule that
          silenced nothing, in walk then line order *)
  files : int;
  typed_missing : string list;  (** files no cmt was found for *)
}

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* Which suppression rules a run of [rules] can judge: the rules that
   ran, and [all] only when the whole catalogue did. *)
let ran rules r =
  let ran_rule name =
    List.exists (fun (x : Typed_rules.t) -> String.equal x.Typed_rules.name name) rules
  in
  if String.equal r "all" then
    List.for_all (fun (x : Typed_rules.t) -> ran_rule x.Typed_rules.name) Typed_rules.all
  else ran_rule r

(* One file's typedtree under [rules], suppressions applied: the kept
   findings, sorted, the number silenced, and the (line, rule) of each
   suppression that silenced nothing. [file] names the file in findings
   and is what path-scoped rules test. *)
let lint_tree ~rules ~guards ~index ~file ~src tree =
  let ctx = Typed_rules.context ~file ~guards ~index tree in
  let raw = List.concat_map (fun r -> Typed_rules.run r ctx tree) rules in
  let sup = Suppress.scan src in
  let kept, silenced =
    List.partition
      (fun (f : Finding.t) ->
        not (Suppress.suppressed sup ~line:f.Finding.line ~rule:f.Finding.rule))
      raw
  in
  let unused =
    Suppress.unused sup ~ran:(ran rules)
      ~raw:(List.map (fun (f : Finding.t) -> (f.Finding.line, f.Finding.rule)) raw)
  in
  (List.sort Finding.order kept, List.length silenced, unused)

(* Deterministic walk: directory entries sorted with [String.compare],
   [_build] and dotfiles skipped. *)
let rec ml_files dir =
  Sys.readdir dir |> Array.to_list
  |> List.sort String.compare
  |> List.concat_map (fun name ->
         if String.equal name "_build" || (String.length name > 0 && name.[0] = '.')
         then []
         else
           let p = Filename.concat dir name in
           if Sys.is_directory p then ml_files p
           else if
             Filename.check_suffix name ".ml" || Filename.check_suffix name ".mli"
           then [ p ]
           else [])

let default_dirs = [ "lib"; "bin"; "bench" ]

(* "./lib/foo.ml" and "lib/foo.ml" must be the same file to findings,
   suppressions and path-scoped rules. *)
let normalize p =
  if String.length p > 2 && String.sub p 0 2 = "./" then
    String.sub p 2 (String.length p - 2)
  else p

let collect_paths ~root paths =
  let paths =
    match paths with
    | [] -> List.filter Sys.file_exists (List.map (Filename.concat root) default_dirs)
    | ps -> ps
  in
  List.concat_map
    (fun p -> if Sys.is_directory p then ml_files p else [ p ])
    paths
  |> List.map normalize

(* Findings and scopes speak root-relative paths, whatever directory the
   linter runs from. *)
let relativize ~root path =
  let root = normalize root in
  if root = "." || root = "" then path
  else
    let prefix = if String.length root > 0 && root.[String.length root - 1] = '/' then root else root ^ "/" in
    let lp = String.length prefix and lpath = String.length path in
    if lpath > lp && String.sub path 0 lp = prefix then
      String.sub path lp (lpath - lp)
    else path

let default_build_root root =
  let b = Filename.concat root (Filename.concat "_build" "default") in
  if Sys.file_exists b && Sys.is_directory b then b else root

let run ?(jobs = 1) ~rules ~root paths =
  let files = Array.of_list (collect_paths ~root paths) in
  let n = Array.length files in
  let sources = Array.map read_file files in
  let guards = Typed_rules.Guards.empty () in
  Array.iteri
    (fun i p -> Typed_rules.Guards.add_file guards ~file:p sources.(i))
    files;
  let index = Cmt_index.create ~build_root:(default_build_root root) in
  let lint_one i _ =
    let file = relativize ~root files.(i) in
    match Cmt_index.find index ~source:file with
    | Cmt_index.Loaded tree ->
        let kept, silenced, unused =
          lint_tree ~rules ~guards ~index ~file ~src:sources.(i) tree
        in
        Ok (kept, silenced, List.map (fun (line, rule) -> (file, line, rule)) unused)
    | Cmt_index.Unavailable -> Error file
  in
  let results =
    if jobs <= 1 || n <= 1 then Array.init n (fun i -> lint_one i ())
    else Qls_harness.Pool.run ~jobs ~f:lint_one (Array.init n Fun.id)
  in
  let findings, suppressed, unused, missing =
    Array.fold_left
      (fun (fs, sup, un, miss) -> function
        | Ok (kept, silenced, unused) ->
            (kept :: fs, sup + silenced, unused :: un, miss)
        | Error file -> (fs, sup, un, file :: miss))
      ([], 0, [], []) results
  in
  {
    findings = List.sort Finding.order (List.concat findings);
    suppressed;
    unused = List.concat (List.rev unused);
    files = n;
    typed_missing = List.rev missing;
  }
