(* Tests for the Qls_lint static-analysis pass: per-rule fixtures with
   asserted violation counts, the suppression comment forms, the
   driver's exit codes, and the self-check that lib/ itself is
   lint-clean. The fixtures are compiled libraries under
   typed_fixtures/ (deps of this test), so every rule runs on the
   Typedtree the build recorded for them. *)

module Finding = Qls_lint.Finding
module Typed_rules = Qls_lint.Typed_rules
module Engine = Qls_lint.Engine
module Cmt_index = Qls_lint.Cmt_index
module Suppress = Qls_lint.Suppress
module Driver = Qls_lint.Driver
module Sarif = Qls_lint.Sarif

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

let test_case name f = Alcotest.test_case name `Quick f

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let rec find_root dir =
  if
    Sys.file_exists (Filename.concat dir "dune-project")
    && Sys.file_exists (Filename.concat dir "lib")
    && Sys.is_directory (Filename.concat dir "lib")
  then Some dir
  else
    let parent = Filename.dirname dir in
    if String.equal parent dir then None else find_root parent

let repo_root () =
  match find_root (Sys.getcwd ()) with
  | Some root -> root
  | None -> Alcotest.fail "repo root not found above the test cwd"

let fixtures_dir = "test/lint/typed_fixtures"
let fixture_path name = Filename.concat fixtures_dir name

let rule name =
  match Typed_rules.by_name name with
  | Some r -> r
  | None -> Alcotest.failf "rule %s not registered" name

(* Lint fixture files (paths under typed_fixtures/) under [rules]. A
   fixture with no cmt fails the test rather than reading as "0
   findings". *)
let lint ~rules names =
  let root = repo_root () in
  let report =
    Engine.run ~rules ~root
      (List.map (fun n -> Filename.concat root (fixture_path n)) names)
  in
  Alcotest.(check (list string))
    "every fixture file has a cmt" [] report.Engine.typed_missing;
  report

let expect name ?(suppressed = 0) files count =
  test_case
    (Printf.sprintf "%s fires %d time(s) on %s" name count
       (String.concat " + " files))
    (fun () ->
      let report = lint ~rules:[ rule name ] files in
      List.iter
        (fun f -> check_string "rule tag" name f.Finding.rule)
        report.Engine.findings;
      check_int "finding count" count (List.length report.Engine.findings);
      check_int "suppressed count" suppressed report.Engine.suppressed)

(* One fixture's typedtree linted as if it lived at [as_file]: how the
   tests move a path-scoped fixture in and out of its rule's scope. *)
let index =
  lazy
    (Cmt_index.create
       ~build_root:(Engine.default_build_root (repo_root ())))

let lint_as name ~rule:r ~as_file =
  let path = fixture_path name in
  match Cmt_index.find (Lazy.force index) ~source:path with
  | Cmt_index.Unavailable -> Alcotest.failf "no cmt for %s" path
  | Cmt_index.Loaded tree ->
      let src = read_file (Filename.concat (repo_root ()) path) in
      Engine.lint_tree ~rules:[ rule r ]
        ~guards:(Typed_rules.Guards.empty ()) ~index:(Lazy.force index)
        ~file:as_file ~src tree

let expect_scoped name ~rule:r ~as_file count =
  test_case
    (Printf.sprintf "%s fires %d time(s) as %s" r count as_file)
    (fun () ->
      let kept, _, _ = lint_as name ~rule:r ~as_file in
      check_int "finding count" count (List.length kept))

let lines_of report = List.map (fun f -> f.Finding.line) report.Engine.findings

(* ------------------------------------------------------------------ *)
(* Rules                                                               *)
(* ------------------------------------------------------------------ *)

let poly_fixture = "tf_r2_poly_compare.ml"
let wait_fixture = "lib/serve/tf_r6_unbounded_wait.ml"
let random_fixture = "lib/sat/tf_r7_seeded_randomness.ml"
let distance_fixture = "lib/router/tf_r8_distance_in_loop.ml"
let guard_fixtures = [ "tf_r9_state.ml"; "tf_r9_cross.ml" ]
let poll_fixture = "lib/router/tf_r12_loops.ml"
let nested_poll_fixture = "lib/router/tf_r12_nested.ml"
let export_fixtures =
  [
    "lib/router/tf_r13_unused_export.mli";
    "lib/router/tf_r13_unused_export.ml";
    "lib/router/tf_r13_caller.ml";
  ]

let rule_tests =
  [
    expect "domain-escape" [ "tf_r1_domain_capture.ml" ] 6;
    expect "poly-compare" [ poly_fixture ] 5;
    expect "float-discipline" [ "tf_r3_float_discipline.ml" ] 6;
    expect "nondet-source" [ "tf_r4_nondet_source.ml" ] 6;
    expect "obs-discipline" [ "tf_r5_obs_discipline.ml" ] 4;
    expect "unbounded-wait" ~suppressed:1 [ wait_fixture ] 4;
    expect_scoped wait_fixture ~rule:"unbounded-wait"
      ~as_file:"lib/harness/tf_r6_unbounded_wait.ml" 4;
    expect_scoped wait_fixture ~rule:"unbounded-wait"
      ~as_file:"lib/faults/tf_r6_unbounded_wait.ml" 0;
    expect "seeded-randomness" ~suppressed:1 [ random_fixture ] 3;
    expect_scoped random_fixture ~rule:"seeded-randomness"
      ~as_file:"lib/router/tf_r7_seeded_randomness.ml" 3;
    expect_scoped random_fixture ~rule:"seeded-randomness"
      ~as_file:"bench/tf_r7_seeded_randomness.ml" 0;
    expect "distance-in-loop" ~suppressed:1 [ distance_fixture ] 5;
    expect_scoped distance_fixture ~rule:"distance-in-loop"
      ~as_file:"lib/arch/tf_r8_distance_in_loop.ml" 0;
    test_case "clean fixture is clean under every rule" (fun () ->
        let report = lint ~rules:Typed_rules.all [ "tf_clean.ml" ] in
        check_int "no findings" 0 (List.length report.Engine.findings);
        check_int "no suppressions" 0 report.Engine.suppressed);
    test_case "findings carry the root-relative file, 1-based line and \
               severity" (fun () ->
        let report = lint ~rules:[ rule "poly-compare" ] [ poly_fixture ] in
        match report.Engine.findings with
        | f :: _ ->
            check_string "file" (fixture_path poly_fixture) f.Finding.file;
            check_int "line" 4 f.Finding.line;
            check_bool "severity" true (f.Finding.severity = Finding.Error)
        | [] -> Alcotest.fail "expected findings");
    test_case "catalogue names are unique" (fun () ->
        let names =
          List.map (fun (r : Typed_rules.t) -> r.Typed_rules.name) Typed_rules.all
        in
        check_int "names unique" (List.length names)
          (List.length (List.sort_uniq String.compare names)));
  ]

(* ------------------------------------------------------------------ *)
(* Concurrency rules (R9–R12) and module aliases                       *)
(* ------------------------------------------------------------------ *)

let typed_rule_tests =
  [
    expect "guarded-by" ~suppressed:1 guard_fixtures 4;
    expect "domain-escape" ~suppressed:1 [ "tf_r10_escape.ml" ] 3;
    expect "blocking-under-mutex" ~suppressed:1 [ "tf_r11_block.ml" ] 4;
    expect "cancel-poll-coverage" ~suppressed:1 [ poll_fixture ] 2;
    expect_scoped poll_fixture ~rule:"cancel-poll-coverage"
      ~as_file:"lib/core/tf_r12_loops.ml" 2;
    expect_scoped poll_fixture ~rule:"cancel-poll-coverage"
      ~as_file:"lib/harness/tf_r12_loops.ml" 0;
    test_case "unused-export reports the exports no other module uses, on \
               their .mli lines" (fun () ->
        let report = lint ~rules:[ rule "unused-export" ] export_fixtures in
        let mli = fixture_path (List.hd export_fixtures) in
        Alcotest.(check (list (pair string int)))
          "used_inside and unused, not used_outside" [ (mli, 8); (mli, 11) ]
          (List.map
             (fun f -> (f.Finding.file, f.Finding.line))
             report.Engine.findings));
    test_case "guarded-by resolves the annotation across modules" (fun () ->
        let report = lint ~rules:[ rule "guarded-by" ] guard_fixtures in
        check_bool "a finding lands in tf_r9_cross.ml" true
          (List.exists
             (fun f ->
               Filename.basename f.Finding.file = "tf_r9_cross.ml"
               && f.Finding.line = 9)
             report.Engine.findings));
    test_case "cancel-poll-coverage checks a let rec nested in a function"
      (fun () ->
        let report =
          lint ~rules:[ rule "cancel-poll-coverage" ] [ nested_poll_fixture ]
        in
        Alcotest.(check (list int)) "only the unpolled nested group fires" [ 8 ]
          (lines_of report));
    test_case "cancel-poll-coverage credits transitive local polls" (fun () ->
        let report = lint ~rules:[ rule "cancel-poll-coverage" ] [ poll_fixture ] in
        Alcotest.(check (list int)) "only the two seeded sites fire" [ 7; 38 ]
          (lines_of report));
    test_case "module aliases resolve to the aliased module" (fun () ->
        let escape =
          lint ~rules:[ rule "domain-escape" ] [ "tf_r10_escape.ml" ]
        in
        check_bool "P.submit with module P = Qls_harness.Pool" true
          (List.mem 42 (lines_of escape));
        let block =
          lint ~rules:[ rule "blocking-under-mutex" ] [ "tf_r11_block.ml" ]
        in
        check_bool "M.protect under let module M = Mutex" true
          (List.mem 29 (lines_of block)));
    test_case "every fixture module is linted and every rule fires" (fun () ->
        let root = repo_root () in
        let report =
          Engine.run ~rules:Typed_rules.all ~root
            [ Filename.concat root fixtures_dir ]
        in
        check_int "files walked" 20 report.Engine.files;
        Alcotest.(check (list string)) "no file without a cmt" []
          report.Engine.typed_missing;
        List.iter
          (fun (r : Typed_rules.t) ->
            check_bool r.Typed_rules.name true
              (List.exists
                 (fun f -> String.equal f.Finding.rule r.Typed_rules.name)
                 report.Engine.findings))
          Typed_rules.all);
  ]

(* ------------------------------------------------------------------ *)
(* Parallel walk: jobs must not change the report                      *)
(* ------------------------------------------------------------------ *)

let parallel_tests =
  [
    test_case "jobs=4 report is bit-identical to jobs=1" (fun () ->
        let root = repo_root () in
        let paths = [ Filename.concat root fixtures_dir ] in
        let run jobs = Engine.run ~jobs ~rules:Typed_rules.all ~root paths in
        let a = run 1 and b = run 4 in
        check_int "files" a.Engine.files b.Engine.files;
        check_int "suppressed" a.Engine.suppressed b.Engine.suppressed;
        check_bool "unused suppressions identical" true
          (a.Engine.unused = b.Engine.unused);
        Alcotest.(check (list string))
          "findings identical and identically ordered"
          (List.map Finding.to_human a.Engine.findings)
          (List.map Finding.to_human b.Engine.findings));
  ]

(* ------------------------------------------------------------------ *)
(* Suppression                                                         *)
(* ------------------------------------------------------------------ *)

let suppression_tests =
  [
    test_case "suppressed fixture keeps nothing, counts five" (fun () ->
        let report = lint ~rules:Typed_rules.all [ "tf_suppressed.ml" ] in
        List.iter
          (fun f -> Printf.eprintf "unexpected: %s\n" (Finding.to_human f))
          report.Engine.findings;
        check_int "no findings survive" 0 (List.length report.Engine.findings);
        check_int "five silenced" 5 report.Engine.suppressed;
        check_int "every comment silences something" 0
          (List.length report.Engine.unused));
    test_case "a comment that silences nothing is reported, by rule"
      (fun () ->
        let name = "tf_unused_suppression.ml" in
        let report = lint ~rules:Typed_rules.all [ name ] in
        check_int "the live one silences" 1 report.Engine.suppressed;
        Alcotest.(check (list (triple string int string)))
          "the unused one" [ (fixture_path name, 8, "domain-escape") ]
          report.Engine.unused;
        let subset = lint ~rules:[ rule "poly-compare" ] [ name ] in
        Alcotest.(check (list (triple string int string)))
          "not judged when its rule did not run" [] subset.Engine.unused);
    test_case "a wildcard is judged only when every rule ran" (fun () ->
        let t = Suppress.scan "(* lint: all — why *)\nlet x = 1\n" in
        Alcotest.(check (list (pair int string)))
          "unused under the full catalogue" [ (1, "all") ]
          (Suppress.unused t ~raw:[] ~ran:(fun _ -> true));
        Alcotest.(check (list (pair int string)))
          "used by any rule's finding on the next line" []
          (Suppress.unused t ~raw:[ (2, "poly-compare") ] ~ran:(fun _ -> true));
        Alcotest.(check (list (pair int string)))
          "not judged under a subset" []
          (Suppress.unused t ~raw:[]
             ~ran:(fun r -> not (String.equal r "all"))));
    test_case "scan recognizes the three comment forms" (fun () ->
        let src =
          "let x = compare (* lint: poly-compare — why *)\n\
           (* lint: all — why *)\n\
           let y = 2\n\
           let z = 3 (* not a suppression *)\n"
        in
        let t = Suppress.scan src in
        check_int "two suppressions" 2 (Suppress.count t);
        check_bool "same line" true
          (Suppress.suppressed t ~line:1 ~rule:"poly-compare");
        check_bool "other rules stay" false
          (Suppress.suppressed t ~line:1 ~rule:"nondet-source");
        check_bool "wildcard covers the next line" true
          (Suppress.suppressed t ~line:3 ~rule:"float-discipline");
        check_bool "wildcard is standalone-only downward" false
          (Suppress.suppressed t ~line:4 ~rule:"float-discipline"));
    test_case "trailing comment does not bless the following line" (fun () ->
        let src =
          "let a = 1 (* lint: poly-compare — same line only *)\n\
           let b = List.sort compare xs\n"
        in
        let t = Suppress.scan src in
        check_bool "line 2 not covered" false
          (Suppress.suppressed t ~line:2 ~rule:"poly-compare"));
  ]

(* ------------------------------------------------------------------ *)
(* Findings: order and rendering                                       *)
(* ------------------------------------------------------------------ *)

let finding ?(file = "lib/a.ml") ?(line = 1) ?(col = 0) ?(rule = "r") () =
  Finding.v ~file ~line ~col ~rule ~severity:Finding.Error "m"

let finding_tests =
  [
    test_case "order sorts by file, line, column, then rule" (fun () ->
        let sorted =
          [
            finding ~file:"lib/a.ml" ~line:2 ~col:9 ~rule:"z" ();
            finding ~file:"lib/a.ml" ~line:10 ~col:0 ~rule:"a" ();
            finding ~file:"lib/a.ml" ~line:10 ~col:4 ~rule:"a" ();
            finding ~file:"lib/a.ml" ~line:10 ~col:4 ~rule:"b" ();
            finding ~file:"lib/b.ml" ~line:1 ();
          ]
        in
        Alcotest.(check (list string)) "sorted"
          (List.map Finding.to_human sorted)
          (List.map Finding.to_human
             (List.sort Finding.order (List.rev sorted)));
        check_int "equal findings tie" 0
          (Finding.order (finding ()) (finding ())));
    test_case "to_human is file:line:col: severity [rule] message" (fun () ->
        check_string "error" "lib/x.ml:3:7: error [poly-compare] no"
          (Finding.to_human
             (Finding.v ~file:"lib/x.ml" ~line:3 ~col:7 ~rule:"poly-compare"
                ~severity:Finding.Error "no"));
        check_string "warning" "b.ml:1:0: warning [r] m"
          (Finding.to_human
             (Finding.v ~file:"b.ml" ~line:1 ~col:0 ~rule:"r"
                ~severity:Finding.Warning "m")));
    test_case "json_escape escapes quotes, backslashes and control characters"
      (fun () ->
        check_string "plain" "a b" (Finding.json_escape "a b");
        check_string "quote and backslash" {|say \"hi\" \\ now|}
          (Finding.json_escape {|say "hi" \ now|});
        check_string "newline and tab" {|a\nb\tc|}
          (Finding.json_escape "a\nb\tc");
        check_string "other control" {|\u0001|} (Finding.json_escape "\001"));
  ]

(* ------------------------------------------------------------------ *)
(* Driver: exit codes                                                  *)
(* ------------------------------------------------------------------ *)

let with_temp suffix f =
  let tmp = Filename.temp_file "qls_lint_test" suffix in
  Fun.protect ~finally:(fun () -> try Sys.remove tmp with Sys_error _ -> ()) (fun () -> f tmp)

(* Drive the real driver over the fixture tree (violations guaranteed). *)
let driver_opts () =
  let root = repo_root () in
  {
    Driver.default_opts with
    Driver.root;
    paths = [ Filename.concat root fixtures_dir ];
    rules = [ "poly-compare"; "nondet-source"; "float-discipline" ];
  }

(* [repo_root] spelled relative to the test's cwd, which lies below it. *)
let relative_root () =
  let root = repo_root () in
  let rec up dir acc =
    if String.equal dir root then acc
    else up (Filename.dirname dir) (Filename.parent_dir_name :: acc)
  in
  match up (Sys.getcwd ()) [] with
  | [] -> Filename.current_dir_name
  | ups -> String.concat "/" ups

let driver_tests =
  [
    test_case "findings exit 1" (fun () ->
        check_int "violations found" 1 (Driver.execute (driver_opts ())));
    test_case "--check fails on a suppression that silences nothing"
      (fun () ->
        let root = repo_root () in
        let opts =
          {
            Driver.default_opts with
            Driver.root;
            paths =
              [ Filename.concat root (fixture_path "tf_unused_suppression.ml") ];
            rules = [ "poly-compare"; "domain-escape" ];
          }
        in
        check_int "a note without --check" 0 (Driver.execute opts);
        check_int "fails with --check" 1
          (Driver.execute { opts with Driver.check_stale = true });
        check_int "not judged when its rule did not run" 0
          (Driver.execute
             { opts with Driver.rules = [ "poly-compare" ]; check_stale = true }));
    test_case "unknown rule names exit 2" (fun () ->
        check_int "usage error" 2
          (Driver.execute
             { (driver_opts ()) with Driver.rules = [ "no-such-rule" ] }));
    test_case "a path that does not exist exits 2" (fun () ->
        check_int "usage error" 2
          (Driver.execute
             { (driver_opts ()) with Driver.paths = [ "no/such/dir" ] }));
    test_case "a file with no .cmt exits 2" (fun () ->
        with_temp ".ml" (fun tmp ->
            check_int "nobody linted it" 2
              (Driver.execute { (driver_opts ()) with Driver.paths = [ tmp ] })));
    test_case "a relative and an absolute --root report the same findings"
      (fun () ->
        let run root =
          let opts =
            {
              (driver_opts ()) with
              Driver.root;
              paths = [ Filename.concat root fixtures_dir ];
              check_stale = true;
            }
          in
          let report =
            Engine.run ~rules:(List.map rule opts.Driver.rules) ~root
              opts.Driver.paths
          in
          ( Driver.execute opts,
            List.map Finding.to_human report.Engine.findings )
        in
        let abs_code, abs_findings = run (repo_root ()) in
        let rel_code, rel_findings = run (relative_root ()) in
        check_int "findings" 1 abs_code;
        check_int "same exit code" abs_code rel_code;
        Alcotest.(check (list string)) "same findings" abs_findings rel_findings;
        check_bool "paths are root-relative" true
          (List.for_all
             (fun f -> String.starts_with ~prefix:(fixtures_dir ^ "/") f)
             abs_findings));
  ]

(* ------------------------------------------------------------------ *)
(* SARIF sink: structural validity per the 2.1.0 schema essentials     *)
(* ------------------------------------------------------------------ *)

(* A deliberately tiny JSON reader — objects, arrays, strings, ints —
   just enough to assert the SARIF skeleton instead of substring-matching. *)
module Json = struct
  type t =
    | Str of string
    | Num of int
    | Arr of t list
    | Obj of (string * t) list

  exception Bad of string

  let parse s =
    let n = String.length s in
    let pos = ref 0 in
    let peek () = if !pos < n then s.[!pos] else raise (Bad "eof") in
    let advance () = incr pos in
    let rec skip_ws () =
      if !pos < n && (peek () = ' ' || peek () = '\n' || peek () = '\t') then begin
        advance ();
        skip_ws ()
      end
    in
    let expect c =
      if peek () <> c then raise (Bad (Printf.sprintf "expected %c" c));
      advance ()
    in
    let parse_string () =
      expect '"';
      let b = Buffer.create 16 in
      let rec go () =
        match peek () with
        | '"' -> advance ()
        | '\\' ->
            advance ();
            (match peek () with
            | 'n' -> Buffer.add_char b '\n'
            | 't' -> Buffer.add_char b '\t'
            | 'r' -> Buffer.add_char b '\r'
            | 'u' ->
                (* \uXXXX: keep the raw escape, fidelity is irrelevant here *)
                Buffer.add_string b "\\u"
            | c -> Buffer.add_char b c);
            advance ();
            go ()
        | c ->
            Buffer.add_char b c;
            advance ();
            go ()
      in
      go ();
      Buffer.contents b
    in
    let rec parse_value () =
      skip_ws ();
      match peek () with
      | '"' -> Str (parse_string ())
      | '{' ->
          advance ();
          skip_ws ();
          if peek () = '}' then begin
            advance ();
            Obj []
          end
          else
            let rec members acc =
              skip_ws ();
              let k = parse_string () in
              skip_ws ();
              expect ':';
              let v = parse_value () in
              skip_ws ();
              if peek () = ',' then begin
                advance ();
                members ((k, v) :: acc)
              end
              else begin
                expect '}';
                Obj (List.rev ((k, v) :: acc))
              end
            in
            members []
      | '[' ->
          advance ();
          skip_ws ();
          if peek () = ']' then begin
            advance ();
            Arr []
          end
          else
            let rec elems acc =
              let v = parse_value () in
              skip_ws ();
              if peek () = ',' then begin
                advance ();
                elems (v :: acc)
              end
              else begin
                expect ']';
                Arr (List.rev (v :: acc))
              end
            in
            elems []
      | c when c = '-' || (c >= '0' && c <= '9') ->
          let start = !pos in
          advance ();
          while !pos < n && peek () >= '0' && peek () <= '9' do
            advance ()
          done;
          Num (int_of_string (String.sub s start (!pos - start)))
      | c -> raise (Bad (Printf.sprintf "unexpected %c" c))
    in
    let v = parse_value () in
    skip_ws ();
    if !pos <> n then raise (Bad "trailing garbage");
    v

  let member k = function
    | Obj fields -> (
        match List.assoc_opt k fields with
        | Some v -> v
        | None -> raise (Bad ("missing member " ^ k)))
    | _ -> raise (Bad ("not an object at " ^ k))

  let str = function Str s -> s | _ -> raise (Bad "not a string")
  let num = function Num i -> i | _ -> raise (Bad "not a number")
  let arr = function Arr l -> l | _ -> raise (Bad "not an array")
end

let sarif_tests =
  [
    test_case "render satisfies the 2.1.0 schema essentials" (fun () ->
        let findings =
          [
            Finding.v ~file:"lib/a.ml" ~line:3 ~col:7 ~rule:"guarded-by"
              ~severity:Finding.Error "a \"quoted\" message\nwith a newline";
            Finding.v ~file:"bench/b.ml" ~line:0 ~col:0 ~rule:"poly-compare"
              ~severity:Finding.Error "whole-file finding";
          ]
        in
        let doc = Json.parse (Sarif.render ~rules:Typed_rules.all ~findings) in
        check_bool "$schema names 2.1.0" true
          (let s = Json.(str (member "$schema" doc)) in
           let suffix = "sarif-schema-2.1.0.json" in
           let n = String.length s and ls = String.length suffix in
           n >= ls && String.sub s (n - ls) ls = suffix);
        check_string "version" "2.1.0" Json.(str (member "version" doc));
        let run = List.hd Json.(arr (member "runs" doc)) in
        let driver = Json.(member "driver" (member "tool" run)) in
        check_string "driver name" "qls_lint" Json.(str (member "name" driver));
        check_bool "semanticVersion present" true
          (String.length Json.(str (member "semanticVersion" driver)) > 0);
        let rules = Json.(arr (member "rules" driver)) in
        check_int "full catalogue" (List.length Typed_rules.all) (List.length rules);
        let rule_ids = List.map (fun r -> Json.(str (member "id" r))) rules in
        List.iter
          (fun (r : Typed_rules.t) ->
            check_bool (r.Typed_rules.name ^ " catalogued") true
              (List.mem r.Typed_rules.name rule_ids))
          Typed_rules.all;
        let results = Json.(arr (member "results" run)) in
        check_int "one result per finding" 2 (List.length results);
        List.iter
          (fun res ->
            let rid = Json.(str (member "ruleId" res)) in
            let idx = Json.(num (member "ruleIndex" res)) in
            check_string "ruleIndex points into the catalogue" rid
              (List.nth rule_ids idx);
            check_bool "level is a SARIF level" true
              (List.mem Json.(str (member "level" res)) [ "error"; "warning"; "note" ]);
            check_bool "message text nonempty" true
              (String.length Json.(str (member "text" (member "message" res))) > 0);
            let region =
              Json.(
                member "region"
                  (member "physicalLocation"
                     (List.hd (arr (member "locations" res)))))
            in
            check_bool "startLine is 1-based" true
              (Json.(num (member "startLine" region)) >= 1);
            check_bool "startColumn is 1-based" true
              (Json.(num (member "startColumn" region)) >= 1))
          results;
        check_string "columnKind" "utf16CodeUnits"
          Json.(str (member "columnKind" run)));
    test_case "driver --sarif writes the file" (fun () ->
        let tmp = Filename.temp_file "qls_lint_test" ".sarif" in
        Fun.protect
          ~finally:(fun () -> try Sys.remove tmp with Sys_error _ -> ())
          (fun () ->
            check_int "findings exit 1" 1
              (Driver.execute { (driver_opts ()) with Driver.sarif = Some tmp });
            let doc = Json.parse (read_file tmp) in
            let run = List.hd Json.(arr (member "runs" doc)) in
            check_bool "results recorded" true
              (not (List.is_empty Json.(arr (member "results" run))))));
  ]


(* ------------------------------------------------------------------ *)
(* Self-check: the library tree must stay lint-clean                   *)
(* ------------------------------------------------------------------ *)

let self_check_tests =
  [
    test_case "lib/ is lint-clean modulo in-source suppressions" (fun () ->
        let root = repo_root () in
        let report =
          Engine.run ~rules:Typed_rules.all ~root [ Filename.concat root "lib" ]
        in
        check_bool "linted a non-trivial tree" true (report.Engine.files > 20);
        Alcotest.(check (list string))
          "every lib/ file has a cmt" [] report.Engine.typed_missing;
        List.iter
          (fun f -> Printf.eprintf "%s\n" (Finding.to_human f))
          report.Engine.findings;
        check_int "unsuppressed findings in lib/" 0
          (List.length report.Engine.findings));
    test_case "a walk of the build tree counts what the source tree's does"
      (fun () ->
        (* Dune writes an interface with no items for each executable
           into the build tree; it has nothing to lint, so it is not
           counted either. *)
        let root = repo_root () in
        let build = Engine.default_build_root root in
        check_bool "dune wrote bin/'s executable interface" true
          (Sys.file_exists (Filename.concat build "bin/qubikos_cli.mli"));
        let files root =
          (Engine.run ~rules:[] ~root [ Filename.concat root "bin" ])
            .Engine.files
        in
        check_int "bin/ files" (files root) (files build));
  ]

let () =
  Alcotest.run "qls_lint"
    [
      ("rules", rule_tests);
      ("typed-rules", typed_rule_tests);
      ("parallel-walk", parallel_tests);
      ("suppression", suppression_tests);
      ("finding", finding_tests);
      ("driver", driver_tests);
      ("sarif", sarif_tests);
      ("self-check", self_check_tests);
    ]
