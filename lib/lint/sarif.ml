(* SARIF 2.1.0 sink: one run, the full rule catalogue under
   [tool.driver.rules], one [result] per surviving finding. The output
   is deterministic — findings arrive sorted from the engine and the
   catalogue keeps [Typed_rules.all]'s order — so the artifact diffs
   cleanly across CI runs. Columns are emitted 1-based per the SARIF spec
   (Finding.col is 0-based). *)

type json =
  | Str of string
  | Int of int
  | Arr of json list
  | Obj of (string * json) list

let rec emit b = function
  | Str s ->
      Buffer.add_char b '"';
      Buffer.add_string b (Finding.json_escape s);
      Buffer.add_char b '"'
  | Int i -> Buffer.add_string b (string_of_int i)
  | Arr xs ->
      Buffer.add_char b '[';
      List.iteri
        (fun i x ->
          if i > 0 then Buffer.add_char b ',';
          emit b x)
        xs;
      Buffer.add_char b ']'
  | Obj fields ->
      Buffer.add_char b '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char b ',';
          emit b (Str k);
          Buffer.add_char b ':';
          emit b v)
        fields;
      Buffer.add_char b '}'

let level_of_severity = function
  | Finding.Error -> "error"
  | Finding.Warning -> "warning"

let rule_json (r : Typed_rules.t) =
  Obj
    [
      ("id", Str r.Typed_rules.name);
      ("shortDescription", Obj [ ("text", Str r.Typed_rules.summary) ]);
      ( "defaultConfiguration",
        Obj [ ("level", Str (level_of_severity r.Typed_rules.severity)) ] );
    ]

let result_json ~rule_index (f : Finding.t) =
  let fields =
    [
      ("ruleId", Str f.Finding.rule);
      ("level", Str (level_of_severity f.Finding.severity));
      ("message", Obj [ ("text", Str f.Finding.message) ]);
      ( "locations",
        Arr
          [
            Obj
              [
                ( "physicalLocation",
                  Obj
                    [
                      ( "artifactLocation",
                        Obj [ ("uri", Str f.Finding.file) ] );
                      ( "region",
                        Obj
                          [
                            ("startLine", Int (max 1 f.Finding.line));
                            ("startColumn", Int (f.Finding.col + 1));
                          ] );
                    ] );
              ];
          ] );
    ]
  in
  match rule_index f.Finding.rule with
  | Some i -> Obj (("ruleId", Str f.Finding.rule) :: ("ruleIndex", Int i) :: List.tl fields)
  | None -> Obj fields

let render ~rules ~findings =
  let rule_index name =
    let rec go i = function
      | [] -> None
      | (r : Typed_rules.t) :: rest ->
          if String.equal r.Typed_rules.name name then Some i else go (i + 1) rest
    in
    go 0 rules
  in
  let doc =
    Obj
      [
        ( "$schema",
          Str
            "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/Schemata/sarif-schema-2.1.0.json"
        );
        ("version", Str "2.1.0");
        ( "runs",
          Arr
            [
              Obj
                [
                  ( "tool",
                    Obj
                      [
                        ( "driver",
                          Obj
                            [
                              ("name", Str "qls_lint");
                              ("informationUri", Str "https://github.com/qubikos/qubikos");
                              ("semanticVersion", Str "1.0.0");
                              ("rules", Arr (List.map rule_json rules));
                            ] );
                      ] );
                  ("columnKind", Str "utf16CodeUnits");
                  ("results", Arr (List.map (result_json ~rule_index) findings));
                ];
            ] );
      ]
  in
  let b = Buffer.create 4096 in
  emit b doc;
  Buffer.add_char b '\n';
  Buffer.contents b

let write ~path ~rules ~findings =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc (render ~rules ~findings))
