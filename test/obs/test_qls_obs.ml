(* Tests for Qls_obs: the disabled-path contract, span emission into
   both sinks (JSONL seal + parse-back, Chrome export shape), nesting
   well-formedness per domain, counters/histograms, and corruption
   detection on read-back through the shared sealed-log loader. *)

module Obs = Qls_obs

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)
let test_case name f = Alcotest.test_case name `Quick f

let tmp_path ext =
  let path = Filename.temp_file "qls_obs_test" ext in
  Sys.remove path;
  path

(* Every test leaves tracing disarmed and metrics clean, whatever
   happened — the registry is process-global. *)
let isolated f () =
  Fun.protect
    ~finally:(fun () ->
      Obs.shutdown ();
      Obs.reset_metrics ())
    f

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

(* ------------------------------------------------------------------ *)

let disabled_tests =
  [
    test_case "disabled: start returns the inert span, stop is a no-op"
      (isolated (fun () ->
           check_bool "disabled by default" false (Obs.enabled ());
           let sp = Obs.start ~site:"router" "round" in
           check_bool "inert span" true (sp == Obs.none);
           Obs.stop sp ~attrs:[ ("k", Obs.Int 1) ]));
    test_case "disabled: with_span runs the body and returns its value"
      (isolated (fun () ->
           let hit = ref false in
           let v =
             Obs.with_span ~site:"x" "body" (fun () ->
                 hit := true;
                 42)
           in
           check_int "value" 42 v;
           check_bool "body ran" true !hit));
    test_case "disabled: with_span never evaluates the attrs thunk"
      (isolated (fun () ->
           let evaluated = ref false in
           ignore
             (Obs.with_span "a"
                ~attrs:(fun () ->
                  evaluated := true;
                  [])
                (fun () -> 1));
           check_bool "attrs thunk untouched" false !evaluated));
  ]

(* ------------------------------------------------------------------ *)

let jsonl_tests =
  [
    test_case "jsonl: spans round-trip with site, attrs and ordering"
      (isolated (fun () ->
           let path = tmp_path ".jsonl" in
           Obs.tracing_to path;
           check_bool "enabled" true (Obs.enabled ());
           Obs.with_span ~site:"gen" "outer"
             ~attrs:(fun () -> [ ("n", Obs.Int 3); ("tool", Obs.Str "sabre") ])
             (fun () ->
               Obs.with_span ~site:"router" "inner" (fun () -> ()));
           Obs.shutdown ();
           check_bool "disarmed" false (Obs.enabled ());
           let records, bad = Obs.load_jsonl path in
           Sys.remove path;
           check_int "no rejects" 0 bad;
           check_int "two spans" 2 (List.length records);
           (* Spans are emitted at stop: inner closes first. *)
           let inner = List.nth records 0 and outer = List.nth records 1 in
           check_string "inner name" "inner" inner.Obs.r_name;
           check_string "inner site" "router" inner.Obs.r_site;
           check_string "outer name" "outer" outer.Obs.r_name;
           check_string "attr n" "3" (List.assoc "n" outer.Obs.r_attrs);
           check_string "attr tool" "sabre"
             (List.assoc "tool" outer.Obs.r_attrs);
           check_bool "durations non-negative" true
             (List.for_all (fun r -> r.Obs.r_dur >= 0.0) records)));
    test_case "jsonl: nesting is well-formed (inner within outer)"
      (isolated (fun () ->
           let path = tmp_path ".jsonl" in
           Obs.tracing_to path;
           Obs.with_span "outer" (fun () ->
               Obs.with_span "inner" (fun () -> Thread.delay 0.002));
           Obs.shutdown ();
           let records, _ = Obs.load_jsonl path in
           Sys.remove path;
           let find n = List.find (fun r -> r.Obs.r_name = n) records in
           let o = find "outer" and i = find "inner" in
           check_bool "inner starts after outer" true
             (i.Obs.r_start >= o.Obs.r_start);
           check_bool "inner ends before outer" true
             (i.Obs.r_start +. i.Obs.r_dur
             <= o.Obs.r_start +. o.Obs.r_dur +. 1e-9)));
    test_case "jsonl: every line carries a valid seal; mangling is caught"
      (isolated (fun () ->
           let path = tmp_path ".jsonl" in
           Obs.tracing_to path;
           for i = 1 to 5 do
             Obs.with_span "s"
               ~attrs:(fun () -> [ ("i", Obs.Int i) ])
               (fun () -> ())
           done;
           Obs.shutdown ();
           let lines =
             String.split_on_char '\n' (read_file path)
             |> List.filter (fun l -> l <> "")
           in
           check_int "five lines" 5 (List.length lines);
           List.iter
             (fun l ->
               (* The seal is the CRC of the line without its crc member. *)
               let marker = {|,"crc":"|} in
               let idx =
                 let rec find i =
                   if i + String.length marker > String.length l then
                     Alcotest.fail "no crc member"
                   else if String.sub l i (String.length marker) = marker then
                     i
                   else find (i + 1)
                 in
                 find 0
               in
               let body = String.sub l 0 idx ^ "}" in
               let crc = String.sub l (idx + String.length marker) 8 in
               check_string "crc" (Qls_sealed.crc32 body) crc)
             lines;
           (* Flip a byte in the middle line: exactly one reject. *)
           let bytes = Bytes.of_string (read_file path) in
           Bytes.set bytes (Bytes.length bytes / 2)
             (Char.chr
                (Char.code (Bytes.get bytes (Bytes.length bytes / 2)) lxor 1));
           let oc = open_out_bin path in
           output_bytes oc bytes;
           close_out oc;
           let records, bad = Obs.load_jsonl path in
           Sys.remove path;
           check_int "one reject" 1 bad;
           check_int "four survivors" 4 (List.length records)));
    test_case "jsonl: a torn final line is rejected, earlier spans kept"
      (isolated (fun () ->
           let path = tmp_path ".jsonl" in
           Obs.tracing_to path;
           Obs.with_span "a" (fun () -> ());
           Obs.with_span "b" (fun () -> ());
           Obs.shutdown ();
           let s = read_file path in
           let oc = open_out_bin path in
           output_string oc (String.sub s 0 (String.length s - 7));
           close_out oc;
           let records, bad = Obs.load_jsonl path in
           Sys.remove path;
           check_int "torn tail rejected" 1 bad;
           check_int "first span survives" 1 (List.length records);
           check_string "it is span a" "a" (List.hd records).Obs.r_name));
    test_case "jsonl: string attributes read back exactly as written"
      (isolated (fun () ->
           (* A comma, escaped quotes, braces and a colon: a value a
              scanner splitting a nested object on ',' would cut, or
              leave escaped. *)
           let strs =
             [ ("id", "a,b"); ("msg", {|say "hi" {x}|}); ("kv", "k:v") ]
           in
           let path = tmp_path ".jsonl" in
           Obs.tracing_to path;
           Obs.with_span "s"
             ~attrs:(fun () ->
               ("n", Obs.Int 3) :: List.map (fun (k, v) -> (k, Obs.Str v)) strs)
             (fun () -> ());
           Obs.shutdown ();
           let records, bad = Obs.load_jsonl path in
           Sys.remove path;
           check_int "no rejects" 0 bad;
           match records with
           | [ r ] ->
               Alcotest.(check (list (pair string string)))
                 "attrs" (("n", "3") :: strs) r.Obs.r_attrs
           | rs -> Alcotest.failf "%d spans, expected 1" (List.length rs)));
    test_case "jsonl: unsealed lines and sealed non-spans are rejected"
      (isolated (fun () ->
           let path = tmp_path ".jsonl" in
           Obs.tracing_to path;
           Obs.with_span "a" (fun () -> ());
           Obs.shutdown ();
           let span = String.trim (read_file path) in
           let oc = open_out_bin path in
           List.iter
             (fun l -> output_string oc (l ^ "\n"))
             [
               span;
               Option.get (Qls_sealed.unseal_ok span);
               Qls_sealed.seal {|{"name":"b"}|};
               span;
             ];
           close_out oc;
           let records, bad = Obs.load_jsonl path in
           Sys.remove path;
           check_int "two rejects" 2 bad;
           check_int "both spans load" 2 (List.length records)));
    test_case "jsonl: missing file is an empty trace"
      (isolated (fun () ->
           let records, bad = Obs.load_jsonl "/nonexistent/trace.jsonl" in
           check_int "no records" 0 (List.length records);
           check_int "no rejects" 0 bad));
  ]

(* ------------------------------------------------------------------ *)

(* A minimal JSON well-formedness scanner: balanced braces/brackets
   outside strings, so a truncated or interleaved Chrome export fails. *)
let json_balanced s =
  let depth = ref 0 and in_str = ref false and esc = ref false in
  let ok = ref true in
  String.iter
    (fun c ->
      if !esc then esc := false
      else if !in_str then begin
        if c = '\\' then esc := true else if c = '"' then in_str := false
      end
      else
        match c with
        | '"' -> in_str := true
        | '{' | '[' -> incr depth
        | '}' | ']' ->
            decr depth;
            if !depth < 0 then ok := false
        | _ -> ())
    s;
  !ok && !depth = 0 && not !in_str

let chrome_tests =
  [
    test_case "chrome: export is balanced JSON with the traceEvents shape"
      (isolated (fun () ->
           let path = tmp_path ".json" in
           Obs.tracing_to path;
           Obs.with_span ~site:"router" "sabre.round"
             ~attrs:(fun () -> [ ("emitted", Obs.Int 2) ])
             (fun () -> ());
           Obs.with_span ~site:"sat" "sat.solve" (fun () -> ());
           Obs.shutdown ();
           let s = read_file path in
           Sys.remove path;
           check_bool "balanced json" true (json_balanced s);
           let has sub =
             let n = String.length sub in
             let rec go i =
               i + n <= String.length s
               && (String.sub s i n = sub || go (i + 1))
             in
             go 0
           in
           check_bool "traceEvents key" true (has "\"traceEvents\"");
           check_bool "complete events" true (has "\"ph\":\"X\"");
           check_bool "span name present" true (has "\"sabre.round\"");
           check_bool "site as category" true (has "\"cat\":\"sat\"");
           check_bool "args carried" true (has "\"emitted\":2")));
    test_case "chrome: shutdown is idempotent and leaves one valid file"
      (isolated (fun () ->
           let path = tmp_path ".json" in
           Obs.tracing_to path;
           Obs.with_span "only" (fun () -> ());
           Obs.shutdown ();
           Obs.shutdown ();
           let s = read_file path in
           Sys.remove path;
           check_bool "still balanced" true (json_balanced s)));
    test_case "format inference: .jsonl suffix selects the line sink"
      (isolated (fun () ->
           let path = tmp_path ".jsonl" in
           Obs.tracing_to path;
           Obs.with_span "x" (fun () -> ());
           Obs.shutdown ();
           let records, bad = Obs.load_jsonl path in
           Sys.remove path;
           check_int "parses as jsonl" 1 (List.length records);
           check_int "no rejects" 0 bad));
  ]

(* ------------------------------------------------------------------ *)

let sealed_log_tests =
  [
    test_case "a payload the decoder rejects is quarantined in place"
      (fun () ->
        let path = tmp_path ".jsonl" in
        let log = Qls_sealed.Log.open_append path in
        List.iter
          (Qls_sealed.Log.append log ~key:"k")
          [ {|{"n":1}|}; {|{"n":"two"}|}; {|{"n":3}|} ];
        Qls_sealed.Log.close log;
        let parse payload =
          match List.assoc_opt "n" (Qls_sealed.fields_of_line payload) with
          | Some n ->
              Option.to_result ~none:("bad n " ^ n) (int_of_string_opt n)
          | None -> Error "no n"
        in
        let values, bad = Qls_sealed.Log.load ~parse path in
        let raw = List.nth (String.split_on_char '\n' (read_file path)) 1 in
        Sys.remove path;
        Alcotest.(check (list int)) "the lines around it load" [ 1; 3 ] values;
        match bad with
        | [ c ] ->
            check_int "line number" 2 c.Qls_sealed.line_no;
            check_string "reason" "bad n two" c.Qls_sealed.reason;
            check_string "raw bytes" raw c.Qls_sealed.text
        | l -> Alcotest.failf "%d quarantined, expected 1" (List.length l));
  ]

(* ------------------------------------------------------------------ *)

let metrics_tests =
  [
    test_case "counters: named cells are shared, sorted, resettable"
      (isolated (fun () ->
           let a = Obs.counter "z.second" and b = Obs.counter "a.first" in
           Obs.incr a;
           Obs.add b 5;
           Obs.add (Obs.counter "z.second") 2;
           check_int "shared by name" 3 (Obs.counter_value a);
           (match Obs.counters () with
           | [ (n1, v1); (n2, v2) ] ->
               check_string "sorted first" "a.first" n1;
               check_int "a value" 5 v1;
               check_string "sorted second" "z.second" n2;
               check_int "z value" 3 v2
           | l -> Alcotest.failf "expected 2 counters, got %d" (List.length l));
           Obs.reset_metrics ();
           check_int "reset" 0 (Obs.counter_value a)));
    test_case "counters: atomic across domains"
      (isolated (fun () ->
           let c = Obs.counter "stress" in
           let domains =
             List.init 4 (fun _ ->
                 Domain.spawn (fun () ->
                     for _ = 1 to 10_000 do
                       Obs.incr c
                     done))
           in
           List.iter Domain.join domains;
           check_int "no lost increments" 40_000 (Obs.counter_value c)));
    test_case "histograms: bucketing, totals and the quantile estimate"
      (isolated (fun () ->
           let h = Obs.histogram ~bounds:[| 0.1; 1.0; 10.0 |] "lat" in
           List.iter (Obs.observe h) [ 0.05; 0.5; 0.7; 5.0; 100.0 ];
           let bounds, counts = Obs.histogram_counts h in
           check_int "bounds" 3 (Array.length bounds);
           check_int "buckets incl overflow" 4 (Array.length counts);
           check_int "b0" 1 counts.(0);
           check_int "b1" 2 counts.(1);
           check_int "b2" 1 counts.(2);
           check_int "overflow" 1 counts.(3);
           check_int "total" 5 (Obs.histogram_total h);
           (match Obs.approx_quantile h 0.5 with
           | Some q -> Alcotest.(check (float 1e-9)) "median bound" 1.0 q
           | None -> Alcotest.fail "quantile on non-empty histogram");
           check_bool "nan rejected" true
             (match Obs.observe h Float.nan with
             | () -> false
             | exception Invalid_argument _ -> true)));
    test_case "histograms: empty quantile is None"
      (isolated (fun () ->
           let h = Obs.histogram "empty" in
           check_bool "none" true (Obs.approx_quantile h 0.9 = None)));
  ]

let () =
  Alcotest.run "qls_obs"
    [
      ("disabled", disabled_tests);
      ("jsonl", jsonl_tests);
      ("chrome", chrome_tests);
      ("sealed-log", sealed_log_tests);
      ("metrics", metrics_tests);
    ]
