(* Tests for the bench kit: the committed BENCH_*.json baselines
   round-trip through it byte for byte, every gate primitive trips on a
   doctored input and holds at its boundary, and a damaged entry line
   is reported by file and line. *)

module Kit = Bench_kit

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)
let test_case name f = Alcotest.test_case name `Quick f
let router_json = "../../BENCH_router.json"
let serve_json = "../../BENCH_serve.json"

let baselines =
  [ ("router", router_json); ("sat", "../../BENCH_sat.json"); ("serve", serve_json) ]

let contents path = In_channel.with_open_bin path In_channel.input_all

let contains s sub =
  let n = String.length sub in
  let rec go i =
    i + n <= String.length s
    && (String.equal (String.sub s i n) sub || go (i + 1))
  in
  go 0

let roundtrip (bench, path) () =
  let f = Kit.read path in
  check_string "bench" bench f.Kit.bench;
  check_bool "has entries" false (List.is_empty f.Kit.entries);
  check_string "re-emitted bytes" (contents path) (Kit.to_json f)

(* The committed router baseline, as the gates see it. *)
let router_entries () = (Kit.read router_json).Kit.entries

let key e =
  Printf.sprintf "%s/%s/%d" (Kit.string e "router") (Kit.string e "device")
    (Kit.int e "gate_budget")

let gate () = Kit.gate ~baseline:"BENCH_router.json"
let count g = List.length (Kit.problems g)

let test_missing_entry () =
  let base = router_entries () in
  let g = gate () in
  let pairs = Kit.pair g ~key ~base:(List.tl base) base in
  check_int "pairs" (List.length base - 1) (List.length pairs);
  match Kit.problems g with
  | [ p ] ->
      check_bool "names the entry" true (contains p (key (List.hd base)));
      check_bool "says it is missing" true (contains p "no baseline entry")
  | ps -> Alcotest.failf "expected one problem, got %d" (List.length ps)

let test_all_present () =
  let base = router_entries () in
  let g = gate () in
  check_int "pairs" (List.length base)
    (List.length (Kit.pair g ~key ~base base));
  check_int "problems" 0 (count g)

let test_exact () =
  let g = gate () in
  let swaps e = Kit.int e "swaps" in
  List.iter
    (fun e -> Kit.exact g (key e) "swaps" ~expected:(swaps e) (swaps e))
    (router_entries ());
  check_int "unchanged counters pass" 0 (count g);
  let e = List.hd (router_entries ()) in
  Kit.exact g (key e) "swaps" ~expected:(swaps e) (swaps e + 1);
  check_int "a changed counter fails" 1 (count g)

let test_no_rise () =
  let g = gate () in
  let bpr e = Kit.float e "builds_per_round" in
  List.iter
    (fun e ->
      Kit.no_rise g (key e) ~quantum:1e-4 "builds_per_round" ~base:(bpr e)
        (bpr e +. 1e-4);
      Kit.no_rise g (key e) ~quantum:1e-4 "builds_per_round" ~base:(bpr e)
        (bpr e -. 0.1))
    (router_entries ());
  check_int "1e-4 above the baseline passes" 0 (count g);
  let e = List.hd (router_entries ()) in
  Kit.no_rise g (key e) ~quantum:1e-4 "builds_per_round" ~base:(bpr e)
    (bpr e +. 2e-4);
  Kit.no_rise g (key e) "fresh_conflicts" ~base:857.0 858.0;
  check_int "a rise fails" 2 (count g)

let test_geomean () =
  let problems tolerance pairs =
    let g = gate () in
    Kit.geomean g "sabre" "ns_per_gate" ~tolerance pairs;
    count g
  in
  check_int "exactly 1 + tolerance passes" 0
    (problems 0.25 [ (2.5, 2.0); (5.0, 4.0) ]);
  check_int "CI tolerance boundary passes" 0
    (problems 0.15 [ (1.0 +. 0.15, 1.0) ]);
  check_int "over tolerance fails" 1 (problems 0.25 [ (2.5, 2.0); (5.5, 4.0) ]);
  check_int "a faster entry offsets a slower one" 0
    (problems 0.25 [ (3.0, 2.0); (2.0, 2.0) ]);
  check_int "a halved baseline fails" 1
    (problems 0.15
       (List.map
          (fun e ->
            let t = Kit.float e "ns_per_gate" in
            (t, t /. 2.0))
          (router_entries ())));
  check_int "no positive baseline, nothing to gate" 0
    (problems 0.25 [ (1.0, 0.0) ])

(* [f path] on a copy of the serve baseline whose entry line (line 6)
   is replaced by [line]. *)
let with_entry_line line f =
  let path = Filename.temp_file "bench_kit" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      String.split_on_char '\n' (contents serve_json)
      |> List.mapi (fun i l -> if i = 5 then line else l)
      |> String.concat "\n"
      |> fun text ->
      Out_channel.with_open_bin path (fun oc -> output_string oc text);
      f path)

let serve_entry () = List.nth (String.split_on_char '\n' (contents serve_json)) 5

let raises_at_line_6 read path =
  match read path with
  | _ -> Alcotest.fail "expected the damaged line to raise"
  | exception Failure msg ->
      check_bool ("names the line: " ^ msg) true (contains msg (path ^ ":6:"))

let test_malformed () =
  let entry = serve_entry () in
  List.iter
    (fun line -> with_entry_line line (raises_at_line_6 Kit.read))
    [
      entry ^ "xyz";
      String.sub entry 0 (String.length entry / 2);
      "    garbage";
    ]

let test_decode_error_names_line () =
  with_entry_line (serve_entry ()) (fun path ->
      check_int "decodes" 1
        (List.length (Kit.load path (fun e -> Kit.int e "requests")));
      raises_at_line_6 (fun p -> Kit.load p (fun e -> Kit.int e "nope")) path)

let test_writer_refuses_retyped () =
  let refuses entry =
    match Kit.to_json { Kit.bench = "t"; mode = "quick"; entries = [ entry ] } with
    | _ -> false
    | exception Invalid_argument _ -> true
  in
  check_bool "numeric string" true (refuses [ ("device", Kit.String "12") ]);
  check_bool "float without decimals" true
    (refuses [ ("ms", Kit.Float (0, 1.0)) ])

let () =
  Alcotest.run "bench_kit"
    [
      ( "roundtrip",
        List.map (fun (b, p) -> test_case b (roundtrip (b, p))) baselines );
      ( "gates",
        [
          test_case "missing baseline entry fails" test_missing_entry;
          test_case "every entry present passes" test_all_present;
          test_case "exact counter" test_exact;
          test_case "no rise, quantum boundary" test_no_rise;
          test_case "geomean, tolerance boundary" test_geomean;
        ] );
      ( "reading",
        [
          test_case "malformed entry line names its line" test_malformed;
          test_case "decode error names its line" test_decode_error_names_line;
          test_case "writer refuses values that read back retyped"
            test_writer_refuses_retyped;
        ] );
    ]
