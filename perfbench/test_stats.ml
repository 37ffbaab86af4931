(* Unit tests for the benchmark's statistics: nearest-rank quantiles,
   the ten-samples-beyond rule, the geometric mean and the per-pass seed
   derivation. *)

module Stats = Perfbench_stats.Stats

let exact = Alcotest.(check (float 0.0))
let close = Alcotest.(check (float 1e-9))

let nearest_rank () =
  (* The textbook nearest-rank example. *)
  let five = [| 15.; 20.; 35.; 40.; 50. |] in
  exact "p5" 15. (Stats.nearest_rank five 0.05);
  exact "p30" 20. (Stats.nearest_rank five 0.30);
  exact "p40" 20. (Stats.nearest_rank five 0.40);
  exact "p50" 35. (Stats.nearest_rank five 0.50);
  exact "p100" 50. (Stats.nearest_rank five 1.0);
  exact "p0 is the minimum" 15. (Stats.nearest_rank five 0.0);
  let hundred = Array.init 100 (fun i -> float_of_int (i + 1)) in
  exact "p90 of 1..100 is 90, not 91" 90. (Stats.nearest_rank hundred 0.9);
  exact "p50 of 1..100" 50. (Stats.nearest_rank hundred 0.5);
  Alcotest.check_raises "no samples"
    (Invalid_argument "Stats.nearest_rank: no samples") (fun () ->
      ignore (Stats.nearest_rank [||] 0.5));
  Alcotest.check_raises "q above 1"
    (Invalid_argument "Stats: quantile outside [0, 1]") (fun () ->
      ignore (Stats.nearest_rank five 1.5))

let tail_rule () =
  let upto n = Array.init n float_of_int in
  let opt = Alcotest.(option (float 0.0)) in
  Alcotest.(check int) "p90 needs 100 samples" 100 (Stats.min_samples 0.9);
  Alcotest.(check int) "p50 needs 20 samples" 20 (Stats.min_samples 0.5);
  Alcotest.(check int)
    "ten samples beyond p90 of 100" 10
    (Stats.tail_samples ~n:100 0.9);
  Alcotest.check opt "p90 of 99 is withheld" None
    (Stats.percentile (upto 99) 0.9);
  Alcotest.check opt "p90 of 100 is reported" (Some 89.)
    (Stats.percentile (upto 100) 0.9);
  Alcotest.check opt "p50 of 19 is withheld" None
    (Stats.percentile (upto 19) 0.5);
  Alcotest.check opt "p50 of 20 is reported" (Some 9.)
    (Stats.percentile (upto 20) 0.5)

let geomean () =
  close "1 and 100" 10. (Stats.geomean [ 1.; 100. ]);
  close "2 and 8" 4. (Stats.geomean [ 2.; 8. ]);
  close "one sample" 5. (Stats.geomean [ 5. ]);
  (* A 1 ms op and a 2.6 s op weigh the same. *)
  close "scale-free" (sqrt 2600.) (Stats.geomean [ 1.; 2600. ]);
  Alcotest.check_raises "empty" (Invalid_argument "Stats.geomean: no samples")
    (fun () -> ignore (Stats.geomean []));
  List.iter
    (fun (name, xs) ->
      Alcotest.check_raises name
        (Invalid_argument "Stats.geomean: non-positive sample") (fun () ->
          ignore (Stats.geomean xs)))
    [ ("zero", [ 1.; 0. ]); ("negative", [ -1. ]); ("nan", [ Float.nan ]) ]

let median () =
  exact "odd count" 2. (Stats.median [ 3.; 1.; 2. ]);
  exact "even count" 2.5 (Stats.median [ 4.; 1.; 3.; 2. ])

let pass_seed () =
  let s = Stats.pass_seed in
  let forward = List.init 50 (fun i -> s ~seed:9 ~pass:i) in
  let backward = List.rev (List.init 50 (fun i -> s ~seed:9 ~pass:(49 - i))) in
  Alcotest.(check (list int)) "independent of call order" forward backward;
  let seeds = List.init 2000 (fun i -> s ~seed:42 ~pass:(i - 3)) in
  Alcotest.(check int)
    "distinct across passes, warm-ups included" 2000
    (List.length (List.sort_uniq Int.compare seeds));
  Alcotest.(check bool)
    "non-negative and 30-bit" true
    (List.for_all (fun x -> x >= 0 && x < 1 lsl 30) seeds);
  Alcotest.(check bool)
    "the workload seed matters" true
    (s ~seed:1 ~pass:0 <> s ~seed:2 ~pass:0)

let () =
  Alcotest.run "perfbench"
    [
      ( "stats",
        [
          Alcotest.test_case "nearest-rank quantile" `Quick nearest_rank;
          Alcotest.test_case "ten samples beyond a percentile" `Quick tail_rule;
          Alcotest.test_case "geometric mean" `Quick geomean;
          Alcotest.test_case "median" `Quick median;
          Alcotest.test_case "per-pass seeds are deterministic" `Quick pass_seed;
        ] );
    ]
