(* Tests for the CDCL SAT solver: hand instances, pigeonhole refutations
   and random 3-SAT cross-checked against a brute-force evaluator. *)

module Solver = Qls_sat.Solver
module Rng = Qls_graph.Rng

let check_bool = Alcotest.(check bool)
let test_case name f = Alcotest.test_case name `Quick f

let solve_clauses nv clauses =
  let s = Solver.create nv in
  List.iter (Solver.add_clause s) clauses;
  (s, Solver.solve s)

let is_sat = function Solver.Sat -> true | Solver.Unsat | Solver.Unknown -> false
let is_unsat = function Solver.Unsat -> true | Solver.Sat | Solver.Unknown -> false

let model_satisfies s clauses =
  List.for_all
    (fun clause ->
      List.exists
        (fun l ->
          let v = abs l in
          if l > 0 then Solver.value s v else not (Solver.value s v))
        clause)
    clauses

(* Pigeonhole principle: n+1 pigeons, n holes — classic UNSAT family.
   Variable p*n + h + 1 = "pigeon p sits in hole h". *)
let pigeonhole n =
  let var p h = (p * n) + h + 1 in
  let nv = (n + 1) * n in
  let clauses = ref [] in
  for p = 0 to n do
    clauses := List.init n (fun h -> var p h) :: !clauses
  done;
  for h = 0 to n - 1 do
    for p = 0 to n do
      for p' = p + 1 to n do
        clauses := [ -var p h; -var p' h ] :: !clauses
      done
    done
  done;
  (nv, !clauses)

(* Uniform random 3-SAT: [n_clauses] clauses of three literals over
   variables [1 .. nv], drawn from [rng]. *)
let random_3sat rng ~nv ~n_clauses =
  List.init n_clauses (fun _ ->
      List.init 3 (fun _ ->
          let v = 1 + Rng.int rng nv in
          if Rng.bool rng then v else -v))

let basic_tests =
  [
    test_case "empty formula is satisfiable" (fun () ->
        let _, r = solve_clauses 3 [] in
        check_bool "sat" true (is_sat r));
    test_case "unit clauses force the model" (fun () ->
        let s, r = solve_clauses 3 [ [ 1 ]; [ -2 ]; [ 3 ] ] in
        check_bool "sat" true (is_sat r);
        check_bool "v1" true (Solver.value s 1);
        check_bool "v2" false (Solver.value s 2);
        check_bool "v3" true (Solver.value s 3));
    test_case "free variables take the negative initial phase" (fun () ->
        (* Every decision branches negative first, so nothing but the
           unit's variable comes out true, and without a conflict. *)
        let s, r = solve_clauses 4 [ [ 3 ] ] in
        check_bool "sat" true (is_sat r);
        Alcotest.(check (list bool))
          "model" [ false; false; true; false ]
          (List.map (Solver.value s) [ 1; 2; 3; 4 ]);
        Alcotest.(check int) "conflicts" 0 (fst (Solver.stats s)));
    test_case "contradicting units are unsat" (fun () ->
        let _, r = solve_clauses 2 [ [ 1 ]; [ -1 ] ] in
        check_bool "unsat" true (is_unsat r));
    test_case "empty clause is unsat" (fun () ->
        let _, r = solve_clauses 2 [ [] ] in
        check_bool "unsat" true (is_unsat r));
    test_case "tautologies are ignored" (fun () ->
        let _, r = solve_clauses 2 [ [ 1; -1 ]; [ 2 ] ] in
        check_bool "sat" true (is_sat r));
    test_case "simple implication chain" (fun () ->
        (* 1, 1->2, 2->3, 3->4 forces all true *)
        let s, r = solve_clauses 4 [ [ 1 ]; [ -1; 2 ]; [ -2; 3 ]; [ -3; 4 ] ] in
        check_bool "sat" true (is_sat r);
        check_bool "v4 forced" true (Solver.value s 4));
    test_case "xor chain needs real search" (fun () ->
        (* (1 xor 2), (2 xor 3), (1 xor 3) is unsat *)
        let _, r =
          solve_clauses 3
            [ [ 1; 2 ]; [ -1; -2 ]; [ 2; 3 ]; [ -2; -3 ]; [ 1; 3 ]; [ -1; -3 ] ]
        in
        check_bool "unsat" true (is_unsat r));
    test_case "pigeonhole 2 into 1" (fun () ->
        let nv, clauses = pigeonhole 1 in
        let _, r = solve_clauses nv clauses in
        check_bool "unsat" true (is_unsat r));
    test_case "pigeonhole 4 into 3" (fun () ->
        let nv, clauses = pigeonhole 3 in
        let _, r = solve_clauses nv clauses in
        check_bool "unsat" true (is_unsat r));
    test_case "pigeonhole 6 into 5 (forces clause learning)" (fun () ->
        let nv, clauses = pigeonhole 5 in
        let s, r = solve_clauses nv clauses in
        check_bool "unsat" true (is_unsat r);
        let conflicts, _ = Solver.stats s in
        check_bool "searched" true (conflicts > 0));
    test_case "n holes do fit n pigeons" (fun () ->
        (* drop one pigeon: satisfiable *)
        let n = 4 in
        let var p h = (p * n) + h + 1 in
        let clauses = ref [] in
        for p = 0 to n - 1 do
          clauses := List.init n (fun h -> var p h) :: !clauses
        done;
        for h = 0 to n - 1 do
          for p = 0 to n - 1 do
            for p' = p + 1 to n - 1 do
              clauses := [ -var p h; -var p' h ] :: !clauses
            done
          done
        done;
        let s, r = solve_clauses (n * n) !clauses in
        check_bool "sat" true (is_sat r);
        check_bool "model valid" true (model_satisfies s !clauses));
    test_case "add_clause rejects bad literals" (fun () ->
        let s = Solver.create 2 in
        check_bool "raises" true
          (try
             Solver.add_clause s [ 0 ];
             false
           with Invalid_argument _ -> true);
        check_bool "raises range" true
          (try
             Solver.add_clause s [ 5 ];
             false
           with Invalid_argument _ -> true));
    test_case "value without model rejected" (fun () ->
        let s = Solver.create 1 in
        Solver.add_clause s [ 1 ];
        check_bool "raises" true
          (try
             ignore (Solver.value s 1);
             false
           with Invalid_argument _ -> true));
    test_case "conflict budget reports unknown" (fun () ->
        let nv, clauses = pigeonhole 6 in
        let s = Solver.create nv in
        List.iter (Solver.add_clause s) clauses;
        check_bool "unknown" true (Solver.solve ~conflict_budget:1 s = Solver.Unknown));
    test_case "a long clause is simplified against level 0" (fun () ->
        (* a hundred literals, descending and with repeats, so the sort
           shifts every slot; all but one are false at level 0, so the
           clause is a unit that forces a variable the default negative
           phase would set false *)
        let nv = 100 in
        let units = List.init (nv - 1) (fun i -> [ -(i + 1) ]) in
        let long = List.init nv (fun i -> nv - i) @ [ 50; 7; nv ] in
        let s, r = solve_clauses nv (units @ [ long ]) in
        check_bool "sat" true (is_sat r);
        check_bool "forced" true (Solver.value s nv));
  ]

(* Incremental interface: clause addition between solves, assumptions,
   unsat cores, budget flag, cumulative stats, seeded configurations. *)
let incremental_tests =
  [
    test_case "add_clause after solve narrows the models" (fun () ->
        let s = Solver.create 2 in
        Solver.add_clause s [ 1; 2 ];
        check_bool "sat" true (is_sat (Solver.solve s));
        Solver.add_clause s [ -1 ];
        check_bool "still sat" true (is_sat (Solver.solve s));
        check_bool "v2 forced" true (Solver.value s 2);
        check_bool "v1 false" false (Solver.value s 1);
        Solver.add_clause s [ -2 ];
        check_bool "now unsat" true (is_unsat (Solver.solve s));
        check_bool "permanently unsat" true (is_unsat (Solver.solve s)));
    test_case "assumptions hold for one call only" (fun () ->
        let s = Solver.create 2 in
        Solver.add_clause s [ 1; 2 ];
        check_bool "sat under 1" true
          (is_sat (Solver.solve ~assumptions:[ 1; -2 ] s));
        check_bool "v1 assumed" true (Solver.value s 1);
        check_bool "v2 assumed false" false (Solver.value s 2);
        check_bool "sat under -1" true
          (is_sat (Solver.solve ~assumptions:[ -1 ] s));
        check_bool "v1 flipped" false (Solver.value s 1);
        check_bool "v2 forced" true (Solver.value s 2);
        (* nothing persisted: the unconstrained solve is still free *)
        check_bool "sat unassumed" true (is_sat (Solver.solve s)));
    test_case "falsified assumption yields a core, not root unsat" (fun () ->
        let s = Solver.create 3 in
        Solver.add_clause s [ -1; -2 ];
        check_bool "unsat under 1,2" true
          (is_unsat (Solver.solve ~assumptions:[ 1; 2; 3 ] s));
        let core = Solver.unsat_core s in
        check_bool "core nonempty" true (core <> []);
        check_bool "core is a subset of the assumptions" true
          (List.for_all (fun l -> List.mem l [ 1; 2; 3 ]) core);
        check_bool "core avoids the irrelevant assumption" true
          (not (List.mem 3 core));
        (* the core alone must reproduce the refutation *)
        check_bool "core sufficient" true
          (is_unsat (Solver.solve ~assumptions:core s));
        (* and the instance itself is still satisfiable *)
        check_bool "sat without assumptions" true (is_sat (Solver.solve s));
        check_bool "core cleared on sat" true (Solver.unsat_core s = []));
    test_case "contradictory assumptions are unsat with both in core"
      (fun () ->
        let s = Solver.create 2 in
        Solver.add_clause s [ 1; 2 ];
        check_bool "unsat" true (is_unsat (Solver.solve ~assumptions:[ 1; -1 ] s));
        let core = Solver.unsat_core s in
        check_bool "core names the contradiction" true
          (List.mem 1 core && List.mem (-1) core));
    test_case "learned clauses persist across assumption solves" (fun () ->
        (* pigeonhole 5 guarded by variable g: under assumption g the
           instance is unsat and the refutation is learned as clauses over
           the pigeonhole variables and g. A second identical solve reuses
           them and must finish with strictly fewer conflicts. *)
        let nv, clauses = pigeonhole 4 in
        let g = nv + 1 in
        let s = Solver.create (nv + 1) in
        List.iter (fun c -> Solver.add_clause s (-g :: c)) clauses;
        check_bool "unsat under g" true
          (is_unsat (Solver.solve ~assumptions:[ g ] s));
        let first_conflicts, _ = Solver.stats s in
        check_bool "first solve searched" true (first_conflicts > 0);
        check_bool "clauses were learned" true (Solver.learned s > 0);
        check_bool "still unsat under g" true
          (is_unsat (Solver.solve ~assumptions:[ g ] s));
        let second_conflicts, _ = Solver.stats s in
        check_bool "retained learning made the re-solve cheaper" true
          (second_conflicts < first_conflicts);
        check_bool "sat without g" true (is_sat (Solver.solve s));
        check_bool "g deactivated" false (Solver.value s g));
    test_case "budget exhaustion sets the explicit flag" (fun () ->
        let nv, clauses = pigeonhole 6 in
        let s = Solver.create nv in
        List.iter (Solver.add_clause s) clauses;
        check_bool "unknown" true
          (Solver.solve ~conflict_budget:1 s = Solver.Unknown);
        check_bool "flag set" true (Solver.budget_exhausted s);
        let s2 = Solver.create 1 in
        Solver.add_clause s2 [ 1 ];
        check_bool "sat" true (is_sat (Solver.solve s2));
        check_bool "flag clear on completion" false (Solver.budget_exhausted s2));
    test_case "stats accumulate across solves" (fun () ->
        let nv, clauses = pigeonhole 3 in
        let g = nv + 1 in
        let s = Solver.create (nv + 1) in
        List.iter (fun c -> Solver.add_clause s (-g :: c)) clauses;
        let sum_c = ref 0 and sum_d = ref 0 and sum_r = ref 0 and sum_l = ref 0 in
        for _ = 1 to 3 do
          ignore (Solver.solve ~assumptions:[ g ] s);
          let c, d = Solver.stats s in
          sum_c := !sum_c + c;
          sum_d := !sum_d + d;
          sum_r := !sum_r + Solver.restarts s;
          sum_l := !sum_l + Solver.learned s
        done;
        check_bool "solves counted" true (Solver.solves s = 3);
        check_bool "totals are the per-call sums" true
          (Solver.total_stats s = (!sum_c, !sum_d, !sum_r, !sum_l)));
  ]

(* Brute-force evaluator for cross-checking. *)
let brute_sat nv clauses =
  let rec go assignment v =
    if v > nv then
      List.for_all
        (fun clause ->
          List.exists
            (fun l -> if l > 0 then assignment.(l) else not assignment.(-l))
            clause)
        clauses
    else begin
      assignment.(v) <- true;
      go assignment (v + 1)
      ||
      (assignment.(v) <- false;
       go assignment (v + 1))
    end
  in
  go (Array.make (nv + 1) false) 1

let random_props =
  [
    QCheck.Test.make ~name:"CDCL agrees with brute force on random 3-SAT"
      ~count:300
      QCheck.(int_range 0 100_000)
      (fun seed ->
        let rng = Rng.create seed in
        let nv = 4 + Rng.int rng 7 in
        let n_clauses = 2 + Rng.int rng (4 * nv) in
        let clauses = random_3sat rng ~nv ~n_clauses in
        let s, r = solve_clauses nv clauses in
        match r with
        | Solver.Sat -> model_satisfies s clauses && brute_sat nv clauses
        | Solver.Unsat -> not (brute_sat nv clauses)
        | Solver.Unknown -> false);
    QCheck.Test.make
      ~name:"solving under assumptions matches adding them as units"
      ~count:300
      QCheck.(int_range 0 100_000)
      (fun seed ->
        let rng = Rng.create seed in
        let nv = 4 + Rng.int rng 7 in
        let n_clauses = 2 + Rng.int rng (4 * nv) in
        let clauses = random_3sat rng ~nv ~n_clauses in
        let assumptions =
          List.init
            (Rng.int rng 4)
            (fun _ ->
              let v = 1 + Rng.int rng nv in
              if Rng.bool rng then v else -v)
        in
        (* one incremental solver, queried twice (plain, then assumed) — the
           assumed verdict must match a fresh solver with the assumptions
           baked in as unit clauses *)
        let s = Solver.create nv in
        List.iter (Solver.add_clause s) clauses;
        let plain = Solver.solve s in
        let assumed = Solver.solve ~assumptions s in
        let baked, baked_r =
          solve_clauses nv (List.map (fun l -> [ l ]) assumptions @ clauses)
        in
        ignore baked;
        is_sat assumed = is_sat baked_r
        && is_unsat assumed = is_unsat baked_r
        (* an assumption-unsat must expose a core drawn from assumptions *)
        && (not (is_unsat assumed && is_sat plain)
           || Solver.unsat_core s <> []
              && List.for_all
                   (fun l -> List.mem l assumptions)
                   (Solver.unsat_core s)));
  ]

(* Search pins: the exact (result, conflicts, decisions, restarts,
   learned) of each solve, recorded from the list-based solver before
   its internals moved onto flat arrays. Counts this exact catch a
   change of decision order, propagation order or learned clauses,
   which the verdict-only tests above cannot see. *)

let result_name = function
  | Solver.Sat -> "Sat"
  | Solver.Unsat -> "Unsat"
  | Solver.Unknown -> "Unknown"

let search =
  Alcotest.testable
    (fun ppf (r, c, d, rs, l) ->
      Format.fprintf ppf "(%s, %d, %d, %d, %d)" (result_name r) c d rs l)
    ( = )

let last_search s r =
  let conflicts, decisions = Solver.stats s in
  (r, conflicts, decisions, Solver.restarts s, Solver.learned s)

let check_search name expected (s, r) =
  Alcotest.check search name expected (last_search s r)

(* Random 3-SAT at clause/variable ratio 4.26, the satisfiability
   threshold: 80 variables, 341 clauses. *)
let threshold_pins =
  [
    (1, (Solver.Unsat, 88, 106, 0, 78));
    (2, (Solver.Sat, 6, 24, 0, 6));
    (3, (Solver.Unsat, 124, 139, 1, 118));
    (4, (Solver.Unsat, 176, 212, 1, 167));
    (5, (Solver.Unsat, 283, 325, 2, 276));
    (6, (Solver.Unsat, 44, 52, 0, 39));
    (7, (Solver.Unsat, 207, 242, 1, 202));
    (8, (Solver.Sat, 36, 63, 0, 36));
    (9, (Solver.Unsat, 72, 93, 0, 67));
    (10, (Solver.Sat, 92, 127, 0, 92));
  ]

let threshold_instance seed =
  random_3sat (Rng.create seed) ~nv:80 ~n_clauses:341

let pin_tests =
  [
    test_case "pigeonhole 6 into 5 takes the pinned search" (fun () ->
        let nv, clauses = pigeonhole 5 in
        check_search "php 6->5" (Solver.Unsat, 153, 194, 1, 146)
          (solve_clauses nv clauses));
    test_case "threshold random 3-SAT takes the pinned searches" (fun () ->
        List.iter
          (fun (seed, expected) ->
            check_search
              (Printf.sprintf "seed %d" seed)
              expected
              (solve_clauses 80 (threshold_instance seed)))
          threshold_pins);
    test_case "an assumption sequence on one solver takes the pinned searches"
      (fun () ->
        (* Pigeonhole 6 -> 5 with each pigeon's at-least-one-hole clause
           guarded by its own selector, plus a root-true variable [h]
           whose assumption opens a dummy level. Learned clauses carry
           from solve to solve, so every step depends on the ones
           before it. *)
        let n = 5 in
        let var p hole = (p * n) + hole + 1 in
        let nv = (n + 1) * n in
        let sel p = nv + 1 + p in
        let h = nv + n + 2 in
        let s = Solver.create h in
        Solver.add_clause s [ h ];
        for p = 0 to n do
          Solver.add_clause s (-sel p :: List.init n (fun hole -> var p hole))
        done;
        for hole = 0 to n - 1 do
          for p = 0 to n do
            for p' = p + 1 to n do
              Solver.add_clause s [ -var p hole; -var p' hole ]
            done
          done
        done;
        let step name assumptions expected core total =
          let r = Solver.solve ~assumptions s in
          check_search name expected (s, r);
          Alcotest.(check (list int)) (name ^ " core") core (Solver.unsat_core s);
          Alcotest.(check (list int))
            (name ^ " totals") total
            (let c, d, rs, l = Solver.total_stats s in
             [ c; d; rs; l ])
        in
        let sels = List.map sel in
        let all = [ 31; 32; 33; 34; 35; 36 ] in
        step "all pigeons" (h :: sels [ 0; 1; 2; 3; 4; 5 ])
          (Solver.Unsat, 150, 198, 1, 150) all [ 150; 198; 1; 150 ];
        step "five pigeons" (sels [ 0; 1; 2; 3; 4 ])
          (Solver.Sat, 5, 10, 0, 5) [] [ 155; 208; 1; 155 ];
        step "all pigeons, permuted" (sels [ 5; 1; 2; 3; 4; 0 ])
          (Solver.Unsat, 0, 0, 0, 0) all [ 155; 208; 1; 155 ];
        step "no assumptions" [] (Solver.Sat, 0, 12, 0, 0) []
          [ 155; 220; 1; 155 ];
        step "h and five pigeons" (h :: sels [ 1; 2; 3; 4; 5 ])
          (Solver.Sat, 1, 7, 0, 1) [] [ 156; 227; 1; 156 ];
        Solver.add_clause s [ -sel 0 ];
        step "root-false assumption" (sels [ 1; 0; 2 ])
          (Solver.Unsat, 0, 0, 0, 0) [ 31 ] [ 156; 227; 1; 156 ];
        step "contradictory assumptions" [ sel 1; -sel 1 ]
          (Solver.Unsat, 0, 0, 0, 0) [ -32; 32 ] [ 156; 227; 1; 156 ]);
  ]

let () =
  Alcotest.run "qls_sat"
    [
      ("solver", basic_tests);
      ("incremental", incremental_tests);
      ("search-pins", pin_tests);
      ("random", List.map QCheck_alcotest.to_alcotest random_props);
    ]
