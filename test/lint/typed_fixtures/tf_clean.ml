(* Lint-clean reference: the idiomatic spelling of everything the rules
   flag. Expected findings: 0 under every rule. *)

module Pool = Qls_harness.Pool

let sorted xs = List.sort Int.compare xs

let pairs_sorted xs = List.sort (fun (a, _) (b, _) -> Int.compare a b) xs

let empty xs = List.is_empty xs

let missing x = Option.is_none x

let close x y = Float.abs (x -. y) < 1e-9

let histogram tbl =
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> Int.compare a b)

let pooled results tasks = Pool.run ~jobs:2 ~f:(fun i t -> results.(i) <- t) tasks

let counted n tasks = Pool.run ~jobs:2 ~f:(fun _ _ -> Atomic.incr n) tasks

let spanned sp traced n =
  if traced then Qls_obs.stop sp ~attrs:[ ("n", Qls_obs.Int n) ]
