let mean = function
  | [] -> invalid_arg "Metrics.mean: empty"
  | xs -> List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

let mean_opt = function [] -> None | xs -> Some (mean xs)

let swap_ratio ~optimal ~swap_counts =
  if optimal <= 0 then invalid_arg "Metrics.swap_ratio: optimal must be positive";
  if List.is_empty swap_counts then invalid_arg "Metrics.swap_ratio: no samples";
  mean (List.map float_of_int swap_counts) /. float_of_int optimal
