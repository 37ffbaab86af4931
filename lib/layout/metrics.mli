(** Aggregate quality metrics for router evaluations (paper §IV-B).

    The paper's headline metric is the {e SWAP ratio}: average SWAP count
    over a circuit set divided by the (known) optimal SWAP count. A ratio
    of 1 means the tool is optimal; the paper calls the ratio of a tool on
    a benchmark suite its {e optimality gap}. *)

val swap_ratio : optimal:int -> swap_counts:int list -> float
(** [swap_ratio ~optimal ~swap_counts] is
    [mean swap_counts / optimal].
    @raise Invalid_argument if [optimal <= 0] or the list is empty. *)

val mean : float list -> float
(** Arithmetic mean. @raise Invalid_argument on empty input. *)

val mean_opt : float list -> float option
(** Arithmetic mean, or [None] on empty input — for aggregation paths
    (campaign points where every task failed) that must skip rather than
    die. *)
