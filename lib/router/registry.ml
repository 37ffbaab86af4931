let sabre ~trials ~seed =
  Sabre.router
    ~options:{ Sabre.default_options with trials; seed }
    ()

let sabre_decay ~trials ~seed =
  Sabre.router
    ~options:
      { Sabre.default_options with trials; seed; lookahead_decay = Some 0.8 }
    ()

let tket ~seed = Tket_router.router ~options:{ Tket_router.seed } ()
let qmap () = Astar_router.router ()
let mlqls ~seed = Mlqls.router ~options:{ Mlqls.seed } ()

let paper_tools ?(sabre_trials = 20) ?(seed = 0) () =
  [
    sabre ~trials:sabre_trials ~seed;
    mlqls ~seed;
    qmap ();
    tket ~seed;
  ]

let names = [ "sabre"; "sabre-decay"; "mlqls"; "qmap"; "tket"; "exact"; "olsq" ]

let by_name ?(sabre_trials = 20) ?(seed = 0) name =
  match name with
  | "sabre" | "lightsabre" -> Some (sabre ~trials:sabre_trials ~seed)
  | "sabre-decay" -> Some (sabre_decay ~trials:sabre_trials ~seed)
  | "mlqls" | "ml-qls" -> Some (mlqls ~seed)
  | "qmap" -> Some (qmap ())
  | "tket" -> Some (tket ~seed)
  | "exact" -> Some (Exact.router ())
  | "olsq" ->
      Some
        {
          Router.name = "olsq";
          route =
            (fun ?initial device circuit ->
              ignore initial;
              match Olsq.minimum_swaps device circuit with
              | Olsq.Optimal { witness; _ } -> witness
              | Olsq.Unknown_above { refuted_below } ->
                  failwith
                    (Printf.sprintf
                       "olsq: budget exhausted (only refuted < %d swaps)"
                       refuted_below));
        }
  | _ -> None
