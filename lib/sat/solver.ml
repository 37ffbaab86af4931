(* CDCL with two-watched literals, 1UIP learning, VSIDS-style activities,
   phase saving, geometric restarts, incremental solving under assumptions
   and deterministically seeded configuration diversification. *)

type result = Sat | Unsat | Unknown

type config = {
  seed : int;
  decay : float;  (* VSIDS activity decay factor, in (0, 1) *)
  restart_base : int;  (* conflicts before the first restart *)
  restart_growth : float;  (* geometric restart-interval multiplier *)
  init_phase : bool;  (* initial saved phase for every variable *)
  scramble_activity : bool;  (* seed-derived initial activity jitter *)
}

let default_config =
  {
    seed = 0;
    decay = 0.95;
    restart_base = 100;
    restart_growth = 1.5;
    init_phase = false;
    scramble_activity = false;
  }

(* Deterministic integer mix (xxhash-style avalanche over 32-bit constants,
   so the result is identical on every 64-bit platform). This is the only
   randomness source in the solver: portfolio replay depends on
   [config_of_seed] being a pure function of the seed. *)
let mix a b =
  let h = ref ((a * 0x9E3779B1) lxor ((b + 0x165667B1) * 0x85EBCA77)) in
  h := !h lxor (!h lsr 13);
  h := !h * 0xC2B2AE3D;
  h := !h lxor (!h lsr 16);
  !h land 0x3FFFFFFF

let config_of_seed seed =
  if seed = 0 then default_config
  else
    {
      seed;
      decay = [| 0.95; 0.90; 0.85; 0.99; 0.92 |].(mix seed 1 mod 5);
      restart_base = [| 100; 50; 150; 200 |].(mix seed 2 mod 4);
      restart_growth = [| 1.5; 2.0; 1.3 |].(mix seed 3 mod 3);
      init_phase = mix seed 4 land 1 = 1;
      scramble_activity = true;
    }

type t = {
  nv : int;
  cfg : config;
  (* clause database: each clause is an int array of internal literals *)
  mutable clauses : int array array;
  mutable n_clauses : int;
  (* watches.(lit) = clause indices watching [lit] *)
  mutable watches : int list array;
  (* assignment per variable index: -1 unassigned / 0 false / 1 true *)
  assign : int array;
  level : int array;
  reason : int array; (* clause index or -1 *)
  trail : int array;
  mutable trail_size : int;
  mutable qhead : int;
  mutable trail_lim : int list; (* trail sizes at decision points *)
  activity : float array;
  mutable var_inc : float;
  phase : bool array;
  seen : bool array;
  (* activity-ordered binary max-heap of candidate branch variables *)
  heap : int array;
  heap_pos : int array; (* position in [heap], or -1 *)
  mutable heap_size : int;
  mutable root_unsat : bool;
  mutable model : bool array option;
  mutable last_core : int list; (* DIMACS lits; set on assumption-Unsat *)
  mutable budget_exhausted : bool;
  (* per-solve stats *)
  mutable conflicts : int;
  mutable decisions : int;
  mutable restarts : int;
  mutable learned : int;
  (* cumulative across all solve calls *)
  mutable solves : int;
  mutable total_conflicts : int;
  mutable total_decisions : int;
  mutable total_restarts : int;
  mutable total_learned : int;
}

(* Internal literal encoding: positive v -> 2(v-1), negative v -> 2(v-1)+1. *)
let lit_of_dimacs l =
  if l > 0 then 2 * (l - 1) else (2 * (-l - 1)) + 1

let dimacs_of_lit l =
  let v = (l lsr 1) + 1 in
  if l land 1 = 0 then v else -v

let neg l = l lxor 1
let var_idx l = l lsr 1
let is_pos l = l land 1 = 0

(* Heap ordering: higher activity first; on equal activity the lower
   variable index wins, which reproduces the argmax of the linear scan this
   heap replaced — default-config behaviour stays bit-identical. *)
let heap_before t v w =
  match Float.compare t.activity.(v) t.activity.(w) with
  | 0 -> v < w
  | c -> c > 0

let heap_swap t i j =
  let v = t.heap.(i) and w = t.heap.(j) in
  t.heap.(i) <- w;
  t.heap.(j) <- v;
  t.heap_pos.(w) <- i;
  t.heap_pos.(v) <- j

(* lint: cancel-poll-coverage — sift depth is log of heap size *)
let rec heap_sift_up t i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    if heap_before t t.heap.(i) t.heap.(parent) then begin
      heap_swap t i parent;
      heap_sift_up t parent
    end
  end

(* lint: cancel-poll-coverage — sift depth is log of heap size *)
let rec heap_sift_down t i =
  let l = (2 * i) + 1 in
  if l < t.heap_size then begin
    let r = l + 1 in
    let c =
      if r < t.heap_size && heap_before t t.heap.(r) t.heap.(l) then r else l
    in
    if heap_before t t.heap.(c) t.heap.(i) then begin
      heap_swap t i c;
      heap_sift_down t c
    end
  end

let heap_insert t v =
  if t.heap_pos.(v) < 0 then begin
    let i = t.heap_size in
    t.heap.(i) <- v;
    t.heap_pos.(v) <- i;
    t.heap_size <- t.heap_size + 1;
    heap_sift_up t i
  end

let heap_pop t =
  let v = t.heap.(0) in
  t.heap_size <- t.heap_size - 1;
  t.heap_pos.(v) <- -1;
  if t.heap_size > 0 then begin
    let w = t.heap.(t.heap_size) in
    t.heap.(0) <- w;
    t.heap_pos.(w) <- 0;
    heap_sift_down t 0
  end;
  v

(* After [t.activity.(v)] increased: restore the heap invariant. *)
let heap_bumped t v = if t.heap_pos.(v) >= 0 then heap_sift_up t t.heap_pos.(v)

let create ?(config = default_config) nv =
  if nv < 0 then invalid_arg "Solver.create: negative variable count";
  let t =
    {
      nv;
      cfg = config;
      clauses = Array.make 64 [||];
      n_clauses = 0;
      watches = Array.make (max 2 (2 * nv)) [];
      assign = Array.make (max 1 nv) (-1);
      level = Array.make (max 1 nv) 0;
      reason = Array.make (max 1 nv) (-1);
      trail = Array.make (max 1 nv) 0;
      trail_size = 0;
      qhead = 0;
      trail_lim = [];
      activity = Array.make (max 1 nv) 0.0;
      var_inc = 1.0;
      phase = Array.make (max 1 nv) config.init_phase;
      seen = Array.make (max 1 nv) false;
      heap = Array.make (max 1 nv) 0;
      heap_pos = Array.make (max 1 nv) (-1);
      heap_size = 0;
      root_unsat = false;
      model = None;
      last_core = [];
      budget_exhausted = false;
      conflicts = 0;
      decisions = 0;
      restarts = 0;
      learned = 0;
      solves = 0;
      total_conflicts = 0;
      total_decisions = 0;
      total_restarts = 0;
      total_learned = 0;
    }
  in
  if config.scramble_activity then
    for v = 0 to nv - 1 do
      t.activity.(v) <- float_of_int (mix config.seed (v + 7) land 0x3FF) *. 1e-8
    done;
  for v = 0 to nv - 1 do
    heap_insert t v
  done;
  t

let n_vars t = t.nv
let solver_config t = t.cfg

let lit_value t l =
  let a = t.assign.(var_idx l) in
  if a < 0 then -1 else if is_pos l then a else 1 - a

let push_clause t c =
  if t.n_clauses = Array.length t.clauses then begin
    let bigger = Array.make (2 * t.n_clauses) [||] in
    Array.blit t.clauses 0 bigger 0 t.n_clauses;
    t.clauses <- bigger
  end;
  t.clauses.(t.n_clauses) <- c;
  t.n_clauses <- t.n_clauses + 1;
  t.n_clauses - 1

let watch t l ci = t.watches.(l) <- ci :: t.watches.(l)

let enqueue t l reason =
  let v = var_idx l in
  t.assign.(v) <- (if is_pos l then 1 else 0);
  t.level.(v) <- List.length t.trail_lim;
  t.reason.(v) <- reason;
  t.phase.(v) <- is_pos l;
  t.trail.(t.trail_size) <- l;
  t.trail_size <- t.trail_size + 1

let backtrack t lvl =
  let keep =
    (* trail size at the start of level lvl + 1 *)
    match t.trail_lim with
    | [] -> t.trail_size
    | lims ->
        let arr = Array.of_list (List.rev lims) in
        if lvl >= Array.length arr then t.trail_size else arr.(lvl)
  in
  for i = t.trail_size - 1 downto keep do
    let v = var_idx t.trail.(i) in
    t.assign.(v) <- -1;
    t.reason.(v) <- -1;
    heap_insert t v
  done;
  t.trail_size <- keep;
  (* never move the propagation head forward: units enqueued by an
     incremental [add_clause] sit below [keep] but are not yet propagated *)
  t.qhead <- min t.qhead keep;
  let rec drop lims =
    if List.length lims > lvl then drop (List.tl lims) else lims
  in
  t.trail_lim <- drop t.trail_lim

(* Incremental clause addition: permitted at any time. The solver backtracks
   to the root level and simplifies the clause against the level-0
   assignment, so clauses learned in earlier solve calls (which are implied
   by the database alone, never by assumptions) remain sound. *)
let add_clause t lits =
  List.iter
    (fun l ->
      let v = abs l in
      if l = 0 || v > t.nv then
        invalid_arg (Printf.sprintf "Solver.add_clause: bad literal %d" l))
    lits;
  backtrack t 0;
  t.model <- None;
  let lits = List.sort_uniq Int.compare (List.map lit_of_dimacs lits) in
  let tautology = List.exists (fun l -> List.mem (neg l) lits) lits in
  if not (tautology || List.exists (fun l -> lit_value t l = 1) lits) then begin
    (* drop literals already false at level 0 *)
    let lits = List.filter (fun l -> lit_value t l <> 0) lits in
    match lits with
    | [] -> t.root_unsat <- true
    | [ l ] ->
        (* level-0 unit: assign now, propagate at the next solve *)
        enqueue t l (-1)
    | l0 :: l1 :: _ ->
        let c = Array.of_list lits in
        let ci = push_clause t c in
        watch t l0 ci;
        watch t l1 ci
  end

(* Returns the conflicting clause index, or -1. *)
let propagate t =
  let conflict = ref (-1) in
  (* lint: cancel-poll-coverage — each pass consumes one trail entry; the CDCL loop polls per restart *)
  while !conflict < 0 && t.qhead < t.trail_size do
    let l = t.trail.(t.qhead) in
    t.qhead <- t.qhead + 1;
    let false_lit = neg l in
    let watchers = t.watches.(false_lit) in
    t.watches.(false_lit) <- [];
    let rec go = function
      | [] -> ()
      | ci :: rest ->
          if !conflict >= 0 then
            (* conflict already found: keep remaining watchers untouched *)
            t.watches.(false_lit) <- ci :: (t.watches.(false_lit) @ rest)
          else begin
            let c = t.clauses.(ci) in
            (* normalise: c.(1) is the false literal *)
            if c.(0) = false_lit then begin
              c.(0) <- c.(1);
              c.(1) <- false_lit
            end;
            if lit_value t c.(0) = 1 then begin
              (* satisfied: keep watching *)
              t.watches.(false_lit) <- ci :: t.watches.(false_lit);
              go rest
            end
            else begin
              (* find a new literal to watch *)
              let n = Array.length c in
              let found = ref false in
              let k = ref 2 in
              (* lint: cancel-poll-coverage — scan bounded by clause length *)
              while (not !found) && !k < n do
                if lit_value t c.(!k) <> 0 then begin
                  c.(1) <- c.(!k);
                  c.(!k) <- false_lit;
                  watch t c.(1) ci;
                  found := true
                end;
                incr k
              done;
              if !found then go rest
              else begin
                (* clause is unit or conflicting under c.(0) *)
                t.watches.(false_lit) <- ci :: t.watches.(false_lit);
                if lit_value t c.(0) = 0 then begin
                  conflict := ci;
                  go rest
                end
                else begin
                  if lit_value t c.(0) = -1 then enqueue t c.(0) ci;
                  go rest
                end
              end
            end
          end
    in
    go watchers
  done;
  !conflict

let bump t v =
  t.activity.(v) <- t.activity.(v) +. t.var_inc;
  if t.activity.(v) > 1e100 then begin
    for i = 0 to t.nv - 1 do
      t.activity.(i) <- t.activity.(i) *. 1e-100
    done;
    t.var_inc <- t.var_inc *. 1e-100
    (* uniform rescale preserves the heap order; no repair needed *)
  end;
  heap_bumped t v

let decay t = t.var_inc <- t.var_inc /. t.cfg.decay

let current_level t = List.length t.trail_lim

(* First-UIP conflict analysis. Returns (learnt clause with the asserting
   literal first, backjump level). Assumption decisions need no special
   case here: the decision literal of the conflicting level is always the
   last seen literal of that level, so the loop terminates on it before
   ever dereferencing its absent reason. *)
let analyze t conflict_ci =
  let learnt_tail = ref [] in
  let counter = ref 0 in
  let p = ref (-1) in
  let idx = ref (t.trail_size - 1) in
  let ci = ref conflict_ci in
  let cur = current_level t in
  let continue = ref true in
  (* lint: cancel-poll-coverage — 1-UIP resolution walks the trail once; bounded by trail size *)
  while !continue do
    let c = t.clauses.(!ci) in
    Array.iter
      (fun q ->
        if !p >= 0 && q = !p then ()
        else begin
          let v = var_idx q in
          if (not t.seen.(v)) && t.level.(v) > 0 then begin
            t.seen.(v) <- true;
            bump t v;
            if t.level.(v) >= cur then incr counter
            else learnt_tail := q :: !learnt_tail
          end
        end)
      c;
    (* advance to the next seen literal on the trail *)
    (* lint: cancel-poll-coverage — walks down the finite trail *)
    while not t.seen.(var_idx t.trail.(!idx)) do
      decr idx
    done;
    let lit = t.trail.(!idx) in
    let v = var_idx lit in
    t.seen.(v) <- false;
    decr counter;
    decr idx;
    if !counter = 0 then begin
      p := lit;
      continue := false
    end
    else begin
      p := lit;
      ci := t.reason.(v)
    end
  done;
  List.iter (fun q -> t.seen.(var_idx q) <- false) !learnt_tail;
  let backjump =
    List.fold_left (fun acc q -> max acc (t.level.(var_idx q))) 0 !learnt_tail
  in
  (neg !p :: !learnt_tail, backjump)

(* Final-conflict analysis: assumption [a] (internal literal) is false under
   the current trail. Walk the trail top-down expanding reasons; the
   decisions reached are exactly the earlier assumptions the falsification
   depends on. Stores the unsat core (as DIMACS literals over the
   assumptions, including [a] itself) in [t.last_core]. *)
let analyze_final t a =
  let core = ref [ a ] in
  if current_level t > 0 then begin
    let level1_start =
      match List.rev t.trail_lim with x :: _ -> x | [] -> assert false
    in
    t.seen.(var_idx a) <- true;
    for i = t.trail_size - 1 downto level1_start do
      let l = t.trail.(i) in
      let v = var_idx l in
      if t.seen.(v) then begin
        (if t.reason.(v) < 0 then core := l :: !core
         else
           Array.iter
             (fun q ->
               let w = var_idx q in
               if t.level.(w) > 0 then t.seen.(w) <- true)
             t.clauses.(t.reason.(v)));
        t.seen.(v) <- false
      end
    done;
    t.seen.(var_idx a) <- false
  end;
  t.last_core <- List.sort_uniq Int.compare (List.map dimacs_of_lit !core)

let pick_branch t =
  let best = ref (-1) in
  (* lint: cancel-poll-coverage — each pop shrinks the heap; bounded by variable count *)
  while !best < 0 && t.heap_size > 0 do
    let v = heap_pop t in
    if t.assign.(v) < 0 then best := v
  done;
  !best

let solve_raw ~conflict_budget ~assumps t =
  t.model <- None;
  t.last_core <- [];
  t.budget_exhausted <- false;
  t.conflicts <- 0;
  t.decisions <- 0;
  t.restarts <- 0;
  t.learned <- 0;
  if t.root_unsat then Unsat
  else begin
    backtrack t 0;
    let n_assumps = Array.length assumps in
    let result = ref Unknown in
    let restart_limit = ref t.cfg.restart_base in
    let since_restart = ref 0 in
    (try
       while true do
         let confl = propagate t in
         if confl >= 0 then begin
           t.conflicts <- t.conflicts + 1;
           incr since_restart;
           if t.conflicts land 4095 = 0 then Qls_cancel.poll ();
           if current_level t = 0 then begin
             (* conflict independent of any assumption: permanently unsat *)
             t.root_unsat <- true;
             result := Unsat;
             raise Exit
           end;
           if t.conflicts > conflict_budget then begin
             t.budget_exhausted <- true;
             raise Exit
           end;
           let learnt, backjump = analyze t confl in
           decay t;
           backtrack t backjump;
           (match learnt with
           | [ l ] -> enqueue t l (-1)
           | l :: _ ->
               let c = Array.of_list learnt in
               let ci = push_clause t c in
               t.learned <- t.learned + 1;
               (* watch the asserting literal and one backjump-level lit *)
               watch t c.(0) ci;
               (* move a literal of the backjump level to slot 1 *)
               let n = Array.length c in
               let best = ref 1 in
               for k = 2 to n - 1 do
                 if t.level.(var_idx c.(k)) > t.level.(var_idx c.(!best)) then
                   best := k
               done;
               let tmp = c.(1) in
               c.(1) <- c.(!best);
               c.(!best) <- tmp;
               watch t c.(1) ci;
               enqueue t l ci
           | [] -> assert false)
         end
         else if !since_restart > !restart_limit then begin
           since_restart := 0;
           restart_limit :=
             max (!restart_limit + 1)
               (int_of_float (float_of_int !restart_limit *. t.cfg.restart_growth));
           t.restarts <- t.restarts + 1;
           (* Deadline/heartbeat checkpoint: once per restart. The
              restart interval grows geometrically, so a fixed-stride
              conflict checkpoint above keeps the tail bounded too. *)
           Qls_cancel.poll ();
           backtrack t 0
         end
         else if current_level t < n_assumps then begin
           (* consume the assumption prefix as pseudo-decisions *)
           let a = assumps.(current_level t) in
           match lit_value t a with
           | 1 ->
               (* already true: open a dummy level so level indices keep
                  matching assumption indices *)
               t.trail_lim <- t.trail_size :: t.trail_lim
           | 0 ->
               analyze_final t a;
               result := Unsat;
               raise Exit
           | _ ->
               t.trail_lim <- t.trail_size :: t.trail_lim;
               enqueue t a (-1)
         end
         else begin
           match pick_branch t with
           | -1 ->
               (* full assignment: SAT *)
               t.model <- Some (Array.init t.nv (fun v -> t.assign.(v) = 1));
               result := Sat;
               raise Exit
           | v ->
               t.decisions <- t.decisions + 1;
               t.trail_lim <- t.trail_size :: t.trail_lim;
               let l = 2 * v + if t.phase.(v) then 0 else 1 in
               enqueue t l (-1)
         end
       done
     with Exit -> ());
    !result
  end

(* Aggregate CDCL effort into the obs registry once per [solve]; the
   per-solve span carries the same numbers as attributes when tracing. *)
let obs_conflicts = Qls_obs.counter "sat.conflicts"
let obs_learned = Qls_obs.counter "sat.learned"
let obs_restarts = Qls_obs.counter "sat.restarts"

let solve ?(conflict_budget = 2_000_000) ?(assumptions = []) t =
  Qls_cancel.poll ();
  let assumps =
    Array.of_list
      (List.map
         (fun l ->
           let v = abs l in
           if l = 0 || v > t.nv then
             invalid_arg (Printf.sprintf "Solver.solve: bad assumption %d" l);
           lit_of_dimacs l)
         assumptions)
  in
  let traced = Qls_obs.enabled () in
  let sp =
    if traced then Qls_obs.start ~site:"sat" "sat.solve" else Qls_obs.none
  in
  let res =
    match solve_raw ~conflict_budget ~assumps t with
    | r -> r
    | exception e ->
        if traced then
          Qls_obs.stop sp ~attrs:[ ("result", Qls_obs.Str "exception") ];
        raise e
  in
  t.solves <- t.solves + 1;
  t.total_conflicts <- t.total_conflicts + t.conflicts;
  t.total_decisions <- t.total_decisions + t.decisions;
  t.total_restarts <- t.total_restarts + t.restarts;
  t.total_learned <- t.total_learned + t.learned;
  Qls_obs.add obs_conflicts t.conflicts;
  Qls_obs.add obs_learned t.learned;
  Qls_obs.add obs_restarts t.restarts;
  if traced then
    Qls_obs.stop sp
      ~attrs:
        [
          ( "result",
            Qls_obs.Str
              (match res with
              | Sat -> "sat"
              | Unsat -> "unsat"
              | Unknown -> "unknown") );
          ("conflicts", Qls_obs.Int t.conflicts);
          ("decisions", Qls_obs.Int t.decisions);
          ("restarts", Qls_obs.Int t.restarts);
          ("learned", Qls_obs.Int t.learned);
        ];
  res

let value t v =
  if v < 1 || v > t.nv then invalid_arg "Solver.value: variable out of range";
  match t.model with
  | Some m -> m.(v - 1)
  | None -> invalid_arg "Solver.value: no model (last solve was not Sat)"

let unsat_core t = t.last_core
let budget_exhausted t = t.budget_exhausted
let stats t = (t.conflicts, t.decisions)
let restarts t = t.restarts
let learned t = t.learned
let solves t = t.solves

let total_stats t =
  (t.total_conflicts, t.total_decisions, t.total_restarts, t.total_learned)
