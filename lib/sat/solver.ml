(* CDCL with two-watched literals, 1UIP learning, VSIDS-style activities,
   phase saving, geometric restarts, incremental solving under assumptions
   and deterministically seeded configuration diversification.

   Data layout: every clause lives in one growable int arena (a length
   word, then the literals) and is named by its offset; each literal has
   a value slot and an int stack of the clauses watching it; decision
   levels are an int array of trail positions. Nothing on the search
   path allocates, apart from the amortised growth of those arrays. *)

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
  (* clause arena: clause [c] is [arena.(c)] = n, then n literals *)
  mutable arena : int array;
  mutable arena_top : int;
  (* watches.(l).(0 .. n_watches.(l) - 1): the clauses watching [l], the
     most recently pushed on top (last) *)
  watches : int array array;
  n_watches : int array;
  mutable watch_buf : int array; (* propagate's copy of one stack *)
  (* per literal: -1 unassigned / 0 false / 1 true *)
  values : int array;
  level : int array;
  reason : int array; (* clause offset or -1 *)
  trail : int array;
  mutable trail_size : int;
  mutable qhead : int;
  (* level_start.(d): trail size when level d + 1 opened *)
  mutable level_start : int array;
  mutable n_levels : int;
  learnt : int array; (* analyze's output clause *)
  mutable n_learnt : int;
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

(* [a] copied into a fresh array of at least [need] slots (and at least
   double its length), its first [used] slots carried over. The copy is
   a typed loop on purpose: OCaml 5's [Array.blit] into a major-heap
   array takes the write barrier for every element, ints included. *)
let grown a ~used need =
  let b = Array.make (max need (max 4 (2 * Array.length a))) 0 in
  for i = 0 to used - 1 do
    b.(i) <- a.(i)
  done;
  b

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
      arena = Array.make 1024 0;
      arena_top = 0;
      watches = Array.make (max 2 (2 * nv)) [||];
      n_watches = Array.make (max 2 (2 * nv)) 0;
      watch_buf = Array.make 64 0;
      values = Array.make (max 2 (2 * nv)) (-1);
      level = Array.make (max 1 nv) 0;
      reason = Array.make (max 1 nv) (-1);
      trail = Array.make (max 1 nv) 0;
      trail_size = 0;
      qhead = 0;
      level_start = Array.make (max 1 nv) 0;
      n_levels = 0;
      learnt = Array.make (max 1 nv) 0;
      n_learnt = 0;
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

(* Append the clause [lits.(0 .. n-1)] to the arena; returns its offset. *)
let push_clause t lits n =
  let c = t.arena_top in
  if c + 1 + n > Array.length t.arena then
    t.arena <- grown t.arena ~used:c (c + 1 + n);
  t.arena.(c) <- n;
  for i = 0 to n - 1 do
    t.arena.(c + 1 + i) <- lits.(i)
  done;
  t.arena_top <- c + 1 + n;
  c

(* Push clause [c] on top of [l]'s watch stack. *)
let watch t l c =
  let n = t.n_watches.(l) in
  if n = Array.length t.watches.(l) then
    t.watches.(l) <- grown t.watches.(l) ~used:n (n + 1);
  t.watches.(l).(n) <- c;
  t.n_watches.(l) <- n + 1

let enqueue t l reason =
  let v = var_idx l in
  t.values.(l) <- 1;
  t.values.(neg l) <- 0;
  t.level.(v) <- t.n_levels;
  t.reason.(v) <- reason;
  t.phase.(v) <- is_pos l;
  t.trail.(t.trail_size) <- l;
  t.trail_size <- t.trail_size + 1

let new_level t =
  if t.n_levels = Array.length t.level_start then
    t.level_start <- grown t.level_start ~used:t.n_levels (t.n_levels + 1);
  t.level_start.(t.n_levels) <- t.trail_size;
  t.n_levels <- t.n_levels + 1

let backtrack t lvl =
  if t.n_levels > lvl then begin
    let keep = t.level_start.(lvl) in
    for i = t.trail_size - 1 downto keep do
      let l = t.trail.(i) in
      let v = var_idx l in
      t.values.(l) <- -1;
      t.values.(neg l) <- -1;
      t.reason.(v) <- -1;
      heap_insert t v
    done;
    t.trail_size <- keep;
    (* never move the propagation head forward: units enqueued by an
       incremental [add_clause] sit below [keep] but are not yet propagated *)
    t.qhead <- min t.qhead keep;
    t.n_levels <- lvl
  end

(* Sort [a] in place with an insertion sort, which allocates nothing.
   [Olsq]'s clauses arrive in ascending order or with one large literal
   in front, where it is linear at any length. *)
let sort_lits a =
  for i = 1 to Array.length a - 1 do
    let l = a.(i) in
    let j = ref (i - 1) in
    (* lint: cancel-poll-coverage — shifts at most i slots *)
    while !j >= 0 && a.(!j) > l do
      a.(!j + 1) <- a.(!j);
      decr j
    done;
    a.(!j + 1) <- l
  done

(* Incremental clause addition: permitted at any time. The solver backtracks
   to the root level and simplifies the clause against the level-0
   assignment, so clauses learned in earlier solve calls (which are implied
   by the database alone, never by assumptions) remain sound. *)
let add_clause t lits =
  let lits = Array.of_list lits in
  for i = 0 to Array.length lits - 1 do
    let l = lits.(i) in
    if l = 0 || abs l > t.nv then
      invalid_arg (Printf.sprintf "Solver.add_clause: bad literal %d" l);
    lits.(i) <- lit_of_dimacs l
  done;
  backtrack t 0;
  t.model <- None;
  sort_lits lits;
  (* Sorted, a literal's negation is its neighbour (2v, 2v+1): one pass
     drops duplicates and literals false at level 0, compacting in place,
     and spots tautologies and clauses already true at level 0. *)
  let n = ref 0 and prev = ref (-1) and satisfied = ref false in
  for i = 0 to Array.length lits - 1 do
    let l = lits.(i) in
    if l = neg !prev || t.values.(l) = 1 then satisfied := true
    else if l <> !prev && t.values.(l) < 0 then begin
      lits.(!n) <- l;
      incr n
    end;
    prev := l
  done;
  if not !satisfied then
    match !n with
    | 0 -> t.root_unsat <- true
    | 1 ->
        (* level-0 unit: assign now, propagate at the next solve *)
        enqueue t lits.(0) (-1)
    | n ->
        let c = push_clause t lits n in
        watch t lits.(0) c;
        watch t lits.(1) c

(* Returns the conflicting clause, or -1.

   Watchers of the falsified literal are visited from the top of its
   stack down; those that keep watching it are re-pushed in visit order,
   and after a conflict the unvisited rest goes back under them with the
   next unvisited one on top. The order decides which unit is found
   first, so it is part of the search the pins in the tests hold: keep
   it exactly. *)
let propagate t =
  let arena = t.arena and values = t.values in
  let conflict = ref (-1) in
  (* lint: cancel-poll-coverage — each pass consumes one trail entry; the CDCL loop polls per restart *)
  while !conflict < 0 && t.qhead < t.trail_size do
    let false_lit = neg t.trail.(t.qhead) in
    t.qhead <- t.qhead + 1;
    let n = t.n_watches.(false_lit) in
    if n > Array.length t.watch_buf then t.watch_buf <- grown t.watch_buf ~used:0 n;
    let buf = t.watch_buf and ws = t.watches.(false_lit) in
    for j = 0 to n - 1 do
      buf.(j) <- ws.(j)
    done;
    (* re-pushed below; never more than [n], so [ws] is not regrown *)
    t.n_watches.(false_lit) <- 0;
    let next = ref (n - 1) in
    (* lint: cancel-poll-coverage — visits each watcher of one literal at most once *)
    while !conflict < 0 && !next >= 0 do
      let c = buf.(!next) in
      decr next;
      (* normalise: the false literal sits in slot 1 *)
      if arena.(c + 1) = false_lit then begin
        arena.(c + 1) <- arena.(c + 2);
        arena.(c + 2) <- false_lit
      end;
      let first = arena.(c + 1) in
      if values.(first) = 1 then (* satisfied: keep watching *)
        watch t false_lit c
      else begin
        (* find a new literal to watch *)
        let last = c + arena.(c) in
        let k = ref (c + 3) in
        (* lint: cancel-poll-coverage — scan bounded by clause length *)
        while !k <= last && values.(arena.(!k)) = 0 do
          incr k
        done;
        if !k <= last then begin
          let l = arena.(!k) in
          arena.(c + 2) <- l;
          arena.(!k) <- false_lit;
          watch t l c
        end
        else begin
          (* clause is unit or conflicting under its first literal *)
          watch t false_lit c;
          if values.(first) = 0 then conflict := c else enqueue t first c
        end
      end
    done;
    if !next >= 0 then begin
      (* conflict: buf.(0 .. next-1) under the kept, buf.(next) on top *)
      let kept = t.n_watches.(false_lit) and rest = !next in
      for j = kept - 1 downto 0 do
        ws.(j + rest) <- ws.(j)
      done;
      for j = 0 to rest - 1 do
        ws.(j) <- buf.(j)
      done;
      ws.(kept + rest) <- buf.(rest);
      t.n_watches.(false_lit) <- kept + rest + 1
    end
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

(* First-UIP conflict analysis. Leaves the learnt clause in
   [t.learnt.(0 .. t.n_learnt - 1)] — the asserting literal first, then
   the other literals most recently seen first, with the first literal
   of the highest remaining level swapped into slot 1 — and returns the
   backjump level, that literal's level. Assumption decisions need no
   special case here: the decision literal of the conflicting level is
   always the last seen literal of that level, so the loop terminates on
   it before ever dereferencing its absent reason. *)
let analyze t conflict =
  let arena = t.arena and learnt = t.learnt in
  let n = ref 1 in
  let counter = ref 0 in
  let p = ref (-1) in
  let idx = ref (t.trail_size - 1) in
  let c = ref conflict in
  let cur = t.n_levels in
  let continue = ref true in
  (* lint: cancel-poll-coverage — 1-UIP resolution walks the trail once; bounded by trail size *)
  while !continue do
    for j = !c + 1 to !c + arena.(!c) do
      let q = arena.(j) in
      let v = var_idx q in
      if q <> !p && (not t.seen.(v)) && t.level.(v) > 0 then begin
        t.seen.(v) <- true;
        bump t v;
        if t.level.(v) >= cur then incr counter
        else begin
          learnt.(!n) <- q;
          incr n
        end
      end
    done;
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
    p := lit;
    if !counter = 0 then continue := false else c := t.reason.(v)
  done;
  let n = !n in
  learnt.(0) <- neg !p;
  (* most recently seen first *)
  for j = 1 to (n - 1) / 2 do
    let q = learnt.(j) in
    learnt.(j) <- learnt.(n - j);
    learnt.(n - j) <- q
  done;
  let best = ref 1 in
  for j = 1 to n - 1 do
    t.seen.(var_idx learnt.(j)) <- false;
    if t.level.(var_idx learnt.(j)) > t.level.(var_idx learnt.(!best)) then
      best := j
  done;
  t.n_learnt <- n;
  if n = 1 then 0
  else begin
    let q = learnt.(1) in
    learnt.(1) <- learnt.(!best);
    learnt.(!best) <- q;
    t.level.(var_idx learnt.(1))
  end

(* Final-conflict analysis: assumption [a] (internal literal) is false under
   the current trail. Walk the trail top-down expanding reasons; the
   decisions reached are exactly the earlier assumptions the falsification
   depends on. Stores the unsat core (as DIMACS literals over the
   assumptions, including [a] itself) in [t.last_core]. *)
let analyze_final t a =
  let core = ref [ a ] in
  if t.n_levels > 0 then begin
    t.seen.(var_idx a) <- true;
    for i = t.trail_size - 1 downto t.level_start.(0) do
      let l = t.trail.(i) in
      let v = var_idx l in
      if t.seen.(v) then begin
        let r = t.reason.(v) in
        if r < 0 then core := l :: !core
        else
          for j = r + 1 to r + t.arena.(r) do
            let w = var_idx t.arena.(j) in
            if t.level.(w) > 0 then t.seen.(w) <- true
          done;
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
    if t.values.(2 * v) < 0 then best := v
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
           if t.n_levels = 0 then begin
             (* conflict independent of any assumption: permanently unsat *)
             t.root_unsat <- true;
             result := Unsat;
             raise Exit
           end;
           if t.conflicts > conflict_budget then begin
             t.budget_exhausted <- true;
             raise Exit
           end;
           let backjump = analyze t confl in
           decay t;
           backtrack t backjump;
           let l = t.learnt.(0) in
           if t.n_learnt = 1 then enqueue t l (-1)
           else begin
             let c = push_clause t t.learnt t.n_learnt in
             t.learned <- t.learned + 1;
             (* watch the asserting literal and one backjump-level lit *)
             watch t l c;
             watch t t.learnt.(1) c;
             enqueue t l c
           end
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
         else if t.n_levels < n_assumps then begin
           (* consume the assumption prefix as pseudo-decisions *)
           let a = assumps.(t.n_levels) in
           match t.values.(a) with
           | 1 ->
               (* already true: open a dummy level so level indices keep
                  matching assumption indices *)
               new_level t
           | 0 ->
               analyze_final t a;
               result := Unsat;
               raise Exit
           | _ ->
               new_level t;
               enqueue t a (-1)
         end
         else begin
           match pick_branch t with
           | -1 ->
               (* full assignment: SAT *)
               t.model <- Some (Array.init t.nv (fun v -> t.values.(2 * v) = 1));
               result := Sat;
               raise Exit
           | v ->
               t.decisions <- t.decisions + 1;
               new_level t;
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
