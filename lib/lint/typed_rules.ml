(* The rule catalogue. Every rule runs on the Typedtree loaded from the
   build's [.cmt] files, or [.cmti] for an interface rule (see
   [Cmt_index]), so callees are resolved paths — [Mutex.protect] is
   [Stdlib.Mutex.protect] no matter how it was spelled at the call site,
   [module P = Qls_harness.Pool] included — operand types are known, and
   record labels carry the type that declared them, which is what lets
   [guarded-by] follow a field across module boundaries. Each rule is still an approximation with a
   documented envelope; the suppression comment is the escape hatch. *)

open Typedtree

module StringSet = Set.Make (String)

(* ------------------------------------------------------------------ *)
(* Resolved-path helpers                                               *)

(* Split a module-name segment on "__" so dune's wrapping prefixes
   ("Qls_harness__Cache", "Dune__exe__Main") compare like user paths. *)
let split_wrapped seg =
  let n = String.length seg in
  let rec skip_us i = if i < n && seg.[i] = '_' then skip_us (i + 1) else i in
  let rec go acc start i =
    if i + 1 >= n then String.sub seg start (n - start) :: acc
    else if seg.[i] = '_' && seg.[i + 1] = '_' then
      let piece = String.sub seg start (i - start) in
      let next = skip_us (i + 2) in
      go (piece :: acc) next next
    else go acc start (i + 1)
  in
  List.rev (go [] 0 0) |> List.filter (fun s -> s <> "")

let path_segments p =
  Path.name p
  |> String.split_on_char '.'
  |> List.concat_map split_wrapped
  |> List.map String.lowercase_ascii

let rec list_suffix ~of_:segs suffix =
  let ls = List.length segs and lx = List.length suffix in
  if ls < lx then false
  else if ls = lx then List.equal String.equal segs suffix
  else match segs with [] -> false | _ :: tl -> list_suffix ~of_:tl suffix

(* Module aliases bound in one file: [module P = Qls_harness.Pool] and
   [let module M = Mutex in ...]. Typed idents are stamped, so one
   file-wide table is exact. *)
let module_aliases structure =
  let acc = ref [] in
  let alias id (me : module_expr) =
    match (id, me.mod_desc) with
    | Some id, Tmod_ident (p, _) -> acc := (id, p) :: !acc
    | _ -> ()
  in
  let module_binding sub mb =
    alias mb.mb_id mb.mb_expr;
    Tast_iterator.default_iterator.module_binding sub mb
  in
  let expr sub e =
    (match e.exp_desc with
    | Texp_letmodule (id, _, _, me, _) -> alias id me
    | _ -> ());
    Tast_iterator.default_iterator.expr sub e
  in
  let it = { Tast_iterator.default_iterator with module_binding; expr } in
  it.Tast_iterator.structure it structure;
  !acc

(* Rewrite the head of [p] through the file's aliases (an alias may
   name another alias, so expansion repeats until the head is not one). *)
let rec expand aliases (p : Path.t) =
  match p with
  | Pident id -> (
      match List.find_opt (fun (a, _) -> Ident.same a id) aliases with
      | Some (_, target) -> expand aliases target
      | None -> p)
  | Pdot (m, s) -> Pdot (expand aliases m, s)
  | Papply _ | Pextra_ty _ -> p

let positional_args args =
  List.filter_map
    (function Asttypes.Nolabel, Some e -> Some e | _ -> None)
    args

let contains_sub hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i =
    if i + nn > nh then false
    else if String.sub hay i nn = needle then true
    else go (i + 1)
  in
  go 0

(* ------------------------------------------------------------------ *)
(* guarded_by annotation registry                                      *)

(* Convention (DESIGN.md §11): a mutable record field whose writes and
   reads must happen under a mutex carries a same-line comment

     mutable hits : int; (* guarded_by: mutex *)

   where the guard name is the record's own mutex field (or a let-bound
   mutex in scope). The registry is keyed by
   (declaring module stem, type name, field name) — the typedtree gives
   us the declaring type of every label, so accesses match no matter
   which module or alias they go through. The scan is line-based and
   assumes the repo style of one field per line. *)
module Guards = struct
  type registry = (string * string * string, string) Hashtbl.t

  let empty () : registry = Hashtbl.create 32

  let module_stem file =
    String.lowercase_ascii (Filename.remove_extension (Filename.basename file))

  let is_ident_char c =
    (c >= 'a' && c <= 'z')
    || (c >= 'A' && c <= 'Z')
    || (c >= '0' && c <= '9')
    || c = '_' || c = '\''

  let token_at s i =
    let n = String.length s in
    let rec stop j = if j < n && is_ident_char s.[j] then stop (j + 1) else j in
    let j = stop i in
    if j > i then Some (String.sub s i (j - i)) else None

  let find_sub hay needle =
    let nh = String.length hay and nn = String.length needle in
    let rec go i =
      if i + nn > nh then None
      else if String.sub hay i nn = needle then Some i
      else go (i + 1)
    in
    go 0

  let skip_spaces s i =
    let n = String.length s in
    let rec go i = if i < n && (s.[i] = ' ' || s.[i] = '\t') then go (i + 1) else i in
    go i

  (* "type 'a cell = {" / "and stats = {" -> the last lowercase-ident
     token before '='. *)
  let type_decl_name line =
    let t = String.trim line in
    let after kw =
      if String.length t > String.length kw && String.sub t 0 (String.length kw) = kw
      then Some (String.sub t (String.length kw) (String.length t - String.length kw))
      else None
    in
    match (after "type ", after "and ") with
    | None, None -> None
    | Some rest, _ | None, Some rest -> (
        match String.index_opt rest '=' with
        | None -> None
        | Some eq ->
            let head = String.sub rest 0 eq in
            let name = ref None in
            let i = ref 0 in
            let n = String.length head in
            while !i < n do
              if head.[!i] >= 'a' && head.[!i] <= 'z' then begin
                match token_at head !i with
                | Some tok when tok <> "nonrec" && tok <> "private" ->
                    name := Some tok;
                    i := !i + String.length tok
                | Some tok -> i := !i + String.length tok
                | None -> incr i
              end
              else incr i
            done;
            !name)

  (* "  mutable hits : int; (* guarded_by: mutex *)" -> ("hits", "mutex") *)
  let field_annot line =
    match find_sub line "guarded_by:" with
    | None -> None
    | Some g -> (
        let guard = token_at line (skip_spaces line (g + String.length "guarded_by:")) in
        let i = skip_spaces line 0 in
        let i =
          match token_at line i with
          | Some "mutable" -> skip_spaces line (i + String.length "mutable")
          | _ -> i
        in
        match (token_at line i, guard) with
        | Some field, Some guard -> Some (field, guard)
        | _ -> None)

  let add_file (reg : registry) ~file src =
    let stem = module_stem file in
    let current = ref None in
    List.iter
      (fun line ->
        (match type_decl_name line with Some n -> current := Some n | None -> ());
        match (field_annot line, !current) with
        | Some (field, guard), Some tname ->
            Hashtbl.replace reg (stem, tname, field) guard
        | _ -> ())
      (String.split_on_char '\n' src)

  let lookup (reg : registry) key = Hashtbl.find_opt reg key
end

(* ------------------------------------------------------------------ *)
(* Rule plumbing                                                       *)

type ctx = {
  file : string;  (** path relative to the lint root; scopes key off it *)
  guards : Guards.registry;
  index : Cmt_index.t;
  aliases : (Ident.t * Path.t) list;
}

let context ~file ~guards ~index (tree : Cmt_index.tree) =
  let aliases =
    match tree with Impl structure -> module_aliases structure | Intf _ -> []
  in
  { file; guards; index; aliases }

type 'a check = ctx -> report:(Location.t -> string -> unit) -> 'a -> unit

(* A rule reads implementations ([.ml]) or interfaces ([.mli]). *)
type kind =
  | Structure of Typedtree.structure check
  | Signature of Typedtree.signature check

type t = {
  name : string;
  summary : string;
  severity : Finding.severity;
  check : kind;
}

let run rule ctx (tree : Cmt_index.tree) =
  let acc = ref [] in
  let report loc msg =
    acc :=
      Finding.of_location ~file:ctx.file ~rule:rule.name
        ~severity:rule.severity loc msg
      :: !acc
  in
  (match (rule.check, tree) with
  | Structure check, Impl structure -> check ctx ~report structure
  | Signature check, Intf signature -> check ctx ~report signature
  | Structure _, Intf _ | Signature _, Impl _ -> ());
  !acc

let run_iterator make_expr structure =
  let it = { Tast_iterator.default_iterator with expr = make_expr } in
  it.Tast_iterator.structure it structure

(* [f] on every expression of [structure], outermost first. *)
let iter_exprs structure f =
  run_iterator
    (fun sub e ->
      f e;
      Tast_iterator.default_iterator.expr sub e)
    structure

let in_scope ctx dirs = List.exists (contains_sub ctx.file) dirs

(* The callee as spelled at the site, for messages. *)
let spelled e =
  match e.exp_desc with Texp_ident (p, _, _) -> Path.name p | _ -> "?"

let head_segments ctx e =
  match e.exp_desc with
  | Texp_ident (p, _, _) -> Some (path_segments (expand ctx.aliases p))
  | _ -> None

let matches_any segs suffixes =
  List.exists (fun s -> list_suffix ~of_:segs s) suffixes

let head_matches ctx e suffixes =
  match head_segments ctx e with
  | Some segs -> matches_any segs suffixes
  | None -> false

(* [Some "compare"] for [Stdlib.compare], however it was spelled; a
   local [compare] shadowing it is [None]. *)
let stdlib_value ctx e =
  match head_segments ctx e with Some [ "stdlib"; v ] -> Some v | _ -> None

(* ------------------------------------------------------------------ *)
(* R2 — poly-compare                                                   *)
(* The bare polymorphic [compare] (any use: applied, or passed to
   List.sort / Array.sort / a Set functor), and [=]/[<>] against a
   structural literal ([], a constructor, a tuple, a record, an array).
   Both order unknown representations with [Stdlib.compare]'s raw
   runtime walk — the old [Progress.render] misordering — and both have
   a monomorphic spelling ([Int.compare], [Float.compare], a pair
   comparator, [List.is_empty], [Option.is_none], a pattern match). *)

let structural_literal e =
  match e.exp_desc with
  | Texp_construct (_, { Types.cstr_name = "[]" | "::" | "None" | "Some"; _ }, _)
  | Texp_tuple _ | Texp_record _ | Texp_array _ | Texp_variant _ ->
      true
  | _ -> false

let poly_compare ctx ~report structure =
  iter_exprs structure (fun e ->
      match (stdlib_value ctx e, e.exp_desc) with
      | Some "compare", _ ->
          report e.exp_loc
            "bare polymorphic 'compare'; use a monomorphic comparator \
             (Int.compare, Float.compare, String.compare, or an explicit \
             tuple comparator)"
      | _, Texp_apply (f, args) -> (
          match stdlib_value ctx f with
          | Some (("=" | "<>") as op)
            when List.exists structural_literal (positional_args args) ->
              report e.exp_loc
                (Printf.sprintf
                   "polymorphic '%s' against a structural value; prefer a \
                    pattern match, List.is_empty, or Option.is_none/is_some"
                   op)
          | _ -> ())
      | _ -> ())

(* ------------------------------------------------------------------ *)
(* R3 — float-discipline                                               *)
(* Equality, [compare], or bare [min]/[max] applied to an operand whose
   type is [float]: float equality is representation-sensitive and
   polymorphic min/max/compare mishandle NaN, which once let a NaN
   sample shift a median silently. Ordering comparisons ([<], [>]) are
   left alone: they are well-defined on non-NaN floats and flagging them
   would bury the signal. Types are read as inferred, without expanding
   abbreviations, so an operand typed through an alias of [float] is
   out of the envelope. *)

let is_float ty =
  match Types.get_desc ty with
  | Types.Tconstr (p, [], _) -> Path.same p Predef.path_float
  | _ -> false

let float_discipline ctx ~report structure =
  iter_exprs structure (fun e ->
      match e.exp_desc with
      | Texp_apply (f, args) -> (
          match stdlib_value ctx f with
          | Some (("=" | "<>" | "==" | "!=" | "min" | "max" | "compare") as op)
            when List.exists (fun a -> is_float a.exp_type) (positional_args args)
            ->
              report e.exp_loc
                (Printf.sprintf
                   "'%s' on a float operand; use Float.compare / Float.equal \
                    / Float.min / Float.max (NaN-aware) or compare against an \
                    epsilon"
                   op)
          | _ -> ())
      | _ -> ())

(* ------------------------------------------------------------------ *)
(* R4 — nondet-source                                                  *)
(* Wall-clock reads and unordered hash-table traversal: both are
   invisible nondeterminism that breaks checkpoint/golden exactness the
   moment their result reaches an output. [Hashtbl.fold]/[iter] escape
   the flag inside the arguments of a sort (a [|>]/[@@] pipeline into
   one types as exactly that application) — the one shape whose output
   order is independent of table internals. Anything else is flagged:
   wall-clock timing metrics are legitimate but must say so with a
   suppression. *)

let wall_clock =
  [ [ "sys"; "time" ]; [ "unix"; "gettimeofday" ]; [ "unix"; "time" ] ]

let rec sort_head e =
  match e.exp_desc with
  | Texp_ident (p, _, _) -> contains_sub (Path.last p) "sort"
  | Texp_apply (f, _) -> sort_head f
  | _ -> false

let nondet_source ctx ~report structure =
  let sorted = ref false in
  run_iterator
    (fun sub e ->
      (match head_segments ctx e with
      | Some segs when list_suffix ~of_:segs [ "random"; "self_init" ] ->
          report e.exp_loc
            "Random.self_init seeds from the environment; thread an explicit \
             seeded Rng.t instead"
      | Some segs when matches_any segs wall_clock ->
          report e.exp_loc
            "wall-clock read; results derived from it are not reproducible \
             (suppress when this is a timing metric that never reaches routed \
             output)"
      | Some segs
        when (not !sorted)
             && matches_any segs [ [ "hashtbl"; "fold" ]; [ "hashtbl"; "iter" ] ]
        ->
          report e.exp_loc
            (Printf.sprintf
               "%s traverses in hash order; sort the result before it \
                reaches an output, or suppress with the reason the order \
                cannot matter"
               (spelled e))
      | _ -> ());
      match e.exp_desc with
      | Texp_apply (f, _) when (not !sorted) && sort_head f ->
          sorted := true;
          Tast_iterator.default_iterator.expr sub e;
          sorted := false
      | _ -> Tast_iterator.default_iterator.expr sub e)
    structure

(* ------------------------------------------------------------------ *)
(* Loop context, shared by R5 and R8                                   *)
(* An expression runs once per element inside a [while] (condition and
   body), a [for] body, or a literal closure passed to a head that
   [iterates]. [visit ~looped e] sees every expression before its
   children. *)

let walk_loops ~iterates ~visit structure =
  let depth = ref 0 in
  let looped sub e =
    incr depth;
    sub.Tast_iterator.expr sub e;
    decr depth
  in
  run_iterator
    (fun sub e ->
      visit ~looped:(!depth > 0) e;
      match e.exp_desc with
      | Texp_while (cond, body) ->
          looped sub cond;
          looped sub body
      | Texp_for (_, _, lo, hi, _, body) ->
          sub.Tast_iterator.expr sub lo;
          sub.Tast_iterator.expr sub hi;
          looped sub body
      | Texp_apply (f, args) when iterates f ->
          sub.Tast_iterator.expr sub f;
          List.iter
            (function
              | _, Some ({ exp_desc = Texp_function _; _ } as a) -> looped sub a
              | _, Some a -> sub.Tast_iterator.expr sub a
              | _, None -> ())
            args
      | _ -> Tast_iterator.default_iterator.expr sub e)
    structure

(* ------------------------------------------------------------------ *)
(* R5 — obs-discipline                                                 *)
(* Protects the Qls_obs allocation-free-when-disabled contract
   (DESIGN.md §10): [Qls_obs.stop ~attrs:[...]] with an eager literal
   attribute list must sit in a branch guarded by the once-per-pass
   [traced]/[enabled] read, and [Qls_obs.enabled]/[Qls_obs.counter]
   must not be re-read inside a loop or per-element closure of the
   List/Array/Seq/Queue/Hashtbl iterators. *)

let obs_iterates ctx f =
  match Option.map List.rev (head_segments ctx f) with
  | Some (fn :: m :: _) ->
      List.mem m [ "list"; "array"; "seq"; "queue"; "hashtbl" ]
      && List.mem fn
           [
             "iter"; "iteri"; "map"; "mapi"; "fold_left"; "fold_right"; "fold";
             "filter"; "filter_map"; "concat_map"; "for_all"; "exists";
           ]
  | _ -> false

(* A literal list, also once the typechecker has wrapped it in [Some]
   for an optional [?attrs]. *)
let rec eager_list e =
  match e.exp_desc with
  | Texp_construct (_, { Types.cstr_name = "::"; _ }, _) -> true
  | Texp_construct (_, { Types.cstr_name = "Some"; _ }, [ l ]) -> eager_list l
  | _ -> false

let literal_attrs args =
  List.exists
    (function
      | Asttypes.(Labelled "attrs" | Optional "attrs"), Some a -> eager_list a
      | _ -> false)
    args

let mentions_trace cond =
  let found = ref false in
  let expr sub e =
    (match e.exp_desc with
    | Texp_ident (p, _, _) ->
        let name = Path.last p in
        if contains_sub name "enabled" || contains_sub name "trace" then
          found := true
    | _ -> ());
    Tast_iterator.default_iterator.expr sub e
  in
  let it = { Tast_iterator.default_iterator with expr } in
  it.Tast_iterator.expr it cond;
  !found

let obs_discipline ctx ~report structure =
  walk_loops ~iterates:(obs_iterates ctx) structure ~visit:(fun ~looped e ->
      match e.exp_desc with
      | Texp_apply (f, _) when looped -> (
          match head_segments ctx f with
          | Some segs when list_suffix ~of_:segs [ "qls_obs"; "enabled" ] ->
              report e.exp_loc
                "Qls_obs.enabled read inside a loop; read it once per pass \
                 into a local and branch on that"
          | Some segs when list_suffix ~of_:segs [ "qls_obs"; "counter" ] ->
              report e.exp_loc
                "Qls_obs.counter looked up inside a loop; hoist it to a \
                 module-level lazy"
          | _ -> ())
      | _ -> ());
  let guarded = ref false in
  run_iterator
    (fun sub e ->
      match e.exp_desc with
      | Texp_ifthenelse (cond, then_, else_) when mentions_trace cond ->
          sub.Tast_iterator.expr sub cond;
          let saved = !guarded in
          guarded := true;
          sub.Tast_iterator.expr sub then_;
          guarded := saved;
          Option.iter (sub.Tast_iterator.expr sub) else_
      | Texp_apply (f, args) ->
          if
            (not !guarded)
            && head_matches ctx f [ [ "qls_obs"; "stop" ] ]
            && literal_attrs args
          then
            report e.exp_loc
              "Qls_obs.stop with an eager ~attrs list outside an \
               if-enabled/traced guard; the list allocates even with \
               tracing disabled";
          Tast_iterator.default_iterator.expr sub e
      | _ -> Tast_iterator.default_iterator.expr sub e)
    structure

(* ------------------------------------------------------------------ *)
(* R6 — unbounded-wait                                                 *)
(* Scoped to the serving path (lib/serve, lib/harness): a raw sleep or
   an unbounded [Thread.join] there is a liveness hazard — the daemon's
   drain, watchdog, and reader threads must all make progress under a
   deadline, so every blocking wait needs either a bound (select with a
   timeout, a condition re-checked against a deadline) or a one-line
   [unbounded-wait] suppression saying why it terminates.
   The watchdog exists precisely because a single quiet join can pin
   the whole process. Elsewhere in the tree sleeps are fine (fault
   injection's [Delay] is one on purpose), so the rule keys off the
   file path. *)

let unbounded_wait ctx ~report structure =
  if in_scope ctx [ "lib/serve"; "lib/harness" ] then
    iter_exprs structure (fun e ->
        match head_segments ctx e with
        | Some segs
          when matches_any segs
                 [
                   [ "unix"; "sleep" ]; [ "unix"; "sleepf" ]; [ "thread"; "delay" ];
                 ] ->
            report e.exp_loc
              (Printf.sprintf
                 "%s in the serving path blocks a thread with no way to \
                  cancel it; wait on a select/condition with a timeout, or \
                  justify the bound with a suppression"
                 (spelled e))
        | Some segs when list_suffix ~of_:segs [ "thread"; "join" ] ->
            report e.exp_loc
              "Thread.join in the serving path is unbounded if the thread \
               never exits; prove the thread's termination is bounded and \
               justify it with a suppression, or wait under a deadline"
        | _ -> ())

(* ------------------------------------------------------------------ *)
(* R7 — seeded-randomness                                              *)
(* Scoped to the solver stack (lib/sat, lib/router): the search pins,
   the routed goldens and the committed bench baselines replay a solve
   or a route bit-for-bit, which only works if every source of variation
   is a pure function of an explicit seed ([Rng.create]). Ambient
   [Random] state — seeded once per process, advanced by whoever calls
   it first — breaks that contract silently, so in these directories any
   [Stdlib.Random] value is an error. Elsewhere (e.g. a bench warmup)
   ambient randomness is merely suspicious, not forbidden. *)

let seeded_randomness ctx ~report structure =
  if in_scope ctx [ "lib/sat"; "lib/router" ] then
    iter_exprs structure (fun e ->
        match head_segments ctx e with
        | Some ("stdlib" :: "random" :: _ :: _) ->
            report e.exp_loc
              "the solver and router layers must derive all variation from \
               an explicit seed (Rng.create); ambient Random state breaks \
               bit-for-bit replay of a solve or a route"
        | _ -> ())

(* ------------------------------------------------------------------ *)
(* R8 — distance-in-loop                                               *)
(* Scoped to the router layer (lib/router): [Device.distance] resolved
   per candidate inside an iteration closure, a sort comparator, or a
   while/for body repeats the APSP row lookup on every probe — the
   pattern the hot-path rewrite removed from the scoring loops. Hoist
   [Device.distance_row] (or [Device.distance_matrix]) out of the loop
   and index the returned row directly; the accessors alias the
   device's preallocated table, so the hoist is free. A genuinely
   once-per-round lookup can carry a suppression saying so. *)

(* Broader than R5's iterators: a sort comparator runs O(n log n) times
   and module-local folds (Graph.fold_edges) iterate too, so any head
   whose final name starts with an iteration-shaped prefix counts. *)
let r8_iterates f =
  match f.exp_desc with
  | Texp_ident (p, _, _) ->
      let name = Path.last p in
      List.exists
        (fun prefix -> String.starts_with ~prefix name)
        [
          "iter"; "map"; "fold"; "filter"; "exists"; "for_all"; "find";
          "concat_map"; "sort"; "partition";
        ]
  | _ -> false

let distance_in_loop ctx ~report structure =
  if in_scope ctx [ "lib/router" ] then
    walk_loops ~iterates:r8_iterates structure ~visit:(fun ~looped e ->
        match e.exp_desc with
        | Texp_apply (f, _)
          when looped && head_matches ctx f [ [ "device"; "distance" ] ] ->
            report e.exp_loc
              "Device.distance inside a per-candidate loop repeats the APSP \
               row lookup on every probe; hoist Device.distance_row (or \
               Device.distance_matrix) above the loop and index the row, or \
               suppress with the reason the lookup is once-per-round"
        | _ -> ())

(* The label's [lbl_res] is the record type it projects from; its head
   constructor path names the declaring type. Local types print as just
   "t", so the current file supplies the module stem in that case. *)
let label_key ctx (lbl : Types.label_description) =
  let stem = Guards.module_stem ctx.file in
  match Types.get_desc lbl.Types.lbl_res with
  | Types.Tconstr (p, _, _) -> (
      match List.rev (path_segments (expand ctx.aliases p)) with
      | tname :: m :: _ -> (m, tname, lbl.Types.lbl_name)
      | [ tname ] -> (stem, tname, lbl.Types.lbl_name)
      | [] -> (stem, "", lbl.Types.lbl_name))
  | _ -> (stem, "", lbl.Types.lbl_name)

let guard_name_of_mutex e =
  match e.exp_desc with
  | Texp_field (_, _, lbl) -> lbl.Types.lbl_name
  | Texp_ident (p, _, _) -> Path.last p
  | _ -> "*"

let is_protect_head ctx e = head_matches ctx e [ [ "mutex"; "protect" ] ]
let is_lock_head ctx e = head_matches ctx e [ [ "mutex"; "lock" ] ]
let is_condwait_head ctx e = head_matches ctx e [ [ "condition"; "wait" ] ]

(* Guard names this expression locks somewhere inside: [Mutex.lock m]
   and [Condition.wait c m] (which re-acquires [m] before returning). *)
let locked_names ctx e =
  let acc = ref StringSet.empty in
  let expr sub x =
    (match x.exp_desc with
    | Texp_apply (fn, args) when is_lock_head ctx fn -> (
        match positional_args args with
        | m :: _ -> acc := StringSet.add (guard_name_of_mutex m) !acc
        | [] -> ())
    | Texp_apply (fn, args) when is_condwait_head ctx fn -> (
        match positional_args args with
        | [ _; m ] -> acc := StringSet.add (guard_name_of_mutex m) !acc
        | _ -> ())
    | _ -> ());
    Tast_iterator.default_iterator.expr sub x
  in
  let it = { Tast_iterator.default_iterator with expr } in
  it.Tast_iterator.expr it e;
  !acc

(* ------------------------------------------------------------------ *)
(* R9 — guarded-by                                                     *)
(* Envelope: a guarded field access is "held" when it sits inside the
   thunk of [Mutex.protect m' _] or inside a function that locks [m']
   somewhere ([Mutex.lock]/[Condition.wait] — function granularity, so
   lock...unlock windows are not tracked precisely), where [m'] has the
   same guard *name* as the annotation. Lock identity is by name, not
   by object: locking cache A and touching cache B's fields is out of
   scope. Record literals (construction) are not accesses. *)

let guarded_by ctx ~report structure =
  let held = ref StringSet.empty in
  let is_held g = StringSet.mem g !held || StringSet.mem "*" !held in
  let check loc (lbl : Types.label_description) =
    match Guards.lookup ctx.guards (label_key ctx lbl) with
    | None -> ()
    | Some guard ->
        if not (is_held guard) then
          report loc
            (Printf.sprintf
               "field '%s' is marked 'guarded_by: %s' but is accessed with \
                no enclosing Mutex.protect/lock of '%s'"
               lbl.Types.lbl_name guard guard)
  in
  let with_held extra f =
    let saved = !held in
    held := StringSet.union saved extra;
    f ();
    held := saved
  in
  let expr sub e =
    match e.exp_desc with
    | Texp_field (_, _, lbl) ->
        check e.exp_loc lbl;
        Tast_iterator.default_iterator.expr sub e
    | Texp_setfield (_, _, lbl, _) ->
        check e.exp_loc lbl;
        Tast_iterator.default_iterator.expr sub e
    | Texp_apply (fn, args) when is_protect_head ctx fn -> (
        match positional_args args with
        | [ m; thunk ] ->
            sub.Tast_iterator.expr sub m;
            with_held
              (StringSet.singleton (guard_name_of_mutex m))
              (fun () -> sub.Tast_iterator.expr sub thunk)
        | _ -> Tast_iterator.default_iterator.expr sub e)
    | Texp_function _ ->
        with_held (locked_names ctx e) (fun () ->
            Tast_iterator.default_iterator.expr sub e)
    | _ -> Tast_iterator.default_iterator.expr sub e
  in
  run_iterator expr structure

(* ------------------------------------------------------------------ *)
(* R10 — domain-escape                                                 *)
(* A closure handed to another domain or thread must not capture a
   value whose type contains a known non-Atomic mutable cell, nor
   assign a field of a captured record. Envelope: literal [fun]-closures
   in argument position of Pool.submit/Pool.run/Domain.spawn/
   Thread.create; mutable cells are ref/Hashtbl/Buffer/Queue/Stack/bytes
   at any depth of the captured value's type. Arrays are exempt
   (disjoint-index writes are the pool's result-collection idiom), and
   so is reading a captured record's mutable fields — their lock
   discipline is R9's. *)

let spawn_suffixes =
  [
    [ "pool"; "submit" ]; [ "pool"; "run" ];
    [ "domain"; "spawn" ]; [ "thread"; "create" ];
  ]

let mutable_cell_name segs =
  if list_suffix ~of_:segs [ "ref" ] then Some "ref"
  else if list_suffix ~of_:segs [ "hashtbl"; "t" ] then Some "Hashtbl.t"
  else if list_suffix ~of_:segs [ "buffer"; "t" ] then Some "Buffer.t"
  else if list_suffix ~of_:segs [ "queue"; "t" ] then Some "Queue.t"
  else if list_suffix ~of_:segs [ "stack"; "t" ] then Some "Stack.t"
  else if list_suffix ~of_:segs [ "bytes" ] then Some "bytes"
  else None

let shared_safe segs =
  List.exists
    (fun s -> List.mem s [ "atomic"; "mutex"; "condition"; "semaphore" ])
    segs

let rec find_mutable_cell seen ty =
  let id = Types.get_id ty in
  if List.mem id !seen then None
  else begin
    seen := id :: !seen;
    match Types.get_desc ty with
    | Types.Tconstr (p, args, _) ->
        let segs = path_segments p in
        if shared_safe segs then None
        else (
          match mutable_cell_name segs with
          | Some _ as cell -> cell
          | None -> List.find_map (find_mutable_cell seen) args)
    | Types.Ttuple ts -> List.find_map (find_mutable_cell seen) ts
    | Types.Tpoly (t, _) -> find_mutable_cell seen t
    | _ -> None
  end

(* Free value identifiers of a closure, and the free record idents it
   assigns a field of. Typed idents are globally unique (stamped), so
   "used somewhere minus bound somewhere" is exact — no scope
   bookkeeping needed. *)
let closure_captures closure =
  let bound = ref [] in
  let uses = ref [] in
  let writes = ref [] in
  let pat (type k) sub (p : k general_pattern) =
    bound := pat_bound_idents p @ !bound;
    Tast_iterator.default_iterator.pat sub p
  in
  let expr sub e =
    (match e.exp_desc with
    | Texp_ident (Path.Pident id, _, _) -> uses := (id, e) :: !uses
    | Texp_setfield ({ exp_desc = Texp_ident (Path.Pident id, _, _); _ }, _, _, _)
      ->
        writes := (id, e) :: !writes
    | Texp_for (id, _, _, _, _, _) -> bound := id :: !bound
    | _ -> ());
    Tast_iterator.default_iterator.expr sub e
  in
  let it = { Tast_iterator.default_iterator with expr; pat } in
  it.Tast_iterator.expr it closure;
  let free (id, _) = not (List.exists (Ident.same id) !bound) in
  (List.filter free (List.rev !uses), List.filter free (List.rev !writes))

let domain_escape ctx ~report structure =
  let report_closure closure =
    let uses, writes = closure_captures closure in
    let seen_ids = ref [] in
    List.iter
      (fun (id, (occ : expression)) ->
        if not (List.exists (Ident.same id) !seen_ids) then begin
          seen_ids := id :: !seen_ids;
          match find_mutable_cell (ref []) occ.exp_type with
          | Some cell ->
              report occ.exp_loc
                (Printf.sprintf
                   "'%s' (type contains %s, a non-Atomic mutable cell) is \
                    captured by a closure that crosses a domain boundary; \
                    share it via Atomic/mutex-guarded state or suppress it \
                    as a documented scratch"
                   (Ident.name id) cell)
          | None -> (
              match List.find_opt (fun (w, _) -> Ident.same w id) writes with
              | Some (_, (write : expression)) ->
                  report write.exp_loc
                    (Printf.sprintf
                       "field assignment on '%s', which is captured by a \
                        closure that crosses a domain boundary; use Atomic, \
                        a mutex, or domain-confined state"
                       (Ident.name id))
              | None -> ())
        end)
      uses
  in
  iter_exprs structure (fun e ->
      match e.exp_desc with
      | Texp_apply (fn, args) when head_matches ctx fn spawn_suffixes ->
          List.iter
            (function
              | _, Some ({ exp_desc = Texp_function _; _ } as a) ->
                  report_closure a
              | _ -> ())
            args
      | _ -> ())

(* ------------------------------------------------------------------ *)
(* R11 — blocking-under-mutex                                          *)
(* Envelope: lexically inside the thunk of [Mutex.protect] (plain
   lock/unlock windows have no syntactic extent, so they are R9's
   function-granularity problem, not R11's). A closure *defined* under
   protect but run later is still flagged — suppress if that is the
   design. [Condition.wait c m] is fine on the protected mutex itself
   and an error on any other. *)

let blocking_suffixes =
  [
    [ "unix"; "select" ]; [ "unix"; "sleep" ]; [ "unix"; "sleepf" ];
    [ "unix"; "read" ]; [ "unix"; "write" ]; [ "unix"; "recv" ];
    [ "unix"; "send" ]; [ "unix"; "accept" ]; [ "unix"; "connect" ];
    [ "thread"; "delay" ]; [ "thread"; "join" ];
    [ "pool"; "drain" ]; [ "pool"; "run" ];
  ]

let blocking_under_mutex ctx ~report structure =
  let held : string list ref = ref [] in
  let expr sub e =
    match e.exp_desc with
    | Texp_apply (fn, args)
      when is_protect_head ctx fn
           && List.length (positional_args args) = 2 -> (
        match positional_args args with
        | [ m; thunk ] ->
            sub.Tast_iterator.expr sub m;
            let saved = !held in
            held := guard_name_of_mutex m :: saved;
            sub.Tast_iterator.expr sub thunk;
            held := saved
        | _ -> assert false)
    | Texp_apply (fn, args) when not (List.is_empty !held) ->
        (match head_segments ctx fn with
        | Some segs ->
            if matches_any segs blocking_suffixes then
              report e.exp_loc
                (Printf.sprintf
                   "blocking call '%s' inside a Mutex.protect body (mutex \
                    '%s' held) can stall every thread contending for the lock"
                   (spelled fn) (List.hd !held))
            else if list_suffix ~of_:segs [ "condition"; "wait" ] then (
              match positional_args args with
              | [ _; m ] ->
                  let g = guard_name_of_mutex m in
                  if g <> "*" && (not (List.mem g !held)) && not (List.mem "*" !held)
                  then
                    report e.exp_loc
                      (Printf.sprintf
                         "Condition.wait on mutex '%s' inside Mutex.protect \
                          of '%s' — waiting releases the wrong lock"
                         g (List.hd !held))
              | _ -> ())
        | None -> ());
        Tast_iterator.default_iterator.expr sub e
    | _ -> Tast_iterator.default_iterator.expr sub e
  in
  run_iterator expr structure

(* ------------------------------------------------------------------ *)
(* R12 — cancel-poll-coverage                                          *)
(* Scope: lib/router, lib/sat and lib/core, the work serve's request
   deadlines and a campaign's per-task timeout stop. A [while] loop and
   a recursive function, at structure level or nested in another, must
   contain a reachable [Qls_cancel.poll]: directly, or through a call to
   a file-local function that transitively polls. [for] loops are exempt
   (bounded by construction), so one over a caller-sized count polls by
   hand (as the generator's section and filler loops do). *)

let poll_suffixes = [ [ "qls_cancel"; "poll" ] ]

let polls_directly ctx e =
  let found = ref false in
  let expr sub x =
    (match x.exp_desc with
    | Texp_apply (fn, _) when head_matches ctx fn poll_suffixes -> found := true
    | Texp_ident _ when head_matches ctx x poll_suffixes -> found := true
    | _ -> ());
    if not !found then Tast_iterator.default_iterator.expr sub x
  in
  let it = { Tast_iterator.default_iterator with expr } in
  it.Tast_iterator.expr it e;
  !found

let callee_names e =
  let acc = ref StringSet.empty in
  let expr sub x =
    (match x.exp_desc with
    | Texp_apply ({ exp_desc = Texp_ident (Path.Pident id, _, _); _ }, _) ->
        acc := StringSet.add (Ident.unique_name id) !acc
    | _ -> ());
    Tast_iterator.default_iterator.expr sub x
  in
  let it = { Tast_iterator.default_iterator with expr } in
  it.Tast_iterator.expr it e;
  !acc

let cancel_poll_coverage ctx ~report structure =
  if in_scope ctx [ "lib/router"; "lib/sat"; "lib/core" ] then begin
    (* Pass 1: which file-local functions (transitively) poll? *)
    let table : (string, bool ref * StringSet.t ref) Hashtbl.t =
      Hashtbl.create 32
    in
    let record_binding vb =
      match vb.vb_pat.pat_desc with
      | Tpat_var (id, _) ->
          let name = Ident.unique_name id in
          let direct = polls_directly ctx vb.vb_expr in
          let callees = callee_names vb.vb_expr in
          let d, c =
            match Hashtbl.find_opt table name with
            | Some (d, c) -> (d, c)
            | None ->
                let cell = (ref false, ref StringSet.empty) in
                Hashtbl.add table name cell;
                cell
          in
          d := !d || direct;
          c := StringSet.union !c callees
      | _ -> ()
    in
    let vb_it =
      {
        Tast_iterator.default_iterator with
        value_binding =
          (fun sub vb ->
            record_binding vb;
            Tast_iterator.default_iterator.value_binding sub vb);
      }
    in
    vb_it.Tast_iterator.structure vb_it structure;
    let polling = ref StringSet.empty in
    let changed = ref true in
    while !changed do
      changed := false;
      (* lint: nondet-source — fixpoint: the converged set is traversal-order independent *)
      Hashtbl.iter
        (fun name (d, c) ->
          if
            (not (StringSet.mem name !polling))
            && (!d || StringSet.exists (fun n -> StringSet.mem n !polling) !c)
          then begin
            polling := StringSet.add name !polling;
            changed := true
          end)
        table
    done;
    let reachable e =
      polls_directly ctx e
      || StringSet.exists (fun n -> StringSet.mem n !polling) (callee_names e)
    in
    (* Pass 2: while loops. *)
    iter_exprs structure (fun e ->
        match e.exp_desc with
        | Texp_while (cond, body) ->
            if not (reachable cond || reachable body) then
              report e.exp_loc
                "while loop on a deadline-bounded path has no reachable \
                 Qls_cancel.poll — deadlines cannot fire here; poll or add a \
                 one-line justification"
        | _ -> ());
    (* Pass 3: recursive functions, structure-level and nested alike. *)
    let check_group vbs =
      let group_ids =
        List.filter_map
          (fun vb ->
            match vb.vb_pat.pat_desc with
            | Tpat_var (id, _) -> Some id
            | _ -> None)
          vbs
      in
      List.iter
        (fun vb ->
          match (vb.vb_pat.pat_desc, vb.vb_expr.exp_desc) with
          | Tpat_var (id, _), Texp_function _ ->
              let recurses =
                let found = ref false in
                let expr sub x =
                  (match x.exp_desc with
                  | Texp_ident (Path.Pident i, _, _)
                    when List.exists (Ident.same i) group_ids ->
                      found := true
                  | _ -> ());
                  if not !found then Tast_iterator.default_iterator.expr sub x
                in
                let it = { Tast_iterator.default_iterator with expr } in
                it.Tast_iterator.expr it vb.vb_expr;
                !found
              in
              if recurses && not (reachable vb.vb_expr) then
                report vb.vb_loc
                  (Printf.sprintf
                     "recursive function '%s' on a deadline-bounded path \
                      has no reachable Qls_cancel.poll — poll or add a \
                      one-line justification"
                     (Ident.name id))
          | _ -> ())
        vbs
    in
    List.iter
      (fun item ->
        match item.str_desc with
        | Tstr_value (Asttypes.Recursive, vbs) -> check_group vbs
        | _ -> ())
      structure.str_items;
    iter_exprs structure (fun e ->
        match e.exp_desc with
        | Texp_let (Asttypes.Recursive, vbs, _) -> check_group vbs
        | _ -> ())
  end

(* ------------------------------------------------------------------ *)
(* R13 — unused-export                                                 *)
(* A [val] of a lib/ interface, in a nested module signature too, that
   no implementation in the build names: no [Texp_ident] of any cmt
   under the build root resolves to its declaration. Uses inside the
   module resolve to the [.ml]'s own binding, so they do not count;
   uses from test/ do (DESIGN.md §11). Vals of module types are
   contracts, not exports, and are skipped. *)

let unused_export ctx ~report signature =
  if in_scope ctx [ "lib/" ] then begin
    let rec items (sg : signature) =
      List.iter
        (fun item ->
          match item.sig_desc with
          | Tsig_value vd ->
              if not (Cmt_index.referenced ctx.index vd.val_val.Types.val_loc)
              then
                report vd.val_loc
                  (Printf.sprintf
                     "'%s' is exported but nothing outside its module uses \
                      it; delete it, or drop it from the interface"
                     vd.val_name.Location.txt)
          | Tsig_module { md_type = { mty_desc = Tmty_signature sg; _ }; _ } ->
              items sg
          | _ -> ())
        sg.sig_items
    in
    items signature
  end

(* ------------------------------------------------------------------ *)

let all =
  [
    {
      name = "poly-compare";
      summary =
        "bare polymorphic compare, or =/<> against a structural value";
      severity = Finding.Error;
      check = Structure poly_compare;
    };
    {
      name = "float-discipline";
      summary = "float equality / polymorphic min-max-compare on floats";
      severity = Finding.Error;
      check = Structure float_discipline;
    };
    {
      name = "nondet-source";
      summary =
        "wall-clock reads and unsorted hash-order traversal reaching results";
      severity = Finding.Error;
      check = Structure nondet_source;
    };
    {
      name = "obs-discipline";
      summary =
        "Qls_obs usage that breaks the allocation-free-when-disabled \
         contract";
      severity = Finding.Warning;
      check = Structure obs_discipline;
    };
    {
      name = "unbounded-wait";
      summary =
        "raw sleeps and unbounded joins in the serving path (lib/serve, \
         lib/harness)";
      severity = Finding.Error;
      check = Structure unbounded_wait;
    };
    {
      name = "seeded-randomness";
      summary =
        "ambient Random use in the solver stack (lib/sat, lib/router), \
         where all variation must derive from an explicit seed";
      severity = Finding.Error;
      check = Structure seeded_randomness;
    };
    {
      name = "distance-in-loop";
      summary =
        "Device.distance resolved per candidate in a router loop instead \
         of a hoisted distance_row/distance_matrix";
      severity = Finding.Error;
      check = Structure distance_in_loop;
    };
    {
      name = "guarded-by";
      summary =
        "fields annotated '(* guarded_by: m *)' accessed outside a scope \
         that holds m";
      severity = Finding.Error;
      check = Structure guarded_by;
    };
    {
      name = "domain-escape";
      summary =
        "non-Atomic mutable state captured, or a captured record's field \
         assigned, by a closure crossing a Pool/Domain/Thread boundary";
      severity = Finding.Error;
      check = Structure domain_escape;
    };
    {
      name = "blocking-under-mutex";
      summary =
        "Unix/Thread/Pool blocking calls (or Condition.wait on another \
         mutex) inside a Mutex.protect body";
      severity = Finding.Error;
      check = Structure blocking_under_mutex;
    };
    {
      name = "cancel-poll-coverage";
      summary =
        "loops on deadline-bounded paths with no reachable Qls_cancel \
         poll (lib/router, lib/sat, lib/core)";
      severity = Finding.Error;
      check = Structure cancel_poll_coverage;
    };
    {
      name = "unused-export";
      summary =
        "a val in a lib/ interface that no module but its own uses (test/ \
         counts)";
      severity = Finding.Error;
      check = Signature unused_export;
    };
  ]

let by_name name = List.find_opt (fun r -> String.equal r.name name) all
