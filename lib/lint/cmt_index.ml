(* Locate and load the build's [.cmt]/[.cmti] files so the engine can
   map a source path ("lib/serve/cache.ml", "lib/serve/cache.mli") to
   its Typedtree. Dune drops them under [<dir>/.<lib>.objs/byte/]
   (libraries) and [<dir>/.<name>.eobjs/byte/] (executables), with the
   module wrapped as [Qls_serve__Cache] or [Dune__exe__Main]; the index
   walks the build root once, buckets every file by its unwrapped module
   stem, and confirms a candidate by the [cmt_sourcefile] recorded
   inside it. Loads are cached and mutex-guarded so the engine's
   parallel walk can share one index. *)

type tree = Impl of Typedtree.structure | Intf of Typedtree.signature
type load = Loaded of tree | Unavailable

type t = {
  mutex : Mutex.t;
  cmts : string list; (* every implementation cmt, sorted *)
  by_stem : (string, string list) Hashtbl.t; (* module stem -> cmt(i) paths *)
  loaded : (string, (string * tree) option) Hashtbl.t;
      (* cmt path -> (recorded source file, tree) *)
  resolved : (string, load) Hashtbl.t; (* source path -> result *)
  mutable referenced : (string, unit) Hashtbl.t option; (* guarded_by: mutex *)
}

let stem_of_cmt name =
  let base = String.lowercase_ascii (Filename.remove_extension name) in
  (* "qls_serve__cache" -> "cache"; "dune__exe__main" -> "main" *)
  let n = String.length base in
  let rec last_sep i best =
    if i + 1 >= n then best
    else if base.[i] = '_' && base.[i + 1] = '_' then last_sep (i + 1) (i + 2)
    else last_sep (i + 1) best
  in
  let start =
    let s = last_sep 0 0 in
    let rec skip i = if i < n && base.[i] = '_' then skip (i + 1) else i in
    skip s
  in
  String.sub base start (n - start)

let rec walk acc dir =
  match Sys.readdir dir with
  | exception Sys_error _ -> acc
  | entries ->
      Array.fold_left
        (fun acc name ->
          if String.equal name ".git" then acc
          else
            let p = Filename.concat dir name in
            if Sys.is_directory p then walk acc p
            else if
              Filename.check_suffix name ".cmt"
              || Filename.check_suffix name ".cmti"
            then p :: acc
            else acc)
        acc entries

let create ~build_root =
  let by_stem = Hashtbl.create 128 in
  let files = List.sort String.compare (walk [] build_root) in
  List.iter
    (fun cmt ->
      let stem = stem_of_cmt (Filename.basename cmt) in
      let prev = Option.value ~default:[] (Hashtbl.find_opt by_stem stem) in
      Hashtbl.replace by_stem stem (List.sort String.compare (cmt :: prev)))
    files;
  {
    mutex = Mutex.create ();
    cmts = List.filter (fun f -> Filename.check_suffix f ".cmt") files;
    by_stem;
    loaded = Hashtbl.create 64;
    resolved = Hashtbl.create 64;
    referenced = None;
  }

(* Must be called with [t.mutex] held: [read_cmt] unmarshals compiler
   state and the caches are shared across domains. *)
let load_cmt t path =
  match Hashtbl.find_opt t.loaded path with
  | Some r -> r
  | None ->
      let r =
        match Cmt_format.read_cmt path with
        | { cmt_sourcefile = Some src; cmt_annots = Implementation str; _ } ->
            Some (src, Impl str)
        | { cmt_sourcefile = Some src; cmt_annots = Interface sg; _ } ->
            Some (src, Intf sg)
        | _ -> None
        | exception _ -> None
      in
      Hashtbl.replace t.loaded path r;
      r

(* "a/b/c.ml" matches "b/c.ml" if one is the other's suffix at a '/'
   boundary: cmt_sourcefile is relative to the build-context root, which
   may sit above the engine's root (tests run from a subdirectory). *)
let path_matches recorded source =
  let suffix_at_boundary long short =
    let ll = String.length long and ls = String.length short in
    ll >= ls
    && String.sub long (ll - ls) ls = short
    && (ll = ls || long.[ll - ls - 1] = '/')
  in
  String.equal recorded source
  || suffix_at_boundary recorded source
  || suffix_at_boundary source recorded

let find t ~source =
  Mutex.protect t.mutex (fun () ->
      match Hashtbl.find_opt t.resolved source with
      | Some r -> r
      | None ->
          let stem =
            String.lowercase_ascii
              (Filename.remove_extension (Filename.basename source))
          in
          let candidates =
            Option.value ~default:[] (Hashtbl.find_opt t.by_stem stem)
          in
          let r =
            match
              List.find_map
                (fun cmt ->
                  match load_cmt t cmt with
                  | Some (recorded, tree) when path_matches recorded source ->
                      Some tree
                  | _ -> None)
                candidates
            with
            | Some tree -> Loaded tree
            | None -> Unavailable
          in
          Hashtbl.replace t.resolved source r;
          r)

let decl_key (loc : Location.t) =
  let p = loc.Location.loc_start in
  Printf.sprintf "%s:%d:%d" p.Lexing.pos_fname p.Lexing.pos_lnum
    (p.Lexing.pos_cnum - p.Lexing.pos_bol)

(* Is the value declared at [loc] named by a [Texp_ident] in some
   implementation cmt of the build? The set of named declarations is
   collected on the first call, from every cmt the walk found, and kept
   for the rest of the run; the structures are read, not cached. *)
let referenced t (loc : Location.t) =
  Mutex.protect t.mutex (fun () ->
      let set =
        match t.referenced with
        | Some set -> set
        | None ->
            let set = Hashtbl.create 8192 in
            let expr sub (e : Typedtree.expression) =
              (match e.exp_desc with
              | Texp_ident (_, _, vd) ->
                  Hashtbl.replace set (decl_key vd.Types.val_loc) ()
              | _ -> ());
              Tast_iterator.default_iterator.expr sub e
            in
            let it = { Tast_iterator.default_iterator with expr } in
            List.iter
              (fun cmt ->
                match Cmt_format.read_cmt cmt with
                | { cmt_annots = Implementation str; _ } ->
                    it.Tast_iterator.structure it str
                | _ -> ()
                | exception _ -> ())
              t.cmts;
            t.referenced <- Some set;
            set
      in
      Hashtbl.mem set (decl_key loc))
