(* Locate and load the build's [.cmt] files so the engine can map a
   source path ("lib/serve/cache.ml") to its Typedtree. Dune drops cmts
   under [<dir>/.<lib>.objs/byte/] (libraries) and
   [<dir>/.<name>.eobjs/byte/] (executables), with the module wrapped as
   [Qls_serve__Cache] or [Dune__exe__Main]; the index walks the build
   root once, buckets every cmt by its unwrapped module stem, and
   confirms a candidate by the [cmt_sourcefile] recorded inside it.
   Loads are cached and mutex-guarded so the engine's parallel walk can
   share one index. *)

type load = Loaded of Typedtree.structure | Unavailable

type t = {
  mutex : Mutex.t;
  by_stem : (string, string list) Hashtbl.t; (* module stem -> cmt paths *)
  loaded : (string, (string * Typedtree.structure) option) Hashtbl.t;
      (* cmt path -> (recorded source file, structure) *)
  resolved : (string, load) Hashtbl.t; (* source path -> result *)
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
            else if Filename.check_suffix name ".cmt" then p :: acc
            else acc)
        acc entries

let create ~build_root =
  let by_stem = Hashtbl.create 128 in
  List.iter
    (fun cmt ->
      let stem = stem_of_cmt (Filename.basename cmt) in
      let prev = Option.value ~default:[] (Hashtbl.find_opt by_stem stem) in
      Hashtbl.replace by_stem stem (List.sort String.compare (cmt :: prev)))
    (walk [] build_root);
  {
    mutex = Mutex.create ();
    by_stem;
    loaded = Hashtbl.create 64;
    resolved = Hashtbl.create 64;
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
            Some (src, str)
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
                  | Some (recorded, str) when path_matches recorded source ->
                      Some str
                  | _ -> None)
                candidates
            with
            | Some str -> Loaded str
            | None -> Unavailable
          in
          Hashtbl.replace t.resolved source r;
          r)
