type entry = { rules : string list; standalone : bool }

type t = (int * entry) list
(* line number -> suppression; files have few suppressions, so an assoc
   list keeps this module free of hash-order concerns. *)

let is_rule_char c =
  (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') || c = '-' || c = '_'

(* Extract the rule names out of "<rules> [— reason]" where <rules> is a
   comma/space separated list of rule tokens. Scanning stops at the
   first character that can start neither a token nor a separator (the
   dash of an em dash or "--" reason marker, or the comment closer). *)
let parse_rules s =
  let n = String.length s in
  let rec skip_sep i =
    if i < n && (s.[i] = ' ' || s.[i] = ',' || s.[i] = '\t') then
      skip_sep (i + 1)
    else i
  in
  let rec token_end i = if i < n && is_rule_char s.[i] then token_end (i + 1) else i in
  let rec go acc i =
    let i = skip_sep i in
    if i >= n || not (is_rule_char s.[i]) then List.rev acc
    else
      let j = token_end i in
      (* A lone '-' run (start of "--" or mid em-dash bytes) ends the
         rule list; real rule names contain a letter or digit. *)
      let tok = String.sub s i (j - i) in
      if String.exists (fun c -> c <> '-' && c <> '_') tok then
        go (tok :: acc) j
      else List.rev acc
  in
  go [] 0

let find_sub ~start hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i =
    if i + nn > nh then None
    else if String.sub hay i nn = needle then Some i
    else go (i + 1)
  in
  if nn = 0 then None else go start

let scan_line line =
  match find_sub ~start:0 line "(*" with
  | None -> None
  | Some copen -> (
      match find_sub ~start:copen line "lint:" with
      | None -> None
      | Some l -> (
          let tail = String.sub line (l + 5) (String.length line - l - 5) in
          match parse_rules tail with
          | [] -> None
          | rules ->
              let before = String.trim (String.sub line 0 copen) in
              Some { rules; standalone = before = "" }))

let scan src =
  let lines = String.split_on_char '\n' src in
  let _, acc =
    List.fold_left
      (fun (lineno, acc) line ->
        match scan_line line with
        | Some e -> (lineno + 1, (lineno, e) :: acc)
        | None -> (lineno + 1, acc))
      (1, []) lines
  in
  List.rev acc

let matches entry rule =
  List.exists (fun r -> r = "all" || String.equal r rule) entry.rules

(* Does the comment at [l] cover findings on [line]: its own line, or
   the next one when it stands alone? *)
let covers (l, e) ~line = l = line || (l = line - 1 && e.standalone)

let suppressed t ~line ~rule =
  List.exists (fun ((_, e) as c) -> covers c ~line && matches e rule) t

let unused t ~raw ~ran =
  List.concat_map
    (fun ((l, e) as c) ->
      List.filter_map
        (fun r ->
          let used =
            List.exists
              (fun (line, rule) ->
                covers c ~line && (String.equal r "all" || String.equal r rule))
              raw
          in
          if ran r && not used then Some (l, r) else None)
        e.rules)
    t

let count t = List.length t
